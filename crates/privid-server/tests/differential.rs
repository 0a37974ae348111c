//! The differential harness: the wire path against the in-process path.
//!
//! Two services are built with **identical** registrations — one behind the
//! TCP server, one called directly. For every operation the claim is exact:
//! * noised releases are **bit-for-bit** equal (floats by bit pattern),
//! * ε ledgers evolve identically (remaining budgets equal by bits),
//! * admission refusals — bad auth, missing role, over-quota, malformed
//!   frames — are typed, and debit **nothing** on either axis.

use privid_core::{NoisyValue, PrivacyPolicy, QueryService};
use privid_sandbox::{ChunkProcessor, UniqueEntrantProcessor};
use privid_server::{PrividClient, Server, ServerConfig, Token};
use privid_video::{SceneConfig, SceneGenerator};
use privid_wire::{code, SceneKind, WalkerClass, WalkerSpec};
use std::sync::Arc;

const SCENE_SECS: f64 = 1800.0;
const SCENE_SEED: u64 = 7;

const QUERY: &str = "
    SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people GROUP BY chunk BIN 60 CONSUMING 0.5;";

const LIVE_QUERY: &str = "
    SPLIT live BEGIN 0 END 120 BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 0.5;";

/// A service with the person-counter processor attached.
fn base_service() -> Arc<QueryService> {
    let service = Arc::new(QueryService::new());
    service
        .register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        })
        .expect("processor registration");
    service
}

/// The in-process twin of the wire-side `RegisterCamera { campus, … }`.
fn register_campus_direct(service: &QueryService) {
    let config = SceneConfig::campus().with_duration_hours(SCENE_SECS / 3600.0).with_seed(SCENE_SEED);
    let scene = SceneGenerator::new(config).generate();
    service
        .register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0))
        .expect("camera registration");
}

fn start_server(service: Arc<QueryService>) -> Server {
    let config = ServerConfig::new(vec![
        Token::owner("owner-secret", "ops"),
        Token::analyst("analyst-a-secret", "tenant-a"),
        Token::analyst("analyst-b-secret", "tenant-b"),
    ]);
    Server::start(service, config).expect("server start")
}

#[test]
fn wire_releases_are_bit_for_bit_identical_to_in_process_calls() {
    // Server side: the camera arrives over the wire from the owner plane.
    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    assert_eq!(owner.tenant(), "ops");
    owner
        .register_camera("campus", SceneKind::Campus, SCENE_SECS, SCENE_SEED, 60.0, 2, 20.0)
        .expect("wire camera registration");

    // Direct side: the same registration, in-process.
    let direct = base_service();
    register_campus_direct(&direct);

    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    for seed in [11, 12, 99] {
        let over_wire = analyst.submit_query(seed, QUERY).expect("wire query");
        let in_process = direct.execute_text(seed, QUERY).expect("direct query");
        assert_eq!(over_wire, in_process, "seed {seed}: wire and direct releases must be identical");
        // PartialEq on f64 already demands equal values; pin the stronger
        // bit-level claim explicitly for the noised numbers.
        for (w, d) in over_wire.releases.iter().zip(&in_process.releases) {
            if let (NoisyValue::Number(a), NoisyValue::Number(b)) = (&w.value, &d.value) {
                assert_eq!(a.to_bits(), b.to_bits(), "noised release must match bit-for-bit");
            }
        }
        assert_eq!(over_wire.epsilon_spent.to_bits(), in_process.epsilon_spent.to_bits());

        // The ledgers on both sides evolved identically. Budget reads are
        // owner-plane (an analyst reading them would learn what other
        // tenants spent), so the wire side asks as the owner.
        for at in [0.0, 59.0, 300.0, 599.0] {
            let wire_remaining = owner.remaining_budget("campus", at).expect("wire budget");
            let direct_remaining = direct.remaining_budget("campus", at);
            assert_eq!(
                wire_remaining.map(f64::to_bits),
                direct_remaining.map(f64::to_bits),
                "ledger at {at}s after seed {seed}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn tenant_quota_rejections_are_typed_and_debit_nothing() {
    let served = base_service();
    // tenant-a can afford one 0.5-ε query and no more; tenant-b is richer.
    served.set_tenant_quota("tenant-a", 0.75);
    served.set_tenant_quota("tenant-b", 5.0);
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner
        .register_camera("campus", SceneKind::Campus, SCENE_SECS, SCENE_SEED, 60.0, 2, 20.0)
        .expect("wire camera registration");

    let mut analyst_a = PrividClient::connect(&addr, "analyst-a-secret").expect("a connect");
    analyst_a.submit_query(1, QUERY).expect("first query fits the quota");
    assert_eq!(served.tenant_quota_remaining("tenant-a"), Some(0.25));
    let ledger_before = served.remaining_budget("campus", 30.0);

    // Second query: over quota. Typed refusal, nothing debited anywhere.
    let refused = analyst_a.submit_query(2, QUERY).expect_err("over-quota must refuse");
    assert_eq!(refused.remote_code(), Some(code::TENANT_QUOTA_EXHAUSTED));
    assert_eq!(served.tenant_quota_remaining("tenant-a"), Some(0.25), "quota untouched by the refusal");
    assert_eq!(
        served.remaining_budget("campus", 30.0).map(f64::to_bits),
        ledger_before.map(f64::to_bits),
        "camera ledger untouched by the refusal"
    );

    // Another tenant on the same front-end is unaffected.
    let mut analyst_b = PrividClient::connect(&addr, "analyst-b-secret").expect("b connect");
    analyst_b.submit_query(3, QUERY).expect("tenant-b has its own quota");
    assert_eq!(served.tenant_quota_remaining("tenant-b"), Some(4.5));
    server.shutdown();
}

#[test]
fn auth_and_role_rejections_are_typed_and_debit_nothing() {
    let served = base_service();
    served.set_tenant_quota("tenant-a", 5.0);
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();

    // Unknown token: typed refusal at Hello.
    let refused = PrividClient::connect(&addr, "wrong-token").expect_err("bad token must refuse");
    assert_eq!(refused.remote_code(), Some(code::AUTH_FAILED));

    // Un-authenticated requests: the server demands Hello first. Drive the
    // wire by hand — the client type always authenticates.
    {
        use privid_server::net::{read_frame, write_frame, ReadFrame};
        use privid_wire::{Request, Response};
        use std::sync::atomic::AtomicBool;
        let mut raw = std::net::TcpStream::connect(&addr).expect("tcp connect");
        raw.set_read_timeout(Some(std::time::Duration::from_millis(100))).unwrap();
        let mut frame = Vec::new();
        Request::Ping { nonce: 4 }.encode(&mut frame).unwrap();
        write_frame(&mut raw, &frame).unwrap();
        let flag = AtomicBool::new(false);
        match read_frame(&mut raw, &flag, privid_wire::MAX_PAYLOAD).expect("response") {
            ReadFrame::Frame(op, payload) => match Response::decode(op, &payload).expect("decode") {
                Response::Error(e) => assert_eq!(e.code, code::AUTH_REQUIRED),
                other => panic!("expected AuthRequired, got {other:?}"),
            },
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    // An analyst may not use the owner plane.
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner
        .register_camera("campus", SceneKind::Campus, SCENE_SECS, SCENE_SEED, 60.0, 2, 20.0)
        .expect("wire camera registration");
    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    let forbidden = analyst
        .register_live_camera("rogue", 2.0, 100, 100, 20.0, 2, 10.0)
        .expect_err("analyst on the owner plane must refuse");
    assert_eq!(forbidden.remote_code(), Some(code::FORBIDDEN));

    // Budget reads are owner-plane: a camera's remaining ε encodes what
    // every other tenant spent on it.
    let forbidden = analyst
        .remaining_budget("campus", 30.0)
        .expect_err("analyst budget read must refuse");
    assert_eq!(forbidden.remote_code(), Some(code::FORBIDDEN));
    assert!(owner.remaining_budget("campus", 30.0).expect("owner budget read").is_some());

    // None of the rejections touched quota or ledger.
    assert_eq!(served.tenant_quota_remaining("tenant-a"), Some(5.0));
    // The analyst connection still works after its refusals.
    analyst.ping(9).expect("connection survives typed refusals");
    analyst.submit_query(1, QUERY).expect("query still admitted");
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_leave_the_connection_usable() {
    use privid_server::net::{read_frame, write_frame, ReadFrame};
    use privid_wire::{encode_frame, opcode, Request, Response};
    use std::sync::atomic::AtomicBool;

    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).expect("tcp connect");
    raw.set_read_timeout(Some(std::time::Duration::from_millis(100))).unwrap();
    let flag = AtomicBool::new(false);
    let mut call = |frame: &[u8]| -> Response {
        write_frame(&mut raw, frame).expect("write");
        match read_frame(&mut raw, &flag, privid_wire::MAX_PAYLOAD).expect("read") {
            ReadFrame::Frame(op, payload) => Response::decode(op, &payload).expect("decode"),
            other => panic!("expected a frame, got {other:?}"),
        }
    };

    // Authenticate by hand, then send a SubmitQuery whose payload lies: a
    // string length prefix pointing past the end of the frame.
    let mut hello = Vec::new();
    Request::Hello { token: "analyst-a-secret" }.encode(&mut hello).unwrap();
    assert!(matches!(call(&hello), Response::HelloOk { .. }));

    let mut payload = Vec::new();
    {
        let mut w = privid_wire::Writer::new(&mut payload);
        w.u64(1); // seed
        w.u32(10_000); // "the query text is 10k bytes" — but none follow
    }
    let mut lying = Vec::new();
    encode_frame(opcode::SUBMIT_QUERY, &payload, &mut lying).unwrap();
    match call(&lying) {
        Response::Error(e) => {
            assert_eq!(e.code, code::BAD_REQUEST);
            assert!(e.message.contains("truncated"), "message names the defect: {}", e.message);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // A bogus tag deep in a payload is equally typed.
    let mut payload = Vec::new();
    {
        let mut w = privid_wire::Writer::new(&mut payload);
        w.str("name", "cam").unwrap();
        w.u8(77); // no such scene kind
        w.f64(60.0);
        w.u64(0);
        w.f64(60.0);
        w.u32(2);
        w.f64(1.0);
    }
    let mut bad_tag = Vec::new();
    encode_frame(opcode::REGISTER_CAMERA, &payload, &mut bad_tag).unwrap();
    match call(&bad_tag) {
        Response::Error(e) => assert_eq!(e.code, code::BAD_REQUEST),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // The framing stayed synchronized: a well-formed request still works.
    let mut ping = Vec::new();
    Request::Ping { nonce: 5 }.encode(&mut ping).unwrap();
    assert!(matches!(call(&ping), Response::Pong { nonce: 5 }));
    server.shutdown();
}

#[test]
fn live_cameras_standing_queries_and_cursor_polls_match_in_process() {
    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_live_camera("live", 2.0, 100, 100, 20.0, 2, 10.0).expect("live registration");

    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    let fired = analyst.register_standing("watch", 3, LIVE_QUERY).expect("standing registration");
    assert_eq!(fired, 0, "no footage yet");

    // The direct twin.
    let direct = base_service();
    direct.register_live_camera_like_wire();

    let walkers = [
        WalkerSpec { id: 1, class: WalkerClass::Person, start_secs: 5.0, end_secs: 40.0 },
        WalkerSpec { id: 2, class: WalkerClass::Person, start_secs: 70.0, end_secs: 110.0 },
    ];
    let (edge, fired) =
        owner.append_frames("live", 60.0, vec![walkers[0]]).expect("first append");
    assert_eq!((edge, fired), (60.0, 0), "window [0,120) not complete yet");
    let (edge, fired) = owner.append_frames("live", 80.0, vec![walkers[1]]).expect("second append");
    assert_eq!(edge, 140.0);
    assert_eq!(fired, 1, "window [0,120) completed and fired");

    // Cursor polling over the wire.
    let poll = analyst.poll_standing("watch", 0).expect("poll");
    assert_eq!(poll.next_cursor, 1);
    assert_eq!(poll.dropped, 0);
    assert_eq!(poll.firings.len(), 1);
    let again = analyst.poll_standing("watch", poll.next_cursor).expect("repoll");
    assert!(again.firings.is_empty(), "cursor advanced: nothing new");

    // Long-poll with nothing new returns promptly and empty.
    let streamed = analyst.stream_firings("watch", poll.next_cursor, 200).expect("stream");
    assert!(streamed.firings.is_empty());

    // The same firing, computed in-process from the same appends.
    direct.append_direct(60.0, 1, 5.0, 40.0);
    direct.append_direct(80.0, 2, 70.0, 110.0);
    let wire_firing = &poll.firings[0];
    let direct_result = direct.execute_text(3, LIVE_QUERY).expect("direct standing window");
    match &wire_firing.result {
        Ok(result) => assert_eq!(result, &direct_result, "standing firing must match in-process bits"),
        Err(e) => panic!("firing failed: {e}"),
    }
    assert_eq!(wire_firing.seed, 3, "window 0 fires with base_seed + 0");
    assert_eq!((wire_firing.start_micros, wire_firing.end_micros), (0, 120_000_000));

    // Unknown standing query: typed.
    let missing = analyst.poll_standing("nope", 0).expect_err("unknown standing query");
    assert_eq!(missing.remote_code(), Some(code::UNKNOWN_STANDING_QUERY));
    server.shutdown();
}

/// Helpers giving the direct twin the exact shape the wire side builds.
trait DirectTwin {
    fn register_live_camera_like_wire(&self);
    fn append_direct(&self, duration_secs: f64, id: u64, start: f64, end: f64);
}

impl DirectTwin for QueryService {
    fn register_live_camera_like_wire(&self) {
        use privid_video::{FrameRate, FrameSize};
        self.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0))
            .expect("live registration");
    }

    fn append_direct(&self, duration_secs: f64, id: u64, start: f64, end: f64) {
        use privid_video::trajectory::Trajectory;
        use privid_video::{
            Attributes, FrameBatch, ObjectClass, ObjectId, Point, PresenceSegment, TimeSpan, TrackedObject,
        };
        let object = TrackedObject::new(
            ObjectId(id),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(start, end),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        );
        self.append_frames("live", FrameBatch::new(duration_secs, vec![object])).expect("append");
    }
}

#[test]
fn standing_queries_are_tenant_scoped_and_firings_debit_the_owner_quota() {
    let served = base_service();
    // Each LIVE_QUERY firing consumes 0.5 ε; tenant-a can afford two.
    served.set_tenant_quota("tenant-a", 1.2);
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_live_camera("live", 2.0, 100, 100, 20.0, 2, 10.0).expect("live registration");

    let mut analyst_a = PrividClient::connect(&addr, "analyst-a-secret").expect("a connect");
    analyst_a.register_standing("watch", 3, LIVE_QUERY).expect("standing registration");

    // The namespace is tenant-scoped: tenant-b can neither take the name…
    let mut analyst_b = PrividClient::connect(&addr, "analyst-b-secret").expect("b connect");
    let denied = analyst_b
        .register_standing("watch", 99, LIVE_QUERY)
        .expect_err("replacing another tenant's standing query must refuse");
    assert_eq!(denied.remote_code(), Some(code::STANDING_QUERY_DENIED));
    let denied = analyst_b
        .register_standing("watch", 3, LIVE_QUERY)
        .expect_err("even an identical re-registration by another tenant must refuse");
    assert_eq!(denied.remote_code(), Some(code::STANDING_QUERY_DENIED));
    // …nor read its firings — another tenant's query answers exactly like a
    // missing one, so polls cannot probe the namespace.
    let hidden = analyst_b.poll_standing("watch", 0).expect_err("cross-tenant poll must refuse");
    assert_eq!(hidden.remote_code(), Some(code::UNKNOWN_STANDING_QUERY));

    // Two windows fire (0.5 ε each) against tenant-a's quota: standing
    // queries are not a quota bypass.
    let (_, fired) = owner.append_frames("live", 120.0, vec![
        WalkerSpec { id: 1, class: WalkerClass::Person, start_secs: 5.0, end_secs: 40.0 },
    ]).expect("first window");
    assert_eq!(fired, 1);
    let (_, fired) = owner.append_frames("live", 120.0, vec![
        WalkerSpec { id: 2, class: WalkerClass::Person, start_secs: 130.0, end_secs: 170.0 },
    ]).expect("second window");
    assert_eq!(fired, 1);
    let quota = served.tenant_quota_remaining("tenant-a").expect("quota set");
    assert!((quota - 0.2).abs() < 1e-9, "two firings debited 1.0 from the owner tenant, left {quota}");

    // The third window exceeds the quota: the firing is recorded as the
    // typed refusal, executes nothing, and debits neither quota nor camera.
    let (_, fired) = owner.append_frames("live", 120.0, vec![]).expect("third window");
    assert_eq!(fired, 1);
    let quota = served.tenant_quota_remaining("tenant-a").expect("quota set");
    assert!((quota - 0.2).abs() < 1e-9, "a refused firing debits no quota, left {quota}");
    assert_eq!(
        served.remaining_budget("live", 250.0).map(f64::to_bits),
        Some(10.0f64.to_bits()),
        "the refused window's camera slots were never touched"
    );
    let poll = analyst_a.poll_standing("watch", 0).expect("owner tenant polls");
    assert_eq!(poll.firings.len(), 3);
    assert!(poll.firings[0].result.is_ok());
    assert!(poll.firings[1].result.is_ok());
    match &poll.firings[2].result {
        Err(e) => assert_eq!(e.code, code::TENANT_QUOTA_EXHAUSTED),
        Ok(r) => panic!("over-quota firing must be a typed refusal, got {r:?}"),
    }
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_typed_busy_and_reaps_finished_handlers() {
    let served = base_service();
    let config = ServerConfig::new(vec![Token::analyst("analyst-a-secret", "tenant-a")])
        .with_max_connections(2);
    let server = Server::start(Arc::clone(&served), config).expect("server start");
    let addr = server.addr().to_string();

    let c1 = PrividClient::connect(&addr, "analyst-a-secret").expect("first connection");
    let c2 = PrividClient::connect(&addr, "analyst-a-secret").expect("second connection");

    // The third is refused before authentication with the typed, retryable
    // busy error.
    let busy = PrividClient::connect(&addr, "analyst-a-secret").expect_err("third must refuse");
    assert_eq!(busy.remote_code(), Some(code::SERVER_BUSY));

    // Freed connections are reaped (on the accept path), so capacity comes
    // back without a restart. Each handler's blocked read returns end-of-file
    // as soon as its peer closes; retry until an accept's sweep finds the
    // handlers finished.
    drop(c1);
    drop(c2);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let recovered = loop {
        match PrividClient::connect(&addr, "analyst-a-secret") {
            Ok(client) => break client,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => panic!("capacity never came back after clients closed: {e}"),
        }
    };
    drop(recovered);
    server.shutdown();
}

#[test]
fn pre_auth_frames_are_capped_small_but_authenticated_ones_are_not() {
    use privid_server::net::{read_frame, write_frame, ReadFrame};
    use privid_wire::{encode_frame, opcode, Request, Response};
    use std::sync::atomic::AtomicBool;

    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let flag = AtomicBool::new(false);

    // Anonymous connection: a frame over the pre-auth cap (but far under the
    // protocol's 16 MiB) is refused at the header — the connection closes
    // without the server ever allocating the payload.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("tcp connect");
        raw.set_read_timeout(Some(std::time::Duration::from_millis(500))).unwrap();
        let mut frame = Vec::new();
        let oversized = vec![0u8; privid_server::PRE_AUTH_MAX_PAYLOAD as usize + 1];
        encode_frame(opcode::HELLO, &oversized, &mut frame).unwrap();
        write_frame(&mut raw, &frame).expect("write");
        match read_frame(&mut raw, &flag, privid_wire::MAX_PAYLOAD) {
            Ok(ReadFrame::Eof) | Err(_) => {}
            other => panic!("oversized pre-auth frame must close the connection, got {other:?}"),
        }
    }

    // Authenticated connection: the same-sized frame is within the full cap
    // and gets an ordinary typed response (here: a parse failure), proving
    // the small cap applies only before Hello.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("tcp connect");
        raw.set_read_timeout(Some(std::time::Duration::from_millis(500))).unwrap();
        let mut call = |frame: &[u8]| -> Response {
            write_frame(&mut raw, frame).expect("write");
            match read_frame(&mut raw, &flag, privid_wire::MAX_PAYLOAD).expect("read") {
                ReadFrame::Frame(op, payload) => Response::decode(op, &payload).expect("decode"),
                other => panic!("expected a frame, got {other:?}"),
            }
        };
        let mut hello = Vec::new();
        Request::Hello { token: "analyst-a-secret" }.encode(&mut hello).unwrap();
        assert!(matches!(call(&hello), Response::HelloOk { .. }));
        let big_text = "x".repeat(privid_server::PRE_AUTH_MAX_PAYLOAD as usize + 1);
        let mut big = Vec::new();
        Request::SubmitQuery { seed: 1, text: &big_text }.encode(&mut big).unwrap();
        match call(&big) {
            Response::Error(e) => assert_eq!(e.code, code::QUERY, "typed parse refusal, not a closed socket"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn clean_shutdown_joins_every_thread_and_refuses_stragglers() {
    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut client = PrividClient::connect(&addr, "analyst-a-secret").expect("connect");
    client.ping(1).expect("live before shutdown");
    server.shutdown();
    // The connection is gone; the next call fails rather than hanging.
    let outcome = client.ping(2);
    assert!(outcome.is_err(), "pinging a shut-down server must fail, got {outcome:?}");
    // And new connections are refused.
    assert!(PrividClient::connect(&addr, "analyst-a-secret").is_err());
}

#[test]
fn a_parked_long_poll_is_woken_by_the_append_that_closes_a_window() {
    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_live_camera("live", 2.0, 100, 100, 20.0, 2, 10.0).expect("live registration");
    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    analyst.register_standing("watch", 3, LIVE_QUERY).expect("standing registration");

    let started = std::time::Instant::now();
    let streamed = std::thread::scope(|scope| {
        let parked = scope.spawn(move || analyst.stream_firings("watch", 0, 30_000));
        // Give the poll time to park; the append that closes [0, 120) must
        // then wake it, whichever came first.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let (_, fired) = owner
            .append_frames("live", 120.0, vec![WalkerSpec { id: 1, class: WalkerClass::Person, start_secs: 5.0, end_secs: 40.0 }])
            .expect("append closing window 0");
        assert_eq!(fired, 1);
        parked.join().expect("long-poll thread").expect("stream")
    });
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the firing must wake the long-poll long before its 30 s wait, took {:?}",
        started.elapsed()
    );
    assert_eq!(streamed.next_cursor, 1);
    assert_eq!(streamed.firings.len(), 1);

    // The in-process twin fires the same window from the same footage.
    let direct = base_service();
    direct.register_live_camera_like_wire();
    direct.append_direct(120.0, 1, 5.0, 40.0);
    let direct_result = direct.execute_text(3, LIVE_QUERY).expect("direct standing window");
    match &streamed.firings[0].result {
        Ok(result) => {
            assert_eq!(result, &direct_result, "streamed firing must match in-process bits");
            for (w, d) in result.releases.iter().zip(&direct_result.releases) {
                if let (NoisyValue::Number(a), NoisyValue::Number(b)) = (&w.value, &d.value) {
                    assert_eq!(a.to_bits(), b.to_bits(), "noised release must match bit-for-bit");
                }
            }
        }
        Err(e) => panic!("firing failed: {e}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_wakes_parked_long_polls_and_idle_connections_promptly() {
    let served = base_service();
    let server = start_server(Arc::clone(&served));
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_live_camera("live", 2.0, 100, 100, 20.0, 2, 10.0).expect("live registration");
    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    analyst.register_standing("watch", 3, LIVE_QUERY).expect("standing registration");
    // An authenticated connection idle in the server's blocking read.
    let mut idle = PrividClient::connect(&addr, "analyst-b-secret").expect("idle connect");
    idle.ping(1).expect("idle connection is live");

    let parked = std::thread::spawn(move || analyst.stream_firings("watch", 0, 30_000));
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Shut down on a helper thread so a shutdown that waits the blocked
    // threads out fails this test instead of hanging it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("shutdown must wake blocked threads within 2 s, not wait them out");
    let outcome = parked.join().expect("long-poll thread");
    assert_eq!(
        outcome.as_ref().err().and_then(|e| e.remote_code()),
        Some(code::SHUTTING_DOWN),
        "the parked caller gets the typed shutdown code, got {outcome:?}"
    );
    assert!(idle.ping(2).is_err(), "the idle connection was closed");
    assert!(PrividClient::connect(&addr, "analyst-a-secret").is_err(), "new connections are refused");
}
