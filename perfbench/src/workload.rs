//! The three workloads: their inputs, their deployments and their timed
//! phases.
//!
//! * `cold_scan` — one analyst, closed loop, fixed-length `COUNT(*)` windows
//!   at offsets drawn from far more distinct windows than the chunk cache
//!   holds: the time goes to the sandbox and the parallel engine.
//! * `hot_serving` — two analyst tenants, closed loop, over a hot set of
//!   three queries that fits both cache tiers, on a durable two-shard
//!   service: the time goes to framing, admission, WAL group commit, fold
//!   and noise.
//! * `live_standing` — an owner appending footage to two live cameras on a
//!   fixed wall-clock schedule (open loop) while an analyst long-polls a
//!   standing query: the time goes to ingestion, the standing pump and
//!   long-poll delivery.
//!
//! All ε values are powers of two, so every ledger slot's remaining budget
//! is exact in `f64` and the ledger check can demand agreement to 1e-9
//! however many admissions ran.

use crate::check::LedgerModel;
use crate::client::Client;
use crate::stats::SplitMix;
use crate::trace::{Span, TracedFactory, TracedVfs, Tracer};
use privid::sandbox::ProcessorFactory;
use privid::server::{PrividClient, Server, ServerConfig, Token};
use privid::video::trajectory::Trajectory;
use privid::video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment};
use privid::wire::{SceneKind, WalkerClass, WalkerSpec, WireFiring};
use privid::{
    AggCacheStats, ChunkCacheStats, ChunkProcessor, Durability, FrameBatch, FsyncPolicy,
    Parallelism, PrivacyPolicy, QueryResult, QueryService, SceneConfig, SceneGenerator, StdVfs,
    TimeSpan, TrackedObject, UniqueEntrantProcessor,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result type of set-up and phases: a failure is a message, and ends the
/// run with a non-zero exit.
pub type Res<T> = Result<T, String>;

/// ε of one SELECT (2^-10).
const EPS: f64 = 1.0 / 1024.0;
/// Initial ε of every camera slot (2^20): deep enough that no admission in
/// a run is refused.
pub const CAMERA_EPS: f64 = 1_048_576.0;
/// Every tenant's ε quota (2^30).
const QUOTA: f64 = 1_073_741_824.0;
/// Privacy policy (ρ seconds, K) of every camera.
const RHO: f64 = 60.0;
const K: u32 = 2;
/// The analyst processor every query runs.
const PROCESSOR: &str = "person_counter";

/// `cold_scan`: one recorded campus camera of six hours, and windows of
/// thirty minutes (180 chunks of 10 s) at any whole-second offset — 19,801
/// distinct windows against a chunk cache of 256 entries.
const COLD_CAMERA_SECS: f64 = 6.0 * 3600.0;
const COLD_WINDOW_SECS: f64 = 1800.0;
/// Scene seed of the recorded cameras. The recordings are the same in
/// every run; `--seed` drives what the analysts ask (offsets, noise seeds,
/// the hot-set mix) and the live footage. Scenes drawn per seed differ by
/// about ±10 % in objects, and so in scan cost, which would add to the
/// run-to-run spread without exercising anything else.
const RECORDING_SEED: u64 = 0xCA4B5;
/// `cold_scan` warm-up queries, on windows outside the timed stream.
const COLD_WARMUP: usize = 48;
/// `live_standing`: footage per append, and appends per camera. The final
/// timeline is fixed (append cost grows with it); the schedule spreads the
/// appends over the run's `--seconds`.
pub const LIVE_BATCH_SECS: f64 = 10.0;
const LIVE_APPENDS_PER_CAMERA: usize = 1000;
/// `live_standing`: the watched standing query.
const WATCHED: &str = "watch";
/// Standing firings retained per query: more than any query fires in a run,
/// so the post-run poll sees every firing.
const STANDING_RETENTION: usize = 1 << 14;

/// A token and the tenant it authenticates.
pub const OWNER: (&str, &str) = ("owner-token", "owner");
/// The analyst tenants.
pub const ANALYSTS: [(&str, &str); 3] = [
    ("alice-token", "alice"),
    ("bob-token", "bob"),
    ("carol-token", "carol"),
];

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sandbox-bound scans with a cold cache.
    ColdScan,
    /// Cache-hot, durable, two-tenant serving.
    HotServing,
    /// Open-loop live ingestion with standing queries.
    LiveStanding,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_scan" => Some(Workload::ColdScan),
            "hot_serving" => Some(Workload::HotServing),
            "live_standing" => Some(Workload::LiveStanding),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::HotServing => "hot_serving",
            Workload::LiveStanding => "live_standing",
        }
    }

    /// Whether the service journals to a WAL (with `FsyncPolicy::Always`).
    pub fn durable(self) -> bool {
        self != Workload::ColdScan
    }

    /// Shard count of the service.
    pub fn shards(self) -> usize {
        if self == Workload::ColdScan {
            1
        } else {
            2
        }
    }

    /// The analyst connections of the timed phase, by tenant index.
    fn analysts(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::ColdScan => &ANALYSTS[..1],
            Workload::HotServing => &ANALYSTS[..2],
            Workload::LiveStanding => &ANALYSTS[2..],
        }
    }
}

/// One analyst query: its text and what it debits.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The query text.
    pub text: String,
    /// `(camera, begin, end)` of every SPLIT.
    pub splits: Vec<(String, f64, f64)>,
    /// Total ε the query debits on each of its windows.
    pub epsilon: f64,
}

impl QuerySpec {
    /// A single-camera `COUNT(*)`.
    pub fn count(camera: &str, begin: f64, end: f64, epsilon: f64) -> QuerySpec {
        QuerySpec {
            text: format!(
                "SPLIT {camera} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
                 PROCESS chunks USING {PROCESSOR} TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO people;
                 SELECT COUNT(*) FROM people CONSUMING {epsilon};"
            ),
            splits: vec![(camera.to_string(), begin, end)],
            epsilon,
        }
    }

    /// A `GROUP BY chunk BIN` query: one release per bin.
    pub fn binned(camera: &str, begin: f64, end: f64, bin_secs: f64, epsilon: f64) -> QuerySpec {
        QuerySpec {
            text: format!(
                "SPLIT {camera} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
                 PROCESS chunks USING {PROCESSOR} TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO people;
                 SELECT COUNT(*) FROM people GROUP BY chunk BIN {bin_secs} CONSUMING {epsilon};"
            ),
            splits: vec![(camera.to_string(), begin, end)],
            epsilon,
        }
    }

    /// One program over two cameras, one `COUNT(*)` each.
    pub fn pair(a: &str, b: &str, begin: f64, end: f64, epsilon: f64) -> QuerySpec {
        QuerySpec {
            text: format!(
                "SPLIT {a} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO a_chunks;
                 SPLIT {b} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO b_chunks;
                 PROCESS a_chunks USING {PROCESSOR} TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO a_people;
                 PROCESS b_chunks USING {PROCESSOR} TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO b_people;
                 SELECT COUNT(*) FROM a_people CONSUMING {epsilon};
                 SELECT COUNT(*) FROM b_people CONSUMING {epsilon};"
            ),
            splits: vec![(a.to_string(), begin, end), (b.to_string(), begin, end)],
            epsilon: 2.0 * epsilon,
        }
    }
}

/// A recorded camera, registered over the wire as a synthetic campus scene.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Camera name.
    pub name: String,
    /// Recording length.
    pub seconds: f64,
    /// Scene generator seed.
    pub scene_seed: u64,
}

impl Recorded {
    /// The scene the server generates for this registration (the same
    /// config `RegisterCamera` expands), for in-process twins.
    pub fn scene(&self) -> privid::Scene {
        let config = SceneConfig::campus()
            .with_duration_hours(self.seconds / 3600.0)
            .with_seed(self.scene_seed);
        SceneGenerator::new(config).generate()
    }
}

/// A standing query of `live_standing`.
#[derive(Debug, Clone)]
pub struct Standing {
    /// Registered name.
    pub name: &'static str,
    /// Base noise seed.
    pub base_seed: u64,
    /// Window length.
    pub period: f64,
    /// Builds the query over one window `[begin, end)`.
    make: fn(&[String], f64, f64) -> QuerySpec,
}

impl Standing {
    /// The query over window `[begin, end)` (the prototype is `[0, period)`).
    pub fn window(&self, cameras: &[String], begin: f64, end: f64) -> QuerySpec {
        (self.make)(cameras, begin, end)
    }
}

/// The standing queries: the watched one, a second sharing its PROCESS
/// identity (the shared sub-plan of the aggregate cache), one on the other
/// camera and one over both.
fn standing_queries(seed: u64) -> Vec<Standing> {
    vec![
        Standing {
            name: WATCHED,
            base_seed: seed,
            period: 10.0,
            make: |c, b, e| QuerySpec::count(&c[0], b, e, EPS),
        },
        Standing {
            name: "watch_twin",
            base_seed: seed ^ 0x5a5a,
            period: 10.0,
            make: |c, b, e| QuerySpec::count(&c[0], b, e, 2.0 * EPS),
        },
        Standing {
            name: "other",
            base_seed: seed ^ 0xa5a5,
            period: 30.0,
            make: |c, b, e| QuerySpec::count(&c[1], b, e, EPS),
        },
        Standing {
            name: "both",
            base_seed: seed ^ 0x3c3c,
            period: 60.0,
            make: |c, b, e| QuerySpec::pair(&c[0], &c[1], b, e, EPS),
        },
    ]
}

/// `per_shard` names `{prefix}_{i}` for each shard, by the service's own
/// routing hash.
fn names_by_shard(prefix: &str, shards: usize, per_shard: usize) -> Vec<Vec<String>> {
    let probe = QueryService::new().with_shards(shards);
    let mut out = vec![Vec::new(); shards];
    let mut i = 0;
    while out.iter().any(|v| v.len() < per_shard) {
        let name = format!("{prefix}_{i}");
        let shard = probe.shard_index(&name);
        if out[shard].len() < per_shard {
            out[shard].push(name);
        }
        i += 1;
    }
    out
}

/// Everything a workload's inputs are, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// Recorded cameras (`cold_scan`, `hot_serving`).
    pub recorded: Vec<Recorded>,
    /// Live cameras (`live_standing`), one per shard.
    pub live: Vec<String>,
    /// The hot set (`hot_serving`).
    pub hot: Vec<Arc<QuerySpec>>,
    /// Standing queries (`live_standing`).
    pub standing: Vec<Standing>,
    /// The append schedule (`live_standing`): camera index and walkers, in
    /// send order, alternating cameras.
    pub appends: Vec<(usize, Vec<WalkerSpec>)>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            workload,
            seed,
            recorded: vec![],
            live: vec![],
            hot: vec![],
            standing: vec![],
            appends: vec![],
        };
        match workload {
            Workload::ColdScan => {
                inputs.recorded.push(Recorded {
                    name: "campus".into(),
                    seconds: COLD_CAMERA_SECS,
                    scene_seed: RECORDING_SEED,
                });
            }
            Workload::HotServing => {
                let names = names_by_shard("cam", 2, 2);
                for (i, name) in names.iter().flatten().enumerate() {
                    inputs.recorded.push(Recorded {
                        name: name.clone(),
                        seconds: 3600.0,
                        scene_seed: RECORDING_SEED + i as u64,
                    });
                }
                let (a0, a1, b0, b1) = (&names[0][0], &names[0][1], &names[1][0], &names[1][1]);
                inputs.hot = vec![
                    Arc::new(QuerySpec::count(a0, 0.0, 600.0, EPS)),
                    Arc::new(QuerySpec::binned(b0, 0.0, 3600.0, 60.0, EPS)),
                    Arc::new(QuerySpec::pair(a1, b1, 0.0, 600.0, EPS)),
                ];
            }
            Workload::LiveStanding => {
                inputs.live = names_by_shard("live", 2, 1).into_iter().flatten().collect();
                inputs.standing = standing_queries(seed);
                let mut rng = SplitMix::new(seed, 7);
                let mut next_id = [0u64; 2];
                for k in 0..LIVE_APPENDS_PER_CAMERA {
                    for (cam, id) in next_id.iter_mut().enumerate() {
                        let edge = k as f64 * LIVE_BATCH_SECS;
                        let walkers = (0..rng.below(4))
                            .map(|_| {
                                *id += 1;
                                let start = edge + rng.below(10) as f64;
                                let class = if rng.below(4) == 0 {
                                    WalkerClass::Car
                                } else {
                                    WalkerClass::Person
                                };
                                WalkerSpec {
                                    id: *id,
                                    class,
                                    start_secs: start,
                                    end_secs: start + 5.0 + rng.below(55) as f64,
                                }
                            })
                            .collect();
                        inputs.appends.push((cam, walkers));
                    }
                }
            }
        }
        inputs
    }

    /// Draw the next query of a closed-loop stream: a window offset in
    /// whole seconds (`cold_scan`) or an index into the hot set.
    pub fn draw(&self, rng: &mut SplitMix) -> u32 {
        match self.workload {
            Workload::ColdScan => {
                rng.below((COLD_CAMERA_SECS - COLD_WINDOW_SECS) as u64 + 1) as u32
            }
            _ => rng.below(self.hot.len() as u64) as u32,
        }
    }

    /// The query a [`Inputs::draw`] result names.
    pub fn spec(&self, query: u32) -> Arc<QuerySpec> {
        match self.workload {
            Workload::ColdScan => {
                let offset = f64::from(query);
                Arc::new(QuerySpec::count(
                    &self.recorded[0].name,
                    offset,
                    offset + COLD_WINDOW_SECS,
                    EPS,
                ))
            }
            _ => Arc::clone(&self.hot[query as usize]),
        }
    }

    /// Every camera name.
    pub fn cameras(&self) -> Vec<String> {
        self.recorded
            .iter()
            .map(|r| r.name.clone())
            .chain(self.live.iter().cloned())
            .collect()
    }

    /// Final timeline length of every live camera.
    pub fn live_final_secs(&self) -> f64 {
        LIVE_APPENDS_PER_CAMERA as f64 * LIVE_BATCH_SECS
    }
}

/// The frame batch the server builds from a wire append (a linear walker
/// per spec), for appending in-process to a twin.
pub fn batch_of(walkers: &[WalkerSpec]) -> FrameBatch {
    let objects = walkers
        .iter()
        .map(|w| {
            let class = match w.class {
                WalkerClass::Person => ObjectClass::Person,
                WalkerClass::Car => ObjectClass::Car,
            };
            TrackedObject::new(
                ObjectId(w.id),
                class,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(w.start_secs, w.end_secs),
                    trajectory: Trajectory::linear(
                        Point::new(0.0, 50.0),
                        Point::new(100.0, 50.0),
                        5.0,
                        10.0,
                    ),
                }],
            )
        })
        .collect();
    FrameBatch::new(LIVE_BATCH_SECS, objects)
}

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(RHO, K, CAMERA_EPS)
}

fn register_processor(service: &QueryService, tracer: Option<&Arc<Tracer>>) -> Res<()> {
    let plain = || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>;
    let registered = match tracer {
        None => service.register_processor(PROCESSOR, plain),
        Some(tracer) => {
            let factory = TracedFactory::new(plain, Arc::clone(tracer));
            service.register_processor(PROCESSOR, move || factory.create())
        }
    };
    registered.map_err(|e| format!("processor registration: {e}"))
}

/// A fresh directory for one service's WAL, inside the checkout.
pub fn fresh_dir(root: &Path, workload: Workload) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(".bench_tmp")
        .join(format!("{}-{}-{n}", workload.name(), std::process::id()))
}

/// Build a service configured as `inputs.workload` requires: WAL with
/// `FsyncPolicy::Always` in `dir` when durable (through a [`TracedVfs`]
/// when traced), `Parallelism::Auto`, the workload's shard count.
pub fn build_service(
    workload: Workload,
    dir: Option<&Path>,
    tracer: Option<&Arc<Tracer>>,
) -> Res<QueryService> {
    let mut builder = QueryService::builder()
        .parallelism(Parallelism::Auto)
        .shards(workload.shards())
        .standing_retention(STANDING_RETENTION);
    if let Some(dir) = dir {
        builder = builder.durability(Durability::Wal {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
        });
        if let Some(tracer) = tracer {
            builder = builder.storage_vfs(Arc::new(TracedVfs::new(
                Arc::new(StdVfs),
                Arc::clone(tracer),
            )));
        }
    }
    let service = builder.build().map_err(|e| format!("service build: {e}"))?;
    register_processor(&service, tracer)?;
    for (_, tenant) in ANALYSTS {
        service.set_tenant_quota(tenant, QUOTA);
    }
    Ok(service)
}

/// Register the recorded and live cameras in-process (for twins and the
/// restart check), as the wire registrations in [`deploy`] do.
pub fn register_cameras_in_process(service: &QueryService, inputs: &Inputs) -> Res<()> {
    for cam in &inputs.recorded {
        service
            .register_camera(cam.name.clone(), cam.scene(), policy())
            .map_err(|e| format!("register {}: {e}", cam.name))?;
    }
    for name in &inputs.live {
        service
            .register_live_camera(
                name.clone(),
                privid::FrameRate::new(2.0),
                privid::FrameSize::new(100, 100),
                policy(),
            )
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    Ok(())
}

/// A running deployment: a service behind a real server.
pub struct Deployment {
    /// The served service.
    pub service: Arc<QueryService>,
    server: Server,
    /// The server's address.
    pub addr: String,
    /// The WAL directory, when durable.
    pub dir: Option<PathBuf>,
    /// The warm-up queries [`deploy`] sent (they debit the ledger too).
    pub warmup: Vec<Arc<QuerySpec>>,
    /// The timed phase's connections with their tenants, already
    /// authenticated (on `live_standing` the owner's comes first).
    pub clients: Vec<(&'static str, Client)>,
}

fn wire(what: &str) -> impl FnOnce(privid::server::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Start a deployment of `inputs`: build the service, start the server,
/// register cameras over the wire as the owner (and standing queries as the
/// analyst), then warm up. Ends ready for the first timed request.
pub fn deploy(inputs: &Inputs, root: &Path, tracer: Option<&Arc<Tracer>>) -> Res<Deployment> {
    let workload = inputs.workload;
    let dir = workload.durable().then(|| fresh_dir(root, workload));
    let service = Arc::new(build_service(workload, dir.as_deref(), tracer)?);
    let tokens = std::iter::once(Token::owner(OWNER.0, OWNER.1))
        .chain(
            ANALYSTS
                .iter()
                .map(|(t, tenant)| Token::analyst(*t, *tenant)),
        )
        .collect();
    let server = Server::start(Arc::clone(&service), ServerConfig::new(tokens))
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let mut deployment = Deployment {
        service,
        server,
        addr,
        dir,
        warmup: Vec::new(),
        clients: Vec::new(),
    };
    match prepare(inputs, &mut deployment, tracer) {
        Ok(()) => Ok(deployment),
        Err(e) => {
            remove_dir(deployment.shutdown().1);
            Err(e)
        }
    }
}

/// Connect, register and warm up a started deployment.
fn prepare(inputs: &Inputs, deployment: &mut Deployment, tracer: Option<&Arc<Tracer>>) -> Res<()> {
    let workload = inputs.workload;
    // Open every connection of the run at once. The server's accept loop
    // polls every 25 ms; connecting one after another would add a poll
    // interval per connection to the set-up time, quantized by where each
    // connect falls against the poll.
    let analysts = workload.analysts();
    let timed: Vec<(&str, &'static str)> = match workload {
        Workload::LiveStanding => vec![OWNER, analysts[0]],
        _ => analysts.to_vec(),
    };
    let addr = deployment.addr.as_str();
    let (setup, clients) = std::thread::scope(|scope| {
        let setup: Vec<_> = std::iter::once(&OWNER)
            .chain(analysts)
            .map(|(token, _)| scope.spawn(move || PrividClient::connect(addr, token)))
            .collect();
        let clients: Vec<_> = timed
            .iter()
            .map(|&(token, tenant)| {
                scope.spawn(move || Client::connect(addr, token, tracer).map(|c| (tenant, c)))
            })
            .collect();
        fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
            h.join().expect("connect thread panicked")
        }
        (
            setup
                .into_iter()
                .map(join)
                .collect::<Result<Vec<PrividClient>, _>>(),
            clients.into_iter().map(join).collect::<Result<Vec<_>, _>>(),
        )
    });
    deployment.clients = clients.map_err(wire("connect"))?;
    let mut setup = setup.map_err(wire("connect"))?.into_iter();
    let mut owner = setup.next().expect("the owner connection comes first");
    for cam in &inputs.recorded {
        owner
            .register_camera(
                &cam.name,
                SceneKind::Campus,
                cam.seconds,
                cam.scene_seed,
                RHO,
                K,
                CAMERA_EPS,
            )
            .map_err(wire("register camera"))?;
    }
    for name in &inputs.live {
        owner
            .register_live_camera(name, 2.0, 100, 100, RHO, K, CAMERA_EPS)
            .map_err(wire("register live camera"))?;
    }
    // The cameras must cover every shard, or a "cross-shard" query is not.
    let mut shards: Vec<usize> = inputs
        .cameras()
        .iter()
        .map(|c| deployment.service.shard_index(c))
        .collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.len() != workload.shards() {
        return Err(format!(
            "cameras land on shards {shards:?}, not on all {}",
            workload.shards()
        ));
    }

    let mut analysts = setup;
    match workload {
        Workload::ColdScan => {
            // Warm the sandbox and engine on windows outside the timed stream.
            let mut analyst = analysts.next().expect("one analyst");
            let mut rng = SplitMix::new(inputs.seed, 3);
            for _ in 0..COLD_WARMUP {
                let spec = inputs.spec(inputs.draw(&mut rng));
                analyst
                    .submit_query(rng.next_u64(), &spec.text)
                    .map_err(wire("warm-up query"))?;
                deployment.warmup.push(spec);
            }
        }
        Workload::HotServing => {
            // Fill both cache tiers for both tenants before timing.
            let mut rng = SplitMix::new(inputs.seed, 3);
            for mut analyst in analysts {
                for spec in inputs.hot.iter().cycle().take(3 * inputs.hot.len()) {
                    analyst
                        .submit_query(rng.next_u64(), &spec.text)
                        .map_err(wire("warm-up query"))?;
                    deployment.warmup.push(Arc::clone(spec));
                }
            }
        }
        Workload::LiveStanding => {
            let mut analyst = analysts.next().expect("one analyst");
            for st in &inputs.standing {
                let spec = st.window(&inputs.live, 0.0, st.period);
                analyst
                    .register_standing(st.name, st.base_seed, &spec.text)
                    .map_err(wire("register standing"))?;
            }
        }
    }
    Ok(())
}

impl Deployment {
    /// Stop the server (joining its threads) and return the service.
    pub fn shutdown(self) -> (Arc<QueryService>, Option<PathBuf>) {
        self.server.shutdown();
        (self.service, self.dir)
    }
}

/// Remove a WAL directory (and `.bench_tmp` once empty).
pub fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(parent) = dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One sent query of a closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Tenant of the connection.
    pub tenant: &'static str,
    /// Noise seed.
    pub seed: u64,
    /// The query, as [`Inputs::draw`] named it.
    pub query: u32,
}

/// Requests per connection kept for the in-process service replay of a
/// traced run: the first ones of the stream, enough for stable percentiles
/// without the replay outlasting the run. Nothing else of the stream is
/// kept per request, so the benchmark's own memory does not grow with
/// throughput and `peak_rss_mb` measures the served system.
pub const REPLAY_PER_CONNECTION: usize = 5000;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Analyst release latencies, ms: query round trips, or footage-to-
    /// release freshness of the watched standing query.
    pub release_ms: Vec<f64>,
    /// When each release arrived, s since the phase started.
    pub release_at: Vec<f64>,
    /// When each succeeded operation completed, s since the phase started,
    /// when operations are not just the releases (`live_standing`).
    pub op_at: Vec<f64>,
    /// Append latencies from due time to `AppendOk`, ms.
    pub append_ms: Vec<f64>,
    /// How late each append was sent against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Operations attempted, failed or refused, and succeeded.
    pub attempted: u64,
    pub failed: u64,
    pub succeeded: u64,
    /// Timed wall time, s.
    pub wall_s: f64,
    /// The span the [`SLICES`] divide: the wall time of a closed loop, the
    /// append schedule of the open loop.
    pub schedule_s: f64,
    /// Process CPU time spent in the phase, ms.
    pub cpu_ms: f64,
    /// Steal time of the whole machine during the phase, ms.
    pub steal_ms: f64,
    /// Steal time of the whole machine in each of the [`SLICES`], ms.
    pub slice_steal_ms: Vec<f64>,
    /// Long polls made, and watched firings they delivered.
    pub polls: u64,
    pub firings: u64,
    /// Standing windows fired, summed over `AppendOk`s.
    pub fired: u64,
    /// Cache counters before and after.
    pub t1: (ChunkCacheStats, ChunkCacheStats),
    pub t2: (AggCacheStats, AggCacheStats),
    /// Tracer clock at the start and end of the phase.
    pub from_ns: u64,
    pub to_ns: u64,
    /// Client spans, one buffer per connection.
    pub spans: Vec<Vec<Span>>,
    /// The first [`REPLAY_PER_CONNECTION`] queries of each connection.
    pub replay: Vec<Vec<Sent>>,
    /// Succeeded queries by [`Inputs::draw`] key (the ledger's debits).
    pub admitted: BTreeMap<u32, u64>,
    /// A seeded sample of releases and the queries that produced them.
    pub sample: Vec<(Sent, QueryResult)>,
    /// Watched firings as delivered.
    pub watched: Vec<WireFiring>,
    /// First failure messages, for the report.
    pub errors: Vec<String>,
}

/// Results kept per connection for the bit-for-bit check.
const SAMPLE_PER_CLIENT: usize = 32;

/// Run the timed phase of `inputs` against `deployment` for `seconds`.
pub fn run_phase(
    inputs: &Inputs,
    deployment: &mut Deployment,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Res<Phase> {
    match inputs.workload {
        Workload::LiveStanding => live_phase(inputs, deployment, seconds, tracer),
        _ => query_phase(inputs, deployment, seconds, tracer),
    }
}

#[derive(Default)]
struct ClientRun {
    release_ms: Vec<f64>,
    release_at: Vec<f64>,
    replay: Vec<Sent>,
    admitted: BTreeMap<u32, u64>,
    sample: Vec<(Sent, QueryResult)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

fn query_phase(
    inputs: &Inputs,
    deployment: &mut Deployment,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Res<Phase> {
    let clients = std::mem::take(&mut deployment.clients);
    let service = &deployment.service;
    let mut phase = Phase {
        t1: (service.cache_stats(), service.cache_stats()),
        ..Phase::default()
    };
    phase.t2 = (service.agg_cache_stats(), service.agg_cache_stats());
    phase.from_ns = tracer.map_or(0, |t| t.now());
    let (cpu0, steal0) = (crate::stats::cpu_ms(), crate::stats::steal_ms());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);

    let (runs, slice_steal): (Vec<ClientRun>, Vec<f64>) = std::thread::scope(|scope| {
        let steal = scope.spawn(move || steal_per_slice(start, seconds));
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, (tenant, mut client))| {
                scope.spawn(move || {
                    let mut rng = SplitMix::new(inputs.seed, 100 + c as u64);
                    let mut keep = SplitMix::new(inputs.seed, 200 + c as u64);
                    let mut run = ClientRun::default();
                    while Instant::now() < deadline {
                        let query = inputs.draw(&mut rng);
                        let spec = inputs.spec(query);
                        let seed = rng.next_u64();
                        let t = Instant::now();
                        let outcome = client.submit_query(seed, &spec.text);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let sent = Sent {
                            tenant,
                            seed,
                            query,
                        };
                        run.attempted += 1;
                        if run.replay.len() < REPLAY_PER_CONNECTION {
                            run.replay.push(sent);
                        }
                        match outcome {
                            Ok(result) => {
                                run.release_ms.push(ms);
                                run.release_at.push(start.elapsed().as_secs_f64());
                                *run.admitted.entry(query).or_default() += 1;
                                // Reservoir sample: every release is equally
                                // likely to be checked.
                                if run.sample.len() < SAMPLE_PER_CLIENT {
                                    run.sample.push((sent, result));
                                } else {
                                    let slot = keep.below(run.release_ms.len() as u64) as usize;
                                    if slot < SAMPLE_PER_CLIENT {
                                        run.sample[slot] = (sent, result);
                                    }
                                }
                            }
                            Err(e) => {
                                run.failed += 1;
                                if run.errors.len() < 3 {
                                    run.errors.push(e.to_string());
                                }
                            }
                        }
                    }
                    run.spans = client.into_spans();
                    run
                })
            })
            .collect();
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, steal.join().expect("steal sampler panicked"))
    });
    phase.slice_steal_ms = slice_steal;

    phase.wall_s = start.elapsed().as_secs_f64();
    phase.schedule_s = phase.wall_s;
    phase.cpu_ms = crate::stats::cpu_ms() - cpu0;
    phase.steal_ms = crate::stats::steal_ms() - steal0;
    phase.to_ns = tracer.map_or(0, |t| t.now());
    phase.t1.1 = service.cache_stats();
    phase.t2.1 = service.agg_cache_stats();
    for run in runs {
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.succeeded += run.release_ms.len() as u64;
        phase.release_ms.extend(run.release_ms);
        phase.release_at.extend(run.release_at);
        for (query, n) in run.admitted {
            *phase.admitted.entry(query).or_default() += n;
        }
        phase.sample.extend(run.sample);
        phase.replay.push(run.replay);
        phase.errors.extend(run.errors);
        phase.spans.push(run.spans);
    }
    Ok(phase)
}

fn live_phase(
    inputs: &Inputs,
    deployment: &mut Deployment,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Res<Phase> {
    let mut clients = std::mem::take(&mut deployment.clients)
        .into_iter()
        .map(|(_, c)| c);
    let (Some(mut owner), Some(mut analyst)) = (clients.next(), clients.next()) else {
        return Err("live_standing needs an owner and an analyst connection".into());
    };
    let service = &deployment.service;
    let mut phase = Phase {
        t1: (service.cache_stats(), service.cache_stats()),
        ..Phase::default()
    };
    phase.t2 = (service.agg_cache_stats(), service.agg_cache_stats());
    let expected = inputs.live_final_secs() / inputs.standing[0].period;
    let interval = seconds / inputs.appends.len() as f64;
    // A short lead so the first append is not late by the thread start-up.
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = move |j: usize| t0 + Duration::from_secs_f64(interval * j as f64);
    phase.from_ns = tracer.map_or(0, |t| t.now());
    let (cpu0, steal0) = (crate::stats::cpu_ms(), crate::stats::steal_ms());

    let (owner_run, analyst_run, slice_steal) = std::thread::scope(|scope| {
        let steal = scope.spawn(move || steal_per_slice(t0, seconds));
        let owner_thread = scope.spawn(move || {
            let (mut append_ms, mut append_at, mut late_ms, mut fired, mut failed, mut errors) =
                (vec![], vec![], vec![], 0u64, 0u64, vec![]);
            for (j, (cam, walkers)) in inputs.appends.iter().enumerate() {
                let due = due(j);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                match owner.append_frames(&inputs.live[*cam], LIVE_BATCH_SECS, walkers.clone()) {
                    Ok((_, n)) => {
                        let acked = Instant::now();
                        append_ms.push(acked.duration_since(due).as_secs_f64() * 1e3);
                        append_at.push(acked.saturating_duration_since(t0).as_secs_f64());
                        fired += n;
                    }
                    Err(e) => {
                        failed += 1;
                        if errors.len() < 3 {
                            errors.push(e.to_string());
                        }
                    }
                }
            }
            (
                append_ms,
                append_at,
                late_ms,
                fired,
                failed,
                errors,
                owner.into_spans(),
                Instant::now(),
            )
        });
        let analyst_thread = scope.spawn(move || {
            let deadline = t0 + Duration::from_secs_f64(seconds + 10.0);
            let (
                mut fresh_ms,
                mut fresh_at,
                mut watched,
                mut polls,
                mut failed,
                mut errors,
                mut cursor,
            ) = (vec![], vec![], vec![], 0u64, 0u64, vec![], 0u64);
            while (watched.len() as f64) < expected && Instant::now() < deadline {
                polls += 1;
                match analyst.stream_firings(WATCHED, cursor, 500) {
                    Ok(poll) => {
                        let received = Instant::now();
                        for firing in poll.firings {
                            // The watched camera is appended at even
                            // schedule positions; its k-th append closes
                            // window k.
                            let k = (firing.end_micros as f64 / 1e6 / LIVE_BATCH_SECS).round()
                                as usize
                                - 1;
                            fresh_ms.push(
                                received.saturating_duration_since(due(2 * k)).as_secs_f64() * 1e3,
                            );
                            fresh_at.push(received.saturating_duration_since(t0).as_secs_f64());
                            watched.push(firing);
                        }
                        cursor = poll.next_cursor;
                    }
                    Err(e) => {
                        failed += 1;
                        if errors.len() < 3 {
                            errors.push(e.to_string());
                        }
                    }
                }
            }
            (
                fresh_ms,
                fresh_at,
                watched,
                polls,
                failed,
                errors,
                analyst.into_spans(),
                Instant::now(),
            )
        });
        (
            owner_thread.join().expect("owner thread panicked"),
            analyst_thread.join().expect("analyst thread panicked"),
            steal.join().expect("steal sampler panicked"),
        )
    });
    phase.slice_steal_ms = slice_steal;

    let (append_ms, append_at, late_ms, fired, owner_failed, owner_errors, owner_spans, owner_end) =
        owner_run;
    let (
        fresh_ms,
        fresh_at,
        watched,
        polls,
        analyst_failed,
        analyst_errors,
        analyst_spans,
        analyst_end,
    ) = analyst_run;
    // The schedule spans `seconds`; the wall time also covers the delivery
    // of the last firings after it.
    phase.wall_s = owner_end
        .max(analyst_end)
        .saturating_duration_since(t0)
        .as_secs_f64();
    phase.schedule_s = seconds;
    phase.cpu_ms = crate::stats::cpu_ms() - cpu0;
    phase.steal_ms = crate::stats::steal_ms() - steal0;
    phase.to_ns = tracer.map_or(0, |t| t.now());
    phase.t1.1 = service.cache_stats();
    phase.t2.1 = service.agg_cache_stats();
    if (watched.len() as f64) < expected {
        phase.errors.push(format!(
            "only {} of {expected} watched firings arrived",
            watched.len()
        ));
    }
    phase.attempted = inputs.appends.len() as u64 + polls;
    phase.failed = owner_failed + analyst_failed;
    phase.succeeded = append_ms.len() as u64 + watched.len() as u64;
    phase.polls = polls;
    phase.firings = watched.len() as u64;
    phase.fired = fired;
    phase.release_ms = fresh_ms;
    phase.op_at = append_at.iter().chain(&fresh_at).copied().collect();
    phase.release_at = fresh_at;
    phase.append_ms = append_ms;
    phase.late_ms = late_ms;
    phase.watched = watched;
    phase
        .errors
        .extend(owner_errors.into_iter().chain(analyst_errors));
    phase.spans = vec![owner_spans, analyst_spans];
    Ok(phase)
}

/// Fill `ledger` with the debits of the warm-up and of every succeeded
/// query of `phase`.
pub fn ledger_of_queries(
    inputs: &Inputs,
    warmup: &[Arc<QuerySpec>],
    phase: &Phase,
    ledger: &mut LedgerModel,
) {
    let admitted = phase
        .admitted
        .iter()
        .map(|(&query, &n)| (inputs.spec(query), n));
    for (spec, n) in warmup
        .iter()
        .map(|spec| (Arc::clone(spec), 1))
        .chain(admitted)
    {
        for (camera, begin, end) in &spec.splits {
            // Exact: ε is a power of two and n far below 2^53.
            ledger.debit(camera, *begin, *end, spec.epsilon * n as f64);
        }
    }
}

/// Equal time slices per timed phase. End-to-end statistics are the median
/// over the quiet slices (least steal; see `Phase::quiet_slices`) of the
/// per-slice statistic, so a stall from outside the program (another
/// guest's CPU or disk burst) moves a slice, not the reported value.
pub const SLICES: usize = 10;

/// The machine's steal time in each of [`SLICES`] equal slices of
/// `seconds` from `start`, sampled at the slice boundaries.
fn steal_per_slice(start: Instant, seconds: f64) -> Vec<f64> {
    let mut last = crate::stats::steal_ms();
    (1..=SLICES)
        .map(|k| {
            let boundary = start + Duration::from_secs_f64(seconds * k as f64 / SLICES as f64);
            if let Some(wait) = boundary.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = crate::stats::steal_ms();
            now - std::mem::replace(&mut last, now)
        })
        .collect()
}

impl Phase {
    /// The slices in which the hypervisor stole no more CPU time from this
    /// machine than in the median slice — at least half of the [`SLICES`],
    /// all of them when steal is even. End-to-end statistics are medians
    /// over these slices: on a shared host, steal (time other guests ran
    /// while this one wanted to) varies several-fold from second to second
    /// and moves every latency with it; it measures the host, not the
    /// program.
    fn quiet_slices(&self) -> Vec<usize> {
        let steal = |k: usize| self.slice_steal_ms.get(k).copied().unwrap_or(0.0);
        let threshold = crate::stats::median(&(0..SLICES).map(steal).collect::<Vec<_>>());
        (0..SLICES).filter(|&k| steal(k) <= threshold).collect()
    }

    fn slice_of(&self, at: f64) -> usize {
        ((at / self.schedule_s * SLICES as f64).floor().max(0.0) as usize).min(SLICES - 1)
    }

    /// Median over the quiet slices of `stat` applied to each slice's
    /// release latencies.
    pub fn sliced_release(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let mut slices = vec![Vec::new(); SLICES];
        for (at, ms) in self.release_at.iter().zip(&self.release_ms) {
            slices[self.slice_of(*at)].push(*ms);
        }
        let quiet: Vec<f64> = self
            .quiet_slices()
            .into_iter()
            .filter(|&k| !slices[k].is_empty())
            .map(|k| stat(&slices[k]))
            .collect();
        crate::stats::median(&quiet)
    }

    /// Succeeded operations per second in each of the [`SLICES`].
    pub fn slice_rates(&self) -> Vec<f64> {
        let mut counts = [0u64; SLICES];
        let ops = if self.op_at.is_empty() {
            &self.release_at
        } else {
            &self.op_at
        };
        for at in ops {
            counts[self.slice_of(*at)] += 1;
        }
        let per = self.schedule_s / SLICES as f64;
        counts.iter().map(|&c| c as f64 / per).collect()
    }

    /// Succeeded operations per second: on a closed loop the median over
    /// the quiet slices; on the open loop, whose slices hold the schedule's
    /// exact counts, all operations over the whole wall time (schedule plus
    /// the delivery of the last firings), which drops once a backlog grows.
    pub fn ops_per_s(&self) -> f64 {
        if self.append_ms.is_empty() {
            let rates = self.slice_rates();
            crate::stats::median(
                &self
                    .quiet_slices()
                    .into_iter()
                    .map(|k| rates[k])
                    .collect::<Vec<_>>(),
            )
        } else {
            self.succeeded as f64 / self.wall_s
        }
    }
}
