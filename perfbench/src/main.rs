//! `perfbench --workload <cold_scan|hot_serving|live_standing> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process `privid-server`, checks every
//! output outside the timed phase, and prints a run header, a report, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when any output check fails.

use perfbench::check::{Checks, LedgerModel};
use perfbench::stats::{self, median, percentile, SplitMix};
use perfbench::trace::{Trace, Tracer};
use perfbench::workload::{
    self, batch_of, build_service, deploy, fresh_dir, ledger_of_queries,
    register_cameras_in_process, remove_dir, run_phase, Deployment, Inputs, Phase, Res, Workload,
    ANALYSTS, CAMERA_EPS, OWNER,
};
use privid::parse_query;
use privid::server::{PrividClient, Server, ServerConfig, Token};
use privid::wire::WireFiring;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Spans written to the dump; the self-time report covers all of them.
/// `cold_scan` records one `sandbox.chunk` span per chunk, about two
/// million in a 20 s run.
const DUMP_SPANS: usize = 200_000;
/// Ledger slots checked per camera.
const LEDGER_SLOTS: u64 = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let outcome = run();
    // WAL directories of this process that an early error left behind.
    let tag = format!("-{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(".bench_tmp") {
        for entry in entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(&tag))
        {
            let _ = std::fs::remove_dir_all(entry.path());
        }
        let _ = std::fs::remove_dir(".bench_tmp");
    }
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run() -> Res<i32> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let inputs = Inputs::generate(args.workload, args.seed);
    print_header(&args, &root);

    let mut checks = Checks::default();
    let (metrics, attempted, failed) = if args.trace {
        traced_run(&args, &inputs, &root, &mut checks)?
    } else {
        untraced_run(&args, &inputs, &root, &mut checks)?
    };

    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    for failure in &checks.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "# checks: {} made, {} failed",
        checks.made,
        checks.failures.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_header(args: &Args, root: &Path) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (fs, fsync) = if args.workload.durable() {
        (stats::filesystem_of(root), "always")
    } else {
        ("none (in-memory)".to_string(), "none (in-memory)")
    };
    println!(
        "# header: workload={} seed={} seconds={} trace={} nproc={nproc} wal_fs={fs} fsync={fsync} shards={} \
         rustc={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.shards(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
    );
}

/// Set up [`SETUPS`] times (keeping the last), run the timed phase, check.
fn untraced_run(
    args: &Args,
    inputs: &Inputs,
    root: &Path,
    checks: &mut Checks,
) -> Res<(Vec<Metric>, u64, u64)> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let deployment = deploy(inputs, root, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            let (service, dir) = deployment.shutdown();
            drop(service);
            remove_dir(dir);
        } else {
            kept = Some(deployment);
        }
    }
    let mut deployment = kept.expect("SETUPS is positive");
    let phase = run_phase(inputs, &mut deployment, args.seconds, None)?;
    report_phase("timed", &phase);
    verify(inputs, deployment, &phase, checks)?;
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        (
            "release_p50_ms",
            phase.sliced_release(|s| percentile(s, 50.0)),
            "ms",
        ),
        (
            "release_p90_ms",
            phase.sliced_release(|s| percentile(s, 90.0)),
            "ms",
        ),
        ("ops_per_s", phase.ops_per_s(), "1/s"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    Ok((metrics, phase.attempted, phase.failed))
}

fn report_phase(label: &str, phase: &Phase) {
    println!(
        "# {label} phase: {:.3} s wall, {} attempted, {} succeeded, {} failed; release n={} p50={:.4} ms p99={:.4} ms",
        phase.wall_s,
        phase.attempted,
        phase.succeeded,
        phase.failed,
        phase.release_ms.len(),
        percentile(&phase.release_ms, 50.0),
        percentile(&phase.release_ms, 99.0),
    );
    let rates: Vec<String> = phase
        .slice_rates()
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("# {label} ops/s per slice: {}", rates.join(" "));
    println!(
        "# {label} sliced release: p50={:.4} p90={:.4} p99={:.4} ms",
        phase.sliced_release(|s| percentile(s, 50.0)),
        phase.sliced_release(|s| percentile(s, 90.0)),
        phase.sliced_release(|s| percentile(s, 99.0)),
    );
    println!(
        "# {label} cpu: {:.0} ms busy over {:.3} s ({:.2} cores); machine steal {:.0} ms",
        phase.cpu_ms,
        phase.wall_s,
        phase.cpu_ms / 1e3 / phase.wall_s,
        phase.steal_ms
    );
    let steal: Vec<String> = phase
        .slice_steal_ms
        .iter()
        .map(|s| format!("{s:.0}"))
        .collect();
    println!("# {label} steal ms per slice: {}", steal.join(" "));
    if !phase.append_ms.is_empty() {
        println!(
            "# {label} appends: n={} p50={:.4} ms p99={:.4} ms; late p99={:.4} ms; polls={} firings={}",
            phase.append_ms.len(),
            percentile(&phase.append_ms, 50.0),
            percentile(&phase.append_ms, 99.0),
            percentile(&phase.late_ms, 99.0),
            phase.polls,
            phase.firings,
        );
    }
    for e in &phase.errors {
        eprintln!("perfbench: {label} phase error: {e}");
    }
}

/// After the timed phase: the ledger model at sampled slots, bit-for-bit
/// replay on a non-durable twin, and — when durable — a restart from the
/// run's WAL that must restore every sampled budget bit for bit. Returns
/// the restart's rebuild time in ms (0 when in-memory).
fn verify(inputs: &Inputs, deployment: Deployment, phase: &Phase, checks: &mut Checks) -> Res<f64> {
    checks.expect(phase.errors.is_empty(), || {
        format!("timed phase reported errors: {:?}", phase.errors)
    });
    let mut ledger = LedgerModel::default();
    if inputs.workload == Workload::LiveStanding {
        standing_ledger(inputs, &deployment, &mut ledger, checks)?;
    } else {
        ledger_of_queries(inputs, &deployment.warmup, phase, &mut ledger);
    }
    let (service, dir) = deployment.shutdown();

    // Ledger: sampled slots against the model, per camera — half anywhere
    // on the timeline, half in the first ten minutes, where every hot-set
    // window debits.
    let mut rng = SplitMix::new(inputs.seed, 9);
    let mut sampled: Vec<(String, u64, f64)> = Vec::new();
    for camera in inputs.cameras() {
        let len = inputs
            .recorded
            .iter()
            .find(|r| r.name == camera)
            .map_or(inputs.live_final_secs(), |r| r.seconds);
        for i in 0..LEDGER_SLOTS {
            let slot = if i % 2 == 0 {
                rng.below(len as u64)
            } else {
                rng.below(600)
            };
            let got = service
                .remaining_budget(&camera, slot as f64 + 0.5)
                .unwrap_or(f64::NAN);
            let want = ledger.remaining(&camera, slot, CAMERA_EPS);
            checks.expect((got - want).abs() <= 1e-9, || {
                format!("ledger {camera} slot {slot}: {got} != model {want}")
            });
            sampled.push((camera.clone(), slot, got));
        }
    }

    // Releases: bit for bit on a non-durable twin.
    match inputs.workload {
        Workload::LiveStanding => replay_watched(inputs, &phase.watched, checks)?,
        _ => {
            let twin = build_service(inputs.workload, None, None)?;
            register_cameras_in_process(&twin, inputs)?;
            for (sent, got) in &phase.sample {
                match twin.execute_text(sent.seed, &inputs.spec(sent.query).text) {
                    Ok(want) => {
                        checks.same_bits(&format!("release seed {}", sent.seed), got, &want)
                    }
                    Err(e) => checks.expect(false, || {
                        format!("twin replay of seed {} failed: {e}", sent.seed)
                    }),
                }
            }
        }
    }

    // Restart: rebuild from the WAL, adopt the ledgers, compare by bits.
    drop(service);
    let recovery_ms = match &dir {
        None => 0.0,
        Some(dir) => {
            let start = Instant::now();
            let restarted = build_service(inputs.workload, Some(dir), None)?;
            let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
            register_cameras_in_process(&restarted, inputs)?;
            for (camera, slot, before) in &sampled {
                let after = restarted
                    .remaining_budget(camera, *slot as f64 + 0.5)
                    .unwrap_or(f64::NAN);
                checks.expect(after.to_bits() == before.to_bits(), || {
                    format!("restart changed {camera} slot {slot}: {before} -> {after}")
                });
            }
            recovery_ms
        }
    };
    remove_dir(dir);
    Ok(recovery_ms)
}

/// `live_standing`: read every standing query's firings (they must all have
/// succeeded, none dropped, one per closed window) and debit the model.
fn standing_ledger(
    inputs: &Inputs,
    deployment: &Deployment,
    ledger: &mut LedgerModel,
    checks: &mut Checks,
) -> Res<()> {
    let (token, _) = ANALYSTS[2];
    let mut analyst =
        PrividClient::connect(&deployment.addr, token).map_err(|e| format!("connect: {e}"))?;
    for st in &inputs.standing {
        let poll = analyst
            .poll_standing(st.name, 0)
            .map_err(|e| format!("poll {}: {e}", st.name))?;
        let windows = (inputs.live_final_secs() / st.period).floor() as usize;
        checks.expect(poll.dropped == 0 && poll.firings.len() == windows, || {
            format!(
                "{}: {} firings ({} dropped), want {windows}",
                st.name,
                poll.firings.len(),
                poll.dropped
            )
        });
        for f in &poll.firings {
            let (begin, end) = (f.start_micros as f64 / 1e6, f.end_micros as f64 / 1e6);
            checks.expect(f.result.is_ok(), || {
                format!("{} window [{begin}, {end}) failed: {:?}", st.name, f.result)
            });
            if f.result.is_ok() {
                let spec = st.window(&inputs.live, begin, end);
                for (camera, b, e) in &spec.splits {
                    ledger.debit(camera, *b, *e, spec.epsilon);
                }
            }
        }
    }
    Ok(())
}

/// Feed the same appends through a twin server over a non-durable service,
/// then replay every watched firing with `execute_text(firing.seed, ...)`.
fn replay_watched(inputs: &Inputs, watched: &[WireFiring], checks: &mut Checks) -> Res<()> {
    let twin = Arc::new(build_service(inputs.workload, None, None)?);
    let server = Server::start(
        Arc::clone(&twin),
        ServerConfig::new(vec![Token::owner(OWNER.0, OWNER.1)]),
    )
    .map_err(|e| format!("twin server: {e}"))?;
    let fed = (|| -> Result<(), privid::server::ClientError> {
        let mut owner = PrividClient::connect(&server.addr().to_string(), OWNER.0)?;
        for name in &inputs.live {
            owner.register_live_camera(name, 2.0, 100, 100, 60.0, 2, CAMERA_EPS)?;
        }
        for (cam, walkers) in &inputs.appends {
            owner.append_frames(
                &inputs.live[*cam],
                workload::LIVE_BATCH_SECS,
                walkers.clone(),
            )?;
        }
        Ok(())
    })();
    server.shutdown();
    fed.map_err(|e| format!("twin feed: {e}"))?;
    let watch = &inputs.standing[0];
    for f in watched {
        let (begin, end) = (f.start_micros as f64 / 1e6, f.end_micros as f64 / 1e6);
        let spec = watch.window(&inputs.live, begin, end);
        match (&f.result, twin.execute_text(f.seed, &spec.text)) {
            (Ok(got), Ok(want)) => {
                checks.same_bits(&format!("firing [{begin}, {end})"), got, &want)
            }
            (got, want) => checks.expect(false, || {
                format!("firing [{begin}, {end}): {got:?} vs replay {want:?}")
            }),
        }
    }
    Ok(())
}

/// One untraced and one traced deployment of the same workload; the
/// per-layer metrics come from the traced one.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    root: &Path,
    checks: &mut Checks,
) -> Res<(Vec<Metric>, u64, u64)> {
    let mut plain = deploy(inputs, root, None)?;
    let baseline = run_phase(inputs, &mut plain, args.seconds, None)?;
    report_phase("untraced", &baseline);
    verify(inputs, plain, &baseline, checks)?;

    let tracer = Tracer::new();
    let mut deployment = deploy(inputs, root, Some(&tracer))?;
    let mut phase = run_phase(inputs, &mut deployment, args.seconds, Some(&tracer))?;
    report_phase("traced", &phase);
    let wal_bytes_end = deployment.dir.as_deref().map_or(0, wal_bytes);
    let recovery_ms = verify(inputs, deployment, &phase, checks)?;
    let trace = tracer.finish(std::mem::take(&mut phase.spans), phase.from_ns, phase.to_ns);

    let (service_us, parse_us) = service_replay(inputs, &phase, root)?;
    let mut metrics = layer_metrics(inputs, &phase, &trace, &service_us, &parse_us);
    metrics.extend([
        ("store.wal_bytes_end", wal_bytes_end as f64, "B"),
        ("store.recovery_ms", recovery_ms, "ms"),
    ]);
    // The tail beyond the gated p90, from the untraced run, ungated: on a
    // shared host its run-to-run spread is set by hypervisor steal.
    metrics.push((
        "e2e.release_p99_ms",
        baseline.sliced_release(|s| percentile(s, 99.0)),
        "ms",
    ));
    let base = percentile(&baseline.release_ms, 50.0);
    let traced = percentile(&phase.release_ms, 50.0);
    metrics.push(("trace.overhead_ratio", traced / base - 1.0, "ratio"));
    println!(
        "# trace.overhead_ratio: traced release p50 {traced:.4} ms against untraced {base:.4} ms"
    );
    metrics.sort_by(|a, b| a.0.cmp(b.0));

    print_self_times(&trace);
    let dump = root
        .join(".bench_out")
        .join(format!("{}.spans.tsv", inputs.workload.name()));
    trace
        .dump(&dump, DUMP_SPANS)
        .map_err(|e| format!("span dump: {e}"))?;
    println!(
        "# spans: {} recorded, the first {} written to {}",
        trace.spans.len(),
        trace.spans.len().min(DUMP_SPANS),
        dump.display()
    );
    Ok((
        metrics,
        baseline.attempted + phase.attempted,
        baseline.failed + phase.failed,
    ))
}

/// Bytes in every shard's `wal.log` under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| std::fs::metadata(e.path().join("wal.log")).ok())
        .map(|m| m.len())
        .sum()
}

/// The service layer alone: replay the traced phase's first requests in-process
/// on a twin with the same registrations and configuration (one thread per
/// connection, as sent), timing each call; and time `parse_query` on every
/// query text sent. Returns (service µs, parse µs) samples.
fn service_replay(inputs: &Inputs, phase: &Phase, root: &Path) -> Res<(Vec<f64>, Vec<f64>)> {
    let workload = inputs.workload;
    let dir: Option<PathBuf> = workload.durable().then(|| fresh_dir(root, workload));
    let twin = build_service(workload, dir.as_deref(), None)?;
    register_cameras_in_process(&twin, inputs)?;
    let mut texts: Vec<String> = Vec::new();
    let service_us: Vec<f64> = match workload {
        Workload::LiveStanding => {
            for st in &inputs.standing {
                let spec = st.window(&inputs.live, 0.0, st.period);
                twin.register_standing_query_as(ANALYSTS[2].1, st.name, st.base_seed, &spec.text)
                    .map_err(|e| format!("twin standing: {e}"))?;
            }
            let mut us = Vec::with_capacity(inputs.appends.len());
            for (cam, walkers) in &inputs.appends {
                let batch = batch_of(walkers);
                let t = Instant::now();
                twin.append_frames(&inputs.live[*cam], batch)
                    .map_err(|e| format!("twin append: {e}"))?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let watch = &inputs.standing[0];
            texts.extend(phase.watched.iter().map(|f| {
                watch
                    .window(
                        &inputs.live,
                        f.start_micros as f64 / 1e6,
                        f.end_micros as f64 / 1e6,
                    )
                    .text
            }));
            us
        }
        _ => {
            if workload == Workload::HotServing {
                for spec in inputs.hot.iter().cycle().take(3 * inputs.hot.len()) {
                    twin.execute_text(0, &spec.text)
                        .map_err(|e| format!("twin warm-up: {e}"))?;
                }
            }
            let twin = &twin;
            let per_client: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = phase
                    .replay
                    .iter()
                    .map(|sent| {
                        scope.spawn(move || {
                            sent.iter()
                                .map(|s| {
                                    let spec = inputs.spec(s.query);
                                    let t = Instant::now();
                                    let _ = std::hint::black_box(
                                        twin.execute_text_as(s.tenant, s.seed, &spec.text),
                                    );
                                    t.elapsed().as_secs_f64() * 1e6
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay thread panicked"))
                    .collect()
            });
            texts.extend(
                phase
                    .replay
                    .iter()
                    .flatten()
                    .map(|s| inputs.spec(s.query).text.clone()),
            );
            per_client.into_iter().flatten().collect()
        }
    };
    drop(twin);
    remove_dir(dir);
    let parse_us = texts
        .iter()
        .map(|text| {
            let t = Instant::now();
            let _ = std::hint::black_box(parse_query(std::hint::black_box(text)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok((service_us, parse_us))
}

/// The workload's primary requests in a trace: their encode and decode
/// durations (µs), network round trips (write start to read end, µs) and
/// frame bytes.
struct Primary {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    rtt_us: Vec<f64>,
    bytes: u64,
    count: u64,
}

fn primary_requests(trace: &Trace, rpc: &str) -> Primary {
    let mut p = Primary {
        encode_us: vec![],
        decode_us: vec![],
        rtt_us: vec![],
        bytes: 0,
        count: 0,
    };
    let spans = &trace.spans;
    for (i, _) in spans.iter().enumerate().filter(|(_, s)| s.name == rpc) {
        p.count += 1;
        let children = spans[i + 1..].iter().take_while(|s| s.parent == i as u64);
        let (mut write_start, mut read_end) = (None, None);
        for s in children {
            match s.name {
                "wire.encode" => p.encode_us.push(s.micros()),
                "wire.decode" => p.decode_us.push(s.micros()),
                "wire.write" => {
                    write_start = Some(s.start);
                    p.bytes += s.bytes;
                }
                "wire.read" => {
                    read_end = Some(s.end);
                    p.bytes += s.bytes;
                }
                _ => {}
            }
        }
        if let (Some(a), Some(b)) = (write_start, read_end) {
            p.rtt_us.push(b.saturating_sub(a) as f64 / 1e3);
        }
    }
    p
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(
    inputs: &Inputs,
    phase: &Phase,
    trace: &Trace,
    service_us: &[f64],
    parse_us: &[f64],
) -> Vec<Metric> {
    let live = inputs.workload == Workload::LiveStanding;
    let primary = primary_requests(trace, if live { "rpc.append" } else { "rpc.query" });
    let ops = phase.succeeded.max(1);
    let primary_ops = primary.count.max(1);
    let chunk_us: Vec<f64> = trace.named("sandbox.chunk").map(|s| s.micros()).collect();
    let fsync_us: Vec<f64> = trace.named("vfs.sync").map(|s| s.micros()).collect();
    let written: u64 = trace.named("vfs.write").map(|s| s.bytes).sum();
    let snapshots = trace.named("vfs.snapshot").count() as u64;
    let (t1a, t1b) = &phase.t1;
    let (t2a, t2b) = &phase.t2;
    let t1_hits = t1b.hits - t1a.hits;
    let t1_lookups = t1_hits + (t1b.misses - t1a.misses);
    let t2_hits = t2b.hits - t2a.hits;
    let t2_lookups = t2_hits + (t2b.misses - t2a.misses);
    let rtt_p50 = percentile(&primary.rtt_us, 50.0);
    let service_p50 = percentile(service_us, 50.0);
    let appends = phase.append_ms.len() as u64;

    println!(
        "# bases: {} primary requests ({}), {} succeeded ops, {} chunks, {} fsyncs, {} B written, \
         t1 {t1_hits}/{t1_lookups} hits, t2 {t2_hits}/{t2_lookups} hits, {} service calls replayed, {} texts parsed",
        primary.count,
        if live { "AppendFrames" } else { "SubmitQuery" },
        phase.succeeded,
        chunk_us.len(),
        fsync_us.len(),
        written,
        service_us.len(),
        parse_us.len(),
    );
    println!(
        "# live bases: {} appends fired {} standing windows; {} polls delivered {} watched firings",
        appends, phase.fired, phase.polls, phase.firings
    );
    println!(
        "# server.overhead_us = net.rtt p50 {rtt_p50:.2} us - service.execute p50 {service_p50:.2} us \
         (rtt/service = {:.3})",
        rtt_p50 / service_p50.max(1e-9)
    );

    vec![
        ("wire.encode_us", percentile(&primary.encode_us, 50.0), "us"),
        ("wire.decode_us", percentile(&primary.decode_us, 50.0), "us"),
        (
            "wire.bytes_per_query",
            primary.bytes as f64 / primary_ops as f64,
            "B",
        ),
        ("net.rtt_us_p50", rtt_p50, "us"),
        ("net.rtt_us_p99", percentile(&primary.rtt_us, 99.0), "us"),
        ("server.overhead_us", rtt_p50 - service_p50, "us"),
        ("service.execute_us_p50", service_p50, "us"),
        ("service.execute_us_p99", percentile(service_us, 99.0), "us"),
        ("query.parse_us", percentile(parse_us, 50.0), "us"),
        (
            "sandbox.chunks_per_query",
            ratio(chunk_us.len() as u64, primary_ops),
            "count",
        ),
        ("sandbox.chunk_us", percentile(&chunk_us, 50.0), "us"),
        (
            "sandbox.busy_ms_per_query",
            chunk_us.iter().fold(0.0, |a, b| a + b) / 1e3 / primary_ops as f64,
            "ms",
        ),
        ("cache.t1_hit_ratio", ratio(t1_hits, t1_lookups), "ratio"),
        ("cache.t1_lookups", t1_lookups as f64, "count"),
        (
            "cache.t1_evictions",
            (t1b.evictions - t1a.evictions) as f64,
            "count",
        ),
        ("cache.t2_hit_ratio", ratio(t2_hits, t2_lookups), "ratio"),
        ("cache.t2_lookups", t2_lookups as f64, "count"),
        (
            "store.fsyncs_per_op",
            ratio(fsync_us.len() as u64, ops),
            "count",
        ),
        ("store.bytes_per_op", ratio(written, ops), "B"),
        ("store.fsync_us_p50", percentile(&fsync_us, 50.0), "us"),
        ("store.fsync_us_p99", percentile(&fsync_us, 99.0), "us"),
        ("store.snapshots", snapshots as f64, "count"),
        (
            "ingest.append_p50_ms",
            percentile(&phase.append_ms, 50.0),
            "ms",
        ),
        (
            "ingest.append_p99_ms",
            percentile(&phase.append_ms, 99.0),
            "ms",
        ),
        (
            "ingest.firings_per_append",
            ratio(phase.fired, appends),
            "count",
        ),
        (
            "stream.polls_per_firing",
            ratio(phase.polls, phase.firings),
            "count",
        ),
        (
            "loadgen.late_p99_ms",
            percentile(&phase.late_ms, 99.0),
            "ms",
        ),
        ("proc.cpu_ms_per_op", phase.cpu_ms / ops as f64, "ms"),
        (
            "failed_ratio",
            ratio(phase.failed, phase.attempted),
            "ratio",
        ),
    ]
}

/// The self-time report: per span name, count, total and self time, and
/// how many wrapper spans were attributed to a single request.
fn print_self_times(trace: &Trace) {
    println!("# self-time report (ms): name count total self attributed/count");
    for (name, t) in trace.self_times() {
        let attributed = if name.starts_with("rpc.") || name.starts_with("wire.") {
            "-".to_string()
        } else {
            format!("{}/{}", t.attributed, t.count)
        };
        println!(
            "#   {name:<16} {:>8} {:>12.3} {:>12.3} {attributed}",
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
}
