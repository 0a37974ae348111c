//! The parallel, streaming chunk execution engine.
//!
//! Privid's chunked execution is embarrassingly parallel: each chunk is
//! processed by a fresh, isolated processor instance, so chunk executions
//! share nothing (Appendix B) and can run on any number of workers without
//! changing a single output row. This module exploits that: it fans the
//! chunks of a [`ChunkPlan`] out to a scoped-thread worker pool and merges
//! the sandboxed outputs back **in deterministic (chunk, region) order**, so
//! table row order — and therefore budget accounting and seeded noise — is
//! bit-for-bit identical at every worker count.
//!
//! Workers pull chunk indices from a shared atomic counter (cheap dynamic
//! load balancing; chunk cost varies with scene density) and keep two
//! reusable [`ChunkBuffer`]s each, so steady-state execution performs no
//! per-chunk allocation beyond the output rows themselves. A buffer's
//! per-object bookkeeping is a dense slot vector indexed by scene object
//! (4 B per object, grown once to the scene's size), so refilling it per
//! chunk hashes nothing. Only `std::thread::scope` and atomics are used —
//! no external runtime.

use privid_sandbox::{run_chunk, ProcessorFactory, SandboxSpec, SandboxedOutput};
use privid_video::{BoundingBox, ChunkBuffer, ChunkPlan, RegionScheme};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum workers `Parallelism::Auto` will spawn.
const MAX_AUTO_WORKERS: usize = 8;

/// The sandboxed outputs of one chunk, one entry per region: `(region id,
/// output)` in region order.
type ChunkOutputs = Vec<(u32, SandboxedOutput)>;

/// How many worker threads the execution engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Process chunks inline on the calling thread (the pre-engine behaviour).
    Serial,
    /// A fixed number of workers; `Fixed(1)` runs inline like `Serial`.
    Fixed(usize),
    /// One worker per available core, capped at 8.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolve to a concrete worker count for a plan of `chunk_count` chunks.
    /// Never exceeds the number of chunks (spare threads would idle).
    pub fn worker_count(&self, chunk_count: usize) -> usize {
        let wanted = match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => {
                // `available_parallelism` reads the cgroup quota files on
                // every call; resolve it once per process.
                static AUTO_WORKERS: OnceLock<usize> = OnceLock::new();
                *AUTO_WORKERS.get_or_init(|| {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(MAX_AUTO_WORKERS)
                })
            }
        };
        wanted.min(chunk_count.max(1))
    }
}

/// The region assignments of one chunk: `(region id, restriction)` pairs.
/// Without spatial splitting every chunk runs once as region 0, unrestricted.
fn region_list(regions: Option<&RegionScheme>) -> Vec<(u32, Option<BoundingBox>)> {
    match regions {
        None => vec![(0, None)],
        Some(scheme) => scheme.regions.iter().map(|r| (r.id, Some(r.bbox))).collect(),
    }
}

/// A worker's reusable scratch: one buffer for whole-chunk materialization,
/// one for region restriction. Capacity persists across chunks.
#[derive(Default)]
struct WorkerScratch {
    buf: ChunkBuffer,
    region_buf: ChunkBuffer,
}

/// Materialize chunk `index` and run it (per region) through the sandbox,
/// appending `(region id, output)` pairs to `out` in region order.
fn run_one_chunk(
    plan: &ChunkPlan<'_>,
    index: usize,
    regions: &[(u32, Option<BoundingBox>)],
    factory: &dyn ProcessorFactory,
    spec: &SandboxSpec,
    scratch: &mut WorkerScratch,
    out: &mut ChunkOutputs,
) {
    let view = plan.materialize_into(index, &mut scratch.buf);
    for (region_id, restriction) in regions {
        match restriction {
            None => out.push((*region_id, run_chunk(factory, &view, spec))),
            Some(bbox) => {
                let sub = view.restrict_into(bbox, &mut scratch.region_buf);
                out.push((*region_id, run_chunk(factory, &sub, spec)));
            }
        }
    }
}

/// Execute every chunk of `plan` (fanned out over `parallelism` workers when
/// it pays off) and return the sandboxed outputs as `(region id, output)`
/// pairs, ordered by chunk index and then by region position — exactly the
/// order the serial loop would produce, regardless of scheduling.
pub fn execute_plan(
    plan: &ChunkPlan<'_>,
    regions: Option<&RegionScheme>,
    factory: &(dyn ProcessorFactory + Sync),
    spec: &SandboxSpec,
    parallelism: Parallelism,
) -> ChunkOutputs {
    execute_plan_range(plan, 0..plan.len(), regions, factory, spec, parallelism)
}

/// Execute a contiguous sub-range of `plan`'s chunks, preserving everything
/// [`execute_plan`] guarantees: outputs ordered by chunk index and then by
/// region position, bit-for-bit identical at every worker count. Each
/// output's `chunk_index` is the chunk's index *in the full plan* — the
/// processor-visible trusted column — so executing chunks `k..n` here is
/// indistinguishable from slicing a full execution's tail. The incremental
/// standing-query path uses this to run only a window's newly closed chunks.
pub fn execute_plan_range(
    plan: &ChunkPlan<'_>,
    range: std::ops::Range<usize>,
    regions: Option<&RegionScheme>,
    factory: &(dyn ProcessorFactory + Sync),
    spec: &SandboxSpec,
    parallelism: Parallelism,
) -> ChunkOutputs {
    debug_assert!(range.end <= plan.len(), "chunk range must lie within the plan");
    let n_chunks = range.len();
    let regions = region_list(regions);
    let workers = parallelism.worker_count(n_chunks);

    if workers <= 1 || n_chunks < 2 {
        let mut scratch = WorkerScratch::default();
        let mut out = Vec::with_capacity(n_chunks * regions.len());
        for i in range {
            run_one_chunk(plan, i, &regions, factory, spec, &mut scratch, &mut out);
        }
        return out;
    }

    // Dynamic work stealing over chunk indices: a shared counter hands the
    // next unprocessed chunk to whichever worker is free. Each worker keeps
    // its outputs tagged with the chunk index so the merge below can restore
    // deterministic order no matter how chunks were interleaved.
    let base = range.start;
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, ChunkOutputs)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let regions = &regions;
                scope.spawn(move || {
                    let mut scratch = WorkerScratch::default();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        let mut chunk_out = Vec::with_capacity(regions.len());
                        run_one_chunk(plan, base + i, regions, factory, spec, &mut scratch, &mut chunk_out);
                        local.push((i, chunk_out));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chunk execution worker panicked")).collect() // privid-analyzer: allow(panic-freedom) -- join fails only if a worker panicked; re-raising the crash is intended
    });

    // Ordered merge: scatter each worker's outputs into per-chunk slots, then
    // emit slots in chunk order.
    let mut slots: Vec<Option<ChunkOutputs>> = (0..n_chunks).map(|_| None).collect();
    for (i, chunk_out) in per_worker.into_iter().flatten() {
        slots[i] = Some(chunk_out); // privid-analyzer: allow(panic-freedom) -- i < n_chunks: workers only claim indices handed out by the chunk partition
    }
    slots.into_iter().flat_map(|s| s.expect("every chunk index claimed exactly once")).collect() // privid-analyzer: allow(panic-freedom) -- the scatter loop above fills every index exactly once
}

#[cfg(test)]
mod tests {
    use super::*;
    use privid_query::{ColumnDef, Schema};
    use privid_sandbox::{CarTableProcessor, ChunkProcessor, UniqueEntrantProcessor};
    use privid_video::{ChunkSpec, SceneConfig, SceneGenerator, TimeSpan};

    fn car_factory() -> impl ProcessorFactory {
        || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.worker_count(100), 1);
        assert_eq!(Parallelism::Fixed(4).worker_count(100), 4);
        assert_eq!(Parallelism::Fixed(0).worker_count(100), 1, "zero workers clamps to one");
        assert_eq!(Parallelism::Fixed(16).worker_count(3), 3, "never more workers than chunks");
        assert!(Parallelism::Auto.worker_count(100) >= 1);
        assert!(Parallelism::Auto.worker_count(100) <= MAX_AUTO_WORKERS);
    }

    #[test]
    fn parallel_outputs_identical_to_serial_at_every_worker_count() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
        let window = TimeSpan::from_secs(600.0);
        let spec_split = ChunkSpec::contiguous(5.0);
        let plan = ChunkPlan::new(&scene, &window, &spec_split, None);
        let sandbox = SandboxSpec::new(1.0, 10, Schema::listing1());
        let factory = car_factory();
        let serial = execute_plan(&plan, None, &factory, &sandbox, Parallelism::Serial);
        assert_eq!(serial.len(), plan.len());
        for workers in [2, 3, 8] {
            let parallel = execute_plan(&plan, None, &factory, &sandbox, Parallelism::Fixed(workers));
            assert_eq!(serial, parallel, "outputs must be bit-for-bit identical at {workers} workers");
        }
    }

    #[test]
    fn region_outputs_are_ordered_and_tagged() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
        let scheme = scene.region_schemes["default"].clone();
        let window = TimeSpan::from_secs(60.0);
        let spec_split = ChunkSpec::contiguous(10.0);
        let plan = ChunkPlan::new(&scene, &window, &spec_split, None);
        let schema = Schema::new(vec![ColumnDef::number("count", 0.0)]).unwrap();
        let sandbox = SandboxSpec::new(1.0, 10, schema);
        let factory = || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>;
        let serial = execute_plan(&plan, Some(&scheme), &factory, &sandbox, Parallelism::Serial);
        assert_eq!(serial.len(), plan.len() * scheme.len());
        // (chunk, region) order: chunk indices non-decreasing, regions cycle.
        for (i, (region, out)) in serial.iter().enumerate() {
            assert_eq!(out.chunk_index as usize, i / scheme.len());
            assert_eq!(*region, scheme.regions[i % scheme.len()].id);
        }
        let parallel = execute_plan(&plan, Some(&scheme), &factory, &sandbox, Parallelism::Fixed(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn range_execution_matches_the_full_plan_tail() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
        let window = TimeSpan::from_secs(600.0);
        let spec_split = ChunkSpec::contiguous(10.0);
        let plan = ChunkPlan::new(&scene, &window, &spec_split, None);
        let sandbox = SandboxSpec::new(1.0, 10, Schema::listing1());
        let factory = car_factory();
        let n = plan.len();
        let full = execute_plan(&plan, None, &factory, &sandbox, Parallelism::Serial);
        for start in [0, 1, n / 2, n - 1, n] {
            let tail = execute_plan_range(&plan, start..n, None, &factory, &sandbox, Parallelism::Fixed(3));
            assert_eq!(
                tail,
                full[start..],
                "chunks {start}..{n} must be bit-identical to the full execution's tail (chunk_index included)"
            );
        }
    }

    #[test]
    fn empty_plan_executes_to_nothing() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.05)).generate();
        let window = TimeSpan::between_secs(10.0, 10.0);
        let spec_split = ChunkSpec::contiguous(5.0);
        let plan = ChunkPlan::new(&scene, &window, &spec_split, None);
        let sandbox = SandboxSpec::new(1.0, 10, Schema::listing1());
        let factory = car_factory();
        assert!(execute_plan(&plan, None, &factory, &sandbox, Parallelism::Auto).is_empty());
    }
}
