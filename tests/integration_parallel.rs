//! Determinism of the parallel chunk execution engine: the same seeded query
//! must produce bit-for-bit identical results at every worker count, because
//! the engine merges sandboxed outputs in deterministic (chunk, region) order
//! before budget accounting and noise are applied.

use privid::video::{BoundingBox, Region, RegionBoundary, RegionScheme};
use privid::{
    ChunkProcessor, GridSpec, Mask, MaskPolicy, Parallelism, PrivacyPolicy, PrividSystem, Scene, SceneConfig, SceneGenerator,
    UniqueEntrantProcessor,
};

const QUERY: &str = "
    SPLIT campus BEGIN 0 END 1200 BY TIME 5 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 1.0;";

fn scene() -> Scene {
    SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate()
}

fn system(seed: u64, parallelism: Parallelism) -> PrividSystem {
    let mut sys = PrividSystem::new(seed).with_parallelism(parallelism);
    sys.register_camera("campus", scene(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
    sys.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
    sys
}

#[test]
fn releases_identical_across_1_2_and_8_workers() {
    let baseline = system(42, Parallelism::Fixed(1)).execute_text(QUERY).unwrap();
    assert!(baseline.chunks_processed >= 240);
    for workers in [2, 8] {
        let result = system(42, Parallelism::Fixed(workers)).execute_text(QUERY).unwrap();
        assert_eq!(
            baseline.releases, result.releases,
            "noisy releases must be bit-for-bit identical at {workers} workers"
        );
        assert_eq!(baseline.epsilon_spent, result.epsilon_spent);
        assert_eq!(baseline.chunks_processed, result.chunks_processed);
    }
}

#[test]
fn serial_and_auto_match_fixed_worker_results() {
    let serial = system(7, Parallelism::Serial).execute_text(QUERY).unwrap();
    let auto = system(7, Parallelism::Auto).execute_text(QUERY).unwrap();
    let fixed = system(7, Parallelism::Fixed(4)).execute_text(QUERY).unwrap();
    assert_eq!(serial.releases, auto.releases);
    assert_eq!(serial.releases, fixed.releases);
    assert_eq!(serial.epsilon_spent, auto.epsilon_spent);
}

#[test]
fn spatial_split_is_deterministic_across_worker_counts() {
    // Spatial splitting exercises the region-restriction path of the engine:
    // every chunk fans out once per region, and the (chunk, region) merge
    // order must hold at any parallelism. Campus's default scheme has soft
    // boundaries, so chunks must be a single frame long.
    let query = "
        SPLIT campus BEGIN 0 END 300 BY TIME 1 sec STRIDE 0 sec BY REGION default INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 1.0;";
    let serial = system(11, Parallelism::Serial).execute_text(query).unwrap();
    let parallel = system(11, Parallelism::Fixed(8)).execute_text(query).unwrap();
    assert_eq!(serial.releases, parallel.releases);
    assert_eq!(serial.chunks_processed, parallel.chunks_processed);
    assert!(serial.chunks_processed >= 300, "one execution per chunk per region");
}

#[test]
fn empty_window_processes_zero_chunks_at_any_parallelism() {
    // The textual parser rejects BEGIN == END, so build the degenerate window
    // programmatically: the plan must yield zero chunks and the engine must
    // come back empty without spawning useless workers.
    let mut query = privid::parse_query(QUERY).unwrap();
    query.splits[0].end_secs = query.splits[0].begin_secs;
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(8), Parallelism::Auto] {
        let result = system(3, parallelism).execute(&query).unwrap();
        assert_eq!(result.chunks_processed, 0);
        assert_eq!(result.releases.len(), 1, "COUNT over an empty table still releases (noisy) zero");
    }
}

/// The recording the golden-bits test queries: six hours of the campus
/// preset at its default seed.
fn campus_6h() -> Scene {
    SceneGenerator::new(SceneConfig::campus().with_duration_hours(6.0)).generate()
}

/// `(raw, noisy)` release values as `f64::to_bits`, in release order.
type ReleaseBits = Vec<(u64, u64)>;

/// The release bits of a query result.
fn release_bits(result: &privid::QueryResult) -> ReleaseBits {
    result
        .releases
        .iter()
        .map(|r| {
            let raw = r.raw.as_number().expect("numeric release");
            let noisy = r.value.as_number().expect("numeric release");
            (raw.to_bits(), noisy.to_bits())
        })
        .collect()
}

#[test]
fn golden_release_bits_hold_at_every_worker_count() {
    // The other suites here compare two execution paths of the same build;
    // this one pins the absolute release bits of fixed (window, seed)
    // queries, so a rewrite of chunk materialization (or anything else under
    // the release path) cannot silently change what a query releases.
    //
    // Hard left/right halves: people cross the boundary mid-chunk, so the
    // region split keeps only part of an object's observations.
    let mut scene = campus_6h();
    let (w, h) = (scene.frame_size.width as f64, scene.frame_size.height as f64);
    scene.add_region_scheme(
        "halves",
        RegionScheme::new(
            vec![
                Region { id: 0, name: "left".into(), bbox: BoundingBox::new(0.0, 0.0, w / 2.0, h) },
                Region { id: 1, name: "right".into(), bbox: BoundingBox::new(w / 2.0, 0.0, w / 2.0, h) },
            ],
            RegionBoundary::Hard,
        ),
    );
    let processor = "PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;";
    let cases: [(&str, u64, String, ReleaseBits); 4] = [
        (
            "cold COUNT(*)",
            911,
            format!("SPLIT campus BEGIN 9000 END 10800 BY TIME 10 sec STRIDE 0 sec INTO chunks; {processor}
                     SELECT COUNT(*) FROM people CONSUMING 1.0;"),
            vec![(4631952216750555136, 4644056336533739647)],
        ),
        (
            "GROUP BY chunk BIN",
            912,
            format!("SPLIT campus BEGIN 14400 END 16200 BY TIME 10 sec STRIDE 0 sec INTO chunks; {processor}
                     SELECT COUNT(*) FROM people GROUP BY chunk BIN 600 sec CONSUMING 0.9;"),
            vec![
                (4626885667169763328, 4653156299993042213),
                (4627730092099895296, 13861518006737180064),
                (4626322717216342016, 13872648348436943177),
            ],
        ),
        (
            "masked split",
            913,
            format!("SPLIT campus BEGIN 3600 END 5400 BY TIME 5 sec STRIDE 0 sec WITH MASK left INTO chunks; {processor}
                     SELECT COUNT(*) FROM people CONSUMING 1.0;"),
            vec![(4626041242239631360, 4645858780118843464)],
        ),
        (
            "region-scheme split",
            914,
            format!("SPLIT campus BEGIN 18000 END 19800 BY TIME 10 sec STRIDE 0 sec BY REGION halves INTO chunks; {processor}
                     SELECT COUNT(*) FROM people CONSUMING 1.0;"),
            vec![(4634344754052595712, 4636794775736463511)],
        ),
    ];
    // The left third of the coarse grid: hides the objects mostly inside it.
    let grid = GridSpec::coarse(scene.frame_size);
    let mask = Mask::from_cells(grid, (0..8).flat_map(|c| (0..14).map(move |r| (c, r))));
    for (name, seed, query, expected) in &cases {
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2), Parallelism::Auto] {
            let mut sys = PrividSystem::new(*seed).with_parallelism(parallelism);
            sys.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera registration must succeed");
            sys.register_mask("campus", "left", MaskPolicy::new(mask.clone(), 30.0)).expect("mask registration must succeed");
            sys.register_processor("person_counter", || {
                Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
            }).expect("processor registration must succeed");
            let result = sys.execute_text(query).unwrap();
            assert_eq!(release_bits(&result), *expected, "{name} at {parallelism:?}");
        }
    }
}
