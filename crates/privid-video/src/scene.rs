//! A [`Scene`] is the ground-truth world a single camera records: a set of
//! objects with trajectories over a time span, plus the camera's frame rate
//! and frame size.
//!
//! Everything downstream consumes scenes: the CV substrate "detects" objects
//! from scene observations (with injected error), the sandbox materializes
//! chunks of frames from a scene, and the statistics module computes
//! persistence distributions from a scene's ground truth.
//!
//! Scenes carry a coarse time-bucketed index over presence segments so that
//! materializing a frame only inspects objects present in that minute of
//! video instead of every object in a 12-hour recording. Each index entry
//! also carries the object's canonical index (the one [`Scene::object_index`]
//! returns for its id), and the crate-private observation visitor hands it to
//! chunk materialization, which keys its per-object records by it instead of
//! hashing the observation's id.

use crate::geometry::{FrameSize, Mask, RegionScheme};
use crate::object::{ObjectId, Observation, TrackedObject};
use crate::time::{FrameRate, Seconds, TimeSpan, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable identifier for a camera / scene.
///
/// Interned as an `Arc<str>` so hot-path code (chunk materialization, per-row
/// camera columns) can share the identifier with a reference-count bump
/// instead of cloning a `String` per chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CameraId(pub Arc<str>);

impl CameraId {
    /// Construct a camera id from any string-like value.
    pub fn new(name: impl Into<String>) -> Self {
        CameraId(Arc::from(name.into()))
    }

    /// The identifier as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for CameraId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Width of one index bucket in seconds.
const BUCKET_SECS: f64 = 60.0;

/// One segment-index entry: object index and segment index, plus the
/// object's canonical index — `by_id`'s entry for its id. The two object
/// indices differ only in a scene with duplicate ids (which [`Scene::new`]
/// accepts), where every object sharing an id resolves to the last one.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    object: u32,
    segment: u32,
    canonical: u32,
}

/// The ground-truth contents of one camera's recording.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// The camera that recorded this scene.
    pub camera: CameraId,
    /// The recording's time span.
    pub span: TimeSpan,
    /// Frame rate the camera records at.
    pub frame_rate: FrameRate,
    /// Pixel dimensions of the frames.
    pub frame_size: FrameSize,
    /// Every ground-truth object that ever appears.
    pub objects: Vec<TrackedObject>,
    /// Optional spatial-splitting schemes published by the video owner (§7.2),
    /// keyed by scheme name.
    pub region_schemes: HashMap<String, RegionScheme>,
    /// Time-bucketed index: bucket number → entries for the segments that
    /// overlap that bucket. Rebuilt on construction and skipped during
    /// serialization.
    #[serde(skip)]
    index: HashMap<i64, Vec<IndexEntry>>,
    /// Object id → index into `objects` (the last object with that id).
    /// Rebuilt alongside `index`.
    #[serde(skip)]
    by_id: HashMap<ObjectId, u32>,
}

impl Scene {
    /// Construct a scene and build its segment index.
    pub fn new(
        camera: CameraId,
        span: TimeSpan,
        frame_rate: FrameRate,
        frame_size: FrameSize,
        objects: Vec<TrackedObject>,
    ) -> Self {
        let mut scene = Scene {
            camera,
            span,
            frame_rate,
            frame_size,
            objects,
            region_schemes: HashMap::new(),
            index: HashMap::new(),
            by_id: HashMap::new(),
        };
        scene.rebuild_index();
        scene
    }

    /// Rebuild the time-bucketed segment index. Call after mutating `objects`
    /// directly (the generators never do; they construct scenes once).
    pub fn rebuild_index(&mut self) {
        self.index.clear();
        self.by_id.clear();
        for oi in 0..self.objects.len() {
            self.index_object(oi);
        }
    }

    /// Index one object's segments (and its id), by object index.
    fn index_object(&mut self, oi: usize) {
        let obj = &self.objects[oi]; // privid-analyzer: allow(panic-freedom) -- callers iterate 0..objects.len()
        let oi = oi as u32;
        if let Some(previous) = self.by_id.insert(obj.id, oi) {
            // A duplicate id: the objects already indexed under it now
            // resolve to this one, as `object_index` does.
            for entry in self.index.values_mut().flatten() {
                if entry.canonical == previous {
                    entry.canonical = oi;
                }
            }
        }
        let buckets: Vec<(i64, i64, u32)> = obj
            .segments
            .iter()
            .enumerate()
            .map(|(si, seg)| {
                let b0 = (seg.span.start.as_secs() / BUCKET_SECS).floor() as i64;
                let b1 = (seg.span.end.as_secs() / BUCKET_SECS).floor() as i64;
                (b0, b1, si as u32)
            })
            .collect();
        for (b0, b1, si) in buckets {
            for b in b0..=b1 {
                self.index.entry(b).or_default().push(IndexEntry { object: oi, segment: si, canonical: oi });
            }
        }
    }

    /// Append-only extension of the recording: advance the span's end to
    /// `new_end` and add the objects that newly appeared, indexing only them.
    ///
    /// This is the mechanical half of live ingestion — [`crate::Recording`]
    /// wraps it with the validation (monotonic edge, unique ids, no footage
    /// added before the live edge) that keeps already-recorded frames final.
    /// Cost is proportional to the *batch*, not the whole scene, so a camera
    /// appending all day never pays a full reindex.
    pub fn extend(&mut self, new_end: Timestamp, objects: Vec<TrackedObject>) {
        assert!(new_end >= self.span.end, "a recording timeline only ever grows");
        self.span.end = new_end;
        for obj in objects {
            let oi = self.objects.len();
            self.objects.push(obj);
            self.index_object(oi);
        }
    }

    /// Index of an object in `objects`, by id.
    pub fn object_index(&self, id: ObjectId) -> Option<usize> {
        self.by_id.get(&id).map(|&i| i as usize)
    }

    /// Register a spatial-splitting scheme under a name.
    pub fn add_region_scheme(&mut self, name: impl Into<String>, scheme: RegionScheme) {
        self.region_schemes.insert(name.into(), scheme);
    }

    /// Number of ground-truth objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Ground-truth observations (unmasked) at a timestamp.
    pub fn observations_at(&self, t: Timestamp) -> Vec<Observation> {
        self.observations_at_masked(t, None)
    }

    /// Ground-truth observations at a timestamp with an optional mask applied.
    ///
    /// Masked observations are *removed*: the analyst's processor cannot see
    /// objects whose pixels have been blacked out, which is how §7.1 lowers
    /// the observable persistence.
    pub fn observations_at_masked(&self, t: Timestamp, mask: Option<&Mask>) -> Vec<Observation> {
        let mut out = Vec::new();
        self.observations_at_masked_into(t, mask, &mut out);
        out
    }

    /// Append the (masked) observations at a timestamp to `out`.
    ///
    /// The allocation-free workhorse behind [`Scene::observations_at_masked`]:
    /// chunk materialization calls it once per frame into a reused buffer, so
    /// the hot path performs no per-frame allocation at steady state.
    ///
    /// Timestamps outside `span` yield nothing: the recording ends at
    /// `span.end`, so no frame exists there — even when a ground-truth
    /// trajectory (delivered early by a live [`crate::Recording`] batch, or
    /// overhanging a generated scene's end) extends past it.
    pub fn observations_at_masked_into(&self, t: Timestamp, mask: Option<&Mask>, out: &mut Vec<Observation>) {
        self.visit_observations_at(t, mask, |_, obs| out.push(obs));
    }

    /// Call `visit(canonical, observation)` for each (masked) observation at
    /// a timestamp, in index order; `canonical` is the observed object's
    /// [`Scene::object_index`], read from the segment index rather than
    /// looked up by id. Chunk materialization keys its per-object records
    /// by it.
    pub(crate) fn visit_observations_at(&self, t: Timestamp, mask: Option<&Mask>, mut visit: impl FnMut(u32, Observation)) {
        if !self.span.contains(t) {
            return;
        }
        let bucket = (t.as_secs() / BUCKET_SECS).floor() as i64;
        let Some(entries) = self.index.get(&bucket) else { return };
        for entry in entries {
            let obj = &self.objects[entry.object as usize]; // privid-analyzer: allow(panic-freedom) -- index entries are minted from enumerate over objects/segments and rebuilt on every mutation
            let seg = &obj.segments[entry.segment as usize]; // privid-analyzer: allow(panic-freedom) -- same proof: (object, segment) minted from enumerate
            if let Some(bbox) = seg.bbox_at(t) {
                if let Some(m) = mask {
                    if m.hides(&bbox) {
                        continue;
                    }
                }
                visit(entry.canonical, Observation { object_id: obj.id, class: obj.class, bbox, timestamp: t });
            }
        }
    }

    /// Objects visible at some instant of the span (unmasked).
    pub fn objects_visible_during(&self, span: &TimeSpan) -> Vec<&TrackedObject> {
        self.objects.iter().filter(|o| o.visible_during(span)).collect()
    }

    /// Ground-truth maximum single-segment duration over objects for which
    /// `filter` returns true (e.g. only private classes). This is the quantity
    /// the video owner's `(ρ, K)` policy must cover.
    pub fn max_segment_duration(&self, filter: impl Fn(&TrackedObject) -> bool) -> Seconds {
        self.objects.iter().filter(|o| filter(o)).map(|o| o.max_segment_duration()).fold(0.0, f64::max)
    }

    /// Ground-truth maximum appearance count over filtered objects.
    pub fn max_appearance_count(&self, filter: impl Fn(&TrackedObject) -> bool) -> usize {
        self.objects.iter().filter(|o| filter(o)).map(|o| o.appearance_count()).max().unwrap_or(0)
    }

    /// The *observable* per-segment durations of an object under a mask: each
    /// presence segment is sampled at the camera's frame interval and split
    /// into maximal runs of frames in which the object is not hidden.
    ///
    /// Returns one duration per observable run, in seconds.
    pub fn observable_runs(&self, obj: &TrackedObject, mask: Option<&Mask>) -> Vec<Seconds> {
        let dt = self.frame_rate.frame_duration();
        let mut runs = Vec::new();
        for seg in &obj.segments {
            if mask.is_none_or(|m| m.is_empty()) {
                // No mask (or an empty one): the observable run is the whole segment.
                runs.push(seg.duration());
                continue;
            }
            let mut run_start: Option<Timestamp> = None;
            let mut last_visible: Option<Timestamp> = None;
            let n = (seg.span.duration() / dt).ceil() as u64;
            for i in 0..=n {
                let t = seg.span.start.add_secs(i as f64 * dt);
                let visible = seg.bbox_at(t).map(|b| mask.is_none_or(|m| !m.hides(&b))).unwrap_or(false);
                if visible {
                    if run_start.is_none() {
                        run_start = Some(t);
                    }
                    last_visible = Some(t);
                } else if let (Some(s), Some(e)) = (run_start.take(), last_visible) {
                    runs.push((e - s) + dt);
                }
            }
            if let (Some(s), Some(e)) = (run_start, last_visible) {
                runs.push((e - s) + dt);
            }
        }
        runs
    }

    /// Maximum observable run duration over all filtered objects under a mask.
    /// With `mask = None` this equals the ground-truth maximum persistence.
    pub fn max_observable_duration(
        &self,
        mask: Option<&Mask>,
        filter: impl Fn(&TrackedObject) -> bool,
    ) -> Seconds {
        self.objects
            .iter()
            .filter(|o| filter(o))
            .flat_map(|o| self.observable_runs(o, mask))
            .fold(0.0, f64::max)
    }

    /// Number of filtered objects that remain observable (at least one run)
    /// under the mask. Used by Table 6's "% identities retained".
    pub fn observable_object_count(&self, mask: Option<&Mask>, filter: impl Fn(&TrackedObject) -> bool) -> usize {
        self.objects.iter().filter(|o| filter(o) && !self.observable_runs(o, mask).is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BoundingBox, GridSpec, Point, Region, RegionBoundary};
    use crate::object::{Attributes, ObjectClass, ObjectId, PresenceSegment};
    use crate::trajectory::Trajectory;

    fn simple_scene() -> Scene {
        let frame = FrameSize::new(100, 100);
        let person = TrackedObject::new(
            ObjectId(1),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(0.0, 30.0),
                trajectory: Trajectory::linear(Point::new(5.0, 50.0), Point::new(95.0, 50.0), 6.0, 10.0),
            }],
        );
        let parked_car = TrackedObject::new(
            ObjectId(2),
            ObjectClass::Car,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(0.0, 300.0),
                trajectory: Trajectory::dwell(
                    Point::new(5.0, 90.0),
                    Point::new(50.0, 90.0),
                    Point::new(95.0, 90.0),
                    0.05,
                    10.0,
                    6.0,
                ),
            }],
        );
        Scene::new(
            CameraId::new("test"),
            TimeSpan::from_secs(600.0),
            FrameRate::new(2.0),
            frame,
            vec![person, parked_car],
        )
    }

    #[test]
    fn observations_at_returns_visible_objects() {
        let scene = simple_scene();
        let obs = scene.observations_at(Timestamp::from_secs(10.0));
        assert_eq!(obs.len(), 2);
        let obs_late = scene.observations_at(Timestamp::from_secs(100.0));
        assert_eq!(obs_late.len(), 1, "person has left by t=100");
        assert_eq!(obs_late[0].object_id, ObjectId(2));
    }

    #[test]
    fn observations_use_index_across_buckets() {
        let scene = simple_scene();
        // Bucket 4 (t=240..300) should still find the parked car.
        let obs = scene.observations_at(Timestamp::from_secs(250.0));
        assert_eq!(obs.len(), 1);
        // After the car leaves there is nothing.
        assert!(scene.observations_at(Timestamp::from_secs(400.0)).is_empty());
    }

    #[test]
    fn ground_truth_maxima() {
        let scene = simple_scene();
        assert!((scene.max_segment_duration(|o| o.class.is_private()) - 300.0).abs() < 1e-9);
        assert_eq!(scene.max_appearance_count(|_| true), 1);
        assert_eq!(scene.object_count(), 2);
    }

    #[test]
    fn mask_over_parking_spot_cuts_observable_duration() {
        let scene = simple_scene();
        let grid = GridSpec::new(scene.frame_size, 10, 10);
        // Mask the cells around the parked car's resting spot (x≈50, y≈90).
        let mask = Mask::from_cells(grid, [(3, 8), (4, 8), (5, 8), (6, 8), (3, 9), (4, 9), (5, 9), (6, 9)]);
        let unmasked_max = scene.max_observable_duration(None, |o| o.class.is_private());
        let masked_max = scene.max_observable_duration(Some(&mask), |o| o.class.is_private());
        assert!(unmasked_max >= 299.0);
        assert!(
            masked_max < unmasked_max / 2.0,
            "masking the rest spot should slash max persistence: {masked_max} vs {unmasked_max}"
        );
        // Both objects are still observable at least once.
        assert_eq!(scene.observable_object_count(Some(&mask), |o| o.class.is_private()), 2);
    }

    #[test]
    fn observable_runs_without_mask_cover_full_segments() {
        let scene = simple_scene();
        let runs = scene.observable_runs(&scene.objects[0], None);
        assert_eq!(runs.len(), 1);
        assert!((runs[0] - 30.0).abs() <= scene.frame_rate.frame_duration() + 1e-9);
    }

    #[test]
    fn region_scheme_registration() {
        let mut scene = simple_scene();
        scene.add_region_scheme(
            "halves",
            RegionScheme::new(
                vec![
                    Region { id: 0, name: "left".into(), bbox: BoundingBox::new(0.0, 0.0, 50.0, 100.0) },
                    Region { id: 1, name: "right".into(), bbox: BoundingBox::new(50.0, 0.0, 50.0, 100.0) },
                ],
                RegionBoundary::Soft,
            ),
        );
        assert!(scene.region_schemes.contains_key("halves"));
        assert_eq!(scene.region_schemes["halves"].len(), 2);
    }

    #[test]
    fn objects_visible_during_filters_by_overlap() {
        let scene = simple_scene();
        let visible = scene.objects_visible_during(&TimeSpan::between_secs(40.0, 50.0));
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].id, ObjectId(2));
    }

    #[test]
    fn extend_indexes_only_new_objects_and_grows_the_span() {
        let mut scene = simple_scene();
        assert_eq!(scene.span.end, Timestamp::from_secs(600.0));
        scene.extend(
            Timestamp::from_secs(900.0),
            vec![TrackedObject::new(
                ObjectId(9),
                ObjectClass::Person,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(700.0, 760.0),
                    trajectory: Trajectory::linear(Point::new(0.0, 10.0), Point::new(90.0, 10.0), 5.0, 10.0),
                }],
            )],
        );
        assert_eq!(scene.span.end, Timestamp::from_secs(900.0));
        // The new object is reachable through the incremental index…
        let obs = scene.observations_at(Timestamp::from_secs(730.0));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].object_id, ObjectId(9));
        assert_eq!(scene.object_index(ObjectId(9)), Some(2));
        // …and the pre-existing footage is untouched.
        assert_eq!(scene.observations_at(Timestamp::from_secs(10.0)).len(), 2);
    }

    #[test]
    fn observations_stop_at_the_recorded_edge() {
        // A trajectory overhanging the recording's end must not produce
        // observations past `span.end`: the frames there do not exist (yet).
        let mut scene = simple_scene();
        scene.span.end = Timestamp::from_secs(100.0);
        assert!(scene.observations_at(Timestamp::from_secs(150.0)).is_empty(), "the car dwells until 300 s, but the recording stops at 100 s");
        assert_eq!(scene.observations_at(Timestamp::from_secs(99.5)).len(), 1);
        scene.span.end = Timestamp::from_secs(600.0);
        assert_eq!(scene.observations_at(Timestamp::from_secs(150.0)).len(), 1, "growing the edge reveals the footage");
    }

    #[test]
    fn rebuild_index_after_mutation() {
        let mut scene = simple_scene();
        scene.objects.push(TrackedObject::new(
            ObjectId(3),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(500.0, 550.0),
                trajectory: Trajectory::linear(Point::new(0.0, 10.0), Point::new(90.0, 10.0), 5.0, 10.0),
            }],
        ));
        // Before rebuilding the index the new object is invisible to frame queries.
        assert!(scene.observations_at(Timestamp::from_secs(520.0)).is_empty());
        scene.rebuild_index();
        assert_eq!(scene.observations_at(Timestamp::from_secs(520.0)).len(), 1);
    }
}
