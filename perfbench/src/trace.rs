//! Spans recorded from outside the program, the forwarding wrappers that
//! record them, and the self-time report built from them.
//!
//! A [`Span`] has a name, a start and an end (nanoseconds since the
//! tracer's epoch), a parent and a request id. Client spans know their
//! request and parent when recorded. Spans from the [`TracedFactory`] and
//! [`TracedVfs`] wrappers run on server threads and know neither; after the
//! run, [`Tracer::finish`] attributes each one to a request by time
//! containment when exactly one request was in flight over its whole
//! interval, and leaves it unattributed (counted in totals only) otherwise.
//! Spans stay in memory until [`Trace::dump`] writes them out.

use privid::sandbox::{ChunkProcessor, ProcessorFactory};
use privid::video::ChunkView;
use privid::{Value, Vfs, VfsFile};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// No parent / no request.
pub const NONE: u64 = u64::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Which boundary (`wire.encode`, `sandbox.chunk`, `vfs.sync`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span in the finished trace, or [`NONE`].
    pub parent: u64,
    /// The request this span belongs to, or [`NONE`].
    pub request: u64,
    /// Bytes moved (wire frames, file writes); 0 where it does not apply.
    pub bytes: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// The shared span sink of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    layer: Mutex<Vec<Span>>,
    requests: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            layer: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh request id.
    pub fn next_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span from a wrapper (no parent, no request yet).
    pub fn record(&self, name: &'static str, start: u64, bytes: u64) {
        let span = Span {
            name,
            start,
            end: self.now(),
            parent: NONE,
            request: NONE,
            bytes,
        };
        self.layer.lock().expect("span sink poisoned").push(span);
    }

    /// Layer spans recorded so far that started at or after `since`.
    pub fn layer_spans_since(&self, since: u64) -> Vec<Span> {
        self.layer
            .lock()
            .expect("span sink poisoned")
            .iter()
            .filter(|s| s.start >= since)
            .copied()
            .collect()
    }

    /// Merge the client buffers with the wrapper spans recorded in
    /// `[from, to)` and attribute the latter to requests.
    pub fn finish(&self, clients: Vec<Vec<Span>>, from: u64, to: u64) -> Trace {
        let mut spans: Vec<Span> = Vec::new();
        for buffer in clients {
            let offset = spans.len() as u64;
            spans.extend(buffer.into_iter().map(|mut s| {
                if s.parent != NONE {
                    s.parent += offset;
                }
                s
            }));
        }
        let roots: Vec<usize> = {
            let mut roots: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].parent == NONE && spans[i].name.starts_with("rpc."))
                .collect();
            roots.sort_by_key(|&i| spans[i].start);
            roots
        };
        // prefix_end[k]: the latest end among roots[..=k], so the backward
        // scan below can stop at the first request that ended before a span.
        let mut prefix_end = Vec::with_capacity(roots.len());
        let mut latest = 0;
        for &r in &roots {
            latest = latest.max(spans[r].end);
            prefix_end.push(latest);
        }
        let layer = self.layer_spans_since(from);
        for mut s in layer.into_iter().filter(|s| s.end <= to) {
            if let Some(root) = sole_request(&spans, &roots, &prefix_end, &s) {
                // The innermost client span of that request that contains it
                // (in practice `wire.read`: the client waiting on the server).
                let inner = ((root + 1)..spans.len())
                    .take_while(|&i| spans[i].parent == root as u64)
                    .find(|&i| spans[i].start <= s.start && s.end <= spans[i].end)
                    .unwrap_or(root);
                s.parent = inner as u64;
                s.request = spans[root].request;
            }
            spans.push(s);
        }
        Trace { spans }
    }
}

/// The one request in flight over all of `s`, if exactly one was and it
/// contains `s`.
fn sole_request(spans: &[Span], roots: &[usize], prefix_end: &[u64], s: &Span) -> Option<usize> {
    let upto = roots.partition_point(|&r| spans[r].start <= s.end);
    let mut found = None;
    for k in (0..upto).rev() {
        if prefix_end[k] < s.start {
            break;
        }
        let r = &spans[roots[k]];
        if r.end >= s.start {
            if found.is_some() {
                return None;
            }
            found = Some(roots[k]);
        }
    }
    found.filter(|&root| spans[root].start <= s.start && s.end <= spans[root].end)
}

/// A finished trace: client spans followed by wrapper spans.
#[derive(Debug)]
pub struct Trace {
    /// Every span; `parent` indexes into this vector.
    pub spans: Vec<Span>,
}

/// Totals of one span name in the self-time report.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time (duration minus the union of child intervals), µs.
    pub self_us: f64,
    /// Spans attributed to a request (wrapper spans only).
    pub attributed: u64,
}

impl Trace {
    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per span name, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = union_within(&mut children[i], s.start, s.end);
            let dur = s.end.saturating_sub(s.start);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += dur as f64 / 1e3;
            t.self_us += dur.saturating_sub(covered) as f64 / 1e3;
            if s.request != NONE && !s.name.starts_with("rpc.") {
                t.attributed += 1;
            }
        }
        out
    }

    /// Write the first `limit` spans (client spans come first) as
    /// tab-separated text.
    pub fn dump(&self, path: &Path, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest\tbytes")?;
        let opt = |v: u64| {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.request),
                s.bytes
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

// ---- sandbox boundary ---------------------------------------------------------------

/// A [`ProcessorFactory`] that forwards to `inner` and wraps every processor
/// it creates in a [`TracedProcessor`].
pub struct TracedFactory<F> {
    inner: F,
    tracer: Arc<Tracer>,
}

impl<F: ProcessorFactory> TracedFactory<F> {
    /// Wrap `inner`.
    pub fn new(inner: F, tracer: Arc<Tracer>) -> Self {
        TracedFactory { inner, tracer }
    }
}

impl<F: ProcessorFactory> ProcessorFactory for TracedFactory<F> {
    fn create(&self) -> Box<dyn ChunkProcessor> {
        Box::new(TracedProcessor {
            inner: self.inner.create(),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

/// A processor that records a `sandbox.chunk` span around each `process`
/// call and forwards every method unchanged.
pub struct TracedProcessor {
    inner: Box<dyn ChunkProcessor>,
    tracer: Arc<Tracer>,
}

impl ChunkProcessor for TracedProcessor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&mut self, chunk: &ChunkView<'_>) -> Vec<Vec<Value>> {
        let start = self.tracer.now();
        let rows = self.inner.process(chunk);
        self.tracer.record("sandbox.chunk", start, 0);
        rows
    }

    // Forwarded, not defaulted: the sandbox compares this against the
    // PROCESS timeout, so the wrapper must not change which chunks time out.
    fn simulated_cost_secs(&self, chunk: &ChunkView<'_>) -> f64 {
        self.inner.simulated_cost_secs(chunk)
    }
}

// ---- storage boundary ---------------------------------------------------------------

/// A [`Vfs`] that forwards to `inner`, recording `vfs.write` (with bytes),
/// `vfs.sync` and `vfs.snapshot` (a rename onto `snapshot.bin`) spans.
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TracedVfs {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> Self {
        TracedVfs { inner, tracer }
    }

    fn file(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TracedFile {
            inner,
            tracer: Arc::clone(&self.tracer),
        })
    }
}

impl fmt::Debug for TracedVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedVfs")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Vfs for TracedVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_rw(path).map(|f| self.file(f))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.file(f))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let start = self.tracer.now();
        let result = self.inner.rename(from, to);
        if to.file_name().is_some_and(|n| n == "snapshot.bin") {
            self.tracer.record("vfs.snapshot", start, 0);
        }
        result
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
}

struct TracedFile {
    inner: Box<dyn VfsFile>,
    tracer: Arc<Tracer>,
}

impl VfsFile for TracedFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = self.tracer.now();
        let result = self.inner.write_all(buf);
        self.tracer.record("vfs.write", start, buf.len() as u64);
        result
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let start = self.tracer.now();
        let result = self.inner.sync_data();
        self.tracer.record("vfs.sync", start, 0);
        result
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let start = self.tracer.now();
        let result = self.inner.sync_all();
        self.tracer.record("vfs.sync", start, 0);
        result
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u64, request: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("rpc.query", 0, 100, NONE, 0),
                span("wire.read", 10, 90, 0, 0),
                span("sandbox.chunk", 20, 50, 1, 0),
                span("sandbox.chunk", 40, 60, 1, 0),
            ],
        };
        let t = trace.self_times();
        assert_eq!(t["rpc.query"].self_us, 0.02);
        assert_eq!(t["wire.read"].self_us, 0.04);
        assert_eq!(t["sandbox.chunk"].count, 2);
        assert_eq!(t["sandbox.chunk"].attributed, 2);
    }

    #[test]
    fn wrapper_spans_attach_only_when_one_request_is_in_flight() {
        let tracer = Tracer::new();
        let client_a = vec![
            span("rpc.query", 100, 200, NONE, 0),
            span("wire.read", 110, 190, 0, 0),
        ];
        let client_b = vec![span("rpc.query", 150, 300, NONE, 1)];
        tracer.layer.lock().unwrap().extend([
            span("sandbox.chunk", 120, 140, NONE, NONE), // only A in flight
            span("sandbox.chunk", 160, 170, NONE, NONE), // A and B in flight
            span("sandbox.chunk", 250, 260, NONE, NONE), // only B in flight
            span("sandbox.chunk", 310, 320, NONE, NONE), // nothing in flight
        ]);
        let trace = tracer.finish(vec![client_a, client_b], 0, u64::MAX);
        let chunks: Vec<(u64, u64)> = trace
            .named("sandbox.chunk")
            .map(|s| (s.parent, s.request))
            .collect();
        assert_eq!(chunks, vec![(1, 0), (NONE, NONE), (2, 1), (NONE, NONE)]);
    }
}
