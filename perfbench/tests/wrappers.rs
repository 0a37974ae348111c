//! The forwarding wrappers must be invisible to the program: every trait
//! method reaches the wrapped implementation with its arguments and returns
//! its result, and a query served through them releases the same bits and
//! leaves the same ledger as one served without them.

use perfbench::check::fingerprint;
use perfbench::trace::{TracedFactory, TracedVfs, Tracer};
use perfbench::workload::{build_service, register_cameras_in_process, Inputs, Workload};
use privid::sandbox::{ChunkProcessor, ProcessorFactory};
use privid::video::{Chunk, ChunkBuffer, ChunkView};
use privid::{
    PrivacyPolicy, QueryService, SceneConfig, SceneGenerator, TimeSpan, Value, Vfs, VfsFile,
};
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A processor with distinctive answers for every method.
struct Marked {
    cost: f64,
}

impl ChunkProcessor for Marked {
    fn name(&self) -> &str {
        "marked"
    }
    fn process(&mut self, chunk: &ChunkView<'_>) -> Vec<Vec<Value>> {
        vec![vec![Value::num(chunk.frame_count() as f64 + 0.5)]]
    }
    fn simulated_cost_secs(&self, _chunk: &ChunkView<'_>) -> f64 {
        self.cost
    }
}

#[test]
fn traced_processor_forwards_every_method() {
    let tracer = Tracer::new();
    let factory = TracedFactory::new(
        || Box::new(Marked { cost: 7.25 }) as Box<dyn ChunkProcessor>,
        Arc::clone(&tracer),
    );
    let mut wrapped = factory.create();
    let mut plain = Marked { cost: 7.25 };
    let chunk = Chunk::empty(0, "c", TimeSpan::from_secs(5.0));
    let mut buffer = ChunkBuffer::new();
    let view = buffer.load_chunk(&chunk);
    assert_eq!(wrapped.name(), plain.name());
    assert_eq!(wrapped.process(&view), plain.process(&view));
    // Not the trait default: the sandbox's timeout decision must not change.
    assert_eq!(wrapped.simulated_cost_secs(&view), 7.25);
    assert_eq!(
        tracer.layer_spans_since(0).len(),
        1,
        "one sandbox.chunk span per process call"
    );
}

/// A filesystem that logs every call and answers with marked values.
#[derive(Debug, Default)]
struct Logged {
    calls: Arc<Mutex<Vec<String>>>,
}

struct LoggedFile {
    calls: Arc<Mutex<Vec<String>>>,
}

impl Logged {
    fn log(&self, call: String) {
        self.calls.lock().unwrap().push(call);
    }
}

impl VfsFile for LoggedFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.calls.lock().unwrap().push("file.read_to_end".into());
        buf.extend_from_slice(b"abc");
        Ok(3)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.calls
            .lock()
            .unwrap()
            .push(format!("file.write_all {}", buf.len()));
        Ok(())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.calls.lock().unwrap().push("file.sync_data".into());
        Err(io::Error::other("sync_data failed"))
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.calls.lock().unwrap().push("file.sync_all".into());
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.calls
            .lock()
            .unwrap()
            .push(format!("file.set_len {len}"));
        Ok(())
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.calls
            .lock()
            .unwrap()
            .push(format!("file.seek {pos:?}"));
        Ok(41)
    }
}

impl Vfs for Logged {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.log(format!("create_dir_all {}", path.display()));
        Ok(())
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.log(format!("open_rw {}", path.display()));
        Ok(Box::new(LoggedFile {
            calls: Arc::clone(&self.calls),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.log(format!("create {}", path.display()));
        Ok(Box::new(LoggedFile {
            calls: Arc::clone(&self.calls),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log(format!("read {}", path.display()));
        Ok(vec![9, 8, 7])
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log(format!("rename {} {}", from.display(), to.display()));
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log(format!("remove_file {}", path.display()));
        Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
    }
    fn exists(&self, path: &Path) -> bool {
        self.log(format!("exists {}", path.display()));
        true
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.log(format!("sync_dir {}", path.display()));
        Ok(())
    }
}

#[test]
fn traced_vfs_forwards_every_method() {
    let inner = Logged::default();
    let calls = Arc::clone(&inner.calls);
    let tracer = Tracer::new();
    let vfs = TracedVfs::new(Arc::new(inner), Arc::clone(&tracer));
    let p = Path::new("d/wal.log");

    vfs.create_dir_all(Path::new("d")).unwrap();
    let mut f = vfs.open_rw(p).unwrap();
    let mut buf = Vec::new();
    assert_eq!(f.read_to_end(&mut buf).unwrap(), 3);
    assert_eq!(buf, b"abc");
    f.write_all(&[1, 2, 3, 4]).unwrap();
    assert_eq!(f.sync_data().unwrap_err().to_string(), "sync_data failed");
    f.sync_all().unwrap();
    f.set_len(12).unwrap();
    assert_eq!(f.seek(SeekFrom::End(-2)).unwrap(), 41);
    let _ = vfs.create(Path::new("d/snapshot.tmp")).unwrap();
    assert_eq!(vfs.read(p).unwrap(), vec![9, 8, 7]);
    vfs.rename(Path::new("d/snapshot.tmp"), Path::new("d/snapshot.bin"))
        .unwrap();
    assert_eq!(
        vfs.remove_file(p).unwrap_err().kind(),
        io::ErrorKind::NotFound
    );
    assert!(vfs.exists(p));
    vfs.sync_dir(Path::new("d")).unwrap();

    let expected = [
        "create_dir_all d",
        "open_rw d/wal.log",
        "file.read_to_end",
        "file.write_all 4",
        "file.sync_data",
        "file.sync_all",
        "file.set_len 12",
        "file.seek End(-2)",
        "create d/snapshot.tmp",
        "read d/wal.log",
        "rename d/snapshot.tmp d/snapshot.bin",
        "remove_file d/wal.log",
        "exists d/wal.log",
        "sync_dir d",
    ];
    assert_eq!(*calls.lock().unwrap(), expected);
    let names: Vec<&str> = tracer.layer_spans_since(0).iter().map(|s| s.name).collect();
    assert_eq!(names, ["vfs.write", "vfs.sync", "vfs.sync", "vfs.snapshot"]);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wrappers-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn queries_through_the_wrappers_release_the_same_bits_and_ledger() {
    let inputs = Inputs::generate(Workload::HotServing, 5);
    let (dir_a, dir_b) = (scratch_dir("plain"), scratch_dir("traced"));
    let tracer = Tracer::new();
    let plain = build_service(Workload::HotServing, Some(&dir_a), None).unwrap();
    let traced = build_service(Workload::HotServing, Some(&dir_b), Some(&tracer)).unwrap();
    for service in [&plain, &traced] {
        register_cameras_in_process(service, &inputs).unwrap();
    }
    for (seed, spec) in inputs.hot.iter().cycle().take(6).enumerate() {
        let a = plain
            .execute_text_as("alice", seed as u64, &spec.text)
            .unwrap();
        let b = traced
            .execute_text_as("alice", seed as u64, &spec.text)
            .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
    for camera in inputs.cameras() {
        for at in [0.5, 299.5, 599.5, 3599.5] {
            let a = plain.remaining_budget(&camera, at).unwrap();
            let b = traced.remaining_budget(&camera, at).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{camera} at {at}");
        }
    }
    let spans = tracer.layer_spans_since(0);
    assert!(
        spans.iter().any(|s| s.name == "vfs.sync"),
        "the WAL ran through the traced Vfs"
    );
    assert!(
        spans.iter().any(|s| s.name == "sandbox.chunk"),
        "chunks ran through the traced processor"
    );
    drop((plain, traced));
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn sandbox_timeouts_are_unchanged_by_the_wrapper() {
    // Chunks whose simulated cost exceeds the 1 s TIMEOUT get the default
    // row; a wrapper that fell back to the trait's default cost would not.
    let tracer = Tracer::new();
    let release = |service: QueryService| {
        let scene =
            SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.1).with_seed(3))
                .generate();
        service
            .register_camera("cam", scene, PrivacyPolicy::new(60.0, 2, 10.0))
            .unwrap();
        service
            .execute_text(
                11,
                "SPLIT cam BEGIN 0 END 300 BY TIME 10 sec STRIDE 0 sec INTO chunks;
                 PROCESS chunks USING slow TIMEOUT 1 sec PRODUCING 1 ROWS
                     WITH SCHEMA (n:NUMBER=0) INTO t;
                 SELECT SUM(range(n, 0, 1000)) FROM t CONSUMING 1.0;",
            )
            .unwrap()
    };
    let plain = QueryService::new();
    plain
        .register_processor("slow", || {
            Box::new(Marked { cost: 5.0 }) as Box<dyn ChunkProcessor>
        })
        .unwrap();
    let traced = QueryService::new();
    let factory = TracedFactory::new(
        || Box::new(Marked { cost: 5.0 }) as Box<dyn ChunkProcessor>,
        Arc::clone(&tracer),
    );
    traced
        .register_processor("slow", move || factory.create())
        .unwrap();
    let (a, b) = (release(plain), release(traced));
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(
        a.releases[0].raw.as_number(),
        Some(0.0),
        "every chunk timed out to the default row"
    );
}
