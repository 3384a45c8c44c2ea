//! Trace replay is a first-class reference source.
//!
//! The differential tests pin the core contract: `record` → `replay`
//! through a FAMT v2 file on disk produces a [`RunReport`]
//! bit-identical to the live synthetic run, tracing on and off, for
//! every Table III workload. The property and corpus tests pin the
//! streamed [`fam_workloads::TraceReader`] against the records written,
//! through sources that return randomized short reads, and against a
//! malformed-input corpus.

use std::fs::File;
use std::io::{self, BufWriter, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::{SimRng, TraceConfig};
use fam_workloads::trace::{record_streams, replay_streams, write_trace_v2, TraceRecord};
use fam_workloads::{table3, TraceReader, Workload};

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A collision-free temp path (pid + per-process counter) — the
/// workspace is dependency-free, so no tempfile crate.
fn temp_trace(tag: &str) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("famt-replay-{}-{n}-{tag}.famt", std::process::id()))
}

fn base_cfg() -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_nodes(2)
        .with_fam_modules(2)
        .with_refs_per_core(250)
        .with_seed(31)
}

/// Records `w`'s synthetic streams for `cfg` to a fresh temp file —
/// exactly the streams a live run executes, drawn via
/// [`System::synthetic_streams`].
fn record_to_file(cfg: &SystemConfig, w: &Workload, tag: &str) -> PathBuf {
    let path = temp_trace(tag);
    let mut streams = System::synthetic_streams(cfg, w);
    let file = File::create(&path).expect("temp trace file");
    record_streams(BufWriter::new(file), &mut streams, cfg.refs_per_core).expect("record trace");
    path
}

fn replayed_system(cfg: SystemConfig, label: &str, path: &PathBuf) -> System {
    let streams =
        replay_streams(path, cfg.nodes, cfg.cores_per_node).expect("replay streams from file");
    System::with_streams(cfg, label, streams)
}

/// The replayed trace must reproduce the live run bit for bit.
fn assert_replay_matches_live(
    cfg: SystemConfig,
    w: &Workload,
    path: &PathBuf,
    label: &str,
) -> RunReport {
    let live = System::new(cfg, w).try_run().expect("live run");
    let replayed = replayed_system(cfg, w.name, path)
        .try_run()
        .expect("replayed run");
    assert_eq!(replayed, live, "{label}: replayed run diverged from live");
    live
}

#[test]
fn record_then_replay_is_bit_identical_for_every_workload() {
    let cfg = base_cfg();
    let total_refs = cfg.refs_per_core * (cfg.nodes * cfg.cores_per_node) as u64;
    for w in table3() {
        let path = record_to_file(&cfg, &w, w.name);
        let report = assert_replay_matches_live(cfg, &w, &path, w.name);
        // Non-vacuity: the test must compare real runs, not empty
        // ones.
        assert_eq!(report.refs_per_core, cfg.refs_per_core, "{}", w.name);
        assert!(report.instructions >= total_refs, "{}", w.name);
        assert!(report.cycles > 0 && report.ipc > 0.0, "{}", w.name);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn record_then_replay_is_bit_identical_with_tracing() {
    // Tracing draws request ids per reference; a replayed stream must
    // feed the tracer the same records in the same order.
    let cfg = base_cfg().with_trace(TraceConfig::breakdown_only());
    for w in [
        Workload::by_name("sssp").unwrap(),
        Workload::by_name("mcf").unwrap(),
    ] {
        let path = record_to_file(&cfg, &w, &format!("traced-{}", w.name));
        let report = assert_replay_matches_live(cfg, &w, &path, &format!("traced {}", w.name));
        assert!(
            !report.latency.is_empty(),
            "{}: tracing was supposed to be on",
            w.name
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn replay_matches_across_schemes() {
    // The trace is scheme-independent (it captures the address
    // stream, not the translation behavior), so one recording must
    // replay bit-identically under every scheme.
    let w = Workload::by_name("astar").unwrap();
    for scheme in Scheme::ALL {
        let cfg = base_cfg().with_scheme(scheme);
        let path = record_to_file(&cfg, &w, &format!("scheme-{scheme}"));
        assert_replay_matches_live(cfg, &w, &path, &format!("astar {scheme}"));
        std::fs::remove_file(&path).ok();
    }
}

/// Σ `node{n}/replay_wraps` over the system's nodes.
fn total_wraps(system: &System) -> u64 {
    let metrics = system.metrics();
    (0..system.config().nodes)
        .map(|n| {
            metrics
                .counter_value(&format!("node{n}/replay_wraps"))
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn replay_runs_longer_than_the_trace_by_wrapping() {
    // Record 100 refs/core, replay 400: the file wraps like looping a
    // kernel.
    let w = Workload::by_name("sssp").unwrap();
    let record_cfg = base_cfg().with_refs_per_core(100);
    let path = record_to_file(&record_cfg, &w, "wrap");
    let long_cfg = base_cfg().with_refs_per_core(400);
    let mut system = replayed_system(long_cfg, "sssp", &path);
    system.try_run().expect("wrapped run");
    // Each core consumed its 100-record rank slice exactly 4 times.
    let cores = (long_cfg.nodes * long_cfg.cores_per_node) as u64;
    assert_eq!(total_wraps(&system), 4 * cores);
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_short_of_a_whole_pass_counts_no_wraps() {
    // Cores draw exactly the references they execute, so a run one
    // reference short of the recorded slice never reaches its end.
    let w = Workload::by_name("sssp").unwrap();
    let record_cfg = base_cfg().with_refs_per_core(100);
    let path = record_to_file(&record_cfg, &w, "short");
    let mut system = replayed_system(base_cfg().with_refs_per_core(99), "sssp", &path);
    system.try_run().expect("short run");
    assert_eq!(total_wraps(&system), 0);
    std::fs::remove_file(&path).ok();
}

/// A source that returns at most `max` bytes per `read` call, and
/// remembers the largest read it was asked for.
struct ShortReads<R> {
    inner: R,
    max: usize,
    largest_request: usize,
}

impl<R: Read> ShortReads<R> {
    fn new(inner: R, max: usize) -> ShortReads<R> {
        ShortReads {
            inner,
            max,
            largest_request: 0,
        }
    }
}

impl<R: Read> Read for ShortReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_request = self.largest_request.max(buf.len());
        let n = buf.len().min(self.max);
        self.inner.read(&mut buf[..n])
    }
}

/// Streams a buffer through [`TraceReader`] from a source that returns
/// at most `max_read` bytes per call, collecting either all records or
/// the first error.
fn stream_all(buf: &[u8], max_read: usize) -> io::Result<Vec<TraceRecord>> {
    let mut rd = TraceReader::new(ShortReads::new(buf, max_read))?;
    let mut out = Vec::new();
    while let Some(rec) = rd.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

/// `n` references of `bench` (seed `seed`), all tagged rank 0.
fn rank0_records(bench: &str, seed: u64, n: usize) -> Vec<TraceRecord> {
    Workload::by_name(bench)
        .unwrap()
        .generator(seed)
        .take_refs(n)
        .into_iter()
        .map(|mem| TraceRecord { rank: 0, mem })
        .collect()
}

#[test]
fn streamed_reader_returns_the_written_records_at_random_chunk_sizes() {
    let mut rng = SimRng::seeded(0xC4A2);
    let records: Vec<TraceRecord> = rank0_records("mcf", 7, 257)
        .into_iter()
        .enumerate()
        .map(|(i, rec)| TraceRecord {
            rank: (i % 5) as u16,
            ..rec
        })
        .collect();
    let mut buf = Vec::new();
    write_trace_v2(&mut buf, 5, &records).unwrap();
    // Deliberate boundary read sizes: header splitting (1..16) and
    // the record width ±1 (14..16), plus random sizes up to past the
    // whole-file length.
    let mut sizes: Vec<usize> = (1..=17).collect();
    for _ in 0..40 {
        sizes.push(rng.below(buf.len() as u64 + 64) as usize + 1);
    }
    for &size in &sizes {
        assert_eq!(
            stream_all(&buf, size).unwrap(),
            records,
            "diverged at read size {size}"
        );
    }
}

#[test]
fn replay_streams_follows_ranks_that_are_not_round_robin() {
    // All seven rank-1 records come before rank 0's four: each core
    // still sees its own records in file order and wraps at the end of
    // its own slice.
    let refs = rank0_records("pf", 9, 11);
    let records: Vec<TraceRecord> = refs
        .iter()
        .enumerate()
        .map(|(i, rec)| TraceRecord {
            rank: u16::from(i < 7),
            ..*rec
        })
        .collect();
    let path = temp_trace("blocked-ranks");
    write_trace_v2(File::create(&path).expect("temp trace file"), 2, &records).unwrap();
    let mut cores = replay_streams(&path, 1, 2)
        .expect("replay streams")
        .remove(0);
    for (core, slice) in cores.iter_mut().zip([&records[7..], &records[..7]]) {
        for i in 0..30 {
            assert_eq!(core.next_ref(), slice[i % slice.len()].mem, "ref {i}");
        }
        assert_eq!(core.wraps(), 30 / slice.len() as u64);
    }
    std::fs::remove_file(&path).ok();
}

/// A header declaring `count` records, followed by `body` zero bytes.
fn forged(good: &[u8], count: u64, body: usize) -> Vec<u8> {
    let mut b = good[..16].to_vec();
    b[6..14].copy_from_slice(&count.to_le_bytes());
    b.extend(std::iter::repeat_n(0u8, body));
    b
}

#[test]
fn truncated_and_corrupt_traces_return_invalid_data_everywhere() {
    let records = rank0_records("mcf", 3, 20);
    let mut good = Vec::new();
    write_trace_v2(&mut good, 1, &records).unwrap();

    // The corpus: every malformed shape the format can take. Each
    // entry must surface as InvalidData — never a panic, never an
    // unbounded allocation — from the streamed reader and the
    // stream-matrix builder.
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    // 14 and 15 cut inside the rank-count field.
    for cut in [0usize, 3, 7, 13, 14, 15] {
        corpus.push((format!("truncated header at {cut}"), good[..cut].to_vec()));
    }
    corpus.push(("bad magic".into(), {
        let mut b = good.clone();
        b[..4].copy_from_slice(b"NOPE");
        b
    }));
    for version in [1u16, 99] {
        corpus.push((format!("unsupported version {version}"), {
            let mut b = good.clone();
            b[4..6].copy_from_slice(&version.to_le_bytes());
            b
        }));
    }
    corpus.push(("body one byte short".into(), {
        let mut b = good.clone();
        b.pop();
        b
    }));
    corpus.push(("trailing byte".into(), {
        let mut b = good.clone();
        b.push(0xEE);
        b
    }));
    corpus.push(("count larger than body".into(), {
        let mut b = good.clone();
        b[6..14].copy_from_slice(&1_000u64.to_le_bytes());
        b
    }));
    // count * width wraps u64: without checked_mul the product is
    // small enough to pass a naive length check while count-as-usize
    // would demand an absurd preallocation. A count sized for 13-byte
    // records wraps too.
    for width in [13u64, 15] {
        let count = (u64::MAX / width) + 2;
        corpus.push((
            format!("overflowing record count sized for {width}-byte records"),
            forged(&good, count, count.wrapping_mul(width) as usize),
        ));
    }
    corpus.push(("huge count, empty body".into(), forged(&good, u64::MAX, 0)));
    // A record rank beyond the declared rank count.
    corpus.push(("rank out of range".into(), {
        let mut b = good.clone();
        let last = b.len() - 2;
        b[last..].copy_from_slice(&7u16.to_le_bytes());
        b
    }));

    for (name, bytes) in &corpus {
        let streamed = stream_all(bytes, 5).expect_err(name);
        assert_eq!(
            streamed.kind(),
            io::ErrorKind::InvalidData,
            "streamed {name}"
        );
        let path = temp_trace("corpus");
        std::fs::write(&path, bytes).unwrap();
        let matrix = replay_streams(&path, 1, 1).expect_err(name);
        assert_eq!(matrix.kind(), io::ErrorKind::InvalidData, "matrix {name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn streamed_reader_memory_is_bounded_by_the_chunk_size() {
    // A trace of 200k records (3 MB) streams through the reader's
    // 64 KiB buffer: it never asks its source for more than that at
    // once, so decoding never buffers in proportion to trace length.
    let path = temp_trace("bounded");
    let records = rank0_records("sssp", 1, 200_000);
    let file = BufWriter::new(File::create(&path).expect("temp trace file"));
    write_trace_v2(file, 1, &records).unwrap();
    let mut src = ShortReads::new(File::open(&path).unwrap(), usize::MAX);
    let mut rd = TraceReader::new(&mut src).expect("open reader");
    let mut n = 0usize;
    while let Some(rec) = rd.next_record().expect("well-formed trace") {
        assert_eq!(rec, records[n]);
        n += 1;
    }
    assert_eq!(n, 200_000);
    drop(rd);
    assert!(src.largest_request <= 64 * 1024, "{}", src.largest_request);
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_streams_rejects_topology_mismatch_and_missing_file() {
    let cfg = base_cfg();
    let w = Workload::by_name("sssp").unwrap();
    let path = record_to_file(&cfg.with_refs_per_core(10), &w, "topology");
    // Recorded for 2×4 ranks; a 4-node topology wants 16.
    let err = replay_streams(&path, 4, 4).expect_err("topology mismatch");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(replay_streams("/nonexistent/trace.famt", 1, 1).is_err());
    std::fs::remove_file(&path).ok();
}
