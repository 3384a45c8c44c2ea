//! Trace replay is a first-class reference source.
//!
//! The differential tests pin the core contract: `record` → `replay`
//! through a FAMT v2 file on disk produces a [`RunReport`]
//! bit-identical to the live synthetic run, tracing on and off, for
//! every Table III workload. The property and corpus tests
//! pin the streamed [`fam_workloads::TraceReader`] against the
//! one-shot decoder through randomized chunk sizes and a malformed-
//! input corpus.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::{SimRng, TraceConfig};
use fam_workloads::trace::{
    read_records, read_trace, record_streams, replay_streams, write_trace, write_trace_v2,
    TraceRecord,
};
use fam_workloads::{table3, MemRef, StreamedReplay, TraceReader, Workload};

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

#[test]
fn replay_runs_longer_than_the_trace_by_wrapping() {
    // Record 100 refs/core, replay 400: the file wraps like looping a
    // kernel, deterministically under both schedulers.
    let w = Workload::by_name("sssp").unwrap();
    let record_cfg = base_cfg().with_refs_per_core(100);
    let path = record_to_file(&record_cfg, &w, "wrap");
    let long_cfg = base_cfg().with_refs_per_core(400);
    let scan = replayed_system(long_cfg, "sssp", &path)
        .try_run_scan()
        .expect("wrapped reference-scan run");
    let mut system = replayed_system(long_cfg, "sssp", &path);
    let heap = system.try_run().expect("wrapped run");
    assert_eq!(heap, scan);
    // Each core consumed its 100-record rank slice at least 4 times.
    let metrics = system.metrics();
    let wraps: u64 = (0..long_cfg.nodes)
        .map(|n| {
            metrics
                .counter_value(&format!("node{n}/replay_wraps"))
                .unwrap_or(0)
        })
        .sum();
    assert!(
        wraps >= 3 * (long_cfg.nodes * long_cfg.cores_per_node) as u64,
        "expected every core to wrap, saw {wraps} wraps"
    );
    std::fs::remove_file(&path).ok();
}

/// Streams a buffer through [`TraceReader`] with the given chunk
/// size, collecting either all records or the first error.
fn stream_all(buf: &[u8], chunk: usize) -> io::Result<Vec<TraceRecord>> {
    let mut rd = TraceReader::with_chunk_size(buf, chunk)?;
    let mut out = Vec::new();
    while let Some(rec) = rd.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

#[test]
fn streamed_reader_agrees_with_one_shot_at_random_chunk_sizes() {
    let mut rng = SimRng::seeded(0xC4A2);
    let refs: Vec<MemRef> = Workload::by_name("mcf")
        .unwrap()
        .generator(7)
        .take_refs(257);
    let records: Vec<TraceRecord> = refs
        .iter()
        .enumerate()
        .map(|(i, &mem)| TraceRecord {
            rank: (i % 5) as u16,
            mem,
        })
        .collect();
    let mut v1 = Vec::new();
    write_trace(&mut v1, &refs).unwrap();
    let mut v2 = Vec::new();
    write_trace_v2(&mut v2, 5, &records).unwrap();
    // Deliberate boundary chunk sizes: header splitting (1..16) and
    // RECORD_BYTES±1 for both record widths (12..16), plus random
    // sizes up to past the whole-file length.
    let mut chunks: Vec<usize> = (1..=17).collect();
    for _ in 0..40 {
        chunks.push(rng.below(v2.len() as u64 + 64) as usize + 1);
    }
    for &chunk in &chunks {
        let oneshot_v1 = read_records(v1.as_slice()).unwrap();
        assert_eq!(
            stream_all(&v1, chunk).unwrap(),
            oneshot_v1,
            "v1 diverged at chunk {chunk}"
        );
        let oneshot_v2 = read_records(v2.as_slice()).unwrap();
        assert_eq!(
            stream_all(&v2, chunk).unwrap(),
            oneshot_v2,
            "v2 diverged at chunk {chunk}"
        );
    }
    // v1 records carry rank 0 and the untagged view matches.
    assert_eq!(read_trace(v1.as_slice()).unwrap(), refs);
    assert!(read_records(v1.as_slice())
        .unwrap()
        .iter()
        .all(|r| r.rank == 0));
}

#[test]
fn streamed_replay_wraps_identically_at_any_chunk_size() {
    let refs: Vec<MemRef> = Workload::by_name("pf").unwrap().generator(9).take_refs(33);
    let path = temp_trace("chunk-wrap");
    write_trace(File::create(&path).expect("temp trace file"), &refs).unwrap();
    let mut rng = SimRng::seeded(0x11);
    for _ in 0..12 {
        let chunk = rng.below(600) as usize + 1;
        let mut replay =
            StreamedReplay::open_with_chunk(&path, None, chunk).expect("open replay source");
        for i in 0..100usize {
            assert_eq!(replay.next_ref(), refs[i % 33], "chunk {chunk}, ref {i}");
        }
        assert_eq!(replay.wraps(), 100 / 33, "chunk {chunk}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_and_corrupt_traces_return_invalid_data_everywhere() {
    let refs: Vec<MemRef> = Workload::by_name("mcf").unwrap().generator(3).take_refs(20);
    let mut good = Vec::new();
    write_trace(&mut good, &refs).unwrap();

    // The corpus: every malformed shape the format can take. Each
    // entry must surface as InvalidData — never a panic, never an
    // unbounded allocation — from the one-shot reader, and (where the
    // header parses differently) the same from the streamed reader.
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    for cut in [0usize, 3, 7, 13] {
        corpus.push((format!("truncated header at {cut}"), good[..cut].to_vec()));
    }
    corpus.push(("bad magic".into(), {
        let mut b = good.clone();
        b[..4].copy_from_slice(b"NOPE");
        b
    }));
    corpus.push(("unsupported version 99".into(), {
        let mut b = good.clone();
        b[4] = 99;
        b
    }));
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
    // count * RECORD_BYTES wraps u64: without checked_mul the product
    // is small enough to pass a naive length check while
    // count-as-usize would demand an absurd preallocation.
    let overflow_count = (u64::MAX / 13) + 2;
    corpus.push(("overflowing record count".into(), {
        let mut b = good[..14].to_vec();
        b[6..14].copy_from_slice(&overflow_count.to_le_bytes());
        let body = (overflow_count.wrapping_mul(13)) as usize;
        b.extend(std::iter::repeat_n(0u8, body));
        b
    }));
    corpus.push(("huge count, empty body".into(), {
        let mut b = good[..14].to_vec();
        b[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        b
    }));
    // v2 with a record rank beyond the declared rank count.
    corpus.push(("rank out of range".into(), {
        let records: Vec<TraceRecord> = refs
            .iter()
            .map(|&mem| TraceRecord { rank: 0, mem })
            .collect();
        let mut b = Vec::new();
        write_trace_v2(&mut b, 1, &records).unwrap();
        let last = b.len() - 2;
        b[last..].copy_from_slice(&7u16.to_le_bytes());
        b
    }));

    for (name, bytes) in &corpus {
        let err = read_trace(bytes.as_slice()).expect_err(name);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
        let streamed = stream_all(bytes, 5).expect_err(name);
        assert_eq!(
            streamed.kind(),
            io::ErrorKind::InvalidData,
            "streamed {name}"
        );
        // A file-backed replay source must reject it at open.
        let path = temp_trace("corpus");
        std::fs::write(&path, bytes).unwrap();
        let opened = StreamedReplay::open(&path, None).expect_err(name);
        assert_eq!(opened.kind(), io::ErrorKind::InvalidData, "replay {name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn streamed_reader_memory_is_bounded_by_the_chunk_size() {
    // A trace of 200k records (~2.9 MB) streams through a 4 KiB
    // buffer: the reader's entire state is its fixed chunk buffer, so
    // decoding never allocates proportional to trace length.
    let path = temp_trace("bounded");
    let w = Workload::by_name("sssp").unwrap();
    let refs = w.generator(1).take_refs(200_000);
    write_trace(
        BufWriter::new(File::create(&path).expect("temp trace file")),
        &refs,
    )
    .unwrap();
    let mut rd =
        TraceReader::with_chunk_size(File::open(&path).unwrap(), 4096).expect("open reader");
    assert_eq!(rd.buffer_bytes(), 4096);
    let mut n = 0u64;
    while let Some(rec) = rd.next_record().expect("well-formed trace") {
        assert_eq!(rec.mem, refs[n as usize]);
        n += 1;
    }
    assert_eq!(n, 200_000);
    assert_eq!(rd.buffer_bytes(), 4096);
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
