//! On-disk trace format, a streamed reader, and replay sources.
//!
//! `deact-sim record` captures the per-core reference streams a live
//! run executes and `deact-sim replay` feeds them back through the
//! same system model. This module defines that compact binary trace
//! format (`FAMT`), its streamed decoder, and a replaying reference
//! source that plugs into the system through [`RefStream`].
//!
//! # Format (little-endian)
//!
//! Magic `FAMT`, version `u16 = 2`, record count `u64`, rank count
//! `u16`; then per 15-byte record: virtual address `u64`, flags `u8`
//! (bit 0 = write, bit 1 = dependent), instruction gap `u32`, rank
//! `u16`. A *rank* is a global core index (`node * cores_per_node +
//! core`), so one file drives an N-node system: each core replays
//! exactly the records carrying its rank, in file order. Records for
//! different ranks may be interleaved arbitrarily; [`record_streams`]
//! writes them round-robin so every per-rank subsequence is in program
//! order. Any other version is rejected.
//!
//! # Reading
//!
//! [`TraceReader`] streams records through a fixed-size [`BufReader`],
//! so arbitrarily long traces replay in constant memory;
//! [`replay_streams`] validates a file in one pass and wraps one reader
//! per rank into a wrapping [`StreamedReplay`] source.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use fam_vm::VirtAddr;

use crate::{MemRef, TraceGenerator};

/// File magic.
const MAGIC: &[u8; 4] = b"FAMT";
/// The format version.
const VERSION: u16 = 2;
/// Bytes per encoded record.
const RECORD_BYTES: usize = 15;
/// Bytes in a header (magic + version + count + rank count).
const HEADER_BYTES: usize = 16;
/// Read buffer per reader: large enough to amortize syscalls, small
/// enough that a few thousand concurrent readers stay cache-friendly.
const BUFFER_BYTES: usize = 64 * 1024;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A decoded trace header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Records in the body.
    pub count: u64,
    /// Ranks the trace addresses.
    pub ranks: u16,
}

/// One trace record: a memory reference tagged with the rank (global
/// core index) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global core index `node * cores_per_node + core`.
    pub rank: u16,
    /// The memory reference.
    pub mem: MemRef,
}

fn decode_record(chunk: &[u8]) -> TraceRecord {
    let vaddr = u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes"));
    let flags = chunk[8];
    let gap = u32::from_le_bytes(chunk[9..13].try_into().expect("4 bytes"));
    TraceRecord {
        rank: u16::from_le_bytes([chunk[13], chunk[14]]),
        mem: MemRef {
            vaddr: VirtAddr(vaddr),
            is_write: flags & 1 != 0,
            dependent: flags & 2 != 0,
            gap_instrs: gap,
        },
    }
}

fn encode_record(rec: &TraceRecord) -> [u8; RECORD_BYTES] {
    let mut out = [0u8; RECORD_BYTES];
    out[0..8].copy_from_slice(&rec.mem.vaddr.0.to_le_bytes());
    out[8] = (rec.mem.is_write as u8) | ((rec.mem.dependent as u8) << 1);
    out[9..13].copy_from_slice(&rec.mem.gap_instrs.to_le_bytes());
    out[13..15].copy_from_slice(&rec.rank.to_le_bytes());
    out
}

/// Streams a trace to a writer without buffering the records, for
/// record paths whose traces may not fit in memory. The record count
/// is declared up front (it lives in the header) and
/// [`TraceWriter::finish`] verifies the promise was kept.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    ranks: u16,
    declared: u64,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes a header declaring `count` records across `ranks`
    /// ranks and returns the open writer.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `ranks == 0`; otherwise propagates writer
    /// errors.
    pub fn v2(mut w: W, ranks: u16, count: u64) -> io::Result<TraceWriter<W>> {
        if ranks == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a trace needs at least one rank",
            ));
        }
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
        w.write_all(&ranks.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            ranks,
            declared: count,
            written: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the record's rank is out of range or the
    /// declared count is already written; otherwise writer errors.
    pub fn push(&mut self, rec: &TraceRecord) -> io::Result<()> {
        if rec.rank >= self.ranks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record rank {} out of range (ranks {})",
                    rec.rank, self.ranks
                ),
            ));
        }
        if self.written == self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more records pushed than the header declares",
            ));
        }
        self.w.write_all(&encode_record(rec))?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the record count.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when fewer records were pushed than declared;
    /// otherwise writer errors.
    pub fn finish(mut self) -> io::Result<u64> {
        if self.written != self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "header declares {} records but {} were written",
                    self.declared, self.written
                ),
            ));
        }
        self.w.flush()?;
        Ok(self.written)
    }
}

/// Serialises tagged records to a writer.
///
/// Returns the number of records written.
///
/// # Errors
///
/// `InvalidInput` for `ranks == 0` or an out-of-range record rank;
/// otherwise propagates writer errors.
pub fn write_trace_v2<W: Write>(w: W, ranks: u16, records: &[TraceRecord]) -> io::Result<u64> {
    let mut tw = TraceWriter::v2(w, ranks, records.len() as u64)?;
    for rec in records {
        tw.push(rec)?;
    }
    tw.finish()
}

/// Streamed trace decoder.
///
/// Reads through one fixed 64 KiB [`BufReader`], so traces far larger
/// than RAM replay fine.
///
/// # Examples
///
/// ```
/// use fam_workloads::trace::{self, TraceRecord};
/// use fam_workloads::Workload;
///
/// let refs = Workload::by_name("pf").unwrap().generator(1).take_refs(10);
/// let records: Vec<TraceRecord> = refs
///     .iter()
///     .map(|&mem| TraceRecord { rank: 0, mem })
///     .collect();
/// let mut buf = Vec::new();
/// trace::write_trace_v2(&mut buf, 1, &records).unwrap();
/// let mut rd = trace::TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(rd.header().count, 10);
/// assert_eq!(rd.next_record().unwrap(), Some(records[0]));
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: BufReader<R>,
    header: TraceHeader,
    delivered: u64,
}

/// Fills `buf` from `src`, naming a short read `InvalidData` with
/// `msg`.
fn read_or_invalid(src: &mut impl Read, buf: &mut [u8], msg: &str) -> io::Result<()> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid(msg),
        _ => e,
    })
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader, decoding the header.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a truncated/bad header or unsupported
    /// version; reader errors otherwise.
    pub fn new(src: R) -> io::Result<TraceReader<R>> {
        let mut src = BufReader::with_capacity(BUFFER_BYTES, src);
        let mut h = [0u8; HEADER_BYTES];
        // Check the magic and version before the rest of the header, so
        // a file of another version is named as such even when its
        // header is shorter.
        read_or_invalid(&mut src, &mut h[..6], "truncated trace header")?;
        if &h[0..4] != MAGIC {
            return Err(invalid("not a FAMT trace"));
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != VERSION {
            return Err(invalid(format!("unsupported trace version {version}")));
        }
        read_or_invalid(&mut src, &mut h[6..], "truncated trace header")?;
        let count = u64::from_le_bytes(h[6..14].try_into().expect("8 bytes"));
        // Reject counts whose body length cannot be represented: a
        // stream never trips this while delivering records, but a
        // forged header should fail at open, not mid-replay.
        count
            .checked_mul(RECORD_BYTES as u64)
            .ok_or_else(|| invalid("trace record count overflows the body length"))?;
        Ok(TraceReader {
            src,
            header: TraceHeader {
                count,
                ranks: u16::from_le_bytes([h[14], h[15]]),
            },
            delivered: 0,
        })
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of
    /// trace.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the body is truncated, carries trailing
    /// bytes beyond the declared count, or a record's rank is out of
    /// range; reader errors otherwise.
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        const BODY_MISMATCH: &str = "trace body length does not match record count";
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::ReplayDecode);
        if self.delivered == self.header.count {
            if !self.src.fill_buf()?.is_empty() {
                return Err(invalid(BODY_MISMATCH));
            }
            return Ok(None);
        }
        let mut bytes = [0u8; RECORD_BYTES];
        read_or_invalid(&mut self.src, &mut bytes, BODY_MISMATCH)?;
        let rec = decode_record(&bytes);
        if rec.rank >= self.header.ranks {
            return Err(invalid(format!(
                "record rank {} out of range (ranks {})",
                rec.rank, self.header.ranks
            )));
        }
        self.delivered += 1;
        Ok(Some(rec))
    }
}

fn open_reader(path: &Path) -> io::Result<TraceReader<File>> {
    TraceReader::new(File::open(path)?)
}

/// Replays one rank's records from a trace file through a streamed
/// [`TraceReader`], wrapping around at the end of the file. Memory
/// held is one read buffer regardless of trace length.
///
/// Built by [`replay_streams`], which validates the whole file first;
/// after that the source is infallible like every [`RefStream`] — a
/// file that turns unreadable *mid-replay* (deleted, truncated under
/// us) panics with the offending path, since the simulation cannot
/// continue and has no per-ref error channel.
#[derive(Debug)]
pub struct StreamedReplay {
    path: PathBuf,
    /// The rank whose records this source replays.
    rank: u16,
    reader: TraceReader<File>,
    /// Records per pass that carry `rank`.
    matching: u64,
    emitted: u64,
}

impl StreamedReplay {
    /// References emitted so far (counting wrap-arounds).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Completed passes over the file.
    #[must_use]
    pub fn wraps(&self) -> u64 {
        self.emitted / self.matching
    }

    /// The next reference, wrapping at the end of the file.
    ///
    /// # Panics
    ///
    /// Panics if the validated file turns unreadable or malformed
    /// mid-replay.
    pub fn next_ref(&mut self) -> MemRef {
        loop {
            match self.reader.next_record() {
                Ok(Some(rec)) => {
                    if rec.rank == self.rank {
                        self.emitted += 1;
                        return rec.mem;
                    }
                }
                Ok(None) => {
                    self.reader = open_reader(&self.path)
                        .unwrap_or_else(|e| panic!("reopening {}: {e}", self.path.display()));
                }
                Err(e) => panic!("replaying {}: {e}", self.path.display()),
            }
        }
    }
}

/// A reference source: a synthetic generator or a streamed on-disk
/// trace replay. Each simulated core draws its references from one,
/// a single [`RefStream::next_ref`] call per reference.
#[derive(Debug)]
pub enum RefStream {
    /// Synthetic Table III generator.
    Synthetic(TraceGenerator),
    /// Recorded-trace replay streamed from a file.
    Streamed(StreamedReplay),
}

impl RefStream {
    /// The next reference from the stream.
    pub fn next_ref(&mut self) -> MemRef {
        match self {
            RefStream::Synthetic(g) => g.next_ref(),
            RefStream::Streamed(r) => r.next_ref(),
        }
    }

    /// References emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        match self {
            RefStream::Synthetic(g) => g.emitted(),
            RefStream::Streamed(r) => r.emitted(),
        }
    }

    /// Completed passes over the backing trace (0 for synthetic
    /// sources, which never wrap).
    #[must_use]
    pub fn wraps(&self) -> u64 {
        match self {
            RefStream::Synthetic(_) => 0,
            RefStream::Streamed(r) => r.wraps(),
        }
    }
}

impl From<TraceGenerator> for RefStream {
    fn from(g: TraceGenerator) -> RefStream {
        RefStream::Synthetic(g)
    }
}

/// Records `refs_per_stream` references from every stream into a v2
/// trace, interleaved round-robin across ranks so each rank's
/// subsequence is in program order. Streams are flattened node-major:
/// rank = `node * cores_per_node + core`, matching
/// [`replay_streams`].
///
/// # Errors
///
/// `InvalidInput` for an empty or >65535-stream matrix; writer errors
/// otherwise.
pub fn record_streams<W: Write>(
    w: W,
    streams: &mut [Vec<RefStream>],
    refs_per_stream: u64,
) -> io::Result<u64> {
    let mut flat: Vec<&mut RefStream> = streams.iter_mut().flatten().collect();
    let ranks = u16::try_from(flat.len())
        .ok()
        .filter(|&r| r > 0)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rank count {} not in 1..=65535", flat.len()),
            )
        })?;
    let mut tw = TraceWriter::v2(w, ranks, refs_per_stream * u64::from(ranks))?;
    for _ in 0..refs_per_stream {
        for (rank, s) in flat.iter_mut().enumerate() {
            tw.push(&TraceRecord {
                rank: rank as u16,
                mem: s.next_ref(),
            })?;
        }
    }
    tw.finish()
}

/// Builds a `nodes × cores_per_node` stream matrix replaying `path`.
/// The trace must address exactly `nodes * cores_per_node` ranks, and
/// each core replays its own rank's records.
///
/// One validation pass walks the whole file (header, topology, every
/// record) and counts each rank's records, so replay-time errors can
/// only come from the file changing under us.
///
/// # Errors
///
/// `InvalidData` for malformed traces, a rank count that does not
/// match the topology, or a rank with zero records; I/O errors
/// otherwise.
pub fn replay_streams(
    path: impl AsRef<Path>,
    nodes: usize,
    cores_per_node: usize,
) -> io::Result<Vec<Vec<RefStream>>> {
    let path = path.as_ref();
    let mut scan = open_reader(path)?;
    let ranks = scan.header().ranks;
    let want = nodes * cores_per_node;
    if usize::from(ranks) != want {
        return Err(invalid(format!(
            "trace addresses {ranks} ranks but the topology has {want} \
             ({nodes} nodes x {cores_per_node} cores)"
        )));
    }
    let mut matching = vec![0u64; want];
    while let Some(rec) = scan.next_record()? {
        matching[usize::from(rec.rank)] += 1;
    }
    if let Some(rank) = matching.iter().position(|&n| n == 0) {
        return Err(invalid(format!("trace has no records for rank {rank}")));
    }
    let mut sources = matching.into_iter().enumerate().map(|(rank, matching)| {
        Ok(RefStream::Streamed(StreamedReplay {
            path: path.to_path_buf(),
            rank: rank as u16,
            reader: open_reader(path)?,
            matching,
            emitted: 0,
        }))
    });
    (0..nodes)
        .map(|_| sources.by_ref().take(cores_per_node).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, VA_BASE};

    fn sample_records(n: usize, ranks: u16) -> Vec<TraceRecord> {
        Workload::by_name("mcf")
            .unwrap()
            .generator(3)
            .take_refs(n)
            .into_iter()
            .enumerate()
            .map(|(i, mem)| TraceRecord {
                rank: (i % ranks as usize) as u16,
                mem,
            })
            .collect()
    }

    fn encode(records: &[TraceRecord], ranks: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        assert_eq!(
            write_trace_v2(&mut buf, ranks, records).unwrap(),
            records.len() as u64
        );
        buf
    }

    /// Decodes every record, or returns the first error.
    fn read_all(buf: &[u8]) -> io::Result<Vec<TraceRecord>> {
        let mut rd = TraceReader::new(buf)?;
        let mut out = Vec::new();
        while let Some(rec) = rd.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("famt-unit-{}-{tag}.famt", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let records = sample_records(500, 1);
        let buf = encode(&records, 1);
        assert_eq!(read_all(&buf).unwrap(), records);
    }

    #[test]
    fn v2_roundtrip_preserves_ranks() {
        let records = sample_records(300, 3);
        let buf = encode(&records, 3);
        let mut rd = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(
            rd.header(),
            TraceHeader {
                count: 300,
                ranks: 3
            }
        );
        let mut streamed = Vec::new();
        while let Some(rec) = rd.next_record().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(streamed, records);
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert!(read_all(&encode(&[], 1)).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode(&sample_records(1, 1), 1);
        buf[..4].copy_from_slice(b"NOPE");
        let err = read_all(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = encode(&sample_records(1, 1), 1);
        for version in [1u16, 3, 99] {
            buf[4..6].copy_from_slice(&version.to_le_bytes());
            let err = read_all(&buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("unsupported trace version {version}")
            );
        }
    }

    #[test]
    fn truncated_body_rejected() {
        let mut buf = encode(&sample_records(10, 1), 1);
        buf.pop();
        assert!(read_all(&buf).is_err());
    }

    #[test]
    fn streamed_reader_rejects_trailing_bytes() {
        let mut buf = encode(&sample_records(4, 1), 1);
        buf.push(0xAB);
        let mut rd = TraceReader::new(buf.as_slice()).unwrap();
        for _ in 0..4 {
            rd.next_record().unwrap().unwrap();
        }
        assert!(rd.next_record().is_err());
    }

    #[test]
    fn writer_enforces_declared_count_and_rank_range() {
        let records = sample_records(8, 2);
        let mut tw = TraceWriter::v2(Vec::new(), 2, 9).unwrap();
        for rec in &records {
            tw.push(rec).unwrap();
        }
        assert!(tw.finish().is_err()); // 8 written, 9 declared
        let mut tw = TraceWriter::v2(Vec::new(), 2, 1).unwrap();
        assert!(tw
            .push(&TraceRecord {
                rank: 2,
                mem: records[0].mem
            })
            .is_err());
    }

    #[test]
    fn streamed_replay_filters_ranks_and_wraps() {
        let records = sample_records(30, 3);
        let path = temp_path("filter");
        write_trace_v2(File::create(&path).unwrap(), 3, &records).unwrap();
        let mut replay = replay_streams(&path, 1, 3).unwrap().remove(0).remove(1);
        let rank1: Vec<MemRef> = records
            .iter()
            .filter(|r| r.rank == 1)
            .map(|r| r.mem)
            .collect();
        for i in 0..25 {
            assert_eq!(replay.next_ref(), rank1[i % 10]);
        }
        assert_eq!(replay.emitted(), 25);
        assert_eq!(replay.wraps(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_replay_rejects_missing_rank() {
        // Two ranks declared, every record on rank 0.
        let records = sample_records(10, 1);
        let path = temp_path("missing-rank");
        write_trace_v2(File::create(&path).unwrap(), 2, &records).unwrap();
        let err = replay_streams(&path, 1, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "trace has no records for rank 1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_streams_validates_in_one_pass() {
        // Every `next_record` call is one `replay-decode` span, so a
        // single pass over 64 records is 65 calls (the last finds the
        // clean end), however many ranks the file addresses.
        let records = sample_records(64, 4);
        let path = temp_path("one-pass");
        write_trace_v2(File::create(&path).unwrap(), 4, &records).unwrap();
        let _ = fam_sim::profile::take_report();
        fam_sim::profile::set_enabled(true);
        let streams = replay_streams(&path, 2, 2);
        fam_sim::profile::set_enabled(false);
        let decode = fam_sim::profile::take_report().phase(fam_sim::profile::PhaseId::ReplayDecode);
        assert_eq!(streams.unwrap().into_iter().flatten().count(), 4);
        assert_eq!(decode.calls, 65);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_then_replay_streams_are_identical() {
        let w = Workload::by_name("mcf").unwrap();
        let streams = || -> Vec<Vec<RefStream>> {
            (0..2)
                .map(|n| {
                    (0..2)
                        .map(|c| {
                            RefStream::from(TraceGenerator::new(w, VA_BASE, (n * 2 + c) as u64))
                        })
                        .collect()
                })
                .collect()
        };
        let (mut live, mut recorded) = (streams(), streams());
        let path = temp_path("roundtrip");
        record_streams(File::create(&path).unwrap(), &mut recorded, 40).unwrap();
        let mut replayed = replay_streams(&path, 2, 2).unwrap();
        for n in 0..2 {
            for c in 0..2 {
                for _ in 0..40 {
                    assert_eq!(replayed[n][c].next_ref(), live[n][c].next_ref());
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_streams_bounds_the_rank_count() {
        // 65,536 streams do not fit the u16 rank count; 65,535 do.
        let w = Workload::by_name("pf").unwrap();
        let mut streams = vec![(0..65_536)
            .map(|_| RefStream::from(w.generator(1)))
            .collect::<Vec<_>>()];
        let err = record_streams(io::sink(), &mut streams, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), "rank count 65536 not in 1..=65535");
        streams[0].pop();
        assert_eq!(record_streams(io::sink(), &mut streams, 1).unwrap(), 65_535);
        assert!(record_streams(io::sink(), &mut Vec::new(), 1).is_err());
    }

    #[test]
    fn replay_streams_checks_topology() {
        let records = sample_records(12, 4);
        let path = temp_path("topology");
        write_trace_v2(File::create(&path).unwrap(), 4, &records).unwrap();
        assert!(replay_streams(&path, 3, 1).is_err());
        assert!(replay_streams(&path, 2, 2).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_replay_rejected() {
        let path = temp_path("empty");
        write_trace_v2(File::create(&path).unwrap(), 1, &[]).unwrap();
        assert!(replay_streams(&path, 1, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ref_stream_dispatches() {
        let mut synth: RefStream = Workload::by_name("pf").unwrap().generator(1).into();
        synth.next_ref();
        assert_eq!(synth.emitted(), 1);
        assert_eq!(synth.wraps(), 0);
    }
}
