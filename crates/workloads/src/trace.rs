//! On-disk trace format, streamed readers, and replay sources.
//!
//! The synthetic generators stand in for the paper's benchmark
//! binaries (DESIGN.md §1), but a user with real application traces —
//! from a PIN tool, from SST's Ariel, from perf — should be able to
//! feed them through the same system model. This module defines a
//! compact binary trace format (`FAMT`), one-shot and streamed
//! decoders, and replaying reference sources that plug into every
//! engine through [`RefStream`].
//!
//! # Format (little-endian)
//!
//! Version 1 (single-stream): magic `FAMT`, version `u16 = 1`, record
//! count `u64`; then per 13-byte record: virtual address `u64`, flags
//! `u8` (bit 0 = write, bit 1 = dependent), instruction gap `u32`.
//!
//! Version 2 (multi-rank): magic `FAMT`, version `u16 = 2`, record
//! count `u64`, rank count `u16`; then per 15-byte record the v1
//! fields plus a trailing rank `u16`. A *rank* is a global core index
//! (`node * cores_per_node + core`), so one file drives an N-node
//! system: each core replays exactly the records carrying its rank,
//! in file order. Records for different ranks may be interleaved
//! arbitrarily; [`record_streams`] writes them round-robin so every
//! per-rank subsequence is in program order.
//!
//! # Readers
//!
//! [`read_trace`] / [`read_records`] are one-shot (whole body in
//! memory). [`TraceReader`] streams records through a bounded chunk
//! buffer, so arbitrarily long traces replay in constant memory —
//! [`StreamedReplay`] wraps it into a wrapping per-rank [`RefStream`]
//! source backed by a file on disk.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use fam_vm::VirtAddr;

use crate::{MemRef, TraceGenerator};

/// File magic.
const MAGIC: &[u8; 4] = b"FAMT";
/// Single-stream format version.
const VERSION: u16 = 1;
/// Multi-rank format version.
const VERSION_V2: u16 = 2;
/// Bytes per encoded v1 record.
const RECORD_BYTES: usize = 13;
/// Bytes per encoded v2 record (v1 plus a trailing rank `u16`).
const RECORD_BYTES_V2: usize = 15;
/// Bytes in a v1 header (magic + version + count).
const HEADER_V1: usize = 14;
/// Bytes in a v2 header (v1 plus a rank count `u16`).
const HEADER_V2: usize = 16;
/// Default streaming chunk: large enough to amortize syscalls, small
/// enough that a few thousand concurrent readers stay cache-friendly.
const DEFAULT_CHUNK: usize = 64 * 1024;
/// One-shot decode preallocates at most this many records before
/// letting `Vec` grow naturally — a forged header's count cannot force
/// a huge up-front allocation.
const PREALLOC_CAP: u64 = 1 << 20;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bytes per record for a given format version.
fn record_bytes(version: u16) -> usize {
    if version == VERSION_V2 {
        RECORD_BYTES_V2
    } else {
        RECORD_BYTES
    }
}

/// A decoded trace header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (1 or 2).
    pub version: u16,
    /// Records in the body.
    pub count: u64,
    /// Ranks the trace addresses (always 1 for v1 files).
    pub ranks: u16,
}

/// One trace record: a memory reference tagged with the rank (global
/// core index) that issued it. V1 files carry no ranks; their records
/// decode with rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global core index `node * cores_per_node + core`.
    pub rank: u16,
    /// The memory reference.
    pub mem: MemRef,
}

fn decode_mem(chunk: &[u8]) -> MemRef {
    let vaddr = u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes"));
    let flags = chunk[8];
    let gap = u32::from_le_bytes(chunk[9..13].try_into().expect("4 bytes"));
    MemRef {
        vaddr: VirtAddr(vaddr),
        is_write: flags & 1 != 0,
        dependent: flags & 2 != 0,
        gap_instrs: gap,
    }
}

fn decode_record(version: u16, chunk: &[u8]) -> TraceRecord {
    let rank = if version == VERSION_V2 {
        u16::from_le_bytes([chunk[13], chunk[14]])
    } else {
        0
    };
    TraceRecord {
        rank,
        mem: decode_mem(chunk),
    }
}

fn encode_mem(r: &MemRef, out: &mut [u8; RECORD_BYTES]) {
    out[0..8].copy_from_slice(&r.vaddr.0.to_le_bytes());
    out[8] = (r.is_write as u8) | ((r.dependent as u8) << 1);
    out[9..13].copy_from_slice(&r.gap_instrs.to_le_bytes());
}

/// Serialises a single reference stream to a writer (format v1).
///
/// Returns the number of records written.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use fam_workloads::{trace, Workload};
///
/// let refs = Workload::by_name("pf").unwrap().generator(1).take_refs(100);
/// let mut buf = Vec::new();
/// trace::write_trace(&mut buf, &refs).unwrap();
/// let back = trace::read_trace(&mut buf.as_slice()).unwrap();
/// assert_eq!(back, refs);
/// ```
pub fn write_trace<W: Write>(mut w: W, refs: &[MemRef]) -> io::Result<u64> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(refs.len() as u64).to_le_bytes())?;
    let mut rec = [0u8; RECORD_BYTES];
    for r in refs {
        encode_mem(r, &mut rec);
        w.write_all(&rec)?;
    }
    Ok(refs.len() as u64)
}

/// Streams a v2 (multi-rank) trace to a writer without buffering the
/// records, for record paths whose traces may not fit in memory. The
/// record count is declared up front (it lives in the header) and
/// [`TraceWriter::finish`] verifies the promise was kept.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    ranks: u16,
    declared: u64,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes a v2 header declaring `count` records across `ranks`
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
        w.write_all(&VERSION_V2.to_le_bytes())?;
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
        let mut buf = [0u8; RECORD_BYTES_V2];
        encode_mem(
            &rec.mem,
            (&mut buf[..RECORD_BYTES]).try_into().expect("13 bytes"),
        );
        buf[13..15].copy_from_slice(&rec.rank.to_le_bytes());
        self.w.write_all(&buf)?;
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

/// Serialises tagged records to a writer in format v2.
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

/// One-shot decode of a v1 or v2 trace into untagged references
/// (ranks, if present, are dropped — see [`read_records`] to keep
/// them).
///
/// # Errors
///
/// Returns `InvalidData` for a truncated or bad header, an
/// unsupported version, an overflowing record count, or a body whose
/// length does not match the header count; propagates reader errors.
pub fn read_trace<R: Read>(r: R) -> io::Result<Vec<MemRef>> {
    Ok(read_records(r)?.into_iter().map(|t| t.mem).collect())
}

/// One-shot decode of a v1 or v2 trace into rank-tagged records (v1
/// records decode with rank 0).
///
/// # Errors
///
/// Same contract as [`read_trace`].
pub fn read_records<R: Read>(mut r: R) -> io::Result<Vec<TraceRecord>> {
    let mut header = [0u8; HEADER_V1];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("truncated trace header")
        } else {
            e
        }
    })?;
    if &header[0..4] != MAGIC {
        return Err(invalid("not a FAMT trace"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION && version != VERSION_V2 {
        return Err(invalid(format!("unsupported trace version {version}")));
    }
    let count = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let mut ranks = 1u16;
    if version == VERSION_V2 {
        let mut ext = [0u8; 2];
        r.read_exact(&mut ext).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid("truncated trace header")
            } else {
                e
            }
        })?;
        ranks = u16::from_le_bytes(ext);
    }
    let rb = record_bytes(version);
    // A forged header must not be able to wrap this multiplication
    // (and sneak a bogus small body past the length check) or force a
    // count-sized preallocation.
    let body_len = count
        .checked_mul(rb as u64)
        .ok_or_else(|| invalid("trace record count overflows the body length"))?;
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    if body.len() as u64 != body_len {
        return Err(invalid("trace body length does not match record count"));
    }
    let mut records = Vec::with_capacity(count.min(PREALLOC_CAP) as usize);
    for chunk in body.chunks_exact(rb) {
        let rec = decode_record(version, chunk);
        if rec.rank >= ranks {
            return Err(invalid(format!(
                "record rank {} out of range (ranks {ranks})",
                rec.rank
            )));
        }
        records.push(rec);
    }
    Ok(records)
}

/// Streamed chunked decoder for v1 and v2 traces.
///
/// Holds at most one chunk (plus a partial record) in memory, so
/// traces far larger than RAM replay fine. Agrees byte-for-byte with
/// the one-shot [`read_records`] on every well-formed and malformed
/// input (pinned by a randomized property test).
///
/// # Examples
///
/// ```
/// use fam_workloads::{trace, Workload};
///
/// let refs = Workload::by_name("pf").unwrap().generator(1).take_refs(10);
/// let mut buf = Vec::new();
/// trace::write_trace(&mut buf, &refs).unwrap();
/// let mut rd = trace::TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(rd.header().count, 10);
/// assert_eq!(rd.next_record().unwrap().unwrap().mem, refs[0]);
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    /// Read granularity: at most this many bytes per `read` call.
    chunk: usize,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    header: TraceHeader,
    delivered: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader with the default chunk size, decoding the
    /// header.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a truncated/bad header or unsupported
    /// version; reader errors otherwise.
    pub fn new(src: R) -> io::Result<TraceReader<R>> {
        TraceReader::with_chunk_size(src, DEFAULT_CHUNK)
    }

    /// Opens a reader that reads at most `chunk` bytes at a time
    /// (clamped to at least 1). The internal buffer is
    /// `max(chunk, 16)` bytes — the bounded-memory guarantee.
    ///
    /// # Errors
    ///
    /// Same contract as [`TraceReader::new`].
    pub fn with_chunk_size(src: R, chunk: usize) -> io::Result<TraceReader<R>> {
        let chunk = chunk.max(1);
        let cap = chunk.max(HEADER_V2);
        let mut rd = TraceReader {
            src,
            chunk,
            buf: vec![0u8; cap].into_boxed_slice(),
            start: 0,
            end: 0,
            header: TraceHeader {
                version: 0,
                count: 0,
                ranks: 0,
            },
            delivered: 0,
            done: false,
        };
        rd.read_header()?;
        Ok(rd)
    }

    fn read_header(&mut self) -> io::Result<()> {
        if !self.fill(HEADER_V1)? {
            return Err(invalid("truncated trace header"));
        }
        let h = &self.buf[self.start..self.start + HEADER_V1];
        if &h[0..4] != MAGIC {
            return Err(invalid("not a FAMT trace"));
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != VERSION && version != VERSION_V2 {
            return Err(invalid(format!("unsupported trace version {version}")));
        }
        let count = u64::from_le_bytes(h[6..14].try_into().expect("8 bytes"));
        // Reject counts whose body length cannot be represented, like
        // the one-shot reader does — a stream never trips this while
        // delivering records, but the contract should not depend on
        // which decoder the caller picked.
        count
            .checked_mul(record_bytes(version) as u64)
            .ok_or_else(|| invalid("trace record count overflows the body length"))?;
        let mut ranks = 1u16;
        self.start += HEADER_V1;
        if version == VERSION_V2 {
            if !self.fill(2)? {
                return Err(invalid("truncated trace header"));
            }
            ranks = u16::from_le_bytes([self.buf[self.start], self.buf[self.start + 1]]);
            self.start += 2;
        }
        self.header = TraceHeader {
            version,
            count,
            ranks,
        };
        Ok(())
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// Bytes of buffer this reader holds — constant for its lifetime,
    /// independent of trace length.
    #[must_use]
    pub fn buffer_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Ensures at least `need` bytes are buffered. Returns `Ok(false)`
    /// on end-of-input with fewer than `need` bytes left.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.end - self.start >= need {
            return Ok(true);
        }
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::ReplayDecode);
        // Compact the partial tail to the front, then top up in
        // chunk-sized reads.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < need {
            let upper = self.buf.len().min(self.end + self.chunk);
            let n = self.src.read(&mut self.buf[self.end..upper])?;
            if n == 0 {
                return Ok(false);
            }
            self.end += n;
        }
        Ok(true)
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of
    /// trace.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the body is truncated, carries trailing
    /// bytes beyond the declared count, or a v2 record's rank is out
    /// of range; reader errors otherwise.
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        if self.done {
            return Ok(None);
        }
        if self.delivered == self.header.count {
            if self.end - self.start > 0 || self.fill(1)? {
                return Err(invalid("trace body length does not match record count"));
            }
            self.done = true;
            return Ok(None);
        }
        let rb = record_bytes(self.header.version);
        if !self.fill(rb)? {
            return Err(invalid("trace body length does not match record count"));
        }
        let rec = decode_record(self.header.version, &self.buf[self.start..self.start + rb]);
        if rec.rank >= self.header.ranks {
            return Err(invalid(format!(
                "record rank {} out of range (ranks {})",
                rec.rank, self.header.ranks
            )));
        }
        self.start += rb;
        self.delivered += 1;
        Ok(Some(rec))
    }
}

/// Replays a recorded trace held in memory, wrapping around at the end
/// so runs longer than the trace keep executing (like looping a
/// kernel).
#[derive(Debug, Clone)]
pub struct TraceReplay {
    refs: Vec<MemRef>,
    pos: usize,
    emitted: u64,
}

impl TraceReplay {
    /// Creates a replay source.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    pub fn new(refs: Vec<MemRef>) -> TraceReplay {
        assert!(!refs.is_empty(), "cannot replay an empty trace");
        TraceReplay {
            refs,
            pos: 0,
            emitted: 0,
        }
    }

    /// The next reference, wrapping at the end of the trace.
    pub fn next_ref(&mut self) -> MemRef {
        let r = self.refs[self.pos];
        self.pos = (self.pos + 1) % self.refs.len();
        self.emitted += 1;
        r
    }

    /// Records in the underlying trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// References emitted so far (counting wrap-arounds).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Replays one rank's records from a trace file through a streamed
/// [`TraceReader`], wrapping around at the end of the file. Memory
/// held is one chunk buffer regardless of trace length.
///
/// Construction makes one validation pass over the file (header,
/// rank-in-range, at least one matching record); after that the
/// source is infallible like every [`RefStream`] — a file that turns
/// unreadable *mid-replay* (deleted, truncated under us) panics with
/// the offending path, since the simulation cannot continue and has
/// no per-ref error channel.
#[derive(Debug)]
pub struct StreamedReplay {
    path: PathBuf,
    /// `Some(r)` replays only rank `r`'s records; `None` replays every
    /// record (how v1 single-stream files drive each core).
    rank: Option<u16>,
    chunk: usize,
    reader: TraceReader<File>,
    header: TraceHeader,
    /// Records per pass that match `rank`.
    matching: u64,
    emitted: u64,
}

impl StreamedReplay {
    /// Opens a replay source over `path` with the default chunk size.
    ///
    /// # Errors
    ///
    /// `InvalidData` for malformed traces, a rank not addressed by the
    /// file (v2), a rank filter on a v1 file, or a filter matching
    /// zero records; I/O errors otherwise.
    pub fn open(path: impl AsRef<Path>, rank: Option<u16>) -> io::Result<StreamedReplay> {
        StreamedReplay::open_with_chunk(path, rank, DEFAULT_CHUNK)
    }

    /// Opens a replay source reading `chunk` bytes at a time.
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamedReplay::open`].
    pub fn open_with_chunk(
        path: impl AsRef<Path>,
        rank: Option<u16>,
        chunk: usize,
    ) -> io::Result<StreamedReplay> {
        let path = path.as_ref().to_path_buf();
        // Validation pass: walk the whole file once so replay-time
        // errors can only come from the file changing under us.
        let mut scan = TraceReader::with_chunk_size(File::open(&path)?, chunk)?;
        let header = scan.header();
        if let Some(r) = rank {
            if header.version == VERSION {
                return Err(invalid("v1 traces carry no ranks to filter on"));
            }
            if r >= header.ranks {
                return Err(invalid(format!(
                    "rank {r} not addressed by the trace (ranks {})",
                    header.ranks
                )));
            }
        }
        let mut matching = 0u64;
        while let Some(rec) = scan.next_record()? {
            if rank.is_none_or(|r| rec.rank == r) {
                matching += 1;
            }
        }
        if matching == 0 {
            return Err(invalid(match rank {
                Some(r) => format!("trace has no records for rank {r}"),
                None => "cannot replay an empty trace".to_string(),
            }));
        }
        let reader = TraceReader::with_chunk_size(File::open(&path)?, chunk)?;
        Ok(StreamedReplay {
            path,
            rank,
            chunk,
            reader,
            header,
            matching,
            emitted: 0,
        })
    }

    /// The trace file's header.
    #[must_use]
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// Records matching this source's rank filter per pass over the
    /// file.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.matching
    }

    /// Whether a pass yields no records (never true for a constructed
    /// value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matching == 0
    }

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
                    if self.rank.is_none_or(|r| rec.rank == r) {
                        self.emitted += 1;
                        return rec.mem;
                    }
                }
                Ok(None) => self.rewind(),
                Err(e) => panic!("replaying {}: {e}", self.path.display()),
            }
        }
    }

    fn rewind(&mut self) {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("reopening {}: {e}", self.path.display()));
        self.reader = TraceReader::with_chunk_size(file, self.chunk)
            .unwrap_or_else(|e| panic!("replaying {}: {e}", self.path.display()));
    }
}

impl Clone for StreamedReplay {
    /// Reopens the file and fast-forwards to the same position within
    /// the current pass (engines clone stream matrices when probing
    /// configurations).
    fn clone(&self) -> StreamedReplay {
        let mut c = StreamedReplay::open_with_chunk(&self.path, self.rank, self.chunk)
            .unwrap_or_else(|e| panic!("reopening {}: {e}", self.path.display()));
        for _ in 0..(self.emitted % self.matching) {
            c.next_ref();
        }
        c.emitted = self.emitted;
        c
    }
}

/// A reference source: a synthetic generator, an in-memory trace
/// replay, or a streamed on-disk trace replay. This is what each
/// simulated core consumes.
#[derive(Debug, Clone)]
pub enum RefStream {
    /// Synthetic Table III generator.
    Synthetic(TraceGenerator),
    /// Recorded-trace replay from memory.
    Replay(TraceReplay),
    /// Recorded-trace replay streamed from a file.
    Streamed(StreamedReplay),
}

impl RefStream {
    /// The next reference from the stream.
    pub fn next_ref(&mut self) -> MemRef {
        match self {
            RefStream::Synthetic(g) => g.next_ref(),
            RefStream::Replay(r) => r.next_ref(),
            RefStream::Streamed(r) => r.next_ref(),
        }
    }

    /// References emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        match self {
            RefStream::Synthetic(g) => g.emitted(),
            RefStream::Replay(r) => r.emitted(),
            RefStream::Streamed(r) => r.emitted(),
        }
    }

    /// Completed passes over the backing trace (0 for synthetic
    /// sources, which never wrap).
    #[must_use]
    pub fn wraps(&self) -> u64 {
        match self {
            RefStream::Synthetic(_) => 0,
            RefStream::Replay(r) => r.emitted() / r.len() as u64,
            RefStream::Streamed(r) => r.wraps(),
        }
    }
}

impl From<TraceGenerator> for RefStream {
    fn from(g: TraceGenerator) -> RefStream {
        RefStream::Synthetic(g)
    }
}

impl From<TraceReplay> for RefStream {
    fn from(r: TraceReplay) -> RefStream {
        RefStream::Replay(r)
    }
}

impl From<StreamedReplay> for RefStream {
    fn from(r: StreamedReplay) -> RefStream {
        RefStream::Streamed(r)
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
/// `InvalidInput` for an empty or >65536-stream matrix; writer errors
/// otherwise.
pub fn record_streams<W: Write>(
    w: W,
    streams: &mut [Vec<RefStream>],
    refs_per_stream: u64,
) -> io::Result<u64> {
    let mut flat: Vec<&mut RefStream> = streams.iter_mut().flatten().collect();
    if flat.is_empty() || flat.len() > usize::from(u16::MAX) + 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("rank count {} not in 1..=65536", flat.len()),
        ));
    }
    let ranks = flat.len() as u16;
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

/// Builds a `nodes × cores_per_node` stream matrix replaying `path`:
/// a v2 trace must address exactly `nodes * cores_per_node` ranks and
/// each core replays its own rank's records; a v1 trace has a single
/// stream, which every core replays in full (identical address
/// streams per core, like looping one kernel everywhere).
///
/// # Errors
///
/// `InvalidData` for malformed traces or a v2 rank count that does
/// not match the topology; I/O errors otherwise.
pub fn replay_streams(
    path: impl AsRef<Path>,
    nodes: usize,
    cores_per_node: usize,
) -> io::Result<Vec<Vec<RefStream>>> {
    let path = path.as_ref();
    let header = TraceReader::new(File::open(path)?)?.header();
    (0..nodes)
        .map(|n| {
            (0..cores_per_node)
                .map(|c| {
                    let rank = if header.version == VERSION_V2 {
                        let want = nodes * cores_per_node;
                        if usize::from(header.ranks) != want {
                            return Err(invalid(format!(
                                "trace addresses {} ranks but the topology has {want} \
                                 ({nodes} nodes x {cores_per_node} cores)",
                                header.ranks
                            )));
                        }
                        Some((n * cores_per_node + c) as u16)
                    } else {
                        None
                    };
                    Ok(RefStream::from(StreamedReplay::open(path, rank)?))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, VA_BASE};

    fn sample_refs(n: usize) -> Vec<MemRef> {
        Workload::by_name("mcf").unwrap().generator(3).take_refs(n)
    }

    fn sample_records(n: usize, ranks: u16) -> Vec<TraceRecord> {
        sample_refs(n)
            .into_iter()
            .enumerate()
            .map(|(i, mem)| TraceRecord {
                rank: (i % ranks as usize) as u16,
                mem,
            })
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("famt-unit-{}-{tag}.famt", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let refs = sample_refs(500);
        let mut buf = Vec::new();
        assert_eq!(write_trace(&mut buf, &refs).unwrap(), 500);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn v2_roundtrip_preserves_ranks() {
        let records = sample_records(120, 4);
        let mut buf = Vec::new();
        assert_eq!(write_trace_v2(&mut buf, 4, &records).unwrap(), 120);
        assert_eq!(read_records(buf.as_slice()).unwrap(), records);
        // Untagged read drops ranks but keeps every mem field.
        let mems: Vec<MemRef> = records.iter().map(|r| r.mem).collect();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), mems);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_refs(1)).unwrap();
        buf[4] = 99;
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_refs(10)).unwrap();
        buf.pop();
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn streamed_reader_matches_one_shot() {
        let records = sample_records(300, 3);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, 3, &records).unwrap();
        let mut rd = TraceReader::with_chunk_size(buf.as_slice(), 7).unwrap();
        assert_eq!(
            rd.header(),
            TraceHeader {
                version: 2,
                count: 300,
                ranks: 3
            }
        );
        let mut streamed = Vec::new();
        while let Some(rec) = rd.next_record().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(streamed, records);
        // Buffer stays bounded at max(chunk, header) bytes.
        assert_eq!(rd.buffer_bytes(), 16);
    }

    #[test]
    fn streamed_reader_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_refs(4)).unwrap();
        buf.push(0xAB);
        let mut rd = TraceReader::new(buf.as_slice()).unwrap();
        for _ in 0..4 {
            rd.next_record().unwrap().unwrap();
        }
        assert!(rd.next_record().is_err());
        assert!(read_trace(buf.as_slice()).is_err());
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
    fn replay_wraps_around() {
        let refs = sample_refs(5);
        let mut replay = TraceReplay::new(refs.clone());
        for i in 0..12 {
            assert_eq!(replay.next_ref(), refs[i % 5]);
        }
        assert_eq!(replay.emitted(), 12);
        assert_eq!(replay.len(), 5);
    }

    #[test]
    fn streamed_replay_filters_ranks_and_wraps() {
        let records = sample_records(30, 3);
        let path = temp_path("filter");
        write_trace_v2(File::create(&path).unwrap(), 3, &records).unwrap();
        let mut replay = StreamedReplay::open(&path, Some(1)).unwrap();
        assert_eq!(replay.len(), 10);
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
        // Clone resumes at the same in-pass position.
        let mut a = replay.clone();
        for _ in 0..7 {
            assert_eq!(a.next_ref(), replay.next_ref());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_replay_rejects_missing_rank() {
        let records = sample_records(10, 2);
        let path = temp_path("missing-rank");
        write_trace_v2(File::create(&path).unwrap(), 2, &records).unwrap();
        assert!(StreamedReplay::open(&path, Some(2)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_then_replay_streams_are_identical() {
        let w = Workload::by_name("mcf").unwrap();
        let mut live: Vec<Vec<RefStream>> = (0..2)
            .map(|n| {
                (0..2)
                    .map(|c| RefStream::from(TraceGenerator::new(w, VA_BASE, (n * 2 + c) as u64)))
                    .collect()
            })
            .collect();
        let mut recorded = live.clone();
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
    fn replay_streams_checks_topology() {
        let records = sample_records(12, 4);
        let path = temp_path("topology");
        write_trace_v2(File::create(&path).unwrap(), 4, &records).unwrap();
        assert!(replay_streams(&path, 3, 1).is_err());
        assert!(replay_streams(&path, 2, 2).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_trace_drives_every_core_with_the_whole_file() {
        let refs = sample_refs(6);
        let path = temp_path("v1-all");
        write_trace(File::create(&path).unwrap(), &refs).unwrap();
        let mut streams = replay_streams(&path, 1, 2).unwrap();
        for core in &mut streams[0] {
            for r in &refs {
                assert_eq!(core.next_ref(), *r);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ref_stream_dispatches() {
        let mut synth: RefStream = Workload::by_name("pf").unwrap().generator(1).into();
        let mut replay: RefStream = TraceReplay::new(sample_refs(3)).into();
        synth.next_ref();
        replay.next_ref();
        assert_eq!(synth.emitted(), 1);
        assert_eq!(replay.emitted(), 1);
        assert_eq!(synth.wraps(), 0);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_rejected() {
        let _ = TraceReplay::new(Vec::new());
    }
}
