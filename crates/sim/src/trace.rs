//! Request-lifecycle tracing and per-stage latency telemetry.
//!
//! Every memory reference the system simulates passes through a fixed
//! pipeline — node TLB, node page-table walk, the in-DRAM translation
//! cache, the fabric, the STU, the NVM device — and every figure in
//! the paper is ultimately a claim about where those cycles go. This
//! module makes the decomposition observable without re-deriving it by
//! hand: every stage site in the timing code reports its span (a
//! request id, a pipeline [`Stage`], a hardware [`Track`], start/end
//! cycles) to the run's [`Tracer`] through [`Tracer::span`], which adds
//! it to a per-stage [`LatencyBreakdown`] on every run and, when
//! tracing is on, also keeps it as a [`TraceEvent`] in a bounded ring
//! buffer with explicit drop accounting.
//!
//! Two sinks read a traced run out:
//!
//! * [`write_chrome_trace`] — the Chrome trace-event JSON format, one
//!   track per node / STU / fabric link / NVM module, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`WindowSeries`] — a windowed time series (instructions, AT and
//!   total FAM traffic, retry/recovery counters per N-cycle interval)
//!   for plotting phase behaviour over a run.
//!
//! # Tracing is observation only
//!
//! The breakdown is kept whether or not tracing is on. Tracing adds
//! only the event ring, request ids and the time series: a disabled
//! tracer allocates no ring storage, hands out no request ids and,
//! past the breakdown, costs one branch per event site.
//! A fixed-seed run's report is identical with tracing on or off — the
//! integration tests pin this down by comparing whole fixed-seed
//! reports.

use std::fmt;
use std::io::{self, Write};

use crate::json::Json;
use crate::Cycle;

/// Identity of one simulated memory reference, threaded through the
/// hot path (node → translator → fabric packet tag → STU → NVM) so
/// every event of one reference's lifetime can be correlated.
///
/// Id `0` is reserved: [`RequestId::UNTRACED`] marks requests issued
/// while tracing is off (the disabled tracer hands it out without
/// consuming a counter, so runs with tracing off stay bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The id carried by requests issued while tracing is disabled.
    pub const UNTRACED: RequestId = RequestId(0);

    /// Whether this id belongs to a traced request.
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }

    /// The low 16 bits, sized to the wire-packet `tag` field (the
    /// outstanding-request window is far smaller than 2^16, so the
    /// truncation is unambiguous among in-flight requests).
    pub fn wire_tag(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req {}", self.0)
    }
}

/// A pipeline stage of the FAM reference lifecycle — the axes of the
/// per-stage latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Node TLB lookup (hit or miss latency).
    TlbLookup,
    /// Node page-table walk (the PTW-cache-planned entry reads).
    PtWalk,
    /// Page-fault service (node first touch or system-level demand
    /// map), plus injected STU stalls.
    Fault,
    /// In-DRAM FAM translation-cache probe (DeACT ① of Fig. 6).
    TranslationCache,
    /// STU cache lookup (I-FAM coupled entry, DeACT ACM check).
    StuLookup,
    /// System page-table walk at the STU's FAM-PTW.
    StuWalk,
    /// ACM metadata-block (and sharing-bitmap) fetch from FAM.
    AcmFetch,
    /// Fabric traversal, node → FAM.
    FabricSend,
    /// Fabric traversal, FAM → node.
    FabricRecv,
    /// NVM device service.
    NvmAccess,
    /// Recovery wait after a detected fault (timeout expiry or NACK
    /// round trip).
    Retry,
    /// Exponential-backoff wait before a reissue.
    Backoff,
}

impl Stage {
    /// Every stage, in pipeline order — the column order of every
    /// breakdown table and CSV export.
    pub const ALL: [Stage; 12] = [
        Stage::TlbLookup,
        Stage::PtWalk,
        Stage::Fault,
        Stage::TranslationCache,
        Stage::StuLookup,
        Stage::StuWalk,
        Stage::AcmFetch,
        Stage::FabricSend,
        Stage::FabricRecv,
        Stage::NvmAccess,
        Stage::Retry,
        Stage::Backoff,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Dense index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (CSV column suffixes, trace-event
    /// names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::TlbLookup => "tlb_lookup",
            Stage::PtWalk => "pt_walk",
            Stage::Fault => "fault",
            Stage::TranslationCache => "translation_cache",
            Stage::StuLookup => "stu_lookup",
            Stage::StuWalk => "stu_walk",
            Stage::AcmFetch => "acm_fetch",
            Stage::FabricSend => "fabric_send",
            Stage::FabricRecv => "fabric_recv",
            Stage::NvmAccess => "nvm_access",
            Stage::Retry => "retry",
            Stage::Backoff => "backoff",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hardware unit an event occurred on — one Perfetto track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A compute node (TLB, node PTW, translation cache, faults).
    Node(u16),
    /// A node's System Translation Unit.
    Stu(u16),
    /// A node's fabric link (sends, receives, retries, backoffs).
    Fabric(u16),
    /// A FAM NVM module.
    Nvm(u16),
}

impl Track {
    /// Human-readable track label (the Perfetto thread name).
    pub(crate) fn label(self) -> String {
        match self {
            Track::Node(n) => format!("node{n}"),
            Track::Stu(n) => format!("stu{n}"),
            Track::Fabric(n) => format!("fabric{n}"),
            Track::Nvm(m) => format!("nvm{m}"),
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One traced span: request `req` occupied `track` doing `stage` from
/// `start` to `end` (inclusive of queueing, as the timing model sees
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request this event belongs to.
    pub req: RequestId,
    /// The pipeline stage.
    pub stage: Stage,
    /// The hardware unit.
    pub track: Track,
    /// Start cycle.
    pub(crate) start: Cycle,
    /// End cycle (`end >= start`).
    pub(crate) end: Cycle,
}

impl TraceEvent {
    /// The span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.0 - self.start.0
    }
}

/// Tracing configuration, carried inside the system configuration the
/// same way [`FaultConfig`](crate::FaultConfig) is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events. Once full, the oldest event is
    /// overwritten and counted in [`Tracer::dropped`]. `0` keeps the
    /// time series but retains no individual events (no drop
    /// accounting to do). The ring grows as events arrive; nothing is
    /// reserved up front.
    pub ring_capacity: usize,
    /// Time-series window length in cycles; `0` disables the series.
    pub window_cycles: u64,
}

impl TraceConfig {
    /// Default ring capacity of [`TraceConfig::full`]: 64 Ki events.
    pub(crate) const DEFAULT_RING: usize = 1 << 16;

    /// Default window of [`TraceConfig::full`]: 1 M cycles (0.5 ms at
    /// the paper's 2 GHz).
    pub(crate) const DEFAULT_WINDOW: u64 = 1 << 20;

    /// Tracing off — the configuration default.
    pub fn disabled() -> TraceConfig {
        TraceConfig::default()
    }

    /// Full tracing: event ring, request ids and time series.
    pub fn full() -> TraceConfig {
        TraceConfig {
            ring_capacity: Self::DEFAULT_RING,
            window_cycles: Self::DEFAULT_WINDOW,
        }
    }

    /// Sets the ring capacity.
    #[must_use]
    pub fn with_ring_capacity(mut self, events: usize) -> TraceConfig {
        self.ring_capacity = events;
        self
    }

    /// Sets the time-series window length.
    #[must_use]
    pub fn with_window_cycles(mut self, cycles: u64) -> TraceConfig {
        self.window_cycles = cycles;
        self
    }

    /// Whether tracing is on: a ring or a time series to fill. Off (the
    /// default) keeps no events, request ids or time series; the
    /// latency breakdown is kept either way.
    pub fn is_enabled(&self) -> bool {
        self.ring_capacity > 0 || self.window_cycles > 0
    }
}

/// One stage's span totals: how many spans, their summed cycles and
/// the longest one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Spans recorded.
    pub count: u64,
    /// Summed span lengths. Saturating: a billion-ref run must pin the
    /// mean, never wrap it to a tiny one.
    pub cycles: u64,
    /// The longest span (zero if none).
    pub max: u64,
}

impl StageCycles {
    /// Mean span length (zero if none).
    pub fn mean(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cycles as f64 / self.count as f64
        }
    }
}

/// Per-stage span totals for a run, summed across every node and
/// device. Nested spans count in each stage they belong to (an ACM
/// fetch encloses its fabric and NVM spans), so the stages do not
/// partition a reference's cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    stages: [StageCycles; Stage::COUNT],
}

impl LatencyBreakdown {
    /// Adds one span's length to its stage.
    fn record(&mut self, stage: Stage, cycles: u64) {
        let s = &mut self.stages[stage.index()];
        s.count += 1;
        s.cycles = s.cycles.saturating_add(cycles);
        s.max = s.max.max(cycles);
    }

    /// The totals of one stage.
    pub fn stage(&self, stage: Stage) -> StageCycles {
        self.stages[stage.index()]
    }

    /// Total spans recorded across all stages.
    pub fn total_samples(&self) -> u64 {
        self.stages.iter().map(|s| s.count).sum()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_samples() == 0
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stage in Stage::ALL {
            let s = self.stage(stage);
            if s.count > 0 {
                writeln!(
                    f,
                    "{:>18}  n={} mean={:.1} max={} cycles={}",
                    stage.name(),
                    s.count,
                    s.mean(),
                    s.max,
                    s.cycles
                )?;
            }
        }
        Ok(())
    }
}

/// Counters accumulated over one time-series window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Instructions retired by references completing in the window.
    pub instructions: u64,
    /// Address-translation FAM requests issued in the window.
    pub fam_at: u64,
    /// All FAM requests issued in the window.
    pub fam_total: u64,
    /// Retries performed in the window.
    pub retries: u64,
    /// Faulted requests that recovered in the window.
    pub recovered: u64,
}

impl WindowSample {
    /// AT requests as a percentage of the window's FAM requests.
    pub fn at_percent(&self) -> f64 {
        if self.fam_total == 0 {
            0.0
        } else {
            self.fam_at as f64 * 100.0 / self.fam_total as f64
        }
    }

    /// IPC over a window of `window_cycles`.
    pub fn ipc(&self, window_cycles: u64) -> f64 {
        self.instructions as f64 / window_cycles.max(1) as f64
    }

    fn accumulate(&mut self, other: WindowSample) {
        self.instructions += other.instructions;
        self.fam_at += other.fam_at;
        self.fam_total += other.fam_total;
        self.retries += other.retries;
        self.recovered += other.recovered;
    }
}

/// Window cap: a series never grows past this many windows; later
/// completions clip into the last window (and are counted) rather
/// than growing without bound on pathological window sizes.
const MAX_WINDOWS: usize = 1 << 16;

/// The windowed time series: one [`WindowSample`] per `window_cycles`
/// interval of simulated time, bucketed by completion cycle.
#[derive(Debug, Clone, Default)]
pub struct WindowSeries {
    window_cycles: u64,
    samples: Vec<WindowSample>,
    clipped: u64,
}

impl WindowSeries {
    fn new(window_cycles: u64) -> WindowSeries {
        WindowSeries {
            window_cycles,
            samples: Vec::new(),
            clipped: 0,
        }
    }

    fn record(&mut self, at: Cycle, sample: WindowSample) {
        let mut idx = (at.0 / self.window_cycles) as usize;
        if idx >= MAX_WINDOWS {
            idx = MAX_WINDOWS - 1;
            self.clipped += 1;
        }
        if idx >= self.samples.len() {
            self.samples.resize(idx + 1, WindowSample::default());
        }
        self.samples[idx].accumulate(sample);
    }

    /// The window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// The samples, one per window from cycle 0 (empty windows are
    /// present and all-zero).
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// References that completed past the window cap (2^16 windows)
    /// and were folded into the last window.
    pub fn clipped(&self) -> u64 {
        self.clipped
    }
}

/// The telemetry hub: the run's latency breakdown, plus, when tracing
/// is on, a bounded event ring with drop accounting and the windowed
/// time series.
///
/// # Examples
///
/// ```
/// use fam_sim::trace::{Stage, TraceConfig, Tracer, Track};
/// use fam_sim::Cycle;
///
/// let mut t = Tracer::new(TraceConfig::full());
/// let req = t.next_request();
/// t.span(req, Stage::NvmAccess, Track::Nvm(0), Cycle(100), Cycle(220));
/// assert_eq!(t.recorded(), 1);
/// assert_eq!(t.breakdown().stage(Stage::NvmAccess).max, 120);
///
/// // Disabled: the breakdown still counts, nothing else is kept.
/// let mut off = Tracer::new(TraceConfig::disabled());
/// assert!(!off.next_request().is_traced());
/// off.span(req, Stage::NvmAccess, Track::Nvm(0), Cycle(100), Cycle(220));
/// assert_eq!(off.recorded(), 0);
/// assert_eq!(off.breakdown(), t.breakdown());
/// ```
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    /// [`TraceConfig::is_enabled`], cached so [`Tracer::span`] pays one
    /// branch.
    enabled: bool,
    ring: Vec<TraceEvent>,
    head: usize,
    recorded: u64,
    dropped: u64,
    next_req: u64,
    breakdown: LatencyBreakdown,
    series: WindowSeries,
}

impl Tracer {
    /// Creates a tracer. It allocates nothing up front: the ring grows
    /// as events arrive, up to [`TraceConfig::ring_capacity`].
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            enabled: config.is_enabled(),
            ring: Vec::new(),
            head: 0,
            recorded: 0,
            dropped: 0,
            next_req: 0,
            breakdown: LatencyBreakdown::default(),
            series: WindowSeries::new(config.window_cycles),
            config,
        }
    }

    /// A disabled tracer (the default for every system).
    pub(crate) fn disabled() -> Tracer {
        Tracer::new(TraceConfig::disabled())
    }

    /// Whether the time series is being collected.
    #[inline]
    pub fn wants_windows(&self) -> bool {
        self.config.window_cycles > 0
    }

    /// Hands out the next request id. Disabled tracers return
    /// [`RequestId::UNTRACED`] without consuming anything, so request
    /// numbering — like RNG state — is untouched by a disabled layer.
    pub fn next_request(&mut self) -> RequestId {
        if !self.enabled {
            return RequestId::UNTRACED;
        }
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Request ids handed out so far.
    pub fn requests_issued(&self) -> u64 {
        self.next_req
    }

    /// Records the span `start..end` of `stage` on `track` for `req` —
    /// the call every event site in the timing code makes. The span
    /// always adds to the breakdown; an enabled tracer also pushes it
    /// onto the ring (overwriting the oldest event, with drop
    /// accounting, once the ring is full).
    #[inline]
    pub fn span(&mut self, req: RequestId, stage: Stage, track: Track, start: Cycle, end: Cycle) {
        debug_assert!(end >= start, "trace span must not run backwards");
        self.breakdown.record(stage, end.0 - start.0);
        if self.enabled {
            self.recorded += 1;
            self.push_ring(TraceEvent {
                req,
                stage,
                track,
                start,
                end,
            });
        }
    }

    /// Ring push with overwrite-oldest drop accounting.
    fn push_ring(&mut self, ev: TraceEvent) {
        if self.config.ring_capacity == 0 {
            return;
        }
        if self.ring.len() < self.config.ring_capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.config.ring_capacity;
            self.dropped += 1;
        }
    }

    /// Adds one completed reference's counters to the time series.
    pub fn sample(&mut self, at: Cycle, sample: WindowSample) {
        if self.wants_windows() {
            self.series.record(at, sample);
        }
    }

    /// Events offered to the ring over the run.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten after the ring filled. `retained + dropped
    /// == recorded` whenever the ring has capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held in the ring.
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// The run-level breakdown: every span, on every track, traced or
    /// not.
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// The windowed time series.
    pub fn series(&self) -> &WindowSeries {
        &self.series
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

/// Escapes nothing: every string this writer emits (stage names, track
/// labels) is plain ASCII by construction, matching the workspace's
/// other hand-rolled JSON writers.
fn push_event(out: &mut String, first: &mut bool, ph: char, tid: usize, name: &str, rest: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&format!(
        "    {{\"ph\": \"{ph}\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{name}\"{rest}}}"
    ));
}

/// Writes the tracer's retained events as Chrome trace-event JSON
/// (the `traceEvents` array form), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Each [`Track`] becomes one named thread (`"M"` metadata events);
/// each [`TraceEvent`] becomes one `"X"` complete event whose `ts` /
/// `dur` are microseconds derived from cycles at `frequency_mhz`, with
/// the request id in `args.req`. Drop accounting and the request count
/// ride along in `otherData`.
///
/// The writer is flushed before returning, so a buffered writer's
/// error surfaces here rather than being dropped with it.
///
/// # Errors
///
/// Propagates writer errors, the final flush's included.
pub fn write_chrome_trace<W: Write>(
    mut w: W,
    tracer: &Tracer,
    frequency_mhz: u64,
) -> io::Result<()> {
    let mhz = frequency_mhz.max(1) as f64;
    // Stable track → tid assignment, in Track's derived order.
    let mut tracks: Vec<Track> = tracer.events().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |t: Track| tracks.binary_search(&t).expect("track collected above") + 1;

    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n");
    out.push_str(&format!(
        "  \"otherData\": {{\"schema\": \"deact-trace-v1\", \"recorded\": {}, \
         \"dropped\": {}, \"requests\": {}, \"frequency_mhz\": {frequency_mhz}}},\n",
        tracer.recorded(),
        tracer.dropped(),
        tracer.requests_issued()
    ));
    out.push_str("  \"traceEvents\": [\n");
    let mut first = true;
    push_event(
        &mut out,
        &mut first,
        'M',
        0,
        "process_name",
        ", \"args\": {\"name\": \"deact-sim\"}",
    );
    for &track in &tracks {
        push_event(
            &mut out,
            &mut first,
            'M',
            tid_of(track),
            "thread_name",
            &format!(", \"args\": {{\"name\": \"{}\"}}", track.label()),
        );
    }
    for ev in tracer.events() {
        let ts = ev.start.0 as f64 / mhz;
        let dur = ev.cycles() as f64 / mhz;
        push_event(
            &mut out,
            &mut first,
            'X',
            tid_of(ev.track),
            ev.stage.name(),
            &format!(
                ", \"cat\": \"{}\", \"ts\": {ts:.4}, \"dur\": {dur:.4}, \
                 \"args\": {{\"req\": {}, \"cycles\": {}}}",
                ev.track.label(),
                ev.req.0,
                ev.cycles()
            ),
        );
    }
    out.push_str("\n  ]\n}\n");
    w.write_all(out.as_bytes())?;
    w.flush()
}

/// Validates that `text` is well-formed JSON whose top-level object
/// has a `traceEvents` array, returning the number of events in that
/// array — the workspace is dependency-free, so CI and the tests
/// validate the exporter with the workspace's own [`Json`] parser
/// instead of a JSON crate.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax problem,
/// a non-object top level, or a missing `traceEvents` array.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("top level must be an object".into());
    }
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .map(<[Json]>::len)
        .ok_or_else(|| "no traceEvents array at the top level".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: &mut Tracer, req: u64, stage: Stage, track: Track, start: u64, end: u64) {
        t.span(RequestId(req), stage, track, Cycle(start), Cycle(end));
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled);
        assert!(!t.wants_windows());
        assert_eq!(t.next_request(), RequestId::UNTRACED);
        assert_eq!(t.next_request(), RequestId::UNTRACED, "no counter consumed");
        span(&mut t, 1, Stage::TlbLookup, Track::Node(0), 0, 5);
        span(&mut t, 1, Stage::StuWalk, Track::Stu(0), 5, 9);
        t.sample(Cycle(10), WindowSample::default());
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.retained(), 0);
        assert!(t.series().samples().is_empty());
        // The breakdown is kept with tracing off.
        assert_eq!(t.breakdown().total_samples(), 2);
        assert_eq!(t.breakdown().stage(Stage::StuWalk).cycles, 4);
    }

    #[test]
    fn request_ids_are_sequential_and_tagged() {
        let mut t = Tracer::new(TraceConfig::full());
        let a = t.next_request();
        let b = t.next_request();
        assert_eq!(a, RequestId(1));
        assert_eq!(b, RequestId(2));
        assert!(a.is_traced());
        assert_eq!(RequestId(0x1_0007).wire_tag(), 7, "tag is the low 16 bits");
        assert_eq!(t.requests_issued(), 2);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_accounts() {
        let cfg = TraceConfig::full().with_ring_capacity(3);
        let mut t = Tracer::new(cfg);
        for i in 0..5u64 {
            span(
                &mut t,
                i + 1,
                Stage::NvmAccess,
                Track::Nvm(0),
                i * 10,
                i * 10 + 1,
            );
        }
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.retained(), 3);
        let kept: Vec<u64> = t.events().map(|e| e.req.0).collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest events are overwritten first");
        // Breakdown still sees every event, dropped or not.
        assert_eq!(t.breakdown().stage(Stage::NvmAccess).count, 5);
    }

    #[test]
    fn ring_reserves_nothing_up_front() {
        let mut t = Tracer::new(TraceConfig::full().with_ring_capacity(usize::MAX));
        span(&mut t, 1, Stage::NvmAccess, Track::Nvm(0), 0, 1);
        span(&mut t, 2, Stage::NvmAccess, Track::Nvm(0), 1, 2);
        assert_eq!((t.recorded(), t.retained(), t.dropped()), (2, 2, 0));
    }

    #[test]
    fn breakdowns_aggregate_per_node_and_device() {
        let mut t = Tracer::new(TraceConfig::full());
        span(&mut t, 1, Stage::TlbLookup, Track::Node(0), 0, 2);
        span(&mut t, 1, Stage::StuWalk, Track::Stu(0), 2, 12);
        span(&mut t, 2, Stage::TlbLookup, Track::Node(1), 0, 4);
        span(&mut t, 1, Stage::NvmAccess, Track::Nvm(0), 12, 42);
        assert_eq!(t.recorded(), 4);
        let run = t.breakdown();
        assert_eq!(run.total_samples(), 4);
        assert_eq!(run.stage(Stage::StuWalk).cycles, 10);
        assert_eq!(run.stage(Stage::TlbLookup).count, 2);
        assert_eq!(run.stage(Stage::TlbLookup).max, 4);
        assert!((run.stage(Stage::TlbLookup).mean() - 3.0).abs() < 1e-12);
        assert_eq!(run.stage(Stage::NvmAccess).cycles, 30);
        assert_eq!(run.stage(Stage::Retry), StageCycles::default());
        assert_eq!(run.stage(Stage::Retry).mean(), 0.0, "empty stage");
        assert_eq!(
            run.to_string().lines().next(),
            Some("        tlb_lookup  n=2 mean=3.0 max=4 cycles=6"),
            "one line per stage that saw a span"
        );
        assert_eq!(run.to_string().lines().count(), 3);
    }

    #[test]
    fn stage_cycles_saturate_instead_of_wrapping() {
        let mut t = Tracer::disabled();
        for _ in 0..2 {
            span(&mut t, 0, Stage::Retry, Track::Fabric(0), 0, u64::MAX);
        }
        let s = t.breakdown().stage(Stage::Retry);
        assert_eq!(s.cycles, u64::MAX, "cycles pin at the ceiling");
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn window_series_buckets_by_completion() {
        let cfg = TraceConfig::full().with_window_cycles(100);
        let mut t = Tracer::new(cfg);
        let s = |i: u64| WindowSample {
            instructions: i,
            fam_at: 1,
            fam_total: 2,
            ..WindowSample::default()
        };
        t.sample(Cycle(10), s(5));
        t.sample(Cycle(90), s(7));
        t.sample(Cycle(250), s(1));
        let windows = t.series().samples();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].instructions, 12);
        assert_eq!(windows[1].instructions, 0, "empty window present");
        assert_eq!(windows[2].instructions, 1);
        assert!((windows[0].at_percent() - 50.0).abs() < 1e-12);
        assert!((windows[0].ipc(100) - 0.12).abs() < 1e-12);
        assert_eq!(t.series().clipped(), 0);
    }

    #[test]
    fn stage_roster_is_dense_and_named() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Stage::COUNT, 12);
    }

    #[test]
    fn chrome_trace_is_valid_and_counts_events() {
        let mut t = Tracer::new(TraceConfig::full());
        span(&mut t, 1, Stage::FabricSend, Track::Fabric(0), 0, 1000);
        span(&mut t, 1, Stage::NvmAccess, Track::Nvm(0), 1000, 1120);
        span(&mut t, 1, Stage::FabricRecv, Track::Fabric(0), 1120, 2120);
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t, 2000).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // 1 process_name + 2 thread_name metadata + 3 "X" events.
        assert_eq!(validate_chrome_json(&text).unwrap(), 6);
        assert!(text.contains("\"name\": \"fabric0\""));
        assert!(text.contains("\"name\": \"nvm0\""));
        // 1000 cycles at 2 GHz = 0.5 us.
        assert!(text.contains("\"ts\": 0.0000, \"dur\": 0.5000"));
    }

    /// A writer that accepts every byte but fails to flush, like a
    /// buffered writer over a full disk.
    struct FailingFlush;

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn chrome_trace_reports_flush_errors() {
        let mut t = Tracer::new(TraceConfig::full());
        span(&mut t, 1, Stage::NvmAccess, Track::Nvm(0), 0, 10);
        assert!(write_chrome_trace(FailingFlush, &t, 2000).is_err());
    }

    #[test]
    fn validator_accepts_general_json_and_rejects_garbage() {
        assert_eq!(
            validate_chrome_json(
                "{\"traceEvents\": [], \"x\": [1, -2.5e3, true, null, \"s\\\"t\"]}"
            )
            .unwrap(),
            0
        );
        assert!(validate_chrome_json("{\"traceEvents\": [}").is_err());
        assert!(validate_chrome_json("{}").is_err(), "traceEvents required");
        assert!(validate_chrome_json("[1, 2]").is_err(), "must be an object");
        assert!(validate_chrome_json("{\"a\": 1} junk").is_err());
        assert!(validate_chrome_json("{\"a\": \"unterminated").is_err());
    }

    #[test]
    fn event_span_arithmetic() {
        let e = TraceEvent {
            req: RequestId(9),
            stage: Stage::Backoff,
            track: Track::Fabric(3),
            start: Cycle(40),
            end: Cycle(100),
        };
        assert_eq!(e.cycles(), 60);
        assert_eq!(e.track.to_string(), "fabric3");
        assert_eq!(e.req.to_string(), "req 9");
    }
}
