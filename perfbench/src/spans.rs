//! In-memory span log for the traced runs.
//!
//! A span records one public call the benchmark makes into the
//! simulator (or one batch of stage-replay work): its name, start, end,
//! parent span and the id of the workload run it belongs to. Spans stay
//! in memory and are written out once, when the benchmark ends.
//!
//! The same `enter`/`exit` pair also times untraced calls: a disabled
//! log records nothing but still returns each call's duration, so the
//! timed and traced runs share one code path.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The workload run the span belongs to.
    pub run: u32,
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been entered and not yet exited.
#[derive(Debug)]
#[must_use = "exit the span to close it and read its duration"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// The span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    recording: bool,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a log.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

impl SpanLog {
    /// A log that times calls and records no spans until
    /// [`SpanLog::set_recording`] turns recording on.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            recording: false,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span recording on or off for the spans entered from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Starts a new workload run; later spans carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span called `name`, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.recording.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                run: self.run,
                name,
                parent: self.stack.last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(i);
            i
        });
        let start = Instant::now();
        if let Some(i) = index {
            self.spans[i].start_ns = self.ns_since_origin(start);
        }
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
        (end - open.start).as_secs_f64()
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("a run lasts under 584 years")
    }

    /// The recorded spans, in the order they were entered.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its child
    /// spans cover. Children of one span never overlap (the benchmark
    /// is single-threaded), so that is a plain subtraction.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name, largest self time
    /// first.
    pub fn totals(&self) -> Vec<NameTotal> {
        let mut out: Vec<NameTotal> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += s.duration_ns();
                    t.self_ns += self_ns;
                }
                None => out.push(NameTotal {
                    name: s.name,
                    count: 1,
                    total_ns: s.duration_ns(),
                    self_ns,
                }),
            }
        }
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        out
    }

    /// Writes every span as one JSON document to `path`, creating its
    /// directory if needed. `label` names the benchmark invocation.
    pub fn write_json(&self, path: &Path, label: &str) -> io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"label\": \"{label}\", \"spans\": [");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        log.set_recording(true);
        log.next_run();
        let outer = log.enter("outer");
        let inner = log.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(inner);
        let outer_s = log.exit(outer);
        assert!(outer_s >= 0.002);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 1);
        let selfs = log.self_times();
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(selfs[1], spans[1].duration_ns());
        let totals = log.totals();
        assert_eq!(
            totals[0].name, "inner",
            "the sleeping child has the most self time"
        );
    }

    #[test]
    fn disabled_log_times_without_recording() {
        let mut log = SpanLog::new();
        let open = log.enter("call");
        assert!(log.exit(open) >= 0.0);
        assert!(log.spans().is_empty());
    }
}
