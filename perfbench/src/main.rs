//! `perfbench`: the DeACT simulator's repository benchmark.
//!
//! ```text
//! perfbench --workload <gap-fam|npb-local|spec-faults> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's simulated system through `deact`'s public API,
//! times set-up and `System::try_run` (the engine `deact-sim run` uses)
//! for `--seconds`, checks every run's output, and prints the metrics by
//! name with their units. Host times are divided by the host factor of
//! `host.rs`, so they read in seconds of a quiet reference host. The
//! last line of standard output is one JSON
//! object: `--trace 0` carries the end-to-end metrics, `--trace 1` the
//! per-layer ledger of a separate traced run (spans around each public
//! call, plus the stage replay in `replay.rs`). `README.md` defines every
//! workload and metric.

mod host;
mod replay;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use deact::{RunReport, System, SystemConfig};
use fam_sim::stats::Ratio;
use fam_sim::Registry;
use fam_workloads::Workload;

use crate::host::Calibrator;
use crate::replay::Layer;
use crate::spans::SpanLog;
use crate::workload::Scenario;

/// Timed runs a measurement holds at least, however short `--seconds`.
const MIN_RUNS: usize = 3;
/// Set-up-only builds made before the timed runs, so `setup_s` is the
/// median of many samples even when few timed runs fit.
const SETUP_REPS: usize = 15;
/// Timing repetitions of each replayed layer, at least and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;
/// Share of `--seconds` a traced invocation spends on untraced runs (the
/// share denominators), and the point by which its traced runs stop;
/// the stage replay gets the rest.
const TRACE_TIMED_SHARE: f64 = 0.3;
const TRACE_TRACED_SHARE: f64 = 0.55;
/// Value of every metric of a layer that does not run on the workload:
/// absent, which is not the same as zero time.
const ABSENT: f64 = -1.0;

const USAGE: &str = "usage: perfbench --workload <gap-fam|npb-local|spec-faults> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    scenario: Scenario,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut scenario = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                scenario = Some(
                    Scenario::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one build-and-run of the simulated system produced. Times are
/// raw host seconds; `host` is the host factor measured around the run
/// (see `host.rs`), which reported times are divided by.
#[derive(Debug)]
struct Run {
    host: f64,
    streams_s: f64,
    system_s: f64,
    run_s: f64,
    metrics_s: f64,
    audit_s: f64,
    report: Option<RunReport>,
    registry: Registry,
    /// Output-check failures; empty when the run is correct.
    problems: Vec<String>,
}

impl Run {
    /// `raw_s` in seconds of the quiet reference host.
    fn norm(&self, raw_s: f64) -> f64 {
        raw_s / self.host
    }

    fn setup_s(&self) -> f64 {
        self.norm(self.streams_s + self.system_s)
    }

    fn refs_per_s(&self, refs: u64) -> f64 {
        refs as f64 / self.norm(self.run_s)
    }

    /// References whose FAM request ended fatally, or all `refs` when
    /// the run failed its output check or its report differs from
    /// `reference`.
    fn failed_refs(&self, refs: u64, reference: &Option<RunReport>) -> u64 {
        match &self.report {
            Some(r) if self.problems.is_empty() && self.report == *reference => {
                (r.recovery.fatal + r.degradation.poisoned_accesses).min(refs)
            }
            _ => refs,
        }
    }
}

fn total_refs(cfg: &SystemConfig) -> u64 {
    cfg.refs_per_core * (cfg.nodes * cfg.cores_per_node) as u64
}

/// The host factor now, inside a span.
fn calibrate(cal: &mut Calibrator, log: &mut SpanLog) -> f64 {
    let open = log.enter("calibrate");
    let factor = cal.factor();
    log.exit(open);
    factor
}

/// Builds, runs and checks the system once, inside spans named after the
/// public calls (recorded only while `log` records), with the host
/// factor measured before set-up and after the run.
fn run_once(
    cfg: &SystemConfig,
    workload: &Workload,
    log: &mut SpanLog,
    cal: &mut Calibrator,
) -> Run {
    let root = log.enter("run");
    let before = calibrate(cal, log);
    let open = log.enter("setup.streams");
    let streams = System::synthetic_streams(cfg, workload);
    let streams_s = log.exit(open);
    let open = log.enter("setup.system");
    let mut sys = System::with_streams(*cfg, workload.name, streams);
    let system_s = log.exit(open);
    let open = log.enter("engine.try_run");
    let result = sys.try_run();
    let run_s = log.exit(open);
    let host = (before + calibrate(cal, log)) / 2.0;
    let open = log.enter("report.metrics");
    let registry = sys.metrics();
    let metrics_s = log.exit(open);
    let open = log.enter("report.audit");
    let audit = sys.audit();
    let audit_s = log.exit(open);

    let open = log.enter("check");
    let mut problems = Vec::new();
    let report = match result {
        Ok(report) => Some(report),
        Err(e) => {
            problems.push(format!("System::try_run failed: {e}"));
            None
        }
    };
    if !audit.passed() {
        problems.push(format!("conservation audit failed:\n{audit}"));
    }
    let refs_done: u64 = (0..cfg.nodes)
        .filter_map(|n| registry.counter_value(&format!("node{n}/refs_done")))
        .sum();
    if refs_done != total_refs(cfg) {
        problems.push(format!(
            "{refs_done} refs retired, {} requested",
            total_refs(cfg)
        ));
    }
    log.exit(open);
    let open = log.enter("teardown");
    drop(sys);
    log.exit(open);
    log.exit(root);
    Run {
        host,
        streams_s,
        system_s,
        run_s,
        metrics_s,
        audit_s,
        report,
        registry,
        problems,
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug, Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Sum of a per-node counter over every node.
fn node_sum(reg: &Registry, nodes: usize, suffix: &str) -> u64 {
    (0..nodes)
        .filter_map(|n| reg.counter_value(&format!("node{n}/{suffix}")))
        .sum()
}

/// A per-node (or per-STU) ratio merged over every instance.
fn merged_ratio(reg: &Registry, prefix: &str, count: usize, suffix: &str) -> Ratio {
    let mut merged = Ratio::new();
    for i in 0..count {
        if let Some(r) = reg.ratio_value(&format!("{prefix}{i}/{suffix}")) {
            merged.merge(r);
        }
    }
    merged
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counter_value(name).unwrap_or(0)
}

/// The layer's calls per reference in the real run, where the registry
/// counts them; `None` where only the replay does.
fn registry_calls(layer: Layer, cfg: &SystemConfig, reg: &Registry) -> Option<u64> {
    let nvm = |what: &str| -> u64 {
        (0..cfg.fam_modules)
            .map(|m| counter(reg, &format!("nvm{m}/{what}")))
            .sum()
    };
    match layer {
        Layer::Workloads => Some(total_refs(cfg)),
        Layer::Tlb => Some(merged_ratio(reg, "node", cfg.nodes, "tlb").total()),
        Layer::Dram => {
            Some(node_sum(reg, cfg.nodes, "dram_reads") + node_sum(reg, cfg.nodes, "dram_writes"))
        }
        // One translator lookup per FAM data access.
        Layer::Translator => {
            Some(counter(reg, "traffic/data_reads") + counter(reg, "traffic/data_writes"))
        }
        // One STU cache lookup (ACM or coupled entry) per check.
        Layer::Stu => Some(merged_ratio(reg, "stu", cfg.nodes, "acm").total()),
        Layer::Fabric => Some(counter(reg, "fabric/traversals")),
        Layer::Nvm => Some(nvm("reads") + nvm("writes")),
        Layer::Recovery => Some(counter(reg, "recovery/retries")),
        Layer::Walk | Layer::Hierarchy | Layer::Broker => None,
    }
}

/// Everything one invocation measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Human-readable lines printed before the JSON line.
    text: String,
}

/// Runs the benchmark with `refs_per_core` references on every core
/// (the workload's own count, except in the self-tests).
fn bench(args: &Args, refs_per_core: u64) -> Outcome {
    let scenario = args.scenario;
    let workload = scenario.benchmark();
    let cfg = scenario.config(args.seed, refs_per_core);
    let refs = total_refs(&cfg);
    let budget = args.seconds as f64;
    let started = std::time::Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let mut log = SpanLog::new();
    let mut cal = Calibrator::new();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {}: {}, {}, {} node(s) x {} cores, {} FAM module(s), {} refs/core{}",
        scenario.name(),
        args.seed,
        workload.name,
        cfg.scheme,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.fam_modules,
        cfg.refs_per_core,
        if cfg.fault_injection.enabled {
            ", transient fabric faults"
        } else {
            ""
        },
    );
    let _ = writeln!(
        text,
        "modelled caches start empty: simulated metrics include the cold start"
    );

    // Untraced runs: the end-to-end timings.
    let timed_until = if args.trace {
        budget * TRACE_TIMED_SHARE
    } else {
        budget
    };
    let before = cal.factor();
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = std::time::Instant::now();
            let streams = System::synthetic_streams(&cfg, &workload);
            let sys = System::with_streams(cfg, workload.name, streams);
            let setup_s = start.elapsed().as_secs_f64();
            drop(std::hint::black_box(sys));
            setup_s
        })
        .collect();
    let host = (before + cal.factor()) / 2.0;
    for s in &mut setups {
        *s /= host;
    }
    let mut timed = Vec::new();
    while timed.len() < MIN_RUNS || elapsed() < timed_until {
        timed.push(run_once(&cfg, &workload, &mut log, &mut cal));
    }

    // Traced runs: spans around every public call. Every invocation makes
    // at least one, so every invocation checks traced == untraced reports.
    log.set_recording(true);
    let mut traced = Vec::new();
    loop {
        log.next_run();
        traced.push(run_once(&cfg, &workload, &mut log, &mut cal));
        if !args.trace || (traced.len() >= MIN_RUNS && elapsed() >= budget * TRACE_TRACED_SHARE) {
            break;
        }
    }

    // Output check across runs: every report equals the first untraced
    // one (same seed, so bit-identical), traced runs included.
    let reference = timed[0].report.clone();
    let mut problems: Vec<String> = Vec::new();
    for (i, run) in timed.iter().chain(&traced).enumerate() {
        problems.extend(run.problems.iter().map(|p| format!("run {i}: {p}")));
        if run.report.is_some() && run.report != reference {
            problems.push(format!("run {i}: report differs from run 0's"));
        }
    }
    let all_runs = timed.len() + traced.len();
    let attempted = refs * all_runs as u64;
    let failed: u64 = timed
        .iter()
        .chain(&traced)
        .map(|r| r.failed_refs(refs, &reference))
        .sum();

    let refs_per_s: Vec<f64> = timed.iter().map(|r| r.refs_per_s(refs)).collect();
    let (q1, refs_per_s_median, q3) = stats::quartiles(&refs_per_s);
    let raw_refs_per_s = stats::median(
        &timed
            .iter()
            .map(|r| refs as f64 / r.run_s)
            .collect::<Vec<_>>(),
    );
    let host_factor = stats::median(&timed.iter().map(|r| r.host).collect::<Vec<_>>());
    setups.extend(timed.iter().chain(&traced).map(Run::setup_s));
    let _ = writeln!(
        text,
        "runs: {} untraced, {} traced; refs_per_s median {refs_per_s_median:.0} \
         (q1 {q1:.0}, q3 {q3:.0}); setup_s median {:.6}",
        timed.len(),
        traced.len(),
        stats::median(&setups),
    );
    let _ = writeln!(
        text,
        "host factor median {host_factor:.3} (host times are divided by it); \
         raw refs_per_s median {raw_refs_per_s:.0}"
    );
    let _ = writeln!(
        text,
        "failed_frac {} ({failed} of {attempted} refs)",
        failed as f64 / attempted as f64
    );

    let mut metrics = Metrics::default();
    if let Some(report) = &reference {
        let _ = writeln!(
            text,
            "sim.cycles {} sim.instructions {} sim.fam_requests {} sim.page_faults {} \
             sim_ipc {} sim_at_pct {}",
            report.cycles,
            report.instructions,
            report.fam.total(),
            report.faults,
            report.ipc,
            report.fam.at_percent(),
        );
        if args.trace {
            ledger(
                &cfg,
                &workload,
                report,
                &timed,
                &traced,
                &mut log,
                &mut cal,
                budget,
                &elapsed,
                &mut metrics,
                &mut text,
            );
            metrics.push("host.factor", host_factor, "x");
            metrics.push("host.raw_refs_per_s", raw_refs_per_s, "1/s");
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", scenario.name(), args.seed));
            let label = format!("{} seed {}", scenario.name(), args.seed);
            match log.write_json(&path, &label) {
                Ok(()) => {
                    let _ = writeln!(text, "spans: {}", path.display());
                }
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            }
        } else {
            metrics.push("refs_per_s", refs_per_s_median, "1/s");
            metrics.push("setup_s", stats::median(&setups), "s");
            match peak_rss_mb() {
                Some(mb) => metrics.push("peak_rss_mb", mb, "MB"),
                None => problems.push("cannot read VmHWM from /proc/self/status".into()),
            }
            metrics.push("sim_ipc", report.ipc, "instr/cycle");
            metrics.push("sim_at_pct", report.fam.at_percent(), "%");
        }
    }
    for p in &problems {
        let _ = writeln!(text, "CHECK FAILED: {p}");
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        text,
    }
}

/// The per-layer ledger of a traced invocation: registry counts from
/// the traced run, the stage replay's isolated layer costs, and the
/// spans' set-up and report timings.
#[allow(clippy::too_many_arguments)]
fn ledger(
    cfg: &SystemConfig,
    workload: &Workload,
    report: &RunReport,
    timed: &[Run],
    traced: &[Run],
    log: &mut SpanLog,
    cal: &mut Calibrator,
    budget: f64,
    elapsed: &dyn Fn() -> f64,
    metrics: &mut Metrics,
    text: &mut String,
) {
    let refs = total_refs(cfg) as f64;
    let reg = &traced[0].registry;
    let untraced_run_s = stats::median(&timed.iter().map(|r| r.norm(r.run_s)).collect::<Vec<_>>());
    let traced_run_s = stats::median(&traced.iter().map(|r| r.norm(r.run_s)).collect::<Vec<_>>());
    let ns_per_ref = untraced_run_s * 1e9 / refs;

    log.next_run();
    let root = log.enter("replay");
    let open = log.enter("replay.record");
    let rec = replay::record(cfg, workload);
    log.exit(open);
    let layers: Vec<Layer> = rec.layers().collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut reps = 0;
    while reps < MIN_REPS || (reps < MAX_REPS && elapsed() < budget) {
        let rep = log.enter("replay.time");
        let before = calibrate(cal, log);
        let raw: Vec<f64> = layers
            .iter()
            .map(|layer| {
                let open = log.enter(layer.name());
                let ns = rec.time_once(*layer);
                log.exit(open);
                ns
            })
            .collect();
        let host = (before + calibrate(cal, log)) / 2.0;
        log.exit(rep);
        for (s, ns) in samples.iter_mut().zip(raw) {
            s.push(ns / host);
        }
        reps += 1;
    }
    log.exit(root);

    let _ = writeln!(
        text,
        "layer ledger ({reps} replay repetitions; {ns_per_ref:.1} reference-host ns per \
         simulated ref):"
    );
    let _ = writeln!(
        text,
        "  {:<14} {:>12} {:>10} {:>8}",
        "layer", "calls/ref", "ns/call", "share"
    );
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let name = layer.name();
        let Some(i) = layers.iter().position(|l| *l == layer) else {
            let _ = writeln!(text, "  {name:<14} absent");
            push_layer(metrics, layer, [ABSENT; 3]);
            continue;
        };
        let calls_per_ref = registry_calls(layer, cfg, reg)
            .map_or_else(|| rec.calls_per_ref(layer), |c| c as f64 / refs);
        let calls = rec.calls(layer);
        let ns_per_call = if calls == 0 {
            0.0
        } else {
            stats::median(&samples[i]) / calls as f64
        };
        let share = ns_per_call * calls_per_ref / ns_per_ref;
        attributed += share;
        let _ = writeln!(
            text,
            "  {name:<14} {calls_per_ref:>12.4} {ns_per_call:>10.2} {:>7.2}%",
            share * 100.0
        );
        push_layer(metrics, layer, [calls_per_ref, ns_per_call, share]);
    }
    let _ = writeln!(
        text,
        "  {:<14} {:>12} {:>10} {:>7.2}%  (1 - sum of shares: an upper bound)",
        "engine",
        "",
        "",
        (1.0 - attributed) * 100.0
    );

    // Layer-specific ratios, from the real run where it counts them.
    let nodes = cfg.nodes;
    let tlb = merged_ratio(reg, "node", nodes, "tlb");
    let llc = merged_ratio(reg, "node", nodes, "llc");
    metrics.push("engine.self_share", 1.0 - attributed, "fraction");
    metrics.push(
        "engine.fast_path_coverage",
        report.fast_path_coverage,
        "fraction",
    );
    metrics.push("vm.tlb.hit_ratio", tlb.rate(), "fraction");
    metrics.push("vm.walk.reads_per_call", rec.reads_per_walk(), "1/call");
    metrics.push("mem.hierarchy.llc_hit_ratio", llc.rate(), "fraction");
    let present = |l: Layer| layers.contains(&l);
    let or_absent = |l: Layer, v: f64| if present(l) { v } else { ABSENT };
    metrics.push(
        "translator.hit_ratio",
        or_absent(
            Layer::Translator,
            report.translation_hit_rate.unwrap_or(ABSENT),
        ),
        "fraction",
    );
    metrics.push(
        "stu.acm_hit_ratio",
        or_absent(Layer::Stu, merged_ratio(reg, "stu", nodes, "acm").rate()),
        "fraction",
    );
    metrics.push(
        "stu.walk_reads_per_ref",
        or_absent(
            Layer::Stu,
            counter(reg, "traffic/at_walk_reads") as f64 / refs,
        ),
        "1/ref",
    );
    let stalls: u64 = (0..cfg.fam_modules)
        .map(|m| counter(reg, &format!("nvm{m}/admission_stalls")))
        .sum();
    metrics.push(
        "mem.nvm.admission_stalls_per_ref",
        stalls as f64 / refs,
        "1/ref",
    );
    metrics.push(
        "recovery.recovered_ratio",
        or_absent(Layer::Recovery, report.recovery.recovery_rate()),
        "fraction",
    );
    metrics.push(
        "recovery.backoff_cy_per_ref",
        or_absent(
            Layer::Recovery,
            report.recovery.backoff_cycles as f64 / refs,
        ),
        "cycles/ref",
    );

    let all_runs: Vec<&Run> = timed.iter().chain(traced).collect();
    let median_of =
        |f: fn(&Run) -> f64| stats::median(&all_runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    metrics.push("setup.streams_s", median_of(|r| r.norm(r.streams_s)), "s");
    metrics.push("setup.system_s", median_of(|r| r.norm(r.system_s)), "s");
    metrics.push(
        "report.metrics_s",
        stats::median(
            &traced
                .iter()
                .map(|r| r.norm(r.metrics_s))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    metrics.push(
        "report.audit_s",
        stats::median(&traced.iter().map(|r| r.norm(r.audit_s)).collect::<Vec<_>>()),
        "s",
    );
    let overhead_pct = (traced_run_s / untraced_run_s - 1.0) * 100.0;
    metrics.push("trace.overhead_pct", overhead_pct, "%");
    let _ = writeln!(
        text,
        "trace.overhead_pct {overhead_pct:.2} (median traced vs untraced System::try_run)"
    );
    metrics.push("sim.cycles", report.cycles as f64, "count");
    metrics.push("sim.instructions", report.instructions as f64, "count");
    metrics.push("sim.fam_requests", report.fam.total() as f64, "count");
    metrics.push("sim.page_faults", report.faults as f64, "count");

    let _ = writeln!(text, "span self time (all traced runs and the replay):");
    for t in log.totals() {
        let _ = writeln!(
            text,
            "  {:<28} x{:<4} total {:>10.3} ms  self {:>10.3} ms",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Pushes a layer's calls per reference, `ns_per_call` and `share`
/// metrics.
fn push_layer(metrics: &mut Metrics, layer: Layer, [calls_per_ref, ns_per_call, share]: [f64; 3]) {
    let name = layer.name();
    match layer {
        // One generator call per reference by construction.
        Layer::Workloads => {}
        Layer::Fabric => metrics.push("fabric.traversals_per_ref", calls_per_ref, "1/ref"),
        Layer::Recovery => metrics.push("recovery.retries_per_ref", calls_per_ref, "1/ref"),
        _ => metrics.push(&format!("{name}.calls_per_ref"), calls_per_ref, "1/ref"),
    }
    metrics.push(&format!("{name}.ns_per_call"), ns_per_call, "ns");
    metrics.push(&format!("{name}.share"), share, "fraction");
}

/// The JSON line the benchmark ends with.
fn json_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench(&args, args.scenario.refs_per_core());
    print!("{}", outcome.text);
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// References per core in the self-tests' short runs.
    const SMALL: u64 = 2_000;

    fn sim_counts(scenario: Scenario, seed: u64) -> [u64; 4] {
        let cfg = scenario.config(seed, SMALL);
        let report = System::new(cfg, &scenario.benchmark())
            .try_run()
            .expect("short runs complete");
        [
            report.cycles,
            report.instructions,
            report.fam.total(),
            report.faults,
        ]
    }

    #[test]
    fn same_seed_repeats_every_sim_count() {
        for scenario in Scenario::ALL {
            assert_eq!(
                sim_counts(scenario, 7),
                sim_counts(scenario, 7),
                "{}",
                scenario.name()
            );
        }
    }

    #[test]
    fn different_seed_changes_sim_counts() {
        for scenario in Scenario::ALL {
            assert_ne!(
                sim_counts(scenario, 7),
                sim_counts(scenario, 8),
                "{}",
                scenario.name()
            );
        }
    }

    #[test]
    fn replayed_tlb_hit_ratio_equals_the_runs() {
        // Per-core TLB state depends only on that core's stream, so on
        // the fault-free workloads the replay's TLB counts are exact.
        for scenario in [Scenario::GapFam, Scenario::NpbLocal] {
            let cfg = scenario.config(3, SMALL);
            let mut sys = System::new(cfg, &scenario.benchmark());
            sys.try_run().expect("short runs complete");
            let reg = sys.metrics();
            let rec = replay::record(&cfg, &scenario.benchmark());
            let cores = cfg.cores_per_node;
            for n in 0..cfg.nodes {
                let mut replayed = Ratio::new();
                for r in &rec.tlb_stats()[n * cores..(n + 1) * cores] {
                    replayed.merge(*r);
                }
                assert_eq!(
                    reg.ratio_value(&format!("node{n}/tlb")),
                    Some(replayed),
                    "{} node {n}",
                    scenario.name()
                );
            }
        }
    }

    /// The metric names `BENCHMARK.json` declares in `section`, with
    /// their units.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("quoted name")].to_string();
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit given");
                (
                    name,
                    unit[..unit.find('"').expect("quoted unit")].to_string(),
                )
            })
            .collect()
    }

    fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .0
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        let mut end_to_end = declared("end_to_end");
        let mut per_layer = declared("per_layer");
        end_to_end.sort();
        per_layer.sort();
        for scenario in Scenario::ALL {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let args = Args {
                    scenario,
                    seed: 5,
                    seconds: 0,
                    trace,
                };
                let outcome = bench(&args, SMALL);
                assert!(outcome.correct, "{}: {}", scenario.name(), outcome.text);
                assert_eq!(outcome.failed, 0);
                let mut got = emitted(&outcome);
                got.sort();
                assert_eq!(&got, want, "{} trace {trace}", scenario.name());
            }
        }
    }

    #[test]
    fn absent_layers_are_marked_absent_not_zero() {
        let args = Args {
            scenario: Scenario::NpbLocal,
            seed: 5,
            seconds: 0,
            trace: true,
        };
        let outcome = bench(&args, SMALL);
        for name in ["translator.share", "stu.ns_per_call", "recovery.share"] {
            assert_eq!(outcome.metrics.get(name), Some(ABSENT), "{name}");
        }
        for name in [
            "vm.tlb.share",
            "mem.hierarchy.ns_per_call",
            "broker.calls_per_ref",
        ] {
            assert!(outcome.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv("--workload gap-fam --seed 9 --seconds 4 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            args,
            Args {
                scenario: Scenario::GapFam,
                seed: 9,
                seconds: 4,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload sp --trace 2")).is_err());
        assert!(parse_args(&argv("--workload npb-local --seed")).is_err());
    }

    #[test]
    fn json_line_shape() {
        let mut metrics = Metrics::default();
        metrics.push("refs_per_s", 1234.5, "1/s");
        metrics.push("setup_s", 0.25, "s");
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            text: String::new(),
        };
        assert_eq!(
            json_line(&outcome),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"refs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
