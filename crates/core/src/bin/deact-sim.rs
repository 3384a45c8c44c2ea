//! `deact-sim` — command-line front end to the DeACT system model.
//!
//! ```text
//! deact-sim run <benchmark> [--scheme E-FAM|I-FAM|DeACT-W|DeACT-N]
//!                           [--refs N] [--nodes N] [--fam-modules N]
//!                           [--fabric-ns N] [--stu-entries N] [--seed N]
//!                           [--fault-profile transient[:seed]]
//!                           [--kill-node <module>@<nth-fam-op>]
//! deact-sim compare <benchmark> [--refs N] [--jobs N]  # all four schemes
//! deact-sim trace [<benchmark>] [--out trace.json] [--window N]
//!                 [--ring N] [plus any `run` flag]    # Perfetto trace
//! deact-sim profile [<benchmark>] [--out profile.folded] [--top N]
//!                   [plus any `run` flag]   # host-time phase profile
//! deact-sim list                                       # Table III roster
//! ```
//!
//! Parallelism is across runs only: `--jobs N` sets how many worker
//! threads `compare` uses to run the four schemes concurrently
//! (default: `DEACT_JOBS`, else the host's available parallelism).
//! Every run itself executes on the one sequential engine
//! ([`deact::System::try_run`]), so reports are bit-identical at any
//! `--jobs`.
//!
//! `trace` runs one benchmark (default `sssp` under the paper-default
//! DeACT-N configuration) with the tracer on and writes a Chrome
//! trace-event JSON file loadable in Perfetto / `chrome://tracing`,
//! then prints the per-stage latency breakdown, the windowed time
//! series, and the ring's drop accounting.
//!
//! `profile` runs one benchmark with the *host-time* profiler enabled
//! (simulated results are bit-identical either way), prints the top
//! phases by self time, and writes a folded-stack file that
//! `inferno-flamegraph` or <https://speedscope.app> can render. It runs
//! the config three times unprofiled and three times profiled,
//! alternating, checks that every report is the same, and prints one
//! `profiler overhead` line: the profiled side's extra median host
//! time, which the self-time shares include.
//!
//! Every run checks its own books: a report whose counters break a
//! conservation invariant ([`deact::System::audit`]) is not printed,
//! and the command exits 1 naming each failing check.

use std::process::ExitCode;

use deact::{try_run_benchmark, RunReport, Scheme, SimError, System, SystemConfig};
use fam_sim::{trace::write_chrome_trace, FaultConfig, PersistentFault, TraceConfig};
use fam_workloads::{table3, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  deact-sim run <benchmark> [--scheme S] [--refs N] [--nodes N] \
         [--fam-modules N] [--fabric-ns N] [--stu-entries N] [--seed N] \
         [--fault-profile transient[:seed]] [--kill-node M@OP]\n  \
         deact-sim compare <benchmark> [--refs N] [--jobs N]\n  \
         deact-sim trace [<benchmark>] [--out trace.json] [--window N] [--ring N] \
         [plus any `run` flag]\n  \
         deact-sim profile [<benchmark>] [--out profile.folded] [--top N] \
         [plus any `run` flag]\n  \
         deact-sim list\n\n\
         parallelism: --jobs runs schemes concurrently (across-run, default \
         DEACT_JOBS else all cores);\n  reports are bit-identical at any \
         setting.\n\n\
         chaos: --kill-node M@OP permanently kills FAM module M at the OP-th \
         FAM operation;\n  the run survives degraded and the report gains a \
         perm-failure block."
    );
    ExitCode::FAILURE
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    match s.to_ascii_lowercase().as_str() {
        "e-fam" | "efam" => Some(Scheme::EFam),
        "i-fam" | "ifam" => Some(Scheme::IFam),
        "deact-w" | "deactw" => Some(Scheme::DeactW),
        "deact-n" | "deactn" | "deact" => Some(Scheme::DeactN),
        _ => None,
    }
}

/// Parses `transient` or `transient:<seed>` into a fault profile.
fn parse_fault_profile(s: &str) -> Option<FaultConfig> {
    let (name, seed) = match s.split_once(':') {
        Some((name, seed)) => (name, seed.parse().ok()?),
        None => (s, 0xFA_u64),
    };
    match name {
        "transient" => Some(FaultConfig::transient(seed)),
        "off" | "none" => Some(FaultConfig::disabled()),
        _ => None,
    }
}

/// Parses `--kill-node <module>@<nth-fam-op>`: permanently kill FAM
/// module `module` once the injector has seen that many FAM
/// operations. Composes with (and implies) fault injection: the
/// persistent schedule is layered onto whatever `--fault-profile`
/// selected, so `--fault-profile transient --kill-node 1@500` runs the
/// full chaos mix.
fn parse_kill_node(s: &str) -> Option<(usize, u64)> {
    let (module, after) = s.split_once('@')?;
    Some((module.parse().ok()?, after.parse().ok()?))
}

/// Splits the subcommand's own `--name value` options (`names`) out of
/// the argument list, leaving the `run` flags for [`apply_flags`];
/// returns the remaining flags and each option's value (the last one
/// given, `None` when absent). Returns `None` when an option is missing
/// its value.
fn split_opts<const N: usize>(
    args: &[String],
    names: [&str; N],
) -> Option<(Vec<String>, [Option<String>; N])> {
    let mut rest = Vec::with_capacity(args.len());
    let mut values = [const { None }; N];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match names.iter().position(|name| name == flag) {
            Some(i) => values[i] = Some(it.next()?.clone()),
            None => rest.push(flag.clone()),
        }
    }
    Some((rest, values))
}

/// `[<benchmark>] [flags]` with the positional optional: subcommands
/// that demo well on a default run (`trace`, `profile`) fall back to
/// `sssp`.
fn optional_bench(args: &[String]) -> (String, &[String]) {
    match args.first() {
        Some(a) if !a.starts_with("--") => (a.clone(), &args[1..]),
        _ => (String::from("sssp"), args),
    }
}

/// Parses the value of a count flag that must be at least 1. A zero
/// gets a one-line error here instead of the config validator's panic.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, value: &str) -> Option<T> {
    let n: T = value.parse().ok()?;
    if n == T::default() {
        eprintln!("deact-sim: {flag} must be at least 1");
        return None;
    }
    Some(n)
}

/// Applies `--key value` pairs onto the config; returns `None` on a
/// malformed option.
fn apply_flags(mut cfg: SystemConfig, args: &[String]) -> Option<SystemConfig> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        cfg = match flag.as_str() {
            "--scheme" => cfg.with_scheme(parse_scheme(value)?),
            "--refs" => cfg.with_refs_per_core(positive(flag, value)?),
            "--nodes" => cfg.with_nodes(positive(flag, value)?),
            "--fam-modules" => cfg.with_fam_modules(positive(flag, value)?),
            "--fabric-ns" => cfg.with_fabric_latency_ns(value.parse().ok()?),
            "--stu-entries" => cfg.with_stu_entries(positive(flag, value)?),
            "--seed" => cfg.with_seed(value.parse().ok()?),
            "--fault-profile" => {
                // Layer, don't clobber: an earlier `--kill-node`
                // survives a later `--fault-profile` (and vice versa —
                // `--kill-node` builds on the current config).
                let mut profile = parse_fault_profile(value)?;
                if let Some(schedule) = cfg.fault_injection.persistent {
                    profile = profile.with_persistent(schedule.fault, schedule.after_fam_ops);
                }
                cfg.with_fault_injection(profile)
            }
            "--kill-node" => {
                let (module, after) = parse_kill_node(value)?;
                let layered = cfg
                    .fault_injection
                    .with_persistent(PersistentFault::NodeDead { module }, after);
                cfg.with_fault_injection(layered)
            }
            _ => return None,
        };
    }
    // Catch a `--stu-entries` that does not fill whole STU sets, more
    // `--nodes` than an ACM entry can name, and a `--kill-node` with a
    // zero ordinal, an out-of-range module or no module left to survive
    // on here, where every flag is known, so the user gets a one-line
    // error instead of the config validator's panic or a mid-run FAM
    // exhaustion.
    if !cfg.stu_entries.is_multiple_of(cfg.stu_ways) {
        eprintln!(
            "deact-sim: --stu-entries {} must be a multiple of the {} STU ways",
            cfg.stu_entries, cfg.stu_ways
        );
        return None;
    }
    if cfg.nodes > cfg.max_nodes() {
        eprintln!(
            "deact-sim: --nodes {} exceeds the limit of {} nodes ({}-bit ACM entries)",
            cfg.nodes,
            cfg.max_nodes(),
            cfg.acm_width.bits()
        );
        return None;
    }
    if let Some(schedule) = cfg.fault_injection.persistent {
        if schedule.after_fam_ops == 0 {
            eprintln!("deact-sim: --kill-node M@OP counts FAM operations from 1, not 0");
            return None;
        }
        if let Some(module) = schedule.fault.module() {
            if module >= cfg.fam_modules {
                eprintln!(
                    "deact-sim: --kill-node names FAM module {module}, but only {} exist \
                     (raise --fam-modules)",
                    cfg.fam_modules
                );
                return None;
            }
            if cfg.fam_modules == 1 {
                eprintln!(
                    "deact-sim: --kill-node names the only FAM module, leaving no FAM \
                     to survive on (raise --fam-modules)"
                );
                return None;
            }
        }
    }
    Some(cfg)
}

fn print_report(r: &RunReport) {
    println!("benchmark        {}", r.workload);
    println!("scheme           {}", r.scheme);
    println!("nodes x cores    {} x {}", r.nodes, r.cores_per_node);
    println!("instructions     {}", r.instructions);
    println!("cycles           {}", r.cycles);
    println!("ipc              {:.4}", r.ipc);
    println!("tlb hit          {:.2}%", r.tlb_hit_rate * 100.0);
    println!("llc mpki         {:.1}", r.mpki);
    if let Some(t) = r.translation_hit_rate {
        println!("translation hit  {:.2}%", t * 100.0);
    }
    if let Some(a) = r.acm_hit_rate {
        println!("acm hit          {:.2}%", a * 100.0);
    }
    println!(
        "fam requests     {} data-r, {} data-w, {} wb, {} AT ({:.1}% AT)",
        r.fam.data_reads,
        r.fam.data_writes,
        r.fam.writebacks,
        r.fam.at_total(),
        r.fam.at_percent()
    );
    println!(
        "dram             {} reads, {} writes",
        r.dram_reads, r.dram_writes
    );
    println!("page faults      {}", r.faults);
    if !r.latency.is_empty() {
        println!(
            "latency          {} spans across {} stages:",
            r.latency.total_samples(),
            fam_sim::Stage::ALL
                .iter()
                .filter(|s| r.latency.stage(**s).count() > 0)
                .count()
        );
        print!("{}", r.latency);
    }
    if !r.recovery.is_zero() {
        let f = &r.recovery;
        println!(
            "faults injected  {} ({} drop, {} corrupt, {} stale, {} stall)",
            f.injected_total(),
            f.injected_drops,
            f.injected_corruptions,
            f.injected_stale,
            f.injected_stu_stalls
        );
        println!(
            "recovery         {} retries, {} timeouts, {} corrupt-NACKs, {} stale-NACKs",
            f.retries, f.timeouts, f.nacks_corrupt, f.nacks_stale
        );
        println!(
            "degradation      {} recovered, {} fatal ({:.1}% recovered); \
             {} backoff cy, {} link-down cy, {} stall cy",
            f.recovered,
            f.fatal,
            f.recovery_rate() * 100.0,
            f.backoff_cycles,
            f.link_down_wait_cycles,
            f.stu_stall_cycles
        );
    }
    if !r.degradation.is_zero() {
        let d = &r.degradation;
        println!(
            "perm. failure    {} pages quarantined: {} evacuated, {} lost, \
             {} table pages rebuilt",
            d.pages_quarantined, d.pages_evacuated, d.pages_lost, d.table_pages_rebuilt
        );
        println!(
            "recovery         started @ cycle {}, took {} cy \
             ({} cy evacuation, {} cy shootdown, {} entries invalidated)",
            d.recovery_started_cycle,
            d.recovery_cycles,
            d.evacuation_cycles,
            d.shootdown_cycles,
            d.shootdown_invalidations
        );
        println!(
            "degraded mode    {} poisoned accesses, {} PTEs healed, \
             {} writebacks dropped, {} usable pages remain",
            d.poisoned_accesses, d.pte_rewrites, d.writebacks_dropped, d.capacity_pages_remaining
        );
    }
}

/// Prints `e` as a one-line error and yields the failure exit code.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("deact-sim: {e}");
    ExitCode::FAILURE
}

/// Unprofiled/profiled run pairs `profile` times to price the profiler.
const OVERHEAD_PAIRS: usize = 3;

/// The median of an odd number of host times.
fn median<const N: usize>(mut xs: [f64; N]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[N / 2]
}

fn run_or_report(bench: &str, cfg: SystemConfig) -> Result<RunReport, ExitCode> {
    try_run_benchmark(bench, cfg).map_err(fail)
}

/// Resolves a Table III benchmark by name.
fn workload(name: &str) -> Result<Workload, ExitCode> {
    Workload::by_name(name).ok_or_else(|| {
        fail(SimError::UnknownBenchmark {
            name: name.to_string(),
        })
    })
}

/// Writes the tracer's retained events to `out` as Chrome trace JSON.
fn write_trace_file(out: &str, system: &System, frequency_mhz: u64) -> Result<(), ExitCode> {
    let file = std::fs::File::create(out).map_err(|e| fail(format!("cannot create {out}: {e}")))?;
    write_chrome_trace(
        std::io::BufWriter::new(file),
        system.tracer(),
        frequency_mhz,
    )
    .map_err(|e| fail(format!("cannot write {out}: {e}")))
}

fn main() -> ExitCode {
    fam_sim::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:>8} {:>8} {:>6}  (Table III)", "bench", "suite", "MPKI");
            for w in table3() {
                println!("{:>8} {:>8} {:>6}", w.name, w.suite.name(), w.paper_mpki);
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some(cfg) = apply_flags(SystemConfig::paper_default(), &args[2..]) else {
                return usage();
            };
            match run_or_report(bench, cfg) {
                Ok(r) => {
                    print_report(&r);
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        Some("trace") => {
            // `trace [<benchmark>] [flags]` — the benchmark positional
            // is optional so a bare `deact-sim trace` captures the
            // paper-default DeACT-N run the acceptance demo asks for.
            let (bench, flags) = optional_bench(&args[1..]);
            let full = TraceConfig::full();
            let Some((rest, [out, window, ring])) =
                split_opts(flags, ["--out", "--window", "--ring"])
            else {
                return usage();
            };
            let (Some(window), Some(ring)) = (
                window.map_or(Some(full.window_cycles), |v| positive("--window", &v)),
                ring.map_or(Some(full.ring_capacity), |v| positive("--ring", &v)),
            ) else {
                return usage();
            };
            let out = out.unwrap_or_else(|| String::from("trace.json"));
            let Some(cfg) = apply_flags(
                SystemConfig::paper_default().with_scheme(Scheme::DeactN),
                &rest,
            ) else {
                return usage();
            };
            let cfg = cfg.with_trace(full.with_window_cycles(window).with_ring_capacity(ring));
            let workload = match workload(&bench) {
                Ok(w) => w,
                Err(code) => return code,
            };
            let frequency_mhz = cfg.frequency_mhz;
            let mut system = System::new(cfg, &workload);
            let r = match system.try_run() {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            if let Err(code) = write_trace_file(&out, &system, frequency_mhz) {
                return code;
            }
            let tracer = system.tracer();
            print_report(&r);
            println!(
                "trace            {} events recorded, {} retained, {} dropped, {} requests",
                tracer.recorded(),
                tracer.retained(),
                tracer.dropped(),
                tracer.requests_issued()
            );
            let series = tracer.series();
            if !series.samples().is_empty() {
                println!(
                    "timeline         {} windows of {} cycles (IPC / AT% per window):",
                    series.samples().len(),
                    series.window_cycles()
                );
                for (i, w) in series.samples().iter().enumerate() {
                    println!(
                        "  [{i:>3}] ipc {:.4}  at {:>5.1}%  retries {}  recovered {}",
                        w.ipc(series.window_cycles()),
                        w.at_percent(),
                        w.retries,
                        w.recovered
                    );
                }
                if series.clipped() > 0 {
                    println!(
                        "  ({} completions clipped into the last window)",
                        series.clipped()
                    );
                }
            }
            println!("wrote {out} (load it at https://ui.perfetto.dev or chrome://tracing)");
            ExitCode::SUCCESS
        }
        Some("profile") => {
            let (bench, flags) = optional_bench(&args[1..]);
            let Some((rest, [out, top])) = split_opts(flags, ["--out", "--top"]) else {
                return usage();
            };
            let Some(top) = top.map_or(Some(12), |v| positive("--top", &v)) else {
                return usage();
            };
            let out = out.unwrap_or_else(|| String::from("profile.folded"));
            let Some(cfg) = apply_flags(
                SystemConfig::paper_default().with_scheme(Scheme::DeactN),
                &rest,
            ) else {
                return usage();
            };
            // Host-time only: the profiler never reads the simulated
            // clock, so every report below is bit-identical to an
            // unprofiled run. Unprofiled and profiled runs alternate,
            // three of each, so neither side always pays the cold
            // start; each pair's reports must match, and the overhead
            // compares the two sides' median host times. The table
            // and the folded file show the first profiled run.
            let mut report = None;
            let mut profile = None;
            let mut secs = [[0.0; 2]; OVERHEAD_PAIRS];
            for (pair, times) in secs.iter_mut().enumerate() {
                for (side, profiled) in [false, true].into_iter().enumerate() {
                    fam_sim::profile::set_enabled(profiled);
                    let started = std::time::Instant::now();
                    let run = run_or_report(&bench, cfg);
                    times[side] = started.elapsed().as_secs_f64();
                    fam_sim::profile::set_enabled(false);
                    let r = match run {
                        Ok(r) => r,
                        Err(code) => return code,
                    };
                    if profiled {
                        let taken = fam_sim::profile::take_report();
                        profile.get_or_insert(taken);
                    }
                    if report.as_ref().is_some_and(|first| *first != r) {
                        return fail(format!(
                            "the {} run of pair {} reports differently from the first run",
                            if profiled { "profiled" } else { "unprofiled" },
                            pair + 1
                        ));
                    }
                    report.get_or_insert(r);
                }
            }
            let (Some(r), Some(profile)) = (report, profile) else {
                unreachable!("every pair runs both sides");
            };
            print_report(&r);
            if profile.is_empty() {
                return fail("profiler captured no spans");
            }
            println!();
            print!("{}", profile.top_table(top));
            let [unprofiled_s, profiled_s] = [0, 1].map(|side| median(secs.map(|t| t[side])));
            println!(
                "profiler overhead {:+.1}% host time (medians of {OVERHEAD_PAIRS} alternating runs: \
                 {profiled_s:.3} s profiled, {unprofiled_s:.3} s unprofiled); the shares above include it",
                (profiled_s / unprofiled_s - 1.0) * 100.0
            );
            if let Err(e) = std::fs::write(&out, profile.to_folded()) {
                return fail(format!("cannot write {out}: {e}"));
            }
            println!(
                "wrote {out} (render: `inferno-flamegraph < {out} > flame.svg`, \
                 or load at https://speedscope.app)"
            );
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some((rest, [jobs])) = split_opts(&args[2..], ["--jobs"]) else {
                return usage();
            };
            if let Err(e) = fam_sim::jobs_override() {
                eprintln!("deact-sim: {e}");
                return ExitCode::FAILURE;
            }
            let Some(jobs) = jobs.map_or(Some(fam_sim::default_jobs()), |v| positive("--jobs", &v))
            else {
                return usage();
            };
            let Some(cfg) = apply_flags(SystemConfig::paper_default(), &rest) else {
                return usage();
            };
            // Run all four schemes across the bounded pool; printing
            // happens afterwards in scheme order, so the table is
            // identical at any worker count.
            let reports = fam_sim::scoped_map(jobs, Scheme::ALL.len(), |i| {
                run_or_report(bench, cfg.with_scheme(Scheme::ALL[i]))
            });
            let mut baseline_ipc = None;
            println!(
                "{:>8} {:>9} {:>10} {:>8} {:>8}",
                "scheme", "ipc", "norm", "AT%", "secure"
            );
            for (scheme, report) in Scheme::ALL.into_iter().zip(reports) {
                let r = match report {
                    Ok(r) => r,
                    Err(code) => return code,
                };
                let base = *baseline_ipc.get_or_insert(r.ipc);
                println!(
                    "{:>8} {:>9.4} {:>10.2} {:>8.1} {:>8}",
                    scheme.name(),
                    r.ipc,
                    r.ipc / base,
                    r.fam.at_percent(),
                    if scheme.is_secure() { "yes" } else { "no" }
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[&str]) -> Vec<String> {
        pairs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn zero_counts_are_rejected_before_validation() {
        for flag in ["--refs", "--nodes", "--fam-modules", "--stu-entries"] {
            let cfg = apply_flags(SystemConfig::paper_default(), &flags(&[flag, "0"]));
            assert!(cfg.is_none(), "{flag} 0 must be rejected");
            let cfg = apply_flags(SystemConfig::paper_default(), &flags(&[flag, "8"]));
            assert!(cfg.is_some(), "{flag} 8 is a valid count");
        }
        // The trace, profile and compare options go through the same
        // check, so a zero names its flag there too.
        for flag in ["--window", "--ring", "--top", "--jobs"] {
            assert_eq!(
                positive::<usize>(flag, "0"),
                None,
                "{flag} 0 must be rejected"
            );
            assert_eq!(
                positive::<usize>(flag, "8"),
                Some(8),
                "{flag} 8 is a valid count"
            );
        }
    }

    #[test]
    fn nodes_beyond_the_acm_width_are_rejected_before_validation() {
        let at = |n: &str| apply_flags(SystemConfig::paper_default(), &flags(&["--nodes", n]));
        assert!(at("16383").is_some(), "16-bit ACM entries name 16383 nodes");
        assert!(at("16384").is_none(), "one node more must be rejected");
    }

    #[test]
    fn stu_entries_must_fill_whole_sets() {
        // The paper's STU is 8-way: 12 entries leave a partial set.
        let cfg =
            |n: &str| apply_flags(SystemConfig::paper_default(), &flags(&["--stu-entries", n]));
        assert!(cfg("12").is_none());
        assert!(cfg("16").is_some());
    }

    #[test]
    fn kill_node_ordinal_starts_at_one() {
        let cfg = |v: &str| {
            apply_flags(
                SystemConfig::paper_default(),
                &flags(&["--fam-modules", "2", "--kill-node", v]),
            )
        };
        assert!(cfg("1@0").is_none());
        assert!(cfg("1@1").is_some());
    }

    #[test]
    fn kill_node_needs_a_surviving_module() {
        let cfg = |args: &[&str]| apply_flags(SystemConfig::paper_default(), &flags(args));
        assert!(cfg(&["--kill-node", "0@1"]).is_none());
        assert!(cfg(&["--kill-node", "0@2000", "--fam-modules", "1"]).is_none());
        assert!(cfg(&["--fam-modules", "2", "--kill-node", "0@1"]).is_some());
    }

    #[test]
    fn split_opts_takes_named_pairs_and_keeps_the_rest() {
        let args = flags(&["--refs", "9", "--out", "a", "--top", "3", "--out", "b"]);
        let (rest, [out, top, ring]) = split_opts(&args, ["--out", "--top", "--ring"]).unwrap();
        assert_eq!(rest, flags(&["--refs", "9"]));
        assert_eq!(out.as_deref(), Some("b"), "the last value wins");
        assert_eq!(top.as_deref(), Some("3"));
        assert_eq!(ring, None);
        assert!(split_opts(&flags(&["--out"]), ["--out"]).is_none());
    }
}
