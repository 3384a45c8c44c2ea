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
//! deact-sim audit [<benchmark>] [plus any `run` flag]
//!                                # metrics registry + conservation audit
//! deact-sim record <benchmark> [--out t.famt] [plus any `run` flag]
//!                                # capture the synthetic stream to disk
//! deact-sim replay <t.famt> [--trace-out trace.json] [plus any `run` flag]
//!                                # run a recorded/synthesized trace
//! deact-sim list                                       # Table III roster
//! ```
//!
//! `record` draws exactly the per-core reference streams a live run of
//! the benchmark would execute (same seeds, same order) and writes
//! them as a rank-tagged FAMT v2 trace; `replay` streams such a file —
//! or any externally produced FAMT trace — back through the full
//! system model, so `record` → `replay` reproduces the live run's
//! report bit for bit. Replay honors every `run` flag (`--scheme`,
//! `--kill-node`, ...); `--trace-out` additionally captures a Perfetto
//! trace of the replayed run.
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
//! `inferno-flamegraph` or <https://speedscope.app> can render.
//!
//! `audit` runs one benchmark, prints every component counter from the
//! unified metrics registry, then cross-checks the conservation
//! invariants ([`deact::System::audit`]) and exits nonzero if any
//! fail.

use std::process::ExitCode;

use deact::{try_run_benchmark, RunReport, Scheme, System, SystemConfig};
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
         deact-sim audit [<benchmark>] [plus any `run` flag]\n  \
         deact-sim record <benchmark> [--out t.famt] [plus any `run` flag]\n  \
         deact-sim replay <t.famt> [--trace-out trace.json] [plus any `run` flag]\n  \
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

/// Splits `--jobs N` out of the argument list (it is a harness knob,
/// not a [`SystemConfig`] field); returns the remaining flags and the
/// worker count, defaulting to [`fam_sim::default_jobs`]. Returns
/// `None` on a malformed count.
fn extract_jobs(args: &[String]) -> Option<(Vec<String>, usize)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut jobs = fam_sim::default_jobs();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--jobs" {
            jobs = it.next()?.parse().ok().filter(|&n| n > 0)?;
        } else {
            rest.push(flag.clone());
        }
    }
    Some((rest, jobs))
}

/// Splits the trace-only options (`--out`, `--window`, `--ring`) out of
/// the argument list; returns the remaining flags, the output path, and
/// the tracer configuration. Returns `None` on a malformed option.
fn extract_trace_opts(args: &[String]) -> Option<(Vec<String>, String, TraceConfig)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut out = String::from("trace.json");
    let mut trace = TraceConfig::full();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next()?.clone(),
            "--window" => {
                trace = trace.with_window_cycles(it.next()?.parse().ok().filter(|&n| n > 0)?);
            }
            "--ring" => trace = trace.with_ring_capacity(it.next()?.parse().ok()?),
            _ => rest.push(flag.clone()),
        }
    }
    Some((rest, out, trace))
}

/// Splits the profile-only options (`--out`, `--top`) out of the
/// argument list; returns the remaining flags, the folded-stack output
/// path, and the table depth. Returns `None` on a malformed option.
fn extract_profile_opts(args: &[String]) -> Option<(Vec<String>, String, usize)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut out = String::from("profile.folded");
    let mut top = 12usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next()?.clone(),
            "--top" => top = it.next()?.parse().ok().filter(|&n| n > 0)?,
            _ => rest.push(flag.clone()),
        }
    }
    Some((rest, out, top))
}

/// Splits one `--<name> <value>` string option out of the argument
/// list; returns the remaining flags and the value (or `default` when
/// the flag is absent, `None` when its value is missing).
fn extract_string_opt(
    args: &[String],
    name: &str,
    default: Option<&str>,
) -> Option<(Vec<String>, Option<String>)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = default.map(String::from);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == name {
            value = Some(it.next()?.clone());
        } else {
            rest.push(flag.clone());
        }
    }
    Some((rest, value))
}

/// `[<benchmark>] [flags]` with the positional optional: subcommands
/// that demo well on a default run (`trace`, `profile`, `audit`) fall
/// back to `sssp`.
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
    // Catch a `--stu-entries` that does not fill whole STU sets and an
    // out-of-range `--kill-node` here, where every flag is known, so
    // the user gets a one-line error instead of the config validator's
    // panic.
    if !cfg.stu_entries.is_multiple_of(cfg.stu_ways) {
        eprintln!(
            "deact-sim: --stu-entries {} must be a multiple of the {} STU ways",
            cfg.stu_entries, cfg.stu_ways
        );
        return None;
    }
    if let Some(schedule) = cfg.fault_injection.persistent {
        if let Some(module) = schedule.fault.module() {
            if module >= cfg.fam_modules {
                eprintln!(
                    "deact-sim: --kill-node names FAM module {module}, but only {} exist \
                     (raise --fam-modules)",
                    cfg.fam_modules
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

fn run_or_report(bench: &str, cfg: SystemConfig) -> Result<RunReport, ExitCode> {
    try_run_benchmark(bench, cfg).map_err(|e| {
        eprintln!("deact-sim: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
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
            let (bench, flags) = match args.get(1) {
                Some(a) if !a.starts_with("--") => (a.clone(), &args[2..]),
                _ => (String::from("sssp"), &args[1..]),
            };
            let Some((rest, out, trace)) = extract_trace_opts(flags) else {
                return usage();
            };
            let Some(cfg) = apply_flags(
                SystemConfig::paper_default().with_scheme(Scheme::DeactN),
                &rest,
            ) else {
                return usage();
            };
            let cfg = cfg.with_trace(trace);
            let Some(workload) = Workload::by_name(&bench) else {
                eprintln!("deact-sim: unknown benchmark `{bench}` (see `deact-sim list`)");
                return ExitCode::FAILURE;
            };
            let frequency_mhz = cfg.frequency_mhz;
            let mut system = System::new(cfg, &workload);
            let r = match system.try_run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("deact-sim: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tracer = system.tracer();
            let file = match std::fs::File::create(&out) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("deact-sim: cannot create {out}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = write_chrome_trace(std::io::BufWriter::new(file), tracer, frequency_mhz)
            {
                eprintln!("deact-sim: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
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
            let Some((rest, out, top)) = extract_profile_opts(flags) else {
                return usage();
            };
            let Some(cfg) = apply_flags(
                SystemConfig::paper_default().with_scheme(Scheme::DeactN),
                &rest,
            ) else {
                return usage();
            };
            // Host-time only: the profiler never reads the simulated
            // clock, so the report below is bit-identical to an
            // unprofiled run.
            fam_sim::profile::set_enabled(true);
            let r = match run_or_report(&bench, cfg) {
                Ok(r) => r,
                Err(code) => return code,
            };
            fam_sim::profile::set_enabled(false);
            print_report(&r);
            if r.profile.is_empty() {
                eprintln!("deact-sim: profiler captured no spans");
                return ExitCode::FAILURE;
            }
            println!();
            print!("{}", r.profile.top_table(top));
            if let Err(e) = std::fs::write(&out, r.profile.to_folded()) {
                eprintln!("deact-sim: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {out} (render: `inferno-flamegraph < {out} > flame.svg`, \
                 or load at https://speedscope.app)"
            );
            ExitCode::SUCCESS
        }
        Some("audit") => {
            let (bench, flags) = optional_bench(&args[1..]);
            let Some(cfg) = apply_flags(SystemConfig::paper_default(), flags) else {
                return usage();
            };
            let Some(workload) = Workload::by_name(&bench) else {
                eprintln!("deact-sim: unknown benchmark `{bench}` (see `deact-sim list`)");
                return ExitCode::FAILURE;
            };
            let mut system = System::new(cfg, &workload);
            let r = match system.try_run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("deact-sim: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_report(&r);
            println!();
            print!("{}", system.metrics());
            println!();
            let audit = system.audit();
            print!("{audit}");
            if audit.passed() {
                println!("audit            all {} checks passed", audit.checks.len());
                ExitCode::SUCCESS
            } else {
                eprintln!("deact-sim: conservation audit FAILED");
                ExitCode::FAILURE
            }
        }
        Some("record") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some((rest, out)) = extract_string_opt(&args[2..], "--out", None) else {
                return usage();
            };
            let out = out.unwrap_or_else(|| format!("{bench}.famt"));
            let Some(cfg) = apply_flags(SystemConfig::paper_default(), &rest) else {
                return usage();
            };
            let Some(workload) = Workload::by_name(bench) else {
                eprintln!("deact-sim: unknown benchmark `{bench}` (see `deact-sim list`)");
                return ExitCode::FAILURE;
            };
            let mut streams = System::synthetic_streams(&cfg, &workload);
            let file = match std::fs::File::create(&out) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("deact-sim: cannot create {out}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let records = match fam_workloads::trace::record_streams(
                std::io::BufWriter::new(file),
                &mut streams,
                cfg.refs_per_core,
            ) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("deact-sim: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "wrote {out}: {records} records across {} ranks ({} nodes x {} cores, \
                 {} refs/core) — replay with `deact-sim replay {out}`",
                cfg.nodes * cfg.cores_per_node,
                cfg.nodes,
                cfg.cores_per_node,
                cfg.refs_per_core
            );
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let Some((rest, trace_out)) = extract_string_opt(&args[2..], "--trace-out", None)
            else {
                return usage();
            };
            let Some(cfg) = apply_flags(SystemConfig::paper_default(), &rest) else {
                return usage();
            };
            let cfg = match &trace_out {
                Some(_) => cfg.with_trace(TraceConfig::full()),
                None => cfg,
            };
            let streams =
                match fam_workloads::trace::replay_streams(path, cfg.nodes, cfg.cores_per_node) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("deact-sim: cannot replay {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            let header = match std::fs::File::open(path)
                .and_then(fam_workloads::TraceReader::new)
                .map(|rd| rd.header())
            {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("deact-sim: cannot replay {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Label the report with the file stem so a replay of
            // `sssp.famt` prints exactly like `run sssp`.
            let label = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone());
            let frequency_mhz = cfg.frequency_mhz;
            let mut system = System::with_streams(cfg, &label, streams);
            let r = match system.try_run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("deact-sim: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_report(&r);
            let metrics = system.metrics();
            let wraps: u64 = (0..r.nodes)
                .map(|n| {
                    metrics
                        .counter_value(&format!("node{n}/replay_wraps"))
                        .unwrap_or(0)
                })
                .sum();
            println!(
                "replay           {path}: FAMT v{}, {} records, {} ranks, {} wrap-arounds",
                header.version, header.count, header.ranks, wraps
            );
            if let Some(out) = trace_out {
                let file = match std::fs::File::create(&out) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("deact-sim: cannot create {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = write_chrome_trace(
                    std::io::BufWriter::new(file),
                    system.tracer(),
                    frequency_mhz,
                ) {
                    eprintln!("deact-sim: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {out} (load it at https://ui.perfetto.dev or chrome://tracing)");
            }
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some((rest, jobs)) = extract_jobs(&args[2..]) else {
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
    }

    #[test]
    fn stu_entries_must_fill_whole_sets() {
        // The paper's STU is 8-way: 12 entries leave a partial set.
        let cfg =
            |n: &str| apply_flags(SystemConfig::paper_default(), &flags(&["--stu-entries", n]));
        assert!(cfg("12").is_none());
        assert!(cfg("16").is_some());
    }
}
