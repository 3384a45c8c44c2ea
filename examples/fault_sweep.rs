//! Chaos sweep: graceful degradation across schemes as the fabric gets
//! flakier — and survival when it breaks for good.
//!
//! Two sections:
//!
//! 1. **Transient sweep** — the fault injector throws drops,
//!    corruptions, stale translations, and STU stalls at the FAM path;
//!    the retry/NACK machinery absorbs them. The profile scales from
//!    0× to 4× and the table shows what was injected, how recovery
//!    went, and what the faults cost in IPC.
//! 2. **Chaos matrix** — *persistent* faults (a FAM module dies, its
//!    link is severed for good, a media range wears out), alone and
//!    layered on top of the transient profile, across all four
//!    schemes. Retries cannot heal these; the memory broker
//!    quarantines, evacuates what is reachable, rewrites translations,
//!    and broadcasts shootdowns, and the run completes *degraded* —
//!    never a panic. The table is the survival/degradation report.
//!
//! Everything is seed-driven: run it twice and the tables are
//! byte-identical.
//!
//! ```sh
//! cargo run --release -p fam-examples --bin fault_sweep
//! ```

use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};
use fam_sim::{FaultConfig, PersistentFault};

fn transient_sweep() -> Result<(), SimError> {
    let cfg = SystemConfig::paper_default()
        .with_refs_per_core(20_000)
        .with_seed(7);
    let bench = "mcf";

    println!("transient sweep on `{bench}` (seed 7)");
    println!();
    println!(
        "{:>5} {:8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>9}",
        "scale", "scheme", "injected", "retries", "recov", "fatal", "rate", "backoff", "ipc-loss"
    );

    for scale in [0.0, 1.0, 2.0, 4.0] {
        for scheme in Scheme::ALL {
            let clean = try_run_benchmark(bench, cfg.with_scheme(scheme))?;
            let faulty = if scale == 0.0 {
                cfg.with_scheme(scheme)
            } else {
                cfg.with_scheme(scheme).with_fault_injection(FaultConfig {
                    rate_scale: scale,
                    ..FaultConfig::transient(7)
                })
            };
            let r = try_run_benchmark(bench, faulty)?;
            let f = &r.recovery;
            println!(
                "{:>4}x {:8} {:>8} {:>8} {:>8} {:>8} {:>5.1}% {:>8} {:>8.1}%",
                scale,
                scheme.name(),
                f.injected_total(),
                f.retries,
                f.recovered,
                f.fatal,
                f.recovery_rate() * 100.0,
                f.backoff_cycles,
                (1.0 - r.ipc / clean.ipc) * 100.0,
            );
        }
        println!();
    }

    println!("at 0x the recovery block is all-zero: injection off is free.");
    println!("fatal > 0 means the retry budget (4) was exhausted; the run");
    println!("still completes — degradation, not collapse.");
    Ok(())
}

/// The persistent-failure roster: one of each class, all striking at
/// the same injector ordinal so the tables are comparable.
fn persistent_roster() -> [(&'static str, PersistentFault); 3] {
    [
        ("node-dead", PersistentFault::NodeDead { module: 1 }),
        ("link-sever", PersistentFault::LinkSevered { module: 1 }),
        (
            "media-fail",
            PersistentFault::MediaFailed {
                first_page: 0,
                pages: 64,
            },
        ),
    ]
}

fn chaos_matrix() -> Result<(), SimError> {
    // Two nodes over two FAM modules: killing module 1 leaves a
    // survivor to evacuate to and keeps the sweep fast.
    let cfg = SystemConfig::paper_default()
        .with_nodes(2)
        .with_fam_modules(2)
        .with_refs_per_core(3_000)
        .with_seed(7);
    let bench = "sssp";
    const STRIKE_AT: u64 = 500;

    println!();
    println!("chaos matrix on `{bench}` (strike at FAM op {STRIKE_AT}, seed 7)");
    println!();
    println!(
        "{:>10} {:>10} {:8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>9} {:>8} {:>8}",
        "mix",
        "fault",
        "scheme",
        "quar",
        "evac",
        "lost",
        "rebuilt",
        "poison",
        "recov-cy",
        "ipc",
        "survived"
    );

    for (mix, transient) in [("persistent", false), ("pers+trans", true)] {
        for (fault_name, fault) in persistent_roster() {
            for scheme in Scheme::ALL {
                let faults = if transient {
                    FaultConfig::transient(7).with_persistent(fault, STRIKE_AT)
                } else {
                    FaultConfig::disabled().with_persistent(fault, STRIKE_AT)
                };
                // A `SimError` ends the sweep; completing every cell
                // *is* the survival claim.
                let r =
                    try_run_benchmark(bench, cfg.with_scheme(scheme).with_fault_injection(faults))?;
                let d = &r.degradation;
                assert!(
                    !d.is_zero(),
                    "{fault_name}/{scheme}: the persistent fault never struck"
                );
                println!(
                    "{:>10} {:>10} {:8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>9} {:>8.4} {:>8}",
                    mix,
                    fault_name,
                    scheme.name(),
                    d.pages_quarantined,
                    d.pages_evacuated,
                    d.pages_lost,
                    d.table_pages_rebuilt,
                    d.poisoned_accesses,
                    d.recovery_cycles,
                    r.ipc,
                    "yes"
                );
            }
        }
        println!();
    }

    println!("every cell completed: quarantine + evacuation + shootdown, never");
    println!("a panic. link-sever evacuates (lost = 0, poison = 0); node-dead");
    println!("and media-fail lose the struck pages and poison later touches.");
    Ok(())
}

fn main() -> Result<(), SimError> {
    transient_sweep()?;
    chaos_matrix()
}
