//! The tracing subsystem's cross-crate contracts.
//!
//! The headline guarantee mirrors the fault injector's: tracing is
//! observation only. Every run keeps the per-stage latency ledger, and
//! a traced run's [`RunReport`] equals the untraced one in full —
//! proven here by comparing fixed-seed reports. The other tests cover
//! the ledger against the traced events, the bounded ring's drop
//! accounting, the Chrome trace-event exporter's output, and the
//! windowed time series' books balancing against the run report.

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::trace::{validate_chrome_json, write_chrome_trace};
use fam_sim::{FaultConfig, Stage, StageCycles, TraceConfig, Track};
use fam_workloads::Workload;

fn run_with(cfg: SystemConfig) -> RunReport {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    System::new(cfg, &w).try_run().expect("run completes")
}

fn base(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(2_000)
        .with_seed(0x7ACE)
}

#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    for scheme in Scheme::ALL {
        let untraced = run_with(base(scheme));
        let traced = run_with(base(scheme).with_trace(TraceConfig::full()));
        assert_eq!(
            untraced, traced,
            "{scheme}: tracing must not perturb the simulation"
        );
    }
}

#[test]
fn traced_runs_are_bit_identical_under_fault_injection() {
    // The retry/backoff event sites sit inside the recovery loop; prove
    // they are observation-only even when that loop is exercised.
    let cfg = base(Scheme::DeactN).with_fault_injection(FaultConfig::transient(0xFA));
    let untraced = run_with(cfg);
    let traced = run_with(cfg.with_trace(TraceConfig::full()));
    assert!(untraced.recovery.retries > 0, "profile must inject faults");
    assert_eq!(untraced, traced);
}

#[test]
fn untraced_reports_carry_the_ledger_of_the_traced_events() {
    for cfg in [
        base(Scheme::DeactN).with_refs_per_core(500),
        base(Scheme::IFam)
            .with_refs_per_core(500)
            .with_fault_injection(FaultConfig::transient(0xFA)),
    ] {
        let untraced = run_with(cfg);
        let spans = untraced.latency.total_samples();
        assert!(
            spans > 0,
            "{}: an untraced run keeps its ledger",
            cfg.scheme
        );
        assert!(untraced.latency.stage(Stage::TlbLookup).count > 0);

        // A ring that holds every span, so the events are the whole run.
        let w = Workload::by_name("astar").expect("table3 benchmark");
        let ring = usize::try_from(spans).expect("span count fits a usize");
        let mut sys = System::new(
            cfg.with_trace(TraceConfig::full().with_ring_capacity(ring)),
            &w,
        );
        let traced = sys.try_run().expect("run completes");
        assert_eq!(untraced.latency, traced.latency);
        let t = sys.tracer();
        assert_eq!(t.dropped(), 0, "the ring must keep every event");

        let mut folded = [StageCycles::default(); Stage::COUNT];
        for ev in t.events() {
            let s = &mut folded[ev.stage.index()];
            s.count += 1;
            s.cycles += ev.cycles();
            s.max = s.max.max(ev.cycles());
        }
        for stage in Stage::ALL {
            assert_eq!(
                traced.latency.stage(stage),
                folded[stage.index()],
                "{}: {stage} ledger differs from its events",
                cfg.scheme
            );
        }
    }
}

#[test]
fn ring_overflow_is_counted_not_silent() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full().with_ring_capacity(64));
    let mut sys = System::new(cfg, &w);
    sys.try_run().expect("run completes");
    let t = sys.tracer();
    assert_eq!(t.retained(), 64, "ring fills to capacity");
    assert!(t.recorded() > 64, "the run emits more events than fit");
    assert_eq!(
        t.dropped(),
        t.recorded() - t.retained() as u64,
        "every overwritten event is accounted for"
    );
}

#[test]
fn chrome_trace_export_is_well_formed_and_spans_the_pipeline() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full());
    let mut sys = System::new(cfg, &w);
    sys.try_run().expect("run completes");

    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, sys.tracer(), 2000).expect("write succeeds");
    let text = String::from_utf8(buf).expect("exporter emits UTF-8");
    let events = validate_chrome_json(&text).expect("exporter emits valid JSON");
    assert!(events > 0, "a DeACT-N run must produce events");

    // The acceptance demo: at least one request's span set reaches
    // node → fabric → STU → NVM. Request ids live in `args.req`, so
    // scan the retained events directly.
    let crosses_pipeline = sys.tracer().events().any(|ev| {
        ev.req.is_traced()
            && matches!(ev.track, Track::Nvm(_))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Node(_)))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Stu(_)))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Fabric(_)))
    });
    assert!(
        crosses_pipeline,
        "some request must span node, fabric, STU and NVM tracks"
    );

    // The exporter's self-description matches the tracer's books.
    assert!(text.contains("\"schema\": \"deact-trace-v1\""));
    assert!(text.contains(&format!("\"recorded\": {}", sys.tracer().recorded())));
    assert!(text.contains(&format!("\"dropped\": {}", sys.tracer().dropped())));
}

#[test]
fn window_series_books_balance_against_the_report() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full().with_window_cycles(1 << 16));
    let mut sys = System::new(cfg, &w);
    let report = sys.try_run().expect("run completes");
    let series = sys.tracer().series();
    assert!(!series.samples().is_empty());
    let instructions: u64 = series.samples().iter().map(|s| s.instructions).sum();
    let fam_total: u64 = series.samples().iter().map(|s| s.fam_total).sum();
    let fam_at: u64 = series.samples().iter().map(|s| s.fam_at).sum();
    assert_eq!(instructions, report.instructions);
    assert_eq!(fam_total, report.fam.total());
    assert_eq!(fam_at, report.fam.at_total());
}
