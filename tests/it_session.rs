//! Session API integration: observer hooks agree with the report's
//! counters, live statistics behave mid-flight, and the serialized
//! artifacts carry every counter.

use nosq_core::observer::{
    BypassEvent, CommitEvent, CycleEvent, IntervalIpc, LoadCommitEvent, ReexecEvent, SimObserver,
    SquashCause, SquashEvent,
};
use nosq_core::{simulate, SimConfig, SimReport, Simulator, StopCondition};
use nosq_isa::InstClass;
use nosq_trace::{synthesize, Profile, TraceBuffer};

/// Counts every event category, deriving the same totals the pipeline
/// accumulates internally.
#[derive(Default)]
struct EventCounts {
    cycles: u64,
    commits: u64,
    committed_loads: u64,
    committed_stores: u64,
    bypasses: u64,
    partial_bypasses: u64,
    squashes: u64,
    squash_causes: Vec<SquashCause>,
    reexecs: u64,
    reexec_mismatches: u64,
}

impl SimObserver for EventCounts {
    fn on_cycle(&mut self, _ev: &CycleEvent) {
        self.cycles += 1;
    }
    fn on_commit(&mut self, ev: &CommitEvent) {
        self.commits += 1;
        match ev.class {
            InstClass::Load => self.committed_loads += 1,
            InstClass::Store => self.committed_stores += 1,
            _ => {}
        }
    }
    fn on_bypass(&mut self, ev: &BypassEvent) {
        self.bypasses += 1;
        if ev.partial {
            self.partial_bypasses += 1;
        }
    }
    fn on_squash(&mut self, ev: &SquashEvent) {
        self.squashes += 1;
        self.squash_causes.push(ev.cause);
    }
    fn on_reexec(&mut self, ev: &ReexecEvent) {
        self.reexecs += 1;
        if ev.mismatch {
            self.reexec_mismatches += 1;
        }
    }
}

fn run_observed(cfg: SimConfig) -> (EventCounts, SimReport) {
    let profile = Profile::by_name("g721.e").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let mut counts = EventCounts::default();
    let mut sim = Simulator::new(&program, cfg);
    sim.attach_observer(Box::new(&mut counts));
    sim.run_until(StopCondition::Done);
    let report = sim.finish();
    (counts, report)
}

/// Hook-derived totals must match the report's counters exactly: the
/// observer stream is the same information, just time-resolved.
#[test]
fn observer_totals_match_report_counters_nosq() {
    let (counts, report) = run_observed(SimConfig::nosq(30_000));
    assert_eq!(counts.cycles, report.cycles);
    assert_eq!(counts.commits, report.insts);
    assert_eq!(counts.committed_loads, report.memory.loads);
    assert_eq!(counts.committed_stores, report.memory.stores);
    assert_eq!(counts.bypasses, report.memory.bypassed_loads);
    assert_eq!(counts.partial_bypasses, report.memory.shift_mask_uops);
    assert_eq!(counts.reexecs, report.verification.backend_dcache_reads);
    assert_eq!(
        counts.squashes,
        report.verification.bypass_mispredicts + report.verification.ordering_squashes
    );
    assert!(
        counts
            .squash_causes
            .iter()
            .all(|c| *c == SquashCause::BypassMispredict),
        "NoSQ squashes must be bypass mis-predictions"
    );
    // The workload actually exercised the hooks.
    assert!(counts.bypasses > 0 && counts.reexecs > 0);
}

#[test]
fn observer_totals_match_report_counters_baseline() {
    let (counts, report) = run_observed(SimConfig::baseline_storesets(30_000));
    assert_eq!(counts.commits, report.insts);
    assert_eq!(counts.bypasses, 0, "baseline never bypasses");
    assert_eq!(
        counts.squashes,
        report.verification.bypass_mispredicts + report.verification.ordering_squashes
    );
    assert!(
        counts
            .squash_causes
            .iter()
            .all(|c| *c == SquashCause::OrderingViolation),
        "baseline squashes are ordering violations"
    );
}

/// Attaching observers must not perturb timing: the observed run's
/// report equals the unobserved run's, bit for bit.
#[test]
fn observers_are_timing_invisible() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let plain = simulate(&program, SimConfig::nosq(20_000));
    let mut counts = EventCounts::default();
    let mut sim = Simulator::new(&program, SimConfig::nosq(20_000));
    sim.attach_observer(Box::new(&mut counts));
    let observed = sim.run();
    assert_eq!(plain, observed);
}

/// Live stats mid-flight: `run_until(Insts(n))` stops with at least
/// `n` commits, strictly before completion on a longer program, and a
/// partial `finish()` reports the executed prefix.
#[test]
fn partial_sessions_report_the_prefix() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let mut sim = Simulator::new(&program, SimConfig::nosq(20_000));
    let done = sim.run_until(StopCondition::Insts(4_000));
    assert!(!done && !sim.is_done(), "stopped long before the budget");
    let live = *sim.stats();
    assert!(live.insts >= 4_000);
    assert!(live.cycles > 0 && live.ipc() > 0.0);
    let prefix = sim.finish();
    assert_eq!(prefix, live, "finish must freeze the live stats");
    assert!(prefix.insts < 20_000);
}

/// The built-in interval-IPC observer integrates the same instruction
/// stream the report summarizes.
#[test]
fn interval_ipc_integrates_to_total_commits() {
    let profile = Profile::by_name("gsm.e").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let interval = 256;
    let mut ipc = IntervalIpc::new(interval);
    let mut sim = Simulator::new(&program, SimConfig::nosq(15_000));
    sim.attach_observer(Box::new(&mut ipc));
    sim.run_until(StopCondition::Done);
    let report = sim.finish();
    // One sample per full interval after the anchoring first cycle.
    assert_eq!(ipc.samples().len() as u64, (report.cycles - 1) / interval);
    let integrated: f64 = ipc.samples().iter().sum::<f64>() * interval as f64;
    // Full intervals only; the tail (< one interval) is unsampled.
    assert!(
        integrated <= report.insts as f64
            && integrated >= report.insts.saturating_sub(interval * 8) as f64,
        "integrated {integrated} vs committed {}",
        report.insts
    );
}

/// The serialized artifacts carry every counter of the report they
/// came from.
#[test]
fn serialization_covers_all_counters() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let report = simulate(&program, SimConfig::nosq(10_000));
    let json = report.to_json();
    for (group, name, value) in report.counters() {
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "{group}.{name} missing from JSON"
        );
    }
    let header = SimReport::csv_header();
    let row = report.to_csv_row();
    assert_eq!(header.split(',').count(), row.split(',').count());
    let cycles_col = header
        .split(',')
        .position(|c| c == "cycles")
        .expect("cycles column");
    assert_eq!(
        row.split(',').nth(cycles_col).unwrap(),
        report.cycles.to_string()
    );
}

/// Collects every committed load's verification record.
#[derive(Default)]
struct LoadCommits(Vec<LoadCommitEvent>);

impl SimObserver for LoadCommits {
    fn on_load_commit(&mut self, ev: &LoadCommitEvent) {
        self.0.push(*ev);
    }
}

/// A traced session and a replay of the recorded trace hold their
/// records differently (the traced session records a chunk at a time
/// and drops what has committed; replay reads the whole trace), yet
/// they must emit the same load-commit stream, and each event's `seq`
/// must name the trace record it came from.
#[test]
fn live_and_replay_sessions_emit_the_same_load_commits() {
    let n = 20_000;
    for name in ["gzip", "gcc", "applu", "gsm.e"] {
        let profile = Profile::by_name(name).expect("profile exists");
        let program = synthesize(profile, nosq_bench::SEED);
        let trace = TraceBuffer::record(&program, n);
        for (preset, cfg) in [
            ("nosq", SimConfig::nosq(n)),
            ("baseline-storesets", SimConfig::baseline_storesets(n)),
        ] {
            let mut live = LoadCommits::default();
            let mut sim = Simulator::new(&program, cfg.clone());
            sim.attach_observer(Box::new(&mut live));
            sim.run();
            let mut replay = LoadCommits::default();
            let mut sim = Simulator::replay(&program, cfg, &trace);
            sim.attach_observer(Box::new(&mut replay));
            sim.run();
            let job = format!("{name} under {preset}");
            assert!(!live.0.is_empty(), "{job}: no load committed");
            assert_eq!(live.0.len(), replay.0.len(), "{job}");
            for (l, r) in live.0.iter().zip(&replay.0) {
                assert_eq!(l, r, "{job}");
                let d = &trace.insts()[r.seq as usize];
                assert_eq!(
                    (d.pc, d.addr, d.stores_before),
                    (r.pc, r.addr, r.stores_before),
                    "{job}: seq {} names another record",
                    r.seq
                );
            }
        }
    }
}
