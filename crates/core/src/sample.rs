//! Checkpointed sampling: estimate a full run's performance from
//! periodic measured windows.
//!
//! Cycle-level simulation costs ~100× the functional tracer; sampling
//! buys that factor back for long workloads by running the detailed
//! pipeline only over short, evenly spaced *windows* of the dynamic
//! stream and **fast-forwarding** between them at functional speed.
//! The fast-forward is *functional warm-up via the tracer path*: a
//! single pass over the recorded trace that applies each committed
//! store's effect to an architectural memory image **and** trains the
//! long-history microarchitectural state — branch predictor, BTB,
//! RAS, caches/TLB, the T-SSBF, and above all the bypassing
//! predictor — from the same per-instruction records the pipeline
//! would see, without simulating any timing. Positioning a window at
//! trace offset *k* therefore costs a few table updates per skipped
//! instruction rather than a simulated cycle, and the window opens
//! with the slow-learning state (bypass confidence takes ~100k
//! instructions to train) already in steady state. Without that
//! warming, a window placed after the predictors' training phase
//! measures the *untrained* machine and the estimate lands 30–50%
//! low.
//!
//! Each window then replays a [`DETAIL_WARMUP`]-instruction detailed
//! warming prefix followed by the measured `interval`, all with the
//! full timing model; statistics count only the measured part. The
//! memory image makes loads of pre-window stores exact, and the SSN
//! counters are seeded with the absolute store count at the window
//! start so bypass distances, squash rollbacks, and wrap boundaries
//! all use the same arithmetic as a full run. State the warmer does
//! not model (ROB/queue occupancy, store-set tables, in-flight
//! timing) settles during the detailed prefix; what remains is the
//! estimator's bias. The SVW filters fail *conservative* on any
//! not-warmed entry (forced re-execution), so windows remain
//! value-verified end to end — sampling trades accuracy of the
//! *estimate*, never correctness of the model.
//!
//! ```
//! use nosq_core::sample::{sampled_replay, SamplePlan};
//! use nosq_core::{SimConfig, Simulator};
//! use nosq_trace::{synthesize, Profile, TraceBuffer};
//!
//! let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
//! let trace = TraceBuffer::record(&program, 20_000);
//! let cfg = SimConfig::nosq(20_000);
//!
//! let plan = SamplePlan::parse("2000:1000:4").unwrap();
//! let est = sampled_replay(&program, cfg.clone(), &trace, &plan);
//! let full = Simulator::replay(&program, cfg, &trace).run();
//!
//! assert_eq!(est.windows, 4);
//! let err = (est.ipc() - full.ipc()).abs() / full.ipc();
//! assert!(err.is_finite());
//! ```

use nosq_isa::{Inst, InstClass, Memory, Program};
use nosq_trace::{Coverage, DynInst, TraceBuffer};
use nosq_uarch::{MemoryHierarchy, Ssn, Tlb, Tssbf};

use crate::arena::SimArena;
use crate::config::SimConfig;
use crate::pipeline::{FrontEnd, Simulator, StopCondition};
use crate::predictor::BypassingPredictor;

/// Detailed warming prefix simulated (but not measured) at the head of
/// every window: the window replays `DETAIL_WARMUP + interval`
/// instructions through the full timing model, and statistics count
/// only the final `interval`. This is the SMARTS recipe — the prefix
/// washes out pipeline fill and the hottest cache/predictor state, the
/// dominant cold-start transients; what it cannot wash out (deep L2
/// sets, large predictor tables) is the estimator's residual bias.
pub const DETAIL_WARMUP: u64 = 2_000;

/// A periodic sampling schedule over a recorded trace: skip `warmup`
/// instructions functionally, then measure `count` windows of
/// `interval` instructions spread evenly over the remainder.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SamplePlan {
    /// Instructions to fast-forward before the first window.
    pub warmup: u64,
    /// Instructions per measured window (≥ 1).
    pub interval: u64,
    /// Number of measured windows (≥ 1).
    pub count: u64,
}

impl SamplePlan {
    /// Parses the CLI syntax `WARMUP:INTERVAL:COUNT` (three decimal
    /// integers; `interval` and `count` must be ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the shape or a field is
    /// invalid — callers surface it as a usage error.
    pub fn parse(s: &str) -> Result<SamplePlan, String> {
        let mut it = s.split(':');
        let (Some(w), Some(i), Some(c), None) = (it.next(), it.next(), it.next(), it.next()) else {
            return Err(format!("expected WARMUP:INTERVAL:COUNT, got '{s}'"));
        };
        let field = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} '{v}' is not a non-negative integer"))
        };
        let plan = SamplePlan {
            warmup: field("warmup", w)?,
            interval: field("interval", i)?,
            count: field("count", c)?,
        };
        if plan.interval == 0 {
            return Err("interval must be at least 1".to_string());
        }
        if plan.count == 0 {
            return Err("count must be at least 1".to_string());
        }
        Ok(plan)
    }
}

impl std::str::FromStr for SamplePlan {
    type Err = String;

    fn from_str(s: &str) -> Result<SamplePlan, String> {
        SamplePlan::parse(s)
    }
}

/// What a sampled run measured, and the estimate it supports.
///
/// `measured_*` sum over the windows that actually ran (a window is
/// skipped only when the warm-up or an earlier window already consumed
/// the whole trace, so `windows` can be below the plan's `count`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SampledReport {
    /// Windows that ran.
    pub windows: u64,
    /// Instructions committed inside measured windows.
    pub measured_insts: u64,
    /// Cycles spent inside measured windows.
    pub measured_cycles: u64,
    /// Instructions in the full run being estimated (trace length
    /// clamped to the configuration's budget).
    pub total_insts: u64,
}

impl SampledReport {
    /// The sampled IPC estimate (NaN if no window ran).
    pub fn ipc(&self) -> f64 {
        if self.measured_cycles == 0 {
            f64::NAN
        } else {
            self.measured_insts as f64 / self.measured_cycles as f64
        }
    }

    /// Estimated cycles for the full run: `total_insts` at the sampled
    /// IPC (NaN if no window ran).
    pub fn est_cycles(&self) -> f64 {
        self.total_insts as f64 / self.ipc()
    }
}

/// Runs `plan` over a recorded trace with session-owned buffers and
/// returns the sampled estimate. See the [module docs](self) for the
/// estimator's construction and bias.
///
/// # Panics
///
/// Panics if the window replay violates a pipeline invariant (debug
/// builds assert, among others, that seeded SSNs track the trace's
/// absolute store counts).
pub fn sampled_replay(
    program: &Program,
    cfg: SimConfig,
    trace: &TraceBuffer,
    plan: &SamplePlan,
) -> SampledReport {
    let mut arena = SimArena::new();
    sampled_replay_with_arena(program, cfg, trace, plan, &mut arena)
}

/// [`sampled_replay`] with arena-recycled buffers — every window reuses
/// the arena's core allocation, so a sampled sweep allocates like a
/// single session.
pub fn sampled_replay_with_arena(
    program: &Program,
    cfg: SimConfig,
    trace: &TraceBuffer,
    plan: &SamplePlan,
    arena: &mut SimArena,
) -> SampledReport {
    let (code, insts) = (program.code(), trace.insts());
    let total = (insts.len() as u64).min(cfg.max_insts);
    let span = total.saturating_sub(plan.warmup);
    // Each window's full extent includes its detailed-warming prefix;
    // an interval longer than the trace covers the rest of it.
    let extent = DETAIL_WARMUP.saturating_add(plan.interval);
    // Spread the windows evenly over the post-warm-up span, but never
    // closer than one window extent apart: windows must not overlap,
    // so the functional cursor only ever moves forward.
    let period = (span / plan.count).max(extent);
    let mut mem = program.initial_memory();
    let mut warm = WarmState::new(&cfg);
    let mut cursor = 0u64;
    let mut report = SampledReport {
        total_insts: total,
        ..SampledReport::default()
    };
    for w in 0..plan.count {
        let start = plan.warmup.saturating_add(w.saturating_mul(period));
        if start >= total {
            break;
        }
        let len = extent.min(total - start);
        // A truncated tail window keeps at least one measured
        // instruction; the warming prefix shrinks before the
        // measurement does.
        let detail = DETAIL_WARMUP.min(len - 1);
        warm.fast_forward(&mut mem, code, &insts[cursor as usize..start as usize]);
        cursor = start;
        let mut sim = Simulator::replay_window(
            program,
            cfg.clone(),
            trace,
            start as usize,
            len as usize,
            mem.clone(),
            &warm,
            Some(&mut arena.core),
        );
        sim.run_until(StopCondition::Insts(detail));
        let (warm_insts, warm_cycles) = (sim.stats().insts, sim.stats().cycles);
        sim.run_until(StopCondition::Done);
        let window = sim.finish();
        debug_assert_eq!(window.insts, len, "window committed its whole extent");
        report.windows += 1;
        report.measured_insts += window.insts - warm_insts;
        report.measured_cycles += window.cycles - warm_cycles;
    }
    report
}

/// Long-history microarchitectural state carried across the functional
/// fast-forward and injected into each window at its head (see
/// [`Simulator::replay_window`]).
///
/// The warmer mirrors the pipeline's *committed-path* updates — the
/// same table writes the fetch and commit stages perform, driven from
/// the trace's per-instruction records instead of simulated execution;
/// the front end trains through the fetch stage's own
/// [`FrontEnd::train`]. It deliberately models only state whose
/// training horizon exceeds a window's detailed prefix: predictors,
/// caches, and the T-SSBF.
/// Occupancy-like state (ROB, queues, in-flight stores) refills within
/// a few hundred cycles and is left to [`DETAIL_WARMUP`].
#[derive(Clone)]
pub(crate) struct WarmState {
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) front: FrontEnd,
    pub(crate) predictor: BypassingPredictor,
    pub(crate) tssbf: Tssbf,
}

impl WarmState {
    /// Cold state for `cfg`: what every [`Simulator`] session but a
    /// sampling window starts from.
    pub(crate) fn new(cfg: &SimConfig) -> WarmState {
        let m = &cfg.machine;
        WarmState {
            hierarchy: MemoryHierarchy::new(
                m.l1d,
                m.l2,
                Tlb::new(m.dtlb_entries, m.dtlb_ways),
                m.mem_latency,
                m.tlb_miss_penalty,
            ),
            front: FrontEnd::new(m),
            predictor: BypassingPredictor::new(cfg.predictor),
            tssbf: Tssbf::new(128, 4),
        }
    }

    /// The functional fast-forward: applies each committed store's
    /// memory effect exactly as the pipeline's commit stage would, and
    /// trains every warmed structure from the trace records. `code` is
    /// the traced program's [`Program::code`].
    fn fast_forward(&mut self, mem: &mut Memory, code: &[Inst], insts: &[DynInst]) {
        for d in insts {
            self.observe(d, d.inst(code), mem);
        }
    }

    fn observe(&mut self, d: &DynInst, inst: &Inst, mem: &mut Memory) {
        match d.class {
            InstClass::Load => {
                // Predict/train *before* any history update, matching
                // the dispatch-time path snapshot a real load sees.
                self.train_load(d);
                self.hierarchy.load_latency(d.addr);
            }
            InstClass::Store => {
                let width = inst.mem_width().expect("store width").bytes();
                mem.write(d.addr, width, d.store_mem_bits(inst));
                self.hierarchy.store_commit(d.addr);
                // Committed stores are 1-based in SSN space: the store
                // after `stores_before` older ones is `stores_before+1`.
                self.tssbf
                    .record_store(d.addr, width as u8, Ssn(d.stores_before + 1));
            }
            _ => {}
        }
        self.front.train(inst, d);
    }

    /// Trains the bypassing predictor through the commit stage's rule,
    /// with the trace's dependence oracle as verification: a load
    /// mispredicts unless its prediction names its producer within the
    /// 6-bit distance field (shift 0 under partial coverage); a load
    /// whose producer is out of range, or absent, verifies clean.
    fn train_load(&mut self, d: &DynInst) {
        let path = &self.front.path;
        let pred = self.predictor.predict(d.pc, path);
        let truth = d.mem_dep.filter(|dep| dep.store_distance <= 63).map(|dep| {
            let full = dep.coverage == Coverage::Full;
            (dep.store_distance as u16, if full { dep.shift } else { 0 })
        });
        let mispredicted = truth.is_some() && pred.map(|p| (p.dist, p.shift)) != truth;
        self.predictor
            .train(d.pc, path, pred, mispredicted, || truth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_shape() {
        assert_eq!(
            SamplePlan::parse("1000:500:10"),
            Ok(SamplePlan {
                warmup: 1000,
                interval: 500,
                count: 10
            })
        );
        assert_eq!(
            "0:1:1".parse(),
            Ok(SamplePlan {
                warmup: 0,
                interval: 1,
                count: 1
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "", "5", "1:2", "1:2:3:4", "a:2:3", "1:-2:3", "1:0:3", "1:2:0",
        ] {
            assert!(SamplePlan::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    /// One profile from each suite, plus gcc.
    const PROFILES: [&str; 4] = ["gzip", "gcc", "applu", "gsm.e"];

    /// A profile's program at seed 42 (the campaign engine's default)
    /// and its first `n` instructions, recorded.
    fn workload(name: &str, n: u64) -> (Program, TraceBuffer) {
        let profile = nosq_trace::Profile::by_name(name).expect("profile exists");
        let program = nosq_trace::synthesize(profile, 42);
        let trace = TraceBuffer::record(&program, n);
        (program, trace)
    }

    /// The documented error bar: at 20k instructions every estimate
    /// lands within 25% of the full run's IPC. At this budget the full
    /// run is itself barely trained, so the bar holds even with the
    /// functional warming disabled; it checks the window machinery, not
    /// the warmer's bias (which needs a budget of 300k or more).
    #[test]
    fn estimates_stay_within_the_documented_error_bar() {
        let n = 20_000;
        let plan = SamplePlan {
            warmup: 2_000,
            interval: 1_000,
            count: 20,
        };
        for name in PROFILES {
            let (program, trace) = workload(name, n);
            let full = Simulator::replay(&program, SimConfig::nosq(n), &trace).run();
            let est = sampled_replay(&program, SimConfig::nosq(n), &trace, &plan);
            assert!(est.windows > 0, "{name}: no window ran");
            let err = (est.ipc() - full.ipc()).abs() / full.ipc();
            assert!(
                err <= 0.25,
                "{name}: sampled IPC {:.3} is {:.1}% off the full run's {:.3}",
                est.ipc(),
                100.0 * err,
                full.ipc()
            );
        }
    }

    /// Every window after the first opens away from the origin, on the
    /// warmer's state and the fast-forwarded memory image, so these
    /// exact estimates pin the warm hand-over: a window that starts any
    /// warmed structure cold, or reads a stale image, moves them. The
    /// error bar above cannot see that, and the origin test below opens
    /// its one window cold.
    #[test]
    fn sampled_estimates_are_pinned() {
        let n = 50_000;
        let plan = SamplePlan::parse("5000:1000:10").expect("valid plan");
        // (profile, nosq measured insts and cycles, baseline-storesets
        // measured insts and cycles); 10 windows over 50,000 each.
        let pinned = [
            ("gzip", (9_982, 10_180), (9_982, 10_029)),
            ("gcc", (9_988, 11_532), (9_987, 11_359)),
            ("applu", (9_985, 11_957), (9_983, 12_398)),
            ("gsm.e", (9_985, 10_217), (9_985, 10_101)),
        ];
        // The table runs twice: on its own trace per profile, and
        // through one arena as a `nosq run --sample` request runs it,
        // where each profile's trace refills the storage of the one
        // recorded before it.
        let mut arena = SimArena::new();
        for (name, nosq, storesets) in pinned {
            let (program, trace) = workload(name, n);
            let reused = TraceBuffer::record_with_arena(&program, n, &mut arena.trace);
            for (preset, cfg, (insts, cycles)) in [
                ("nosq", SimConfig::nosq(n), nosq),
                (
                    "baseline-storesets",
                    SimConfig::baseline_storesets(n),
                    storesets,
                ),
            ] {
                let want = SampledReport {
                    windows: 10,
                    measured_insts: insts,
                    measured_cycles: cycles,
                    total_insts: n,
                };
                let est = sampled_replay(&program, cfg.clone(), &trace, &plan);
                assert_eq!(est, want, "{name} under {preset}");
                let est = sampled_replay_with_arena(&program, cfg, &reused, &plan, &mut arena);
                assert_eq!(est, want, "{name} under {preset} through one arena");
            }
        }
    }

    /// An interval longer than the trace measures the rest of it, as
    /// an interval of exactly the trace's length does; the extent must
    /// not wrap to a window that measures nothing.
    #[test]
    fn an_interval_past_the_trace_covers_the_rest_of_it() {
        let n = 6_000;
        let (program, trace) = workload("gzip", n);
        let plan = |interval| SamplePlan {
            warmup: 0,
            interval,
            count: 1,
        };
        let exact = sampled_replay(&program, SimConfig::nosq(n), &trace, &plan(n));
        let huge = sampled_replay(&program, SimConfig::nosq(n), &trace, &plan(u64::MAX));
        assert_eq!(huge, exact);
        assert!(huge.measured_insts > 0, "the window measured nothing");
    }

    /// A window opened at trace offset 0 with cold warm state is the
    /// full run: its measured part equals a full replay's counts after
    /// the detailed-warming prefix.
    #[test]
    fn a_window_at_the_origin_is_the_full_run() {
        let n = 6_000;
        let plan = SamplePlan {
            warmup: 0,
            interval: n,
            count: 1,
        };
        for name in PROFILES {
            let (program, trace) = workload(name, n);
            for (preset, cfg) in [
                ("nosq", SimConfig::nosq(n)),
                ("baseline-storesets", SimConfig::baseline_storesets(n)),
                ("perfect-smb", SimConfig::perfect_smb(n)),
            ] {
                let est = sampled_replay(&program, cfg.clone(), &trace, &plan);
                let mut sim = Simulator::replay(&program, cfg, &trace);
                sim.run_until(StopCondition::Insts(DETAIL_WARMUP));
                let prefix = *sim.stats();
                let full = sim.run();
                let job = format!("{name} under {preset}");
                assert_eq!(est.windows, 1, "{job}");
                assert_eq!(est.total_insts, full.insts, "{job}");
                assert_eq!(est.measured_insts, full.insts - prefix.insts, "{job}");
                assert_eq!(est.measured_cycles, full.cycles - prefix.cycles, "{job}");
            }
        }
    }
}
