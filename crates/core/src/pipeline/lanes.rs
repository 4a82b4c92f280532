//! Fused lockstep replay: one recorded trace pass driving N
//! configurations at once.
//!
//! A campaign evaluating several configurations over one workload
//! replays the same [`TraceBuffer`] once per configuration; each solo
//! replay streams the whole trace (`size_of::<DynInst>()` bytes per
//! instruction) through the cache again. [`LaneSet`] fuses those runs:
//! N per-lane simulators advance in lockstep strides over a *shared*
//! trace window, so a trace segment pulled into cache by lane 0 is
//! still resident when lanes 1..N decode it, and replayed instructions
//! are never copied at all (each lane's in-flight indices address the
//! trace directly). Lanes also run in batch mode, which lets the
//! scheduler jump over provably idle cycle spans instead of stepping
//! through them.
//!
//! Byte-identity is the contract: a lane's [`SimReport`] equals the
//! solo [`Simulator::replay`] report for the same configuration, bit
//! for bit. Lockstep advancement is just chunked execution (already
//! pinned equal to one-shot execution by the determinism suite), and
//! idle-span jumps skip exactly the cycles a stepped run would execute
//! as no-ops — `tests/it_determinism.rs` extends the golden-counter
//! suite over the fused path.

use nosq_isa::Program;
use nosq_trace::TraceBuffer;

use crate::arena::{CoreBuffers, SimArena};
use crate::config::SimConfig;
use crate::report::SimReport;

use super::{Simulator, StopCondition};

/// Committed instructions each lane advances per lockstep round. Large
/// enough that per-round overhead vanishes, small enough that the
/// active trace window (`size_of::<DynInst>()` times the stride) stays
/// cache-resident across all lanes of a round.
const LOCKSTEP_STRIDE: u64 = 8_192;

/// N lockstep simulator lanes replaying one recorded trace — the fused
/// way to run a configuration sweep over a workload. Lanes advance in
/// shared lockstep strides so the trace segment one lane pulls into
/// cache is still resident when the others decode it, and every lane's
/// report is byte-identical to its solo [`Simulator::replay`] run.
///
/// ```
/// use nosq_core::{LaneSet, SimConfig, Simulator};
/// use nosq_trace::{synthesize, Profile, TraceBuffer};
///
/// let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
/// let trace = TraceBuffer::record(&program, 2_000);
/// let configs = [SimConfig::nosq(2_000), SimConfig::baseline_storesets(2_000)];
/// let fused = LaneSet::fused_replay(&program, &configs, &trace).run();
/// let solo = Simulator::replay(&program, configs[0].clone(), &trace).run();
/// assert_eq!(fused[0], solo); // lane reports are byte-identical to solo
/// ```
pub struct LaneSet<'p> {
    lanes: Vec<Simulator<'p>>,
    /// Per-lane `(insts, ssn_commit)` floor from the previous round;
    /// debug builds assert both are monotone every round.
    watermarks: Vec<(u64, u64)>,
}

impl<'p> LaneSet<'p> {
    /// Builds one lane per configuration over a shared recorded trace,
    /// with lane-owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not [cover](TraceBuffer::covers) some
    /// configuration's `max_insts`.
    pub fn fused_replay(
        program: &'p Program,
        configs: &[SimConfig],
        trace: &'p TraceBuffer,
    ) -> LaneSet<'p> {
        let lanes = configs
            .iter()
            .map(|cfg| {
                let mut sim = Simulator::replay(program, cfg.clone(), trace);
                sim.batch = true;
                sim
            })
            .collect();
        LaneSet::wrap(lanes)
    }

    /// [`LaneSet::fused_replay`] with arena-recycled buffers: lane `i`
    /// takes the arena's `i`-th lane partition (grown on demand) and
    /// returns it when the run finishes.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not [cover](TraceBuffer::covers) some
    /// configuration's `max_insts`.
    pub fn fused_replay_with_arena(
        program: &'p Program,
        configs: &[SimConfig],
        trace: &'p TraceBuffer,
        arena: &'p mut SimArena,
    ) -> LaneSet<'p> {
        if arena.lanes.len() < configs.len() {
            arena.lanes.resize_with(configs.len(), CoreBuffers::default);
        }
        debug_assert!(
            {
                let mut ptrs: Vec<*const CoreBuffers> = arena
                    .lanes
                    .iter()
                    .map(|c| c as *const CoreBuffers)
                    .collect();
                ptrs.sort();
                ptrs.dedup();
                ptrs.len() == arena.lanes.len()
            },
            "arena lane partitions must not overlap"
        );
        let lanes = configs
            .iter()
            .zip(arena.lanes.iter_mut())
            .map(|(cfg, core)| {
                let stream = Simulator::replay_source(cfg, trace);
                let mut sim = Simulator::build(program, cfg.clone(), stream, Some(core));
                sim.batch = true;
                sim
            })
            .collect();
        LaneSet::wrap(lanes)
    }

    fn wrap(lanes: Vec<Simulator<'p>>) -> LaneSet<'p> {
        let watermarks = vec![(0, 0); lanes.len()];
        LaneSet { lanes, watermarks }
    }

    /// Number of lanes (= configurations).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Whether every lane has completed its program.
    pub fn is_done(&self) -> bool {
        self.lanes.iter().all(|sim| sim.done)
    }

    /// Live statistics for one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn stats(&self, lane: usize) -> &SimReport {
        assert!(
            lane < self.lanes.len(),
            "lane index {lane} out of bounds ({} lanes)",
            self.lanes.len()
        );
        self.lanes[lane].stats()
    }

    /// Advances every unfinished lane by one lockstep stride. Returns
    /// the instructions committed across all lanes this round (`0`
    /// only when every lane is done).
    pub fn step_round(&mut self) -> u64 {
        // The target is a shared absolute committed-instruction floor,
        // so lanes stay within one stride of each other and the round's
        // trace window is shared cache traffic.
        let floor = self
            .lanes
            .iter()
            .filter(|sim| !sim.done)
            .map(|sim| sim.stats.insts)
            .min()
            .unwrap_or(0);
        let target = floor + LOCKSTEP_STRIDE;
        let mut delta = 0;
        for (lane, sim) in self.lanes.iter_mut().enumerate() {
            if sim.done {
                continue;
            }
            let before = sim.stats.insts;
            sim.run_until(StopCondition::Insts(target));
            delta += sim.stats.insts - before;
            let mark = &mut self.watermarks[lane];
            debug_assert!(
                sim.stats.insts >= mark.0 && sim.ssn.commit().0 >= mark.1,
                "lane {lane} progress must be monotone"
            );
            *mark = (sim.stats.insts, sim.ssn.commit().0);
        }
        delta
    }

    /// Runs every lane to completion; returns the per-lane reports in
    /// configuration order, each byte-identical to the corresponding
    /// solo [`Simulator::replay`] run.
    pub fn run(self) -> Vec<SimReport> {
        self.run_with(|_| {})
    }

    /// [`LaneSet::run`] with a per-round progress hook, called with the
    /// instructions committed across all lanes that round.
    pub fn run_with(mut self, mut progress: impl FnMut(u64)) -> Vec<SimReport> {
        while !self.is_done() {
            let delta = self.step_round();
            progress(delta);
        }
        self.lanes.into_iter().map(Simulator::finish).collect()
    }
}
