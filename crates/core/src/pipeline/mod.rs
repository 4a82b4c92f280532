//! The cycle-level timing pipeline.
//!
//! One simulator models all five configurations the paper evaluates:
//! the idealized and StoreSets baselines (associative store queue, paper
//! Tables 1-2), NoSQ with and without delay (Tables 3-4), and perfect
//! SMB. The model is *functional-first*: the [`Tracer`] supplies the
//! correct-path dynamic stream, and the pipeline replays it with explicit
//! ROB/IQ/LSQ occupancy, per-class issue slots, a commit-ordered memory
//! image (so premature loads observe genuinely stale values), value-based
//! verification with SVW filtering, and squash/refetch recovery.
//!
//! Within a cycle, stages run back to front (commit → issue → dispatch →
//! fetch) so resources freed by commit are visible to issue in the same
//! cycle but newly fetched instructions cannot dispatch early.
//!
//! # Datapath layout
//!
//! The hot-path state is flat and index-addressed. Every in-flight
//! instruction is named by its dynamic sequence number: its
//! [`DynInst`] is stored once, in the session's `InstSupply`, and the
//! fetch buffer, ROB and squash-replay queue carry the number's low 32
//! bits. A session over a recorded trace reads the trace in place; a
//! traced session records its own stream into a small buffer a chunk
//! at a time. The static instruction is read from the program's code
//! ([`Program::code`]) at the record's PC. The ROB and its sibling
//! queues are power-of-two rings with stable absolute positions
//! ([`Ring`](crate::arena)), and the issue stage walks a compact
//! candidate list of ROB positions instead of rescanning every ROB
//! entry each cycle. The rings and scheduler lists are recyclable
//! across sessions through [`SimArena`] / [`Simulator::with_arena`] —
//! reuse never changes a report byte, only where the memory comes
//! from.
//!
//! Everything a checkpoint captures lives in one `Machine`; the
//! [`Simulator`] around it holds only the configuration, the
//! instruction supply, the squash scratch, the observers and the arena
//! hand-back.

mod ckpt;
pub(crate) mod nodes;

#[cfg(test)]
mod tests;

pub use ckpt::CkptError;

use std::borrow::Cow;

use nosq_isa::exec::load_extend;
use nosq_isa::{Inst, InstClass, MemWidth, Memory, Program, Reg};
use nosq_trace::{Coverage, DynInst, TraceBuffer, Tracer};
use nosq_uarch::branch::{Btb, HybridPredictor, ReturnAddressStack};
use nosq_uarch::{MemoryHierarchy, Ssn, SsnCounters, StoreSets, Tssbf, TssbfLookup};

use crate::arena::{CoreBuffers, Ring, SimArena};
use crate::bypass::{bypass_value, needs_shift_mask};
use crate::config::{LsuModel, Scheduling, SimConfig};
use crate::observer::{
    BypassEvent, CommitEvent, CommittedLoadKind, CycleEvent, LoadCommitEvent, ReexecEvent,
    SimObserver, SquashCause, SquashEvent,
};
use crate::predictor::{BypassingPredictor, PathHistory, Prediction};
use crate::report::SimReport;
use crate::sample::WarmState;
use crate::srq::{StoreInfo, StoreRegisterQueue};

use nodes::{NodeId, RegState};

/// How a load obtains its value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LoadMode {
    /// Out-of-order cache access.
    Normal,
    /// Confidence-delayed: waits for the predicted store's commit, then
    /// reads the cache (paper §3.3).
    Delayed,
    /// SMB bypass; `partial` bypasses go through the injected shift&mask
    /// instruction (paper §3.5).
    Bypassed {
        /// Whether the shift & mask instruction was injected.
        partial: bool,
    },
}

#[derive(Copy, Clone, Debug)]
struct LoadState {
    mode: LoadMode,
    /// Baseline: wait until this store's address generation completes.
    wait_exec: Option<Ssn>,
    /// Wait until this store's committed value is cache-visible.
    wait_commit: Option<Ssn>,
    /// Youngest store the load is not vulnerable to.
    ssn_nvul: Ssn,
    /// Predicted bypassing store (NoSQ).
    ssn_byp: Option<Ssn>,
    /// The value obtained at execute / bypass.
    exec_value: u64,
    /// Decode-stage prediction, for training.
    pred: Option<Prediction>,
    /// Oracle loads skip verification entirely.
    oracle: bool,
    /// Fault injection corrupted this load's bypass target and exempted
    /// it from verification ([`crate::FaultPlan::break_predictor`]).
    injected: bool,
}

/// Decode-stage classification of a NoSQ load (result of
/// [`Simulator::plan_nosq_load`]).
#[derive(Copy, Clone, Debug)]
struct LoadPlan {
    mode: LoadMode,
    pred: Option<Prediction>,
    ssn_byp: Option<Ssn>,
    /// Fault injection corrupted this plan.
    injected: bool,
}

impl LoadPlan {
    fn normal(pred: Option<Prediction>) -> LoadPlan {
        LoadPlan {
            mode: LoadMode::Normal,
            pred,
            ssn_byp: None,
            injected: false,
        }
    }
}

/// One ROB entry. The dynamic instruction itself lives in the
/// [`InstSupply`]; the entry names it by sequence number (plus a cached
/// class, the one field the per-cycle loops touch constantly).
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    uid: u64,
    /// The low 32 bits of this entry's sequence number, which
    /// [`InstSupply`] resolves to its [`DynInst`].
    inst: u32,
    /// Cached `DynInst::class`.
    class: InstClass,
    path_snap: u64,
    bpred_snap: u64,
    ras_snap: (usize, usize),
    // Rename results.
    map_reg: Option<Reg>,
    map_node: Option<NodeId>,
    prev_node: Option<NodeId>,
    srcs: [Option<NodeId>; 2],
    // Scheduling.
    issued: bool,
    complete_cycle: u64,
    mispredicted_branch: bool,
    // Memory.
    ssn: Ssn,
    load: Option<LoadState>,
    holds_lq: bool,
    holds_sq: bool,
    /// The store holds a reference on its data node until commit
    /// (NoSQ) or execute (baseline data capture).
    store_data_ref: Option<NodeId>,
}

/// An issue candidate whose operands are (or will shortly be) ready:
/// the entry's stable ROB position plus its cached *issue* class
/// (partial bypasses issue as the injected shift & mask, i.e.
/// [`InstClass::SimpleInt`]).
///
/// The issue stage is event-driven: candidates whose producers have not
/// issued are parked on a producer node ([`Waiter`]); candidates with a
/// known future ready cycle sit in a time-ordered wheel
/// ([`WheelEntry`]); only candidates that are eligible *now* live in
/// the scanned `iq_ready` list, sorted by age. A waiting instruction
/// therefore costs zero scan work per cycle, while the issue decisions
/// — age priority, per-class slots, load gates — are made over exactly
/// the same ready set, in exactly the same order, as a full ROB scan
/// would produce.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ReadyCand {
    /// Absolute ROB position ([`Ring::get_abs`]).
    pos: u64,
    /// Cached issue class.
    class: InstClass,
}

/// A candidate whose operand-ready cycle is known but in the future,
/// filed in a min-heap keyed by (ready cycle, age). Producers set a
/// node's ready cycle exactly once (at issue, always a future cycle —
/// every execution latency is ≥ 1), so a wheel entry never needs
/// revisiting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct WheelEntry {
    ready: u64,
    pos: u64,
    class: InstClass,
}

impl Ord for WheelEntry {
    fn cmp(&self, other: &WheelEntry) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first;
        // `pos` is unique, making the order total and deterministic.
        (other.ready, other.pos).cmp(&(self.ready, self.pos))
    }
}

impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &WheelEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A candidate parked on an unissued producer's node, in an intrusive
/// free-list arena (`next` chains waiters of the same node). Woken when
/// the node's ready cycle is set; re-parked if another source is still
/// unknown.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Waiter {
    pos: u64,
    class: InstClass,
    /// Cached source nodes (fixed after rename) for the readiness
    /// recompute on wake-up.
    srcs: [Option<NodeId>; 2],
    next: u32,
}

/// `next` sentinel / empty waiter-list head.
const NO_WAITER: u32 = u32::MAX;

/// Records a traced session's tracer appends per refill. The tracer
/// runs in bursts of this many instructions, and the session holds this
/// many records plus the instructions in flight: a few hundred
/// kilobytes, where recording a 1M-instruction trace first would hold
/// 48 MB. It is also small enough that a 20k-instruction session, the
/// size of the session tests, crosses about twenty refills.
const CHUNK: usize = 1024;

/// The pipeline's dynamic instructions: records `base..base + len` of
/// the session's correct-path stream, addressed by sequence number.
///
/// The fetch buffer, ROB and squash-replay queue carry the low 32 bits
/// of a sequence number; indexing widens them against `base`, so a
/// session can run past 2^32 instructions as long as it holds fewer
/// than 2^32 records.
///
/// - A session over a recorded [`TraceBuffer`] (replay, resume, a
///   sampling window) borrows the whole trace, with `base` 0.
/// - A traced session ([`Simulator::new`]) owns a small buffer that its
///   [`Tracer`] refills [`CHUNK`] records at a time whenever fetch
///   reaches its end. Such a session starts at 0 and commits in order,
///   so each refill first drops the records below the committed count.
struct InstSupply<'p> {
    records: Cow<'p, [DynInst]>,
    base: u64,
    tracer: Option<Box<Tracer<'p>>>,
}

impl<'p> InstSupply<'p> {
    /// A supply over a recorded trace.
    fn recorded(trace: &'p TraceBuffer) -> InstSupply<'p> {
        InstSupply {
            records: Cow::Borrowed(trace.insts()),
            base: 0,
            tracer: None,
        }
    }

    /// A supply that records `tracer`'s stream as fetch needs it.
    fn traced(tracer: Tracer<'p>) -> InstSupply<'p> {
        InstSupply {
            records: Cow::Owned(Vec::with_capacity(2 * CHUNK)),
            base: 0,
            tracer: Some(Box::new(tracer)),
        }
    }

    /// Takes sequence number `*next` for fetch if it lies below `limit`
    /// and has a record, refilling first when fetch has reached the end
    /// of the held records. `committed` counts the committed
    /// instructions, whose records a refill may drop.
    #[inline]
    fn next(&mut self, next: &mut usize, limit: usize, committed: u64) -> Option<u32> {
        let end = self.base + self.records.len() as u64;
        if *next >= limit || (*next as u64 == end && !self.refill(committed)) {
            return None;
        }
        let seq = *next as u32;
        *next += 1;
        Some(seq)
    }

    /// Drops the records below `committed` and appends up to [`CHUNK`]
    /// more from the tracer. Returns whether any were appended; a
    /// supply without a tracer holds its whole stream already.
    #[cold]
    fn refill(&mut self, committed: u64) -> bool {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return false;
        };
        let records = self.records.to_mut();
        records.drain(..(committed - self.base) as usize);
        self.base = committed;
        let held = records.len();
        records.extend(tracer.take(CHUNK));
        records.len() > held
    }

    /// The full sequence number of the held record named by `seq`'s
    /// low 32 bits.
    #[inline]
    fn seq(&self, seq: u32) -> u64 {
        self.base + u64::from(seq.wrapping_sub(self.base as u32))
    }
}

impl std::ops::Index<u32> for InstSupply<'_> {
    type Output = DynInst;

    #[inline]
    fn index(&self, seq: u32) -> &DynInst {
        &self.records[seq.wrapping_sub(self.base as u32) as usize]
    }
}

/// A fetched-but-not-dispatched instruction (the low 32 bits of its
/// sequence number + front-end snapshots).
#[derive(Clone, Debug)]
pub(crate) struct Fetched {
    inst: u32,
    uid: u64,
    fetch_cycle: u64,
    path_snap: u64,
    bpred_snap: u64,
    ras_snap: (usize, usize),
    mispredicted_branch: bool,
}

/// The fetch stage's long-history state: the direction predictor, BTB,
/// return address stack and path history. The pipeline's fetch stage
/// and the sampler's functional warmer train it through one method,
/// [`train`](FrontEnd::train).
#[derive(Clone)]
pub(crate) struct FrontEnd {
    pub(crate) bpred: HybridPredictor,
    pub(crate) btb: Btb,
    pub(crate) ras: ReturnAddressStack,
    pub(crate) path: PathHistory,
}

impl FrontEnd {
    /// Cold front-end state for machine `m`.
    pub(crate) fn new(m: &nosq_uarch::MachineConfig) -> FrontEnd {
        FrontEnd {
            bpred: HybridPredictor::new(m.bpred),
            btb: Btb::new(m.btb_entries, m.btb_ways),
            ras: ReturnAddressStack::new(m.ras_depth),
            path: PathHistory::new(),
        }
    }

    /// Trains on the correct-path instruction `d`, whose static
    /// instruction is `inst`, and returns whether fetch mispredicted
    /// it: a conditional branch against its predicted direction, or a
    /// return against the RAS. Calls and jumps train the BTB (calls
    /// the RAS and path too); other instructions change nothing.
    #[inline]
    pub(crate) fn train(&mut self, inst: &Inst, d: &DynInst) -> bool {
        let pc = d.pc;
        match inst {
            Inst::Branch { .. } => {
                let predicted = self.bpred.update(pc, d.taken);
                self.path.push_branch(d.taken);
                if d.taken {
                    self.btb.update(pc, d.next_pc(inst));
                }
                predicted != d.taken
            }
            Inst::Call { .. } => {
                self.ras.push(pc + nosq_isa::INST_BYTES);
                self.path.push_call(pc);
                self.btb.update(pc, d.next_pc(inst));
                false
            }
            Inst::Ret { .. } => self.ras.pop() != Some(d.next_pc(inst)),
            Inst::Jump { .. } => {
                self.btb.update(pc, d.next_pc(inst));
                false
            }
            _ => false,
        }
    }
}

/// When an incremental [`Simulator::run_until`] call should return.
///
/// Cycle and instruction targets are *absolute* session totals, not
/// deltas: a condition that is already satisfied returns immediately
/// without advancing the pipeline. The simulation also stops (for any
/// condition) once it finishes the program.
pub enum StopCondition<'a> {
    /// Run until the program completes.
    Done,
    /// Run until the session has executed at least this many cycles.
    Cycles(u64),
    /// Run until at least this many instructions have committed.
    Insts(u64),
    /// Run until the predicate over the live statistics returns `true`.
    /// Checked once per cycle, before stepping.
    Predicate(Box<dyn FnMut(&SimReport) -> bool + 'a>),
}

impl<'a> StopCondition<'a> {
    /// Builds a [`StopCondition::Predicate`] without the `Box` noise.
    pub fn predicate(f: impl FnMut(&SimReport) -> bool + 'a) -> StopCondition<'a> {
        StopCondition::Predicate(Box::new(f))
    }
}

impl std::fmt::Debug for StopCondition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopCondition::Done => write!(f, "Done"),
            StopCondition::Cycles(n) => write!(f, "Cycles({n})"),
            StopCondition::Insts(n) => write!(f, "Insts({n})"),
            StopCondition::Predicate(_) => write!(f, "Predicate(..)"),
        }
    }
}

/// A self-contained snapshot of the complete microarchitectural and
/// architectural state of a session over a recorded trace, taken with
/// [`Simulator::checkpoint`] and turned back into a running session by
/// [`Simulator::resume`] / [`Simulator::resume_with_arena`].
///
/// Restoration is bit-identical: resuming a checkpoint and running to
/// completion produces the same [`SimReport`] as the uninterrupted
/// session (pinned by `tests/it_checkpoint.rs`). The in-flight
/// instruction window is captured as sequence numbers, so a checkpoint
/// must be resumed against the same recorded trace (same workload, same
/// budget) it was taken from. A traced session ([`Simulator::new`])
/// cannot be snapshotted: its tracer's functional state is not
/// captured.
pub struct SimCheckpoint {
    cfg: SimConfig,
    m: Machine,
}

/// Everything a [`SimCheckpoint`] captures and a resume restores: the
/// instruction window, the store register queue, T-SSBF, SSN counters,
/// bypassing predictor and store sets, the caches and branch
/// structures, the commit-ordered memory image and the statistics.
/// [`Simulator`] keeps only session plumbing outside it, so a
/// checkpoint is a clone and a resume is one assignment.
///
/// The declaration order is the checkpoint format: the payload of
/// [`SimCheckpoint::to_bytes`] is the wire encoding of these fields in
/// this order, through the `wire_struct!` in `ckpt.rs`, which lists
/// them in the same order. Adding, removing or reordering a field
/// changes the format: bump `nosq_wire::envelope::VERSION` and re-pin
/// `checkpoint_bytes_are_pinned` in `tests/it_ckptio.rs`.
#[derive(Clone)]
pub(crate) struct Machine {
    clock: u64,
    next_uid: u64,
    /// The next sequence number to fetch and the end of the session's
    /// extent of the stream (the trace length or instruction budget).
    stream_next: usize,
    stream_limit: usize,
    stream_done: bool,
    /// Squash-replay queue (sequence numbers, program order).
    pending: Ring<u32>,
    fetch_buffer: Ring<Fetched>,
    // Window.
    rob: Ring<Entry>,
    backend_exits: Ring<u64>,
    /// Issue-eligible candidates (operands ready), ascending ROB
    /// position = age order — the only list the per-cycle scan walks.
    iq_ready: Vec<ReadyCand>,
    /// Candidates with a known *future* ready cycle, earliest first.
    wheel: std::collections::BinaryHeap<WheelEntry>,
    /// Waiter arena (parked candidates chained per producer node).
    waiters: Vec<Waiter>,
    waiter_free: Vec<u32>,
    /// Per-node waiter-list heads, indexed by [`NodeId`]
    /// ([`NO_WAITER`] = empty), grown on demand.
    node_waiters: Vec<u32>,
    /// Issue-queue occupancy (ready + wheel + parked).
    iq_count: usize,
    lq_used: usize,
    sq_used: usize,
    // Register state.
    regs: RegState,
    // Memory.
    timing_mem: Memory,
    hierarchy: MemoryHierarchy,
    front: FrontEnd,
    fetch_stall_until: u64,
    fetch_stalled_on: Option<u64>,
    halt_fetched: bool,
    // NoSQ / SVW machinery.
    ssn: SsnCounters,
    srq: StoreRegisterQueue,
    tssbf: Tssbf,
    predictor: BypassingPredictor,
    storesets: StoreSets,
    draining_for_wrap: bool,
    /// Bypassing loads planned so far, counted only under fault
    /// injection (selects every `period`-th victim deterministically).
    fault_bypass_seen: u64,
    // Results.
    stats: SimReport,
    done: bool,
}

/// The simulator for one (program, configuration) pair.
///
/// A `Simulator` is a *session*: construct it with [`Simulator::new`]
/// (or [`Simulator::with_arena`] to recycle a previous session's
/// buffers), optionally [attach observers](Simulator::attach_observer),
/// advance it incrementally with [`step`](Simulator::step) /
/// [`run_until`](Simulator::run_until) while reading
/// [`stats`](Simulator::stats) snapshots, and close it with
/// [`finish`](Simulator::finish) for the final [`SimReport`]. The
/// one-shot [`run`](Simulator::run) / [`simulate`] wrappers do exactly
/// that in a single call, and interleaved stepping reproduces the
/// one-shot counters bit for bit.
pub struct Simulator<'p> {
    cfg: SimConfig,
    cycle_cap: u64,
    /// The program's static instructions ([`Program::code`]).
    code: &'p [Inst],
    /// Instruction supply; in-flight instructions are addressed by
    /// sequence number.
    insts: InstSupply<'p>,
    /// Squash scratch (drained ROB entries), reused across squashes and
    /// empty between steps.
    scratch: Vec<Entry>,
    /// The checkpointed state.
    m: Machine,
    observers: Vec<Box<dyn SimObserver + 'p>>,
    /// Where to return the recyclable buffers at `finish`.
    arena_core: Option<&'p mut CoreBuffers>,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over `program` with session-owned buffers.
    pub fn new(program: &'p Program, cfg: SimConfig) -> Simulator<'p> {
        let tracer = Tracer::new(program, cfg.max_insts);
        Simulator::build_traced(program, cfg, tracer, None)
    }

    /// Builds a simulator over `program` that borrows its hot-path
    /// buffers from `arena` instead of allocating them, and returns
    /// them (grown to steady-state capacity) at
    /// [`finish`](Simulator::finish) for the next session.
    ///
    /// Reports are bit-identical to [`Simulator::new`]; the arena only
    /// removes per-session allocation. A session dropped without
    /// `finish` forfeits the buffers (the arena re-allocates on next
    /// use) but is otherwise safe.
    pub fn with_arena(
        program: &'p Program,
        cfg: SimConfig,
        arena: &'p mut SimArena,
    ) -> Simulator<'p> {
        let SimArena { trace, core } = arena;
        let tracer = Tracer::with_arena(program, cfg.max_insts, trace);
        Simulator::build_traced(program, cfg, tracer, Some(core))
    }

    /// A traced session: fetch records `tracer`'s stream as it goes.
    fn build_traced(
        program: &'p Program,
        cfg: SimConfig,
        tracer: Tracer<'p>,
        core: Option<&'p mut CoreBuffers>,
    ) -> Simulator<'p> {
        let limit = usize::try_from(cfg.max_insts).unwrap_or(usize::MAX);
        let start = cold_start(program, &cfg);
        let insts = InstSupply::traced(tracer);
        Simulator::build(program.code(), cfg, insts, 0..limit, start, core)
    }

    /// Builds a simulator that replays a recorded [`TraceBuffer`]
    /// instead of tracing the program. The functional front end runs
    /// once per (program, budget); every configuration sharing the
    /// trace skips it entirely, with bit-identical reports (the dynamic
    /// stream does not depend on the timing configuration).
    ///
    /// # Panics
    ///
    /// Panics if the trace's recording budget does not
    /// [cover](TraceBuffer::covers) `cfg.max_insts` (the replay would
    /// truncate earlier than a traced session).
    pub fn replay(program: &'p Program, cfg: SimConfig, trace: &'p TraceBuffer) -> Simulator<'p> {
        Simulator::build_replay(program, cfg, trace, None)
    }

    /// [`Simulator::replay`] with arena-recycled buffers — the fastest
    /// way to run a configuration sweep over one workload.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not [cover](TraceBuffer::covers)
    /// `cfg.max_insts`.
    pub fn replay_with_arena(
        program: &'p Program,
        cfg: SimConfig,
        trace: &'p TraceBuffer,
        arena: &'p mut SimArena,
    ) -> Simulator<'p> {
        Simulator::build_replay(program, cfg, trace, Some(&mut arena.core))
    }

    /// A replay session over the first `cfg.max_insts` instructions of
    /// `trace`.
    fn build_replay(
        program: &'p Program,
        cfg: SimConfig,
        trace: &'p TraceBuffer,
        core: Option<&'p mut CoreBuffers>,
    ) -> Simulator<'p> {
        assert!(
            trace.covers(cfg.max_insts),
            "trace recorded with budget {} cannot replay budget {}",
            trace.max_insts(),
            cfg.max_insts
        );
        let limit = trace.len().min(cfg.max_insts as usize);
        assert!(
            limit <= u32::MAX as usize,
            "in-flight sequence numbers are 4 bytes; budget {limit} does not fit"
        );
        let start = cold_start(program, &cfg);
        let insts = InstSupply::recorded(trace);
        Simulator::build(program.code(), cfg, insts, 0..limit, start, core)
    }

    /// Builds a simulator over the half-open trace window
    /// `[offset, offset + len)` for sampled simulation
    /// ([`sample`](crate::sample)). `mem` must be the functional memory
    /// image with every store older than `offset` already applied (the
    /// fast-forward), so loads that read pre-window stores observe the
    /// exact architectural values. The SSN counters are seeded with the
    /// absolute store count at the window start, keeping SSN arithmetic
    /// — bypass distances, rollback targets, wrap boundaries — identical
    /// to a full run's. Long-history microarchitectural state (caches,
    /// branch structures, the bypassing predictor, the T-SSBF) starts
    /// as a clone of `warm`, the functional warmer's image of that
    /// state at `offset`; any residual divergence from a full run is
    /// the sampling estimator's documented bias, and every SVW filter
    /// fails *conservative* on a not-warmed entry (forced
    /// re-execution), so the window is still value-verified end to end.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_window(
        program: &'p Program,
        cfg: SimConfig,
        trace: &'p TraceBuffer,
        offset: usize,
        len: usize,
        mem: Memory,
        warm: &WarmState,
        core: Option<&'p mut CoreBuffers>,
    ) -> Simulator<'p> {
        let insts = trace.insts();
        assert!(len >= 1, "sample window must contain an instruction");
        let end = offset.checked_add(len).expect("window end overflows");
        assert!(
            end <= insts.len(),
            "window [{offset}, {end}) exceeds trace length {}",
            insts.len()
        );
        assert!(
            end <= u32::MAX as usize,
            "in-flight sequence numbers are 4 bytes; window end {end} does not fit"
        );
        let ssn = SsnCounters::seeded(cfg.machine.ssn_bits, insts[offset].stores_before);
        let start = (warm.clone(), mem, ssn);
        let supply = InstSupply::recorded(trace);
        let mut sim = Simulator::build(program.code(), cfg, supply, offset..end, start, core);
        sim.cycle_cap = 1_000_000 + (len as u64).saturating_mul(300);
        sim
    }

    /// Assembles a session over `code` that fetches the sequence
    /// numbers `cursor` from `insts` and starts from `start`: the
    /// long-history state, the memory image and the SSN counters
    /// ([`cold_start`] for every session but a sampling window).
    fn build(
        code: &'p [Inst],
        cfg: SimConfig,
        insts: InstSupply<'p>,
        cursor: std::ops::Range<usize>,
        start: (WarmState, Memory, SsnCounters),
        core: Option<&'p mut CoreBuffers>,
    ) -> Simulator<'p> {
        let mc = &cfg.machine;
        let mut arena_core = core;
        let mut bufs = match arena_core.as_deref_mut() {
            Some(c) => std::mem::take(c),
            None => CoreBuffers::default(),
        };
        bufs.clear();
        let CoreBuffers {
            mut rob,
            fetch,
            exits,
            pending,
            scratch,
            iq_ready,
            wheel,
            waiters,
            waiter_free,
            node_waiters,
            srq,
        } = bufs;
        rob.reserve(mc.rob_size);
        let (warm, timing_mem, ssn) = start;
        let WarmState {
            hierarchy,
            front,
            predictor,
            tssbf,
        } = warm;
        let m = Machine {
            clock: 0,
            next_uid: 0,
            stream_next: cursor.start,
            stream_limit: cursor.end,
            stream_done: false,
            pending,
            fetch_buffer: fetch,
            rob,
            backend_exits: exits,
            iq_ready,
            wheel,
            waiters,
            waiter_free,
            node_waiters,
            iq_count: 0,
            lq_used: 0,
            sq_used: 0,
            regs: RegState::new(mc.phys_regs),
            timing_mem,
            hierarchy,
            front,
            fetch_stall_until: 0,
            fetch_stalled_on: None,
            halt_fetched: false,
            ssn,
            srq: StoreRegisterQueue::with_storage(srq, 8192),
            tssbf,
            predictor,
            storesets: StoreSets::new(4096),
            draining_for_wrap: false,
            fault_bypass_seen: 0,
            stats: SimReport::default(),
            done: false,
        };
        Simulator {
            cycle_cap: 1_000_000 + cfg.max_insts.saturating_mul(300),
            cfg,
            code,
            insts,
            scratch,
            m,
            observers: Vec::new(),
            arena_core,
        }
    }

    /// Installs an observer on this session. Hooks fire in attachment
    /// order; attach a `Box::new(&mut obs)` borrow to read the
    /// observer's state back after [`finish`](Simulator::finish).
    ///
    /// Observers receive events only for cycles executed *after*
    /// attachment, so install them before the first
    /// [`step`](Simulator::step).
    pub fn attach_observer(&mut self, obs: Box<dyn SimObserver + 'p>) {
        self.observers.push(obs);
    }

    /// Whether the program has run to completion.
    pub fn is_done(&self) -> bool {
        self.m.done
    }

    /// Live statistics for the session so far. `cycles` tracks the
    /// current clock, so derived metrics (e.g. [`SimReport::ipc`]) are
    /// meaningful mid-run.
    pub fn stats(&self) -> &SimReport {
        &self.m.stats
    }

    /// Advances the pipeline by exactly one cycle. Returns `true` while
    /// the program is still running; once it reports `false` (program
    /// complete), further calls are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant
    /// violation), bounded by a generous cycle cap.
    pub fn step(&mut self) -> bool {
        if self.m.done {
            return false;
        }
        self.m.clock += 1;
        assert!(
            self.m.clock < self.cycle_cap,
            "pipeline deadlock at cycle {} (retired {} insts)",
            self.m.clock,
            self.m.stats.insts
        );
        self.drain_backend_exits();
        self.commit_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        self.wrap_stage();
        self.check_done();
        self.m.stats.cycles = self.m.clock;
        if !self.observers.is_empty() {
            let ev = CycleEvent {
                cycle: self.m.clock,
                insts: self.m.stats.insts,
            };
            self.emit(|o| o.on_cycle(&ev));
        }
        !self.m.done
    }

    /// Steps until `stop` is satisfied or the program completes,
    /// whichever comes first. Returns `true` if the program completed.
    pub fn run_until(&mut self, mut stop: StopCondition) -> bool {
        loop {
            let met = match &mut stop {
                StopCondition::Done => false, // only completion stops it
                StopCondition::Cycles(n) => self.m.clock >= *n,
                StopCondition::Insts(n) => self.m.stats.insts >= *n,
                StopCondition::Predicate(f) => f(&self.m.stats),
            };
            if met || self.m.done {
                return self.m.done;
            }
            self.step();
        }
    }

    /// Snapshots the session's complete state into a [`SimCheckpoint`].
    /// The session itself is untouched and can keep running.
    ///
    /// # Panics
    ///
    /// Panics on a traced session (only sessions over a recorded trace
    /// are snapshottable; see [`SimCheckpoint`]) or when observers are
    /// attached (observer state is caller-owned and cannot be
    /// captured).
    pub fn checkpoint(&self) -> SimCheckpoint {
        assert!(
            self.insts.tracer.is_none(),
            "checkpoint requires a session over a recorded trace; tracer state is not snapshottable"
        );
        assert!(
            self.observers.is_empty(),
            "checkpoint with attached observers is not supported"
        );
        debug_assert!(self.scratch.is_empty(), "scratch is empty between steps");
        SimCheckpoint {
            cfg: self.cfg.clone(),
            m: self.m.clone(),
        }
    }

    /// Rebuilds a running replay session from a checkpoint, with
    /// session-owned buffers. `trace` must be the recorded trace the
    /// checkpointed session was replaying (same workload, same
    /// recording budget); continuing the resumed session reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `trace` does not match the checkpoint's recorded
    /// replay extent.
    pub fn resume(
        program: &'p Program,
        trace: &'p TraceBuffer,
        ckpt: &SimCheckpoint,
    ) -> Simulator<'p> {
        Simulator::resume_inner(program, trace, ckpt, None)
    }

    /// [`Simulator::resume`] with arena-recycled buffers.
    ///
    /// # Panics
    ///
    /// Panics if `trace` does not match the checkpoint's recorded
    /// replay extent.
    pub fn resume_with_arena(
        program: &'p Program,
        trace: &'p TraceBuffer,
        ckpt: &SimCheckpoint,
        arena: &'p mut SimArena,
    ) -> Simulator<'p> {
        Simulator::resume_inner(program, trace, ckpt, Some(&mut arena.core))
    }

    fn resume_inner(
        program: &'p Program,
        trace: &'p TraceBuffer,
        ckpt: &SimCheckpoint,
        core: Option<&'p mut CoreBuffers>,
    ) -> Simulator<'p> {
        let mut sim = Simulator::build_replay(program, ckpt.cfg.clone(), trace, core);
        assert_eq!(
            sim.m.stream_limit, ckpt.m.stream_limit,
            "checkpoint was taken against a different trace extent"
        );
        sim.m = ckpt.m.clone();
        sim
    }

    /// Closes the session and returns the report for everything
    /// executed so far (the full program after a
    /// [`run_until(Done)`](Simulator::run_until), or a prefix if
    /// stopped early). A session built with
    /// [`with_arena`](Simulator::with_arena) hands its buffers back to
    /// the arena here.
    pub fn finish(mut self) -> SimReport {
        self.release_buffers();
        self.m.stats
    }

    /// Returns the recyclable buffers to the arena, if this session
    /// borrowed one.
    fn release_buffers(&mut self) {
        if let Some(core) = self.arena_core.take() {
            *core = CoreBuffers {
                rob: std::mem::take(&mut self.m.rob),
                fetch: std::mem::take(&mut self.m.fetch_buffer),
                exits: std::mem::take(&mut self.m.backend_exits),
                pending: std::mem::take(&mut self.m.pending),
                scratch: std::mem::take(&mut self.scratch),
                iq_ready: std::mem::take(&mut self.m.iq_ready),
                wheel: std::mem::take(&mut self.m.wheel),
                waiters: std::mem::take(&mut self.m.waiters),
                waiter_free: std::mem::take(&mut self.m.waiter_free),
                node_waiters: std::mem::take(&mut self.m.node_waiters),
                srq: std::mem::take(&mut self.m.srq).into_storage(),
            };
        }
    }

    /// Runs to completion and returns the collected statistics —
    /// [`run_until(Done)`](Simulator::run_until) plus
    /// [`finish`](Simulator::finish) in one call.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant
    /// violation), bounded by a generous cycle cap.
    pub fn run(mut self) -> SimReport {
        self.run_until(StopCondition::Done);
        self.finish()
    }

    /// Fans an event out to every attached observer.
    fn emit(&mut self, f: impl Fn(&mut dyn SimObserver)) {
        for obs in self.observers.iter_mut() {
            f(obs.as_mut());
        }
    }

    /// The static instruction of the in-flight instruction at `idx`.
    #[inline]
    fn inst_of(&self, idx: u32) -> &'p Inst {
        self.insts[idx].inst(self.code)
    }

    fn check_done(&mut self) {
        if (self.m.stream_done || self.m.halt_fetched)
            && self.m.pending.is_empty()
            && self.m.fetch_buffer.is_empty()
            && self.m.rob.is_empty()
            && self.m.backend_exits.is_empty()
        {
            self.m.done = true;
        }
    }

    fn backend_depth(&self) -> u64 {
        self.cfg.lsu.backend_depth()
    }

    fn drain_backend_exits(&mut self) {
        let m = &mut self.m;
        while m.backend_exits.front().is_some_and(|&t| t <= m.clock) {
            m.backend_exits.pop_front();
        }
    }

    fn rob_occupancy(&self) -> usize {
        self.m.rob.len() + self.m.backend_exits.len()
    }

    // ----------------------------------------------------------------
    // Commit / back-end.
    // ----------------------------------------------------------------

    fn store_committed_visible(&self, ssn: Ssn) -> bool {
        if ssn > self.m.ssn.commit() {
            return false;
        }
        match self.m.srq.get(ssn) {
            Some(info) => info.commit_visible <= self.m.clock,
            None => true, // long committed, ring slot recycled
        }
    }

    fn commit_stage(&mut self) {
        let mut dcache_port = 1u32;
        let mut committed = 0usize;
        while committed < self.cfg.machine.width {
            let Some(head) = self.m.rob.front() else {
                break;
            };
            if head.complete_cycle > self.m.clock {
                break;
            }
            let class = head.class;
            // Port reservation before any effect.
            let needs_port_now = match class {
                InstClass::Store => true,
                InstClass::Load => self.load_needs_reexec(head),
                _ => false,
            };
            if needs_port_now && dcache_port == 0 {
                break;
            }

            let entry = self.m.rob.pop_front().expect("head exists");
            self.m
                .backend_exits
                .push_back(self.m.clock + self.backend_depth());
            committed += 1;

            let mut squash = false;
            match class {
                InstClass::Store => {
                    dcache_port -= 1;
                    self.commit_store(&entry);
                }
                InstClass::Load => {
                    if needs_port_now {
                        dcache_port -= 1;
                    }
                    squash = self.verify_load(&entry, needs_port_now);
                }
                _ => {}
            }

            self.retire_bookkeeping(&entry);
            if !self.observers.is_empty() {
                let ev = CommitEvent {
                    cycle: self.m.clock,
                    pc: self.insts[entry.inst].pc,
                    class,
                };
                self.emit(|o| o.on_commit(&ev));
            }
            if squash {
                let squashed = (self.m.rob.len() + self.m.fetch_buffer.len()) as u64;
                self.squash_younger_than_head();
                if !self.observers.is_empty() {
                    let ev = SquashEvent {
                        cycle: self.m.clock,
                        cause: if self.cfg.lsu.is_nosq() {
                            SquashCause::BypassMispredict
                        } else {
                            SquashCause::OrderingViolation
                        },
                        load_pc: self.insts[entry.inst].pc,
                        squashed,
                    };
                    self.emit(|o| o.on_squash(&ev));
                }
                break;
            }
        }
    }

    /// Store effects at its data-cache stage: write the commit-ordered
    /// memory image, update the T-SSBF and SSN counters (paper Table 4).
    fn commit_store(&mut self, entry: &Entry) {
        let (addr, width, store_mem_bits) = {
            let d = &self.insts[entry.inst];
            let inst = d.inst(self.code);
            (
                d.addr,
                inst.mem_width().expect("store width").bytes(),
                d.store_mem_bits(inst),
            )
        };
        self.m.timing_mem.write(addr, width, store_mem_bits);
        self.m.tssbf.record_store(addr, width as u8, entry.ssn);
        self.m.hierarchy.store_commit(addr);
        self.m.ssn.commit_store();
        let visible = self.m.clock + self.backend_depth() - 2;
        if let Some(info) = self.m.srq.get_mut(entry.ssn) {
            info.commit_visible = visible;
        }
        self.m.stats.memory.stores += 1;
        if entry.holds_sq {
            self.m.sq_used -= 1;
        }
        // NoSQ stores release their data-register pin here (the commit
        // pipeline has now read the register file).
        if self.cfg.lsu.is_nosq() {
            if let Some(node) = entry.store_data_ref {
                self.m.regs.release(node);
            }
        }
    }

    /// SVW filter decision for the load at the ROB head (paper §3.4: the
    /// equality test for bypassed loads, the inequality test otherwise).
    fn load_needs_reexec(&self, entry: &Entry) -> bool {
        let Some(ls) = &entry.load else { return false };
        if ls.oracle {
            return false;
        }
        if ls.injected {
            // The injected fault models a complicit SVW filter: the
            // corrupted bypass is (wrongly) claimed provably correct.
            return false;
        }
        let d = &self.insts[entry.inst];
        let width = d.inst(self.code).mem_width().expect("load width").bytes() as u8;
        let tssbf = &self.m.tssbf;
        match ls.mode {
            LoadMode::Bypassed { .. } => tssbf.must_reexecute_equality(d.addr, width, ls.ssn_nvul),
            _ => tssbf.must_reexecute_inequality(d.addr, width, ls.ssn_nvul),
        }
    }

    /// Verifies a load at commit. Returns `true` if younger instructions
    /// must be squashed.
    fn verify_load(&mut self, entry: &Entry, reexec: bool) -> bool {
        let ls = entry.load.as_ref().expect("load state");
        let d = self.insts[entry.inst]; // one local copy per committed load
        let inst = d.inst(self.code);
        let Inst::Load { width, ext, .. } = *inst else {
            unreachable!("load entry holds a load")
        };
        self.m.stats.memory.loads += 1;
        if let Some(dep) = d.mem_dep {
            if (dep.inst_distance as usize) < self.cfg.machine.rob_size {
                self.m.stats.memory.comm_loads += 1;
                if d.is_partial_word_comm(inst) {
                    self.m.stats.memory.partial_comm_loads += 1;
                }
            }
        }
        if entry.holds_lq {
            self.m.lq_used -= 1;
        }
        if ls.oracle {
            self.m.stats.verification.reexec_filtered += 1;
            self.emit_load_commit(entry.inst, ls, false, false);
            return false;
        }

        let mut mispredict = false;
        if reexec {
            self.m.stats.verification.backend_dcache_reads += 1;
            // All older stores have committed: this read is correct.
            let raw = self.m.timing_mem.read(d.addr, width.bytes());
            let ndata = load_extend(raw, width, ext);
            debug_assert_eq!(ndata, d.load_value(), "re-execution must be correct");
            self.m.hierarchy.load_latency(d.addr); // cache state effects
            if ndata != ls.exec_value {
                mispredict = true;
            }
            if !self.observers.is_empty() {
                let ev = ReexecEvent {
                    cycle: self.m.clock,
                    pc: d.pc,
                    addr: d.addr,
                    mismatch: mispredict,
                };
                self.emit(|o| o.on_reexec(&ev));
            }
        } else {
            self.m.stats.verification.reexec_filtered += 1;
            // The filter said the value is provably correct — except for a
            // predicted shift, which is verified without replay (§3.5).
            // Injected loads skip even the shift check: the modelled
            // filter bug vouches for them unconditionally.
            if !ls.injected {
                if let LoadMode::Bypassed { .. } = ls.mode {
                    if let TssbfLookup::Hit(e) = self.m.tssbf.lookup(d.addr, width.bytes() as u8) {
                        let actual_shift = d.addr.wrapping_sub(e.store_addr()) as u8;
                        let predicted_shift = ls.pred.map(|p| p.shift).unwrap_or(0);
                        if actual_shift != predicted_shift {
                            mispredict = true;
                        } else {
                            debug_assert_eq!(
                                ls.exec_value,
                                d.load_value(),
                                "filtered bypass with correct shift must be correct"
                            );
                        }
                    }
                }
            }
        }

        // Train the machinery.
        match self.cfg.lsu {
            LsuModel::BaselineSq { .. } => {
                if mispredict {
                    self.m.stats.verification.ordering_squashes += 1;
                    if let Some(dep_ssn) = d.dep_ssn() {
                        if let Some(info) = self.m.srq.get(Ssn(dep_ssn)) {
                            self.m.storesets.train_violation(d.pc, info.pc);
                        }
                    }
                }
            }
            LsuModel::Nosq { .. } => {
                self.train_bypass_predictor(entry, &d, width.bytes() as u8, ls, mispredict)
            }
            LsuModel::NosqOracle => {}
        }
        self.emit_load_commit(entry.inst, ls, reexec, mispredict);
        mispredict
    }

    /// Emits the commit-time verification record for the load at
    /// `idx` (the event `nosq-audit` cross-checks against the
    /// dependence oracle).
    fn emit_load_commit(&mut self, idx: u32, ls: &LoadState, reexec: bool, mispredict: bool) {
        if self.observers.is_empty() {
            return;
        }
        let d = &self.insts[idx];
        let kind = match ls.mode {
            LoadMode::Normal => CommittedLoadKind::Normal,
            LoadMode::Delayed => CommittedLoadKind::Delayed,
            LoadMode::Bypassed { partial } => CommittedLoadKind::Bypassed { partial },
        };
        let ev = LoadCommitEvent {
            cycle: self.m.clock,
            seq: self.insts.seq(idx),
            pc: d.pc,
            addr: d.addr,
            kind,
            predicted_ssn: ls.ssn_byp.map(|s| s.0),
            value: ls.exec_value,
            arch_value: d.load_value(),
            reexec,
            mispredict,
            oracle: ls.oracle,
            stores_before: d.stores_before,
            injected: ls.injected,
        };
        self.emit(|o| o.on_load_commit(&ev));
    }

    /// Trains the bypassing predictor on a committed load `d` of
    /// `width` bytes.
    fn train_bypass_predictor(
        &mut self,
        entry: &Entry,
        d: &DynInst,
        width: u8,
        ls: &LoadState,
        mispredict: bool,
    ) {
        let mut history = PathHistory::new();
        history.restore(entry.path_snap);
        if mispredict {
            self.m.stats.verification.bypass_mispredicts += 1;
            // Compute the actual distance/shift from the T-SSBF (§3.1:
            // distbyp = SSNcommit − T-SSBF[addr]; at the load's commit
            // SSNcommit equals its rename-time SSNrename).
            let actual = match self.m.tssbf.lookup(d.addr, width) {
                TssbfLookup::Hit(e) => {
                    let dist = d.stores_before.saturating_sub(e.ssn.0);
                    if dist <= 63 {
                        let shift = if e.covers(d.addr, width) {
                            d.addr.wrapping_sub(e.store_addr()) as u8
                        } else {
                            0
                        };
                        Some((dist as u16, shift))
                    } else {
                        None // beyond the 6-bit distance field
                    }
                }
                _ => None,
            };
            let had_path = ls.pred.map(|p| p.path_sensitive).unwrap_or(false);
            self.m
                .predictor
                .train_mispredict(d.pc, &history, had_path, actual);
        } else if ls.pred.is_some() {
            self.m.predictor.train_correct(d.pc, &history);
        }
    }

    /// Frees rename-side resources for a retiring entry.
    fn retire_bookkeeping(&mut self, entry: &Entry) {
        self.m.stats.insts += 1;
        if entry.map_reg.is_some() {
            if let Some(prev) = entry.prev_node {
                self.m.regs.release(prev);
            }
        }
    }

    // ----------------------------------------------------------------
    // Squash.
    // ----------------------------------------------------------------

    /// Squashes everything younger than the (already popped) ROB head:
    /// the whole ROB, the fetch buffer, and re-queues their dynamic
    /// instructions for refetch.
    fn squash_younger_than_head(&mut self) {
        // Drain the ROB into the reusable scratch, then walk it in
        // reverse for rename rollback.
        debug_assert!(self.scratch.is_empty());
        while let Some(e) = self.m.rob.pop_front() {
            self.scratch.push(e);
        }
        self.m.iq_ready.clear();
        self.m.wheel.clear();
        self.m.waiters.clear();
        self.m.waiter_free.clear();
        self.m.node_waiters.clear();
        self.m.iq_count = 0;
        for e in self.scratch.iter().rev() {
            if let Some(reg) = e.map_reg {
                self.m.regs.remap(reg, e.prev_node);
                if let Some(node) = e.map_node {
                    self.m.regs.release(node);
                }
            }
            if e.holds_lq {
                self.m.lq_used -= 1;
            }
            if e.holds_sq {
                self.m.sq_used -= 1;
            }
            if e.class == InstClass::Store {
                if let Some(node) = e.store_data_ref {
                    // Baseline releases at execute; if unexecuted (or
                    // NoSQ, which releases at commit), release now.
                    if self.cfg.lsu.is_nosq() || !e.issued {
                        self.m.regs.release(node);
                    }
                }
                self.m.srq.invalidate(e.ssn);
                self.m
                    .storesets
                    .store_resolved(self.insts[e.inst].pc, e.ssn);
            }
        }
        // Roll the rename SSN back to the oldest squashed instruction and
        // restore the front end's speculative state to its snapshots.
        let fetched = self.m.fetch_buffer.front();
        let oldest = match self.scratch.first() {
            Some(e) => Some((e.inst, e.path_snap, e.bpred_snap, e.ras_snap)),
            None => fetched.map(|f| (f.inst, f.path_snap, f.bpred_snap, f.ras_snap)),
        };
        if let Some((inst, path, bh, ras)) = oldest {
            let squash_point = Ssn(self.insts[inst].stores_before);
            self.m.ssn.rollback_rename(squash_point);
            let front = &mut self.m.front;
            front.path.restore(path);
            front.bpred.set_history(bh);
            front.ras.restore(ras);
        }
        // Re-queue sequence numbers in program order: youngest first onto
        // the front, so the queue reads oldest-to-youngest.
        while let Some(f) = self.m.fetch_buffer.pop_back() {
            self.m.pending.push_front(f.inst);
        }
        for e in self.scratch.drain(..).rev() {
            self.m.pending.push_front(e.inst);
        }
        self.m.fetch_stalled_on = None;
        // A squashed halt returns to `pending` and must be refetched.
        self.m.halt_fetched = false;
        // Mis-speculation is detected at the end of the back-end pipe;
        // refetch begins after the redirect.
        self.m.fetch_stall_until = self.m.clock + self.backend_depth() - 1;
    }

    // ----------------------------------------------------------------
    // Issue.
    // ----------------------------------------------------------------

    /// Files a freshly dispatched IQ candidate into the right scheduler
    /// tier: eligible now, wheel (known future ready), or parked on an
    /// unissued producer's node.
    fn iq_insert(&mut self, pos: u64, class: InstClass, srcs: [Option<NodeId>; 2]) {
        self.m.iq_count += 1;
        let ready = srcs
            .iter()
            .flatten()
            .map(|&n| self.m.regs.ready(Some(n)))
            .max()
            .unwrap_or(0);
        if ready == u64::MAX {
            self.park(pos, class, srcs);
        } else if ready > self.m.clock {
            self.m.wheel.push(WheelEntry { ready, pos, class });
        } else {
            // Dispatch order is age order, so a plain push keeps
            // `iq_ready` sorted (the new position is the largest).
            debug_assert!(self.m.iq_ready.last().is_none_or(|c| c.pos < pos));
            self.m.iq_ready.push(ReadyCand { pos, class });
        }
    }

    /// Parks a candidate on its first not-yet-ready source node.
    fn park(&mut self, pos: u64, class: InstClass, srcs: [Option<NodeId>; 2]) {
        let node = srcs
            .iter()
            .flatten()
            .copied()
            .find(|&n| self.m.regs.ready(Some(n)) == u64::MAX)
            .expect("parked candidate has an unready source");
        let node = node as usize;
        if node >= self.m.node_waiters.len() {
            self.m.node_waiters.resize(node + 1, NO_WAITER);
        }
        let w = Waiter {
            pos,
            class,
            srcs,
            next: self.m.node_waiters[node],
        };
        let idx = match self.m.waiter_free.pop() {
            Some(i) => {
                self.m.waiters[i as usize] = w;
                i
            }
            None => {
                self.m.waiters.push(w);
                (self.m.waiters.len() - 1) as u32
            }
        };
        self.m.node_waiters[node] = idx;
    }

    /// Wakes every candidate parked on `node` after its ready cycle was
    /// set: re-park if another source is still unknown, otherwise file
    /// into the wheel (readiness is always a future cycle — every
    /// execution latency is ≥ 1, so no candidate can become eligible in
    /// the cycle its producer issues).
    fn wake_node(&mut self, node: NodeId) {
        let Some(head) = self.m.node_waiters.get_mut(node as usize) else {
            return;
        };
        let mut idx = std::mem::replace(head, NO_WAITER);
        while idx != NO_WAITER {
            let w = self.m.waiters[idx as usize];
            self.m.waiter_free.push(idx);
            idx = w.next;
            let ready = w
                .srcs
                .iter()
                .flatten()
                .map(|&n| self.m.regs.ready(Some(n)))
                .max()
                .unwrap_or(0);
            if ready == u64::MAX {
                self.park(w.pos, w.class, w.srcs);
            } else {
                debug_assert!(ready > self.m.clock, "producer latency must be >= 1");
                self.m.wheel.push(WheelEntry {
                    ready,
                    pos: w.pos,
                    class: w.class,
                });
            }
        }
    }

    /// Moves every wheel candidate whose ready cycle has arrived into
    /// the age-sorted eligible list (a binary-search insert per drained
    /// candidate — the list is small and drains are ~1-2 entries, so
    /// this beats re-sorting it).
    fn drain_wheel(&mut self) {
        let m = &mut self.m;
        while m.wheel.peek().is_some_and(|entry| entry.ready <= m.clock) {
            let entry = m.wheel.pop().expect("peeked");
            let at = match m.iq_ready.binary_search_by_key(&entry.pos, |c| c.pos) {
                Err(i) => i,
                Ok(_) => unreachable!("ROB positions are unique"),
            };
            m.iq_ready.insert(
                at,
                ReadyCand {
                    pos: entry.pos,
                    class: entry.class,
                },
            );
        }
    }

    fn issue_stage(&mut self) {
        self.drain_wheel();
        let m = &self.cfg.machine;
        let mut total = m.width;
        let mut simple = m.simple_int_slots;
        let mut complex = m.complex_slots;
        let mut branch = m.branch_slots;
        let mut load = m.load_slots;
        let mut store = m.store_slots;

        // Walk the eligible candidates (ascending ROB positions = age
        // order); waiting instructions cost nothing here.
        let mut i = 0;
        while i < self.m.iq_ready.len() {
            if total == 0 {
                break;
            }
            let ReadyCand { pos, class } = self.m.iq_ready[i];
            let slot = match class {
                InstClass::SimpleInt | InstClass::Halt => &mut simple,
                InstClass::Complex => &mut complex,
                InstClass::Branch => &mut branch,
                InstClass::Load => &mut load,
                InstClass::Store => &mut store,
            };
            if *slot == 0 {
                i += 1;
                continue;
            }
            // Memory scheduling constraints.
            if class == InstClass::Load && !self.load_may_issue(pos) {
                i += 1;
                continue;
            }
            *slot -= 1;
            total -= 1;
            self.m.iq_ready.remove(i);
            self.m.iq_count -= 1;
            self.do_issue(pos);
        }
    }

    /// Load-specific scheduling gates; may rewrite the load's wait state.
    fn load_may_issue(&mut self, pos: u64) -> bool {
        let e = self.m.rob.get_abs(pos).expect("load resident");
        let inst_idx = e.inst;
        let ls = e.load.as_ref().expect("load state");
        if let Some(ssn) = ls.wait_commit {
            if !self.store_committed_visible(ssn) {
                return false;
            }
        }
        if let Some(ssn) = ls.wait_exec {
            if ssn > self.m.ssn.commit() {
                match self.m.srq.get(ssn) {
                    Some(info) if info.exec_cycle > self.m.clock => {
                        // The perfect-scheduling oracle waits only when
                        // issuing now would actually produce a wrong value:
                        // if the stale memory image already matches the
                        // architectural value, speculating is squash-free
                        // under value-based verification.
                        let oracle = matches!(
                            self.cfg.lsu,
                            LsuModel::BaselineSq {
                                scheduling: Scheduling::Perfect
                            }
                        );
                        if oracle {
                            let d = &self.insts[inst_idx];
                            if let Inst::Load { width, ext, .. } = *d.inst(self.code) {
                                let stale = load_extend(
                                    self.m.timing_mem.read(d.addr, width.bytes()),
                                    width,
                                    ext,
                                );
                                if stale == d.load_value() {
                                    return true;
                                }
                            }
                        }
                        return false;
                    }
                    _ => {}
                }
            }
        }
        // Baseline forwarding: if the true producing store has executed,
        // the load will forward — but only once the store's data is
        // ready; a partial-coverage match cannot forward at all and
        // converts to a wait-for-commit (replay).
        if !self.cfg.lsu.is_nosq() {
            let wait_commit_unset = ls.wait_commit.is_none();
            if let Some(dep_ssn) = self.insts[inst_idx].dep_ssn().map(Ssn) {
                if dep_ssn > self.m.ssn.commit() && wait_commit_unset {
                    if let Some(info) = self.m.srq.get(dep_ssn) {
                        if info.exec_cycle <= self.m.clock {
                            let coverage =
                                self.insts[inst_idx].mem_dep.expect("dep exists").coverage;
                            if coverage == Coverage::Partial {
                                let e = self.m.rob.get_abs_mut(pos).expect("load resident");
                                let ls = e.load.as_mut().expect("load");
                                ls.wait_commit = Some(dep_ssn);
                                return false;
                            }
                            if self.m.regs.ready(info.dtag_node) > self.m.clock {
                                return false; // forward data not ready yet
                            }
                        }
                    }
                }
            }
        }
        true
    }

    fn do_issue(&mut self, pos: u64) {
        let rr = self.cfg.machine.regread_depth;
        let e = self.m.rob.get_abs(pos).expect("issued entry resident");
        let inst_idx = e.inst;
        let class = e.class;
        let alu = match self.inst_of(inst_idx) {
            Inst::Alu { kind, .. } => Some(*kind),
            _ => None,
        };
        let uid = e.uid;
        let was_mispredicted = e.mispredicted_branch;
        let load_mode = e.load.as_ref().map(|ls| ls.mode);

        let (exec_total, extra) = match (&class, load_mode) {
            (InstClass::Load, Some(mode)) => match mode {
                LoadMode::Bypassed { .. } => (1, 0), // shift & mask uop
                _ => {
                    let addr = self.insts[inst_idx].addr;
                    let lat = self.m.hierarchy.load_latency(addr);
                    self.m.stats.memory.ooo_dcache_reads += 1;
                    (1 + lat, 0)
                }
            },
            _ => (self.cfg.machine.exec_latency(class, alu), 0u64),
        };
        let complete = self.m.clock + rr + exec_total + extra;

        let e = self.m.rob.get_abs_mut(pos).expect("issued entry resident");
        e.issued = true;
        e.complete_cycle = complete;
        let map_node = e.map_node;
        let ssn = e.ssn;
        if let Some(node) = map_node {
            self.m.regs.set_ready(node, self.m.clock + exec_total);
            self.wake_node(node);
        }

        match class {
            InstClass::Branch if was_mispredicted && self.m.fetch_stalled_on == Some(uid) => {
                self.m.fetch_stalled_on = None;
                self.m.fetch_stall_until = complete;
            }
            InstClass::Branch => {}
            InstClass::Store => {
                // Baseline store execution: address generation + data
                // capture; the captured register pin is released.
                let pc = self.insts[inst_idx].pc;
                if let Some(info) = self.m.srq.get_mut(ssn) {
                    info.exec_cycle = complete;
                }
                self.m.storesets.store_resolved(pc, ssn);
                let e = self.m.rob.get_abs_mut(pos).expect("store resident");
                if let Some(node) = e.store_data_ref.take() {
                    self.m.regs.release(node);
                }
            }
            InstClass::Load => self.execute_load(pos),
            _ => {}
        }
    }

    /// Computes a non-bypassed load's value from the commit-ordered
    /// memory image (stale if an in-flight store should have fed it), or
    /// forwards from the producing store in the baseline.
    fn execute_load(&mut self, pos: u64) {
        let e = self.m.rob.get_abs(pos).expect("load resident");
        let mode = e.load.as_ref().expect("load state").mode;
        if let LoadMode::Bypassed { .. } = mode {
            return; // value was computed at rename
        }
        let d = self.insts[e.inst];
        let Inst::Load { width, ext, .. } = *d.inst(self.code) else {
            unreachable!("load entry")
        };

        let mut exec_value = load_extend(self.m.timing_mem.read(d.addr, width.bytes()), width, ext);
        let mut ssn_nvul = self.m.ssn.commit();
        if !self.cfg.lsu.is_nosq() {
            if let Some(dep_ssn) = d.dep_ssn().map(Ssn) {
                if dep_ssn > self.m.ssn.commit() {
                    if let Some(info) = self.m.srq.get(dep_ssn) {
                        let full = d.mem_dep.expect("dep").coverage == Coverage::Full;
                        if info.exec_cycle <= self.m.clock
                            && full
                            && self.m.regs.ready(info.dtag_node) <= self.m.clock
                        {
                            // Store-queue forwarding: correct by
                            // construction (address-checked).
                            exec_value = d.load_value();
                            ssn_nvul = dep_ssn;
                            self.m.stats.memory.sq_forwards += 1;
                        }
                        // Otherwise: the load speculated past an
                        // unexecuted store; exec_value is stale and SVW
                        // re-execution will catch a real mismatch.
                    }
                }
            }
        }
        let e = self.m.rob.get_abs_mut(pos).expect("load resident");
        let ls = e.load.as_mut().expect("load state");
        ls.exec_value = exec_value;
        ls.ssn_nvul = ssn_nvul;
    }

    // ----------------------------------------------------------------
    // Dispatch (decode/rename).
    // ----------------------------------------------------------------

    fn dispatch_stage(&mut self) {
        if self.m.draining_for_wrap {
            return;
        }
        for _ in 0..self.cfg.machine.width {
            let Some(f) = self.m.fetch_buffer.front() else {
                break;
            };
            if f.fetch_cycle + self.cfg.machine.front_depth > self.m.clock {
                break;
            }
            if !self.dispatch_one() {
                break;
            }
        }
    }

    /// Renames and dispatches the oldest fetched instruction; returns
    /// `false` (leaving it in place) on a structural stall.
    fn dispatch_one(&mut self) -> bool {
        let m = &self.cfg.machine;
        let (rob_size, iq_size, lq_size, sq_size) = (m.rob_size, m.iq_size, m.lq_size, m.sq_size);
        if self.rob_occupancy() >= rob_size {
            return false;
        }
        let f = self.m.fetch_buffer.front().expect("caller checked");
        let inst_idx = f.inst;
        let path_snap = f.path_snap;
        let class = self.insts[inst_idx].class;
        let inst = self.inst_of(inst_idx);
        let dest = inst.dest();
        let is_jump = matches!(inst, Inst::Jump { .. });
        let is_nosq = self.cfg.lsu.is_nosq();

        // --- Resource checks (no mutation yet) ---
        let mut needs_iq = !matches!(class, InstClass::Halt) && !is_jump;
        let mut needs_lq = false;
        let mut needs_sq = false;
        let mut load_plan: Option<LoadPlan> = None;

        match class {
            InstClass::Store => {
                if is_nosq {
                    needs_iq = false;
                } else {
                    needs_sq = true;
                    if self.m.sq_used >= sq_size {
                        self.m.stats.stalls.sq_dispatch_stalls += 1;
                        return false;
                    }
                }
            }
            InstClass::Load => {
                if !is_nosq {
                    needs_lq = true;
                    if self.m.lq_used >= lq_size {
                        return false;
                    }
                } else {
                    // NoSQ decode-stage bypassing prediction.
                    let plan = self.plan_nosq_load(inst_idx, inst, path_snap);
                    if matches!(plan.mode, LoadMode::Bypassed { partial: false }) {
                        needs_iq = false;
                    }
                    load_plan = Some(plan);
                }
            }
            _ => {}
        }

        if needs_iq && self.m.iq_count >= iq_size {
            self.m.stats.stalls.iq_dispatch_stalls += 1;
            return false;
        }
        let pure_bypass = matches!(
            load_plan,
            Some(LoadPlan {
                mode: LoadMode::Bypassed { partial: false },
                ..
            })
        );
        if dest.is_some() && !pure_bypass && !self.m.regs.can_alloc() {
            self.m.stats.stalls.reg_dispatch_stalls += 1;
            return false;
        }

        // --- Commit the dispatch ---
        let f = self.m.fetch_buffer.pop_front().expect("still present");
        let srcs = self.rename_sources(inst, &load_plan);
        let mut entry = Entry {
            uid: f.uid,
            inst: inst_idx,
            class,
            path_snap: f.path_snap,
            bpred_snap: f.bpred_snap,
            ras_snap: f.ras_snap,
            map_reg: None,
            map_node: None,
            prev_node: None,
            srcs,
            issued: false,
            complete_cycle: if needs_iq { u64::MAX } else { self.m.clock },
            mispredicted_branch: f.mispredicted_branch,
            ssn: Ssn::NONE,
            load: None,
            holds_lq: needs_lq,
            holds_sq: needs_sq,
            store_data_ref: None,
        };
        if needs_lq {
            self.m.lq_used += 1;
        }
        if needs_sq {
            self.m.sq_used += 1;
        }

        match class {
            InstClass::Store => self.dispatch_store(&mut entry, inst),
            InstClass::Load => self.dispatch_load(&mut entry, inst, load_plan.take()),
            _ => {
                if let Some(rd) = dest {
                    let node = self.m.regs.alloc();
                    entry.prev_node = self.m.regs.remap(rd, Some(node));
                    entry.map_reg = Some(rd);
                    entry.map_node = Some(node);
                }
            }
        }
        let pos = self.m.rob.next_pos();
        if needs_iq {
            // Issue class: partial bypasses occupy a simple-int slot for
            // the injected shift & mask instruction.
            let issue_class = match (&class, &entry.load) {
                (
                    InstClass::Load,
                    Some(LoadState {
                        mode: LoadMode::Bypassed { .. },
                        ..
                    }),
                ) => InstClass::SimpleInt,
                (c, _) => *c,
            };
            self.iq_insert(pos, issue_class, entry.srcs);
        }
        self.m.rob.push_back(entry);
        true
    }

    fn rename_sources(&self, inst: &Inst, load_plan: &Option<LoadPlan>) -> [Option<NodeId>; 2] {
        // A pure bypassed load has no out-of-order sources; a partial
        // bypass consumes only the store's data node (set later).
        if let Some(LoadPlan {
            mode: LoadMode::Bypassed { .. },
            ..
        }) = load_plan
        {
            return [None, None];
        }
        let mut srcs = [None, None];
        for (i, reg) in inst.sources().into_iter().enumerate() {
            if let Some(r) = reg {
                srcs[i] = self.m.regs.mapping(r);
            }
        }
        srcs
    }

    fn dispatch_store(&mut self, entry: &mut Entry, inst: &Inst) {
        let Inst::Store {
            data: data_reg,
            width,
            float32,
            ..
        } = *inst
        else {
            unreachable!("store entry")
        };
        let (pc, addr, store_data, stores_before) = {
            let d = &self.insts[entry.inst];
            (d.pc, d.addr, d.store_data(), d.stores_before)
        };
        let ssn = self.m.ssn.next_rename();
        debug_assert_eq!(ssn.0, stores_before + 1, "ssn tracks the trace");
        entry.ssn = ssn;
        let dtag_node = self.m.regs.mapping(data_reg);
        if let Some(node) = dtag_node {
            self.m.regs.add_ref(node); // pinned until capture (baseline) or commit (NoSQ)
            entry.store_data_ref = Some(node);
        }
        self.m.srq.insert(StoreInfo {
            ssn,
            pc,
            addr,
            width: width.bytes() as u8,
            float32,
            data_value: store_data,
            dtag_node,
            exec_cycle: u64::MAX,
            commit_visible: u64::MAX,
        });
        if !self.cfg.lsu.is_nosq() {
            self.m.storesets.rename_store(pc, ssn);
        }
        // NoSQ: the store is complete at rename (Table 3: "nothing!").
        if self.cfg.lsu.is_nosq() {
            entry.complete_cycle = self.m.clock;
        }
    }

    /// Decode-stage classification of a NoSQ load (paper Table 3).
    fn plan_nosq_load(&mut self, inst_idx: u32, inst: &Inst, path_snap: u64) -> LoadPlan {
        let (pc, dep_ssn) = {
            let d = &self.insts[inst_idx];
            (d.pc, d.dep_ssn())
        };
        if self.cfg.lsu == LsuModel::NosqOracle {
            // Perfect SMB: bypass exactly the loads with an in-flight
            // producing store, with idealized partial-word support.
            if let Some(dep_ssn) = dep_ssn.map(Ssn) {
                if dep_ssn > self.m.ssn.commit() {
                    return LoadPlan {
                        mode: LoadMode::Bypassed { partial: false },
                        pred: None,
                        ssn_byp: Some(dep_ssn),
                        injected: false,
                    };
                }
            }
            return LoadPlan::normal(None);
        }
        let delay_enabled = matches!(self.cfg.lsu, LsuModel::Nosq { delay: true });
        let mut history = PathHistory::new();
        history.restore(path_snap);
        let pred = self.m.predictor.predict(pc, &history);
        let Some(p) = pred else {
            return LoadPlan::normal(None);
        };
        let ssn_byp = Ssn(self.m.ssn.rename().0.saturating_sub(p.dist as u64));
        if ssn_byp <= self.m.ssn.commit() || ssn_byp == Ssn::NONE {
            // Predicted store already committed: non-bypassing.
            return LoadPlan::normal(pred);
        }
        if delay_enabled && !p.confident {
            return LoadPlan {
                mode: LoadMode::Delayed,
                pred,
                ssn_byp: Some(ssn_byp),
                injected: false,
            };
        }
        if self.m.srq.get(ssn_byp).is_none() {
            return LoadPlan::normal(pred);
        };
        let Inst::Load {
            width: lw,
            ext: lext,
            ..
        } = *inst
        else {
            unreachable!("load")
        };
        // Fault injection: every `period`-th bypassing load is pointed
        // at a neighboring in-flight store instead of the predicted one
        // and exempted from verification (see `FaultPlan`).
        let (ssn_byp, injected) = match self.cfg.faults.break_predictor {
            Some(period) => {
                self.m.fault_bypass_seen += 1;
                if self.m.fault_bypass_seen.is_multiple_of(period) {
                    match self.corrupt_bypass_target(ssn_byp) {
                        Some(bad) => (bad, true),
                        None => (ssn_byp, false),
                    }
                } else {
                    (ssn_byp, false)
                }
            }
            None => (ssn_byp, false),
        };
        let info = self.m.srq.get(ssn_byp).expect("bypass target in flight");
        let sw = match info.width {
            1 => MemWidth::B1,
            2 => MemWidth::B2,
            4 => MemWidth::B4,
            _ => MemWidth::B8,
        };
        let partial = needs_shift_mask(sw, info.float32, p.shift, lw, lext);
        LoadPlan {
            mode: LoadMode::Bypassed { partial },
            pred,
            ssn_byp: Some(ssn_byp),
            injected,
        }
    }

    /// Picks an in-flight store adjacent to the predicted bypass target,
    /// for fault injection. Returns `None` when the predicted store is
    /// the only eligible one (the victim is then left uncorrupted).
    fn corrupt_bypass_target(&self, predicted: Ssn) -> Option<Ssn> {
        [Ssn(predicted.0.wrapping_sub(1)), Ssn(predicted.0 + 1)]
            .into_iter()
            .find(|&candidate| {
                candidate != Ssn::NONE
                    && candidate > self.m.ssn.commit()
                    && candidate <= self.m.ssn.rename()
                    && self.m.srq.get(candidate).is_some()
            })
    }

    fn dispatch_load(&mut self, entry: &mut Entry, inst: &Inst, plan: Option<LoadPlan>) {
        let d = self.insts[entry.inst];
        let rd = inst.dest();
        let Inst::Load {
            width: lw,
            ext: lext,
            ..
        } = *inst
        else {
            unreachable!("load entry")
        };
        let mut ls = LoadState {
            mode: LoadMode::Normal,
            wait_exec: None,
            wait_commit: None,
            ssn_nvul: Ssn::NONE,
            ssn_byp: None,
            exec_value: 0,
            pred: None,
            oracle: false,
            injected: false,
        };

        match self.cfg.lsu {
            LsuModel::BaselineSq { scheduling } => {
                match scheduling {
                    Scheduling::Perfect => {
                        if let Some(dep_ssn) = d.dep_ssn().map(Ssn) {
                            if dep_ssn > self.m.ssn.commit() {
                                let coverage = d.mem_dep.expect("dep").coverage;
                                if coverage == Coverage::Full {
                                    ls.wait_exec = Some(dep_ssn);
                                } else {
                                    ls.wait_commit = Some(dep_ssn);
                                }
                            }
                        }
                    }
                    Scheduling::StoreSets => {
                        if let Some(ssn) = self.m.storesets.lookup_load(d.pc) {
                            if ssn > self.m.ssn.commit() {
                                ls.wait_exec = Some(ssn);
                            }
                        }
                    }
                }
                let node = self.m.regs.alloc();
                entry.prev_node = self.m.regs.remap(rd.expect("load dest"), Some(node));
                entry.map_reg = rd;
                entry.map_node = Some(node);
            }
            LsuModel::Nosq { .. } | LsuModel::NosqOracle => {
                let LoadPlan {
                    mode,
                    pred,
                    ssn_byp,
                    injected,
                } = plan.expect("nosq load plan");
                ls.mode = mode;
                ls.pred = pred;
                ls.ssn_byp = ssn_byp;
                ls.oracle = self.cfg.lsu == LsuModel::NosqOracle;
                ls.injected = injected;
                match mode {
                    LoadMode::Bypassed { partial } => {
                        self.m.stats.memory.bypassed_loads += 1;
                        if !self.observers.is_empty() {
                            let ev = BypassEvent {
                                cycle: self.m.clock,
                                pc: d.pc,
                                partial,
                                distance: ls.pred.map(|p| p.dist),
                            };
                            self.emit(|o| o.on_bypass(&ev));
                        }
                        let info = self.m.srq.get(ssn_byp.expect("bypass ssn")).copied();
                        let info = info.expect("bypassing store in flight");
                        ls.ssn_nvul = info.ssn;
                        ls.exec_value = if ls.oracle {
                            d.load_value()
                        } else {
                            let sw = match info.width {
                                1 => MemWidth::B1,
                                2 => MemWidth::B2,
                                4 => MemWidth::B4,
                                _ => MemWidth::B8,
                            };
                            bypass_value(
                                info.data_value,
                                sw,
                                info.float32,
                                ls.pred.map(|p| p.shift).unwrap_or(0),
                                lw,
                                lext,
                            )
                        };
                        if partial && !ls.oracle {
                            // Injected shift & mask: new register, consumes
                            // the store's data node, 1-cycle ALU.
                            self.m.stats.memory.shift_mask_uops += 1;
                            let node = self.m.regs.alloc();
                            entry.prev_node = self.m.regs.remap(rd.expect("load dest"), Some(node));
                            entry.map_reg = rd;
                            entry.map_node = Some(node);
                            entry.srcs = [info.dtag_node, None];
                        } else {
                            // Pure short-circuit: share the DEF's register.
                            if let Some(node) = info.dtag_node {
                                self.m.regs.add_ref(node);
                            }
                            entry.prev_node =
                                self.m.regs.remap(rd.expect("load dest"), info.dtag_node);
                            entry.map_reg = rd;
                            entry.map_node = info.dtag_node;
                            entry.complete_cycle = self.m.clock;
                        }
                    }
                    LoadMode::Delayed => {
                        self.m.stats.memory.delayed_loads += 1;
                        ls.wait_commit = ssn_byp;
                        let node = self.m.regs.alloc();
                        entry.prev_node = self.m.regs.remap(rd.expect("load dest"), Some(node));
                        entry.map_reg = rd;
                        entry.map_node = Some(node);
                    }
                    LoadMode::Normal => {
                        let node = self.m.regs.alloc();
                        entry.prev_node = self.m.regs.remap(rd.expect("load dest"), Some(node));
                        entry.map_reg = rd;
                        entry.map_node = Some(node);
                    }
                }
            }
        }
        entry.load = Some(ls);
    }

    // ----------------------------------------------------------------
    // Fetch.
    // ----------------------------------------------------------------

    fn fetch_stage(&mut self) {
        if self.m.halt_fetched
            || self.m.fetch_stalled_on.is_some()
            || self.m.clock < self.m.fetch_stall_until
        {
            return;
        }
        let mut budget = self.cfg.machine.width;
        let mut branches = 0;
        while budget > 0 {
            let next = self.m.pending.pop_front().or_else(|| {
                let m = &mut self.m;
                self.insts
                    .next(&mut m.stream_next, m.stream_limit, m.stats.insts)
            });
            let Some(inst_idx) = next else {
                self.m.stream_done = true;
                break;
            };
            budget -= 1;
            let uid = self.m.next_uid;
            self.m.next_uid += 1;
            let front = &self.m.front;
            let path_snap = front.path.snapshot();
            let bpred_snap = front.bpred.history();
            let ras_snap = front.ras.checkpoint();
            let rinst = self.inst_of(inst_idx);
            let mispredicted = self.m.front.train(rinst, &self.insts[inst_idx]);
            if let Inst::Halt = rinst {
                self.m.halt_fetched = true;
            }

            if mispredicted {
                self.m.stats.frontend.branch_mispredicts += 1;
                self.m.fetch_stalled_on = Some(uid);
            }
            let is_control = rinst.is_control();
            self.m.fetch_buffer.push_back(Fetched {
                inst: inst_idx,
                uid,
                fetch_cycle: self.m.clock,
                path_snap,
                bpred_snap,
                ras_snap,
                mispredicted_branch: mispredicted,
            });
            if mispredicted || self.m.halt_fetched {
                break;
            }
            if is_control {
                branches += 1;
                if branches == 2 {
                    break; // two predicted control transfers per cycle max
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // SSN wrap-around drain.
    // ----------------------------------------------------------------

    fn wrap_stage(&mut self) {
        if !self.m.draining_for_wrap {
            if self.m.ssn.wrap_pending() {
                self.m.draining_for_wrap = true;
            }
            return;
        }
        if self.m.rob.is_empty() && self.m.backend_exits.is_empty() {
            self.m.tssbf.clear();
            self.m.srq.clear();
            self.m.storesets.clear();
            self.m.ssn.acknowledge_wrap();
            self.m.draining_for_wrap = false;
            self.m.stats.verification.ssn_wrap_drains += 1;
        }
    }
}

/// The state every session but a sampling window starts from: cold
/// long-history structures, the program's initial memory image and SSN
/// counters at zero.
fn cold_start(program: &Program, cfg: &SimConfig) -> (WarmState, Memory, SsnCounters) {
    (
        WarmState::new(cfg),
        program.initial_memory(),
        SsnCounters::new(cfg.machine.ssn_bits),
    )
}

/// Runs one simulation over `program` with `cfg` to completion and
/// returns the report — the classic one-shot entry point, now a thin
/// wrapper over the session API ([`Simulator::run`]).
///
/// For incremental execution, live statistics, or observer hooks, use
/// [`Simulator`] directly; for allocation-free back-to-back runs, see
/// [`Simulator::with_arena`].
///
/// ```
/// use nosq_isa::{Assembler, Reg, MemWidth, Extension};
/// use nosq_core::{simulate, SimConfig};
///
/// let mut asm = Assembler::new();
/// let (b, v) = (Reg::int(1), Reg::int(2));
/// asm.li(b, 0x1000);
/// asm.li(v, 7);
/// asm.store(v, b, 0, MemWidth::B8);
/// asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
/// asm.halt();
/// let prog = asm.finish();
///
/// let report = simulate(&prog, SimConfig::nosq(100));
/// assert_eq!(report.memory.loads, 1);
/// assert_eq!(report.memory.stores, 1);
/// ```
pub fn simulate(program: &Program, cfg: SimConfig) -> SimReport {
    Simulator::new(program, cfg).run()
}
