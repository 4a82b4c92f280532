//! Observer hooks: pluggable instrumentation for simulation sessions.
//!
//! A [`SimObserver`] receives fine-grained pipeline events as the
//! simulation advances — one callback per cycle, committed instruction,
//! squash, SMB bypass, and back-end re-execution. Every hook has an
//! empty default body, so an observer implements only the events it
//! cares about, and telemetry (interval IPC series, squash histograms,
//! predictor warm-up curves) lives *outside* the pipeline instead of as
//! ever-more counters inside it.
//!
//! Observers are installed on a [`crate::Simulator`] with
//! [`crate::Simulator::attach_observer`]. To read an observer's state
//! back after the run, attach a `&mut` borrow (the blanket
//! `impl SimObserver for &mut O` below) and inspect the observer once
//! the session has been consumed by [`crate::Simulator::finish`]:
//!
//! ```
//! use nosq_core::observer::IntervalIpc;
//! use nosq_core::{SimConfig, Simulator, StopCondition};
//! use nosq_trace::{synthesize, Profile};
//!
//! let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
//! let mut ipc = IntervalIpc::new(1_000);
//! let mut sim = Simulator::new(&program, SimConfig::nosq(10_000));
//! sim.attach_observer(Box::new(&mut ipc));
//! sim.run_until(StopCondition::Done);
//! let report = sim.finish();
//! // One sample per full 1k-cycle interval from the attachment point.
//! assert_eq!(ipc.samples().len() as u64, (report.cycles - 1) / 1_000);
//! ```

use nosq_isa::InstClass;

/// End-of-cycle event: fired once per simulated cycle.
#[derive(Copy, Clone, Debug)]
pub struct CycleEvent {
    /// The cycle that just completed (1-based).
    pub cycle: u64,
    /// Instructions committed so far, cumulatively.
    pub insts: u64,
}

/// One instruction retired from the ROB head.
#[derive(Copy, Clone, Debug)]
pub struct CommitEvent {
    /// Commit cycle.
    pub cycle: u64,
    /// The instruction's PC.
    pub pc: u64,
    /// The instruction's class.
    pub class: InstClass,
}

/// Why a verification squash happened.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SquashCause {
    /// A bypassing (or delayed/normal NoSQ) load got the wrong value
    /// (NoSQ variants).
    BypassMispredict,
    /// A load executed before an older conflicting store (baseline
    /// memory-ordering violation).
    OrderingViolation,
}

/// Everything younger than a mis-verified load was squashed.
#[derive(Copy, Clone, Debug)]
pub struct SquashEvent {
    /// Squash cycle.
    pub cycle: u64,
    /// What triggered the squash.
    pub cause: SquashCause,
    /// PC of the load whose verification failed.
    pub load_pc: u64,
    /// Number of in-flight instructions squashed and queued for refetch.
    pub squashed: u64,
}

/// A load was classified as bypassing at dispatch (NoSQ variants).
#[derive(Copy, Clone, Debug)]
pub struct BypassEvent {
    /// Dispatch cycle.
    pub cycle: u64,
    /// The load's PC.
    pub pc: u64,
    /// Whether the bypass goes through the injected shift & mask
    /// instruction (partial-word communication, paper §3.5).
    pub partial: bool,
    /// Predicted store distance in stores, when a predictor produced
    /// one (`None` under the perfect-SMB oracle).
    pub distance: Option<u16>,
}

/// How a committed load obtained its value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommittedLoadKind {
    /// Executed through the data cache as usual.
    Normal,
    /// Held at the scheduler until its predicted producer committed,
    /// then read the cache (NoSQ "Delay", paper §3.3).
    Delayed,
    /// Took its value from an in-flight store via speculative memory
    /// bypassing.
    Bypassed {
        /// Whether the bypass went through the injected shift & mask
        /// instruction (partial-word communication, paper §3.5).
        partial: bool,
    },
}

/// Commit-time verification outcome of one load — the per-load record
/// the dependence-oracle auditor (`nosq-audit`) cross-checks against
/// the trace's exact store→load graph.
///
/// Fired once per committed load, after verification resolved (and, on
/// a mismatch, before the squash event for the same load).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoadCommitEvent {
    /// Commit cycle.
    pub cycle: u64,
    /// The load's dynamic sequence number in the correct-path stream.
    pub seq: u64,
    /// The load's PC.
    pub pc: u64,
    /// The load's effective address.
    pub addr: u64,
    /// How the load obtained its value.
    pub kind: CommittedLoadKind,
    /// SSN of the store the load bypassed from, for a bypassed load
    /// with a predictor-produced distance (`None` under the perfect-SMB
    /// oracle or for non-bypassed loads).
    pub predicted_ssn: Option<u64>,
    /// The value the load's execution produced (before any squash
    /// correction).
    pub value: u64,
    /// The architecturally correct value from the trace record.
    pub arch_value: u64,
    /// Whether verification re-executed the load (SVW filter miss).
    pub reexec: bool,
    /// Whether verification failed and squashed younger instructions.
    pub mispredict: bool,
    /// Whether the run uses idealized (oracle) verification, which
    /// filters every re-execution.
    pub oracle: bool,
    /// Stores renamed before this load in the dynamic stream (the
    /// load's `SSNrename` view).
    pub stores_before: u64,
    /// Whether fault injection deliberately corrupted this load's
    /// bypass and exempted it from verification
    /// (`FaultPlan::break_predictor`).
    pub injected: bool,
}

/// A committed load re-executed in the back-end (SVW filter miss).
#[derive(Copy, Clone, Debug)]
pub struct ReexecEvent {
    /// Commit cycle.
    pub cycle: u64,
    /// The load's PC.
    pub pc: u64,
    /// The load's effective address.
    pub addr: u64,
    /// Whether re-execution found a value mismatch (squash follows).
    pub mismatch: bool,
}

/// Pluggable pipeline instrumentation.
///
/// Every hook has an empty default body; implement only what you need.
/// Hooks run synchronously inside the simulated cycle, in observer
/// attachment order, and must not assume anything about the pipeline's
/// internal state beyond what the event carries.
pub trait SimObserver {
    /// Called at the end of every simulated cycle.
    fn on_cycle(&mut self, ev: &CycleEvent) {
        let _ = ev;
    }

    /// Called for every committed instruction.
    fn on_commit(&mut self, ev: &CommitEvent) {
        let _ = ev;
    }

    /// Called when load verification squashes the in-flight window.
    fn on_squash(&mut self, ev: &SquashEvent) {
        let _ = ev;
    }

    /// Called when a load is classified as bypassing at dispatch.
    fn on_bypass(&mut self, ev: &BypassEvent) {
        let _ = ev;
    }

    /// Called when a committed load re-executes in the back-end.
    fn on_reexec(&mut self, ev: &ReexecEvent) {
        let _ = ev;
    }

    /// Called for every committed load once its verification resolved.
    fn on_load_commit(&mut self, ev: &LoadCommitEvent) {
        let _ = ev;
    }
}

/// Forwarding impl so a session can borrow an observer (`Box::new(&mut
/// obs)`) and hand it back for inspection after
/// [`crate::Simulator::finish`].
impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_cycle(&mut self, ev: &CycleEvent) {
        (**self).on_cycle(ev);
    }
    fn on_commit(&mut self, ev: &CommitEvent) {
        (**self).on_commit(ev);
    }
    fn on_squash(&mut self, ev: &SquashEvent) {
        (**self).on_squash(ev);
    }
    fn on_bypass(&mut self, ev: &BypassEvent) {
        (**self).on_bypass(ev);
    }
    fn on_reexec(&mut self, ev: &ReexecEvent) {
        (**self).on_reexec(ev);
    }
    fn on_load_commit(&mut self, ev: &LoadCommitEvent) {
        (**self).on_load_commit(ev);
    }
}

/// Built-in observer: an interval IPC series.
///
/// Samples committed-instruction throughput every `interval` cycles —
/// the time-resolved view behind predictor warm-up curves (paper §4.2's
/// steady-state assumption made visible).
///
/// Intervals are measured from the first cycle the observer sees, so
/// attaching mid-session yields correct per-interval rates from the
/// attachment point onward (the attachment cycle's own commits are
/// excluded — at most one machine-width of instructions).
#[derive(Clone, Debug)]
pub struct IntervalIpc {
    interval: u64,
    /// Next cycle at which to close an interval; `None` until the first
    /// observed cycle anchors the series.
    next_sample: Option<u64>,
    last_insts: u64,
    samples: Vec<f64>,
}

impl IntervalIpc {
    /// Creates a series sampling every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> IntervalIpc {
        assert!(interval > 0, "sampling interval must be positive");
        IntervalIpc {
            interval,
            next_sample: None,
            last_insts: 0,
            samples: Vec::new(),
        }
    }

    /// The sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// One IPC value per completed interval, in time order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl SimObserver for IntervalIpc {
    fn on_cycle(&mut self, ev: &CycleEvent) {
        let Some(next) = self.next_sample else {
            // First observed cycle anchors the series; its commits are
            // already included in `ev.insts` and excluded from the
            // first interval.
            self.last_insts = ev.insts;
            self.next_sample = Some(ev.cycle + self.interval);
            return;
        };
        if ev.cycle >= next {
            let delta = ev.insts - self.last_insts;
            self.last_insts = ev.insts;
            self.next_sample = Some(next + self.interval);
            self.samples.push(delta as f64 / self.interval as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_ipc_samples_deltas() {
        let mut obs = IntervalIpc::new(10);
        for cycle in 1..=25u64 {
            obs.on_cycle(&CycleEvent {
                cycle,
                insts: cycle * 2, // steady 2 IPC
            });
        }
        assert_eq!(obs.samples(), &[2.0, 2.0]);
        assert_eq!(obs.interval(), 10);
    }

    #[test]
    fn interval_ipc_attached_mid_session_is_not_inflated() {
        // Attach after 10k instructions have already committed: the
        // first sample must reflect the per-interval rate, not the
        // whole session's backlog.
        let mut obs = IntervalIpc::new(10);
        for cycle in 5_000..=5_025u64 {
            obs.on_cycle(&CycleEvent {
                cycle,
                insts: 10_000 + (cycle - 5_000) * 2, // steady 2 IPC
            });
        }
        assert_eq!(obs.samples(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn interval_ipc_rejects_zero_interval() {
        let _ = IntervalIpc::new(0);
    }

    #[test]
    fn default_hooks_are_no_ops() {
        struct Silent;
        impl SimObserver for Silent {}
        let mut s = Silent;
        s.on_cycle(&CycleEvent { cycle: 1, insts: 0 });
        s.on_squash(&SquashEvent {
            cycle: 1,
            cause: SquashCause::BypassMispredict,
            load_pc: 0,
            squashed: 0,
        });
    }

    #[test]
    fn mut_ref_forwarding_reaches_the_observer() {
        let mut obs = IntervalIpc::new(1);
        {
            let mut boxed: Box<dyn SimObserver> = Box::new(&mut obs);
            boxed.on_cycle(&CycleEvent { cycle: 1, insts: 0 }); // anchors
            boxed.on_cycle(&CycleEvent { cycle: 2, insts: 3 });
        }
        assert_eq!(obs.samples(), &[3.0]);
    }
}
