//! # nosq-core
//!
//! A from-scratch reproduction of **NoSQ: Store-Load Communication
//! without a Store Queue** (Tingting Sha, Milo M. K. Martin, Amir Roth;
//! MICRO-39, 2006).
//!
//! NoSQ is a microarchitecture that performs *all* in-flight store-load
//! communication through speculative memory bypassing (SMB): a
//! decode-stage predictor classifies each load as bypassing or
//! non-bypassing; bypassing loads skip the out-of-order engine entirely
//! (their consumers are renamed onto the predicted store's data
//! register), stores never execute out of order, and every load is
//! verified by in-order re-execution filtered by an SMB-aware store
//! vulnerability window.
//!
//! This crate supplies:
//!
//! * [`predictor`] — the hybrid path-sensitive, distance-based bypassing
//!   predictor (paper §3.3),
//! * [`srq`] — the store register queue (§3.2),
//! * [`bypass`] — partial-word shift & mask value transforms (§3.5),
//! * [`pipeline`] — a cycle-level simulator modelling the baseline
//!   associative-store-queue design, NoSQ (± delay), and perfect SMB
//!   (§4's configurations), exposed as an incremental *session* API,
//! * [`observer`] — pluggable instrumentation hooks for sessions,
//! * [`config`] / [`report`] — fluent run configuration (with validated
//!   [`SimConfigBuilder::try_build`]) and structured result metrics with
//!   JSON/CSV serialization,
//! * [`ser`] — the tiny hand-rolled JSON/CSV writers shared by every
//!   artifact emitter in the workspace (this crate's [`SimReport`], the
//!   `nosq-bench` harnesses, and the `nosq-lab` campaign engine).
//!
//! ## One-shot quick start
//!
//! The classic entry point runs a configuration to completion:
//!
//! ```
//! use nosq_core::{simulate, SimConfig};
//! use nosq_trace::{synthesize, Profile};
//!
//! let profile = Profile::by_name("gzip").unwrap();
//! let program = synthesize(profile, 42);
//! let nosq = simulate(&program, SimConfig::nosq(50_000));
//! let base = simulate(&program, SimConfig::baseline_storesets(50_000));
//! println!(
//!     "gzip-like: NoSQ {:.2} IPC vs baseline {:.2} IPC",
//!     nosq.ipc(),
//!     base.ipc()
//! );
//! ```
//!
//! ## Sessions: incremental execution and observers
//!
//! [`Simulator`] is a *session*: build a configuration with the fluent
//! [`SimConfig::builder`], attach [`SimObserver`]s for time-resolved
//! telemetry, advance with [`Simulator::step`] /
//! [`Simulator::run_until`] (a [`StopCondition`]: cycles, committed
//! instructions, or a custom predicate), read live
//! [`Simulator::stats`], and close with [`Simulator::finish`]. Stepped
//! and one-shot execution produce bit-identical [`SimReport`]s.
//!
//! ```
//! use nosq_core::observer::IntervalIpc;
//! use nosq_core::{LsuModel, SimConfig, Simulator, StopCondition};
//! use nosq_trace::{synthesize, Profile};
//!
//! let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
//! let cfg = SimConfig::builder()
//!     .lsu(LsuModel::Nosq { delay: true })
//!     .max_insts(20_000)
//!     .build();
//!
//! let mut warmup = IntervalIpc::new(1_000); // predictor warm-up curve
//! let mut sim = Simulator::new(&program, cfg);
//! sim.attach_observer(Box::new(&mut warmup));
//!
//! sim.run_until(StopCondition::Insts(5_000)); // inspect mid-flight
//! let early_ipc = sim.stats().ipc();
//! sim.run_until(StopCondition::Done);
//! let report = sim.finish();
//!
//! assert!(report.ipc() >= 0.0 && early_ipc >= 0.0);
//! println!("{}", report.to_json()); // machine-readable artifact
//! # let _ = warmup.samples();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bypass;
pub mod config;
pub mod observer;
pub mod pipeline;
pub mod predictor;
pub mod report;
pub mod sample;
pub mod ser;
pub mod srq;

pub use arena::SimArena;
pub use config::{ConfigError, FaultPlan, LsuModel, Scheduling, SimConfig, SimConfigBuilder};
pub use observer::{
    BypassEvent, CommitEvent, CommittedLoadKind, CycleEvent, LoadCommitEvent, ReexecEvent,
    SimObserver, SquashCause, SquashEvent,
};
pub use pipeline::{simulate, CkptError, SimCheckpoint, Simulator, StopCondition};
pub use predictor::{BypassingPredictor, PathHistory, Prediction, PredictorConfig};
pub use report::{
    geometric_mean, FrontendMetrics, MemoryMetrics, SimReport, StallMetrics, VerificationMetrics,
};
pub use sample::{sampled_replay, sampled_replay_with_arena, SamplePlan, SampledReport};
pub use srq::{StoreInfo, StoreRegisterQueue};
