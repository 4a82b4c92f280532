//! # nosq-lab
//!
//! The experiment-campaign engine for the NoSQ reproduction: declare a
//! grid of simulator configurations × benchmark profiles, run it across
//! worker threads, and collect comparative artifacts — without writing
//! a bespoke sweep loop per figure.
//!
//! * [`campaign`] — the declarative [`Campaign`] model: presets,
//!   window/predictor sweep dimensions, workload selection, fluent
//!   [`Campaign::builder`];
//! * [`spec`] — the text/JSON spec-file format behind
//!   [`Campaign::from_spec`] (what `nosq run <spec>` parses);
//! * [`json`] — the minimal hand-rolled JSON parser (no serde in this
//!   environment);
//! * [`executor`] — the lock-free multi-threaded grid runner:
//!   atomic-cursor job pickup, per-worker result buffers, incremental
//!   sessions with a progress [`SimObserver`](nosq_core::SimObserver),
//!   and byte-deterministic output at any thread count;
//! * [`grid`] — the executor's concurrent protocol itself (cursor,
//!   buffers, counters), generic over the `nosq_check` sync facade so
//!   the identical code is model-checked by `nosq check`;
//! * [`mpmc`] — the bounded lock-free injection queue (sequence-number
//!   array queue) feeding the `nosq-serve` worker pool, same facade;
//! * [`checks`] — the `nosq check` model suite: bounded models of
//!   [`grid`] and [`mpmc`] plus the seeded-bug self-test;
//! * [`aggregate`] — per-profile matrices, suite geomeans, and
//!   speedup-vs-baseline tables as JSON/CSV [`Artifact`]s;
//! * [`reports`] — engine-backed regeneration of paper tables shared by
//!   the CLI and the bench harnesses;
//! * [`audit`] — the dependence-oracle audit grid (`nosq audit`):
//!   per-profile oracle pass, per-preset [`nosq_audit::AuditObserver`]
//!   sessions, optional fault injection;
//! * [`lint`] — the determinism source lint (`nosq lint`) with its
//!   `lint.allow` allowlist.
//!
//! The `nosq` binary (in the `nosq-serve` crate, one layer up) drives
//! all of it from the command line: `nosq run <spec>`, `nosq table5`,
//! `nosq smoke`, `nosq audit`, `nosq check`, `nosq lint`, `nosq list`,
//! plus the service-layer commands (`nosq serve` and friends).
//!
//! ## Quick start
//!
//! ```
//! use nosq_lab::{artifacts, run_campaign, Campaign, Preset, RunOptions};
//!
//! let campaign = Campaign::builder("demo")
//!     .preset(Preset::Nosq)
//!     .preset(Preset::BaselineStoresets)
//!     .profiles(["gzip", "gsm.e"])
//!     .max_insts(2_000)
//!     .baseline("baseline-storesets")
//!     .build()
//!     .unwrap();
//! let result = run_campaign(&campaign, &RunOptions::default());
//! let files = artifacts(&result);
//! assert_eq!(files.len(), 4); // matrix csv/json, summary, speedup
//! ```
//!
//! The same campaign as a spec file (see [`spec`] for the format):
//!
//! ```text
//! name      = demo
//! configs   = nosq, baseline-storesets
//! profiles  = gzip, gsm.e
//! max_insts = 2000
//! baseline  = baseline-storesets
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod audit;
pub mod campaign;
pub mod checks;
pub mod executor;
pub mod grid;
pub mod json;
pub mod lint;
pub mod mpmc;
pub mod reports;
pub mod spec;

pub use aggregate::{artifacts, timing_artifact, write_artifacts, Artifact};
pub use audit::{audit_json, run_audit, AuditCell, AuditOptions, AuditRunResult};
pub use campaign::{
    suite_from_name, Campaign, CampaignBuilder, NamedConfig, Preset, SpecError, Workload,
    DEFAULT_MAX_INSTS, DEFAULT_SEED,
};
pub use checks::{check_json, model_names, run_checks, BoundPreset, CheckOptions};
pub use executor::{
    effective_threads, parallel_map_indexed, run_campaign, run_campaign_durable, run_campaign_on,
    synthesize_programs, CampaignResult, CkptEvent, JobTiming, ResumeState, RunOptions,
    WorkerContext,
};
pub use grid::{run_grid, JobCursor, ProgressCounters};
pub use lint::{lint_tree, Allowlist, LintFinding, LintResult};
pub use mpmc::{InjectionQueue, PushError};
