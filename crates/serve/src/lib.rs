//! # nosq-serve
//!
//! The campaign **service** layer: what turns the one-shot `nosq run`
//! engine into a long-running daemon under live traffic.
//!
//! * [`server`] — the `nosq serve` daemon: a line-delimited-JSON TCP
//!   frontend, a worker pool fed through the model-checked
//!   [`InjectionQueue`](nosq_lab::InjectionQueue), per-job progress
//!   streaming, an LRU result cache, a crash-safe fsync'd result
//!   journal, and graceful drain on SIGTERM or a `shutdown` request;
//! * [`protocol`] — the wire format (one JSON object per line, built
//!   on [`nosq_lab::json`] and [`nosq_core::ser`] — no serde in this
//!   environment);
//! * [`client`] — the blocking client every consumer shares (the CLI's
//!   `submit`/`shutdown` subcommands, the load generator, the
//!   integration suites);
//! * [`loadgen`] — `nosq loadgen`: open-loop mixed hot/cold traffic
//!   from N concurrent clients, latency percentiles + jobs/sec into
//!   `BENCH_serve.json`, and byte-identity verification of every
//!   served artifact against a local one-shot run;
//! * [`cache`] — the fingerprint-keyed LRU over deterministic
//!   artifacts;
//! * [`journal`] — the length-prefixed, checksummed, fsync'd
//!   append-only binary record of completed campaigns and of mid-job
//!   checkpoints, and [`JournaledCampaign`], which runs a campaign
//!   under it (a killed daemon serves everything it finished without
//!   re-simulating, and resumes a half-finished campaign from its last
//!   checkpoint);
//! * [`fingerprint`] — FNV-1a campaign identity: the cache key, the
//!   journal key, and the wire job id are all the same 64-bit hash;
//! * [`signal`] — SIGTERM/SIGINT → drain-flag plumbing (the one
//!   allowlisted `unsafe` + raw-atomics corner of the workspace).
//!
//! The `nosq` binary lives in this crate (the daemon and the one-shot
//! commands share a CLI), driving both this layer and everything
//! below it: `nosq serve`, `nosq loadgen`, `nosq submit`,
//! `nosq shutdown`, plus the original `run` / `table5` / `smoke` /
//! `audit` / `check` / `lint` / `list`.
//!
//! ## Determinism contract
//!
//! The daemon never invents result bytes: its workers and both durable
//! modes of `nosq run` produce artifacts through one routine,
//! [`JournaledCampaign::run`], the cache and journal store exactly
//! those bytes, and `tests/it_serve.rs` + `nosq loadgen` both assert
//! byte-identity against one-shot local runs. Timing (latency
//! histograms, jobs/sec) is the only nondeterministic output,
//! quarantined in `BENCH_serve.json` like the lab's timing artifact.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod durable;
pub mod fingerprint;
pub mod journal;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod signal;

pub use cache::ResultCache;
pub use client::{ClientError, JobOutcome, ServeClient, SubmitReply};
pub use durable::{DurableFile, DurableIo, Fault, FaultIo, FaultKind, OsIo};
pub use fingerprint::{campaign_fingerprint, fingerprint_hex, parse_fingerprint};
pub use journal::{CheckpointEntry, Journal, JournalEntry, JournaledCampaign, Recovered};
pub use loadgen::{loadgen_json, run_loadgen, LoadgenOptions, LoadgenReport};
pub use server::{ServeOptions, ServeStats, Server};
