//! # nosq-trace
//!
//! Dynamic-instruction tracing and calibrated synthetic workloads for the
//! NoSQ simulator (Sha, Martin & Roth, MICRO-39 2006).
//!
//! The paper evaluates on SPEC2000 and MediaBench; those binaries (and an
//! Alpha toolchain) are not reproducible here, so this crate substitutes
//! **calibrated synthetic workloads**: compositions of small kernels whose
//! in-window store-load communication signatures are solved against each
//! benchmark's Table-5 profile (total communication %, partial-word %,
//! hard-to-predict mass, delay-needing mass). See `DESIGN.md` §2 for the
//! substitution argument.
//!
//! * [`Tracer`] streams the correct-path dynamic instruction sequence with
//!   ground-truth memory dependences ([`DynInst`], [`MemDep`]).
//! * [`TraceBuffer`] records that stream once for any number of
//!   replays; a reusable [`TraceArena`] holds the tracer's map and the
//!   last trace's storage, so recording one trace after another
//!   refills memory that is already mapped.
//! * [`lastwriter`] holds the paged, epoch-stamped per-byte
//!   [`LastWriterMap`] behind the tracer's dependence analysis; a
//!   reusable map makes tracing allocation-free across programs
//!   ([`Tracer::with_arena`]).
//! * [`kernels`] hosts the kernel library.
//! * [`profiles`] defines the 47 benchmark profiles from paper Table 5.
//! * [`synth`] composes kernels into a runnable [`Program`] per profile.
//! * [`analyze`] measures communication signatures (Table 5, left half).
//! * [`depgraph`] derives the exact per-byte store→load
//!   [`DependenceGraph`] — the dependence oracle `nosq-audit` checks the
//!   pipeline against, and the source of [`analyze`]'s stats.
//!
//! [`Program`]: nosq_isa::Program

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod depgraph;
pub mod kernels;
pub mod lastwriter;
pub mod profiles;
pub mod record;
pub mod synth;
pub mod tracer;

pub use analyze::{analyze_program, CommStats};
pub use depgraph::{DepGraphBuilder, DependenceGraph, LoadDep, StoreNode, StoreSet};
pub use lastwriter::{ByteWriter, LastWriterMap, LoadScan};
pub use profiles::{Profile, Suite};
pub use record::{Coverage, DynInst, MemDep};
pub use synth::synthesize;
pub use tracer::{TraceArena, TraceBuffer, Tracer};
