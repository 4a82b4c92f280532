//! # nosq-isa
//!
//! A from-scratch 64-bit Alpha-like load/store RISC ISA used by the NoSQ
//! microarchitecture simulator (Sha, Martin & Roth, MICRO-39 2006).
//!
//! The original paper evaluates NoSQ on the Alpha AXP user-level ISA via
//! SimpleScalar. This crate provides the ISA *properties* the NoSQ
//! mechanisms depend on, without reproducing Alpha encodings:
//!
//! * a 64-register flat register file with a hardwired zero register,
//! * base+displacement addressing with 1/2/4/8-byte accesses,
//! * partial-word load semantics (sign or zero extension), and
//! * the Alpha `lds`/`sts`-style conversion between an in-memory 32-bit
//!   IEEE-754 single-precision float and the in-register 64-bit format —
//!   the extra transformation NoSQ's partial-word bypassing must mimic
//!   (paper §3.5).
//!
//! The crate contains three layers:
//!
//! * [`inst`] — the instruction set ([`Inst`], [`AluKind`], [`MemWidth`], ...),
//! * [`program`] — [`Program`] and the [`Assembler`] used to build workloads,
//! * [`exec`] — the architectural executor ([`ArchState`]) that runs a
//!   program and yields one [`ExecRecord`] per dynamic instruction. The
//!   timing models are *functional-first*: they replay these records,
//!   which `nosq-trace` packs into its 48-byte `DynInst`. The record
//!   keeps no copy of the static instruction; readers index
//!   [`Program::code`] with its PC.
//!
//! ## Example
//!
//! ```
//! use nosq_isa::{Assembler, Reg, MemWidth, Extension, ArchState};
//!
//! let mut asm = Assembler::new();
//! let r1 = Reg::int(1);
//! let r2 = Reg::int(2);
//! asm.li(r1, 0x1000);          // base address
//! asm.li(r2, 42);
//! asm.store(r2, r1, 0, MemWidth::B8);
//! asm.load(r2, r1, 0, MemWidth::B8, Extension::Zero);
//! asm.halt();
//! let prog = asm.finish();
//!
//! let mut state = ArchState::new(&prog);
//! while !state.halted() {
//!     state.step(&prog).unwrap();
//! }
//! assert_eq!(state.reg(r2), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod inst;
pub mod mem;
pub mod program;

pub use exec::{ArchState, ExecError, ExecRecord};
pub use inst::{AluKind, Cond, Extension, Inst, InstClass, MemWidth, Reg, Src};
pub use mem::Memory;
pub use program::{Assembler, Label, Program};

/// Byte size of one instruction slot; PCs advance by this amount.
pub const INST_BYTES: u64 = 4;
