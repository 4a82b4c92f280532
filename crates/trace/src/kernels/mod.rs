//! Synthetic workload kernels.
//!
//! Each kernel is a small code generator that emits one *function* into a
//! program and reports the per-call signature of the code it emits
//! (instructions, loads, in-window-communicating loads, partial-word
//! communication). The [`synth`](crate::synth) module composes kernels per
//! benchmark profile to match the communication signatures of paper
//! Table 5.
//!
//! Kernel taxonomy (what each one exercises):
//!
//! * [`SpillKernel`] — register save/restore: full-word, fixed-distance
//!   store-load pairs (the bread-and-butter SMB case).
//! * [`WideNarrowKernel`] — wide-store/narrow-load with non-zero shifts
//!   (bypassable partial-word, paper §3.5).
//! * [`PartialStoreKernel`] — two narrow stores feeding one wider load
//!   (un-bypassable; must be handled by delay, paper §3.3).
//! * [`StructPackKernel`] — mixed field packing (both of the above).
//! * [`StridedKernel`] — `X[i] = A*X[i-k]`: dependence on a non-most-recent
//!   instance of a static store (distance-based prediction wins, §3.1).
//! * [`StreamKernel`], [`PointerChaseKernel`] — non-communicating loads
//!   with controllable cache behaviour.
//! * [`PathDepKernel`] — store-load distance decided by a branch `noise`
//!   control-flow steps earlier (path-sensitive prediction, §3.3).
//! * [`CallSiteKernel`] — distance decided by call site (the call-PC path
//!   history bits, §3.3).
//! * [`AluKernel`], [`BranchyKernel`] — ILP and branch-predictability
//!   filler with no memory communication.
//! * [`FpStencilKernel`] — `sts`/`lds` single-precision traffic (float
//!   conversion bypassing, §3.5).

mod compute;
mod memory;
mod partial;
mod pathdep;
mod spill;
mod strided;

pub use compute::{AluKernel, BranchyKernel, FpStencilKernel};
pub use memory::{PointerChaseKernel, StreamKernel};
pub use partial::{PartialStoreKernel, StructPackKernel, WideNarrowKernel};
pub use pathdep::{CallSiteKernel, PathDepKernel};
pub use spill::SpillKernel;
pub use strided::StridedKernel;

use nosq_isa::{Assembler, Label, Reg};
use rand::rngs::SmallRng;

/// Per-call signature of the code a kernel emits, used to solve kernel
/// mixes against a profile's communication targets.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Approximate dynamic instructions per call.
    pub insts: f64,
    /// Dynamic loads per call.
    pub loads: f64,
    /// Loads per call that communicate with an in-flight store.
    pub comm_loads: f64,
    /// Communicating loads per call involving a partial word.
    pub partial_comm: f64,
    /// Dynamic stores per call.
    pub stores: f64,
}

/// Emission context handed to kernels.
///
/// Kernels receive disjoint persistent registers and a disjoint memory
/// region; scratch registers are shared (their values do not survive
/// across calls).
pub struct EmitCtx<'a> {
    /// The program under construction.
    pub asm: &'a mut Assembler,
    /// Registers owned by this kernel for the program's lifetime.
    pub persistent: Vec<Reg>,
    /// Shared integer scratch registers (clobbered by every kernel).
    pub scratch: [Reg; 6],
    /// Shared floating-point scratch registers.
    pub fscratch: [Reg; 4],
    /// Base of this kernel's private memory region.
    pub base: u64,
    /// Deterministic generator for data-segment contents.
    pub rng: &'a mut SmallRng,
}

/// A synthetic-workload code generator.
///
/// `emit_init` runs once before the driver loop (pointer/index setup and
/// data segments); `emit_body` is the per-call function body (without
/// `ret`, which the driver appends).
pub trait Kernel {
    /// Human-readable kernel name.
    fn name(&self) -> String;
    /// Number of persistent integer registers required.
    fn persistent_int(&self) -> usize;
    /// Number of persistent floating-point registers required.
    fn persistent_float(&self) -> usize {
        0
    }
    /// Emits one-time setup code (runs before the driver loop).
    fn emit_init(&self, cx: &mut EmitCtx<'_>);
    /// Emits the function body executed once per call.
    fn emit_body(&self, cx: &mut EmitCtx<'_>);
    /// Expected per-call signature.
    fn stats(&self) -> KernelStats;
}

/// Allocates persistent registers to kernels from the pools not used as
/// scratch.
#[derive(Debug)]
pub struct RegPool {
    next_int: u8,
    next_float: u8,
}

impl Default for RegPool {
    fn default() -> Self {
        RegPool {
            // r1-r6 are scratch; r7.. are persistent; r30/r31 = LINK/SP.
            next_int: 7,
            // f0-f3 are scratch.
            next_float: 4,
        }
    }
}

impl RegPool {
    /// Creates a pool with all persistent registers free.
    pub fn new() -> RegPool {
        RegPool::default()
    }

    /// Allocates `n` persistent integer registers.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (more kernels than registers).
    pub fn alloc_int(&mut self, n: usize) -> Vec<Reg> {
        let mut regs = Vec::with_capacity(n);
        for _ in 0..n {
            assert!(
                self.next_int <= 29,
                "persistent integer registers exhausted"
            );
            regs.push(Reg::int(self.next_int));
            self.next_int += 1;
        }
        regs
    }

    /// Allocates `n` persistent floating-point registers.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted.
    pub fn alloc_float(&mut self, n: usize) -> Vec<Reg> {
        let mut regs = Vec::with_capacity(n);
        for _ in 0..n {
            assert!(
                self.next_float <= 30,
                "persistent float registers exhausted"
            );
            regs.push(Reg::float(self.next_float));
            self.next_float += 1;
        }
        regs
    }
}

/// Shared integer scratch registers.
pub fn scratch_regs() -> [Reg; 6] {
    [
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
        Reg::int(6),
    ]
}

/// Shared floating-point scratch registers.
pub fn fscratch_regs() -> [Reg; 4] {
    [Reg::float(0), Reg::float(1), Reg::float(2), Reg::float(3)]
}

/// Emits a kernel as a callable function and returns its entry label.
///
/// The label is bound inside; callers `asm.call(label)` it. Used by the
/// synthesizer and by kernel unit tests.
pub fn emit_function(kernel: &dyn Kernel, cx: &mut EmitCtx<'_>) -> Label {
    let entry = cx.asm.label();
    cx.asm.bind(entry);
    kernel.emit_body(cx);
    cx.asm.ret();
    entry
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::record::Coverage;
    use crate::tracer::Tracer;
    use nosq_isa::{Cond, InstClass, Program};
    use rand::SeedableRng;

    /// Measured communication signature of a traced kernel.
    #[derive(Debug, Default)]
    pub struct Measured {
        pub insts: u64,
        pub loads: u64,
        pub comm_loads: u64,
        pub partial_comm: u64,
        pub multi_source: u64,
        pub stores: u64,
    }

    /// Builds a driver that calls `kernel` `iters` times, traces it fully,
    /// and measures its in-window (128-instruction) communication.
    pub fn measure(kernel: &dyn Kernel, iters: i64, max_insts: u64) -> Measured {
        let prog = driver_program(kernel, iters);
        measure_program(&prog, max_insts)
    }

    pub fn driver_program(kernel: &dyn Kernel, iters: i64) -> Program {
        let mut asm = Assembler::new();
        let mut pool = RegPool::new();
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let counter = pool.alloc_int(1)[0];
        let mut persistent = pool.alloc_int(kernel.persistent_int());
        persistent.extend(pool.alloc_float(kernel.persistent_float()));

        let main = asm.label();
        asm.jump(main);
        let mut cx = EmitCtx {
            asm: &mut asm,
            persistent,
            scratch: scratch_regs(),
            fscratch: fscratch_regs(),
            base: 0x10_0000,
            rng: &mut rng,
        };
        let func = emit_function(kernel, &mut cx);
        let persistent = cx.persistent.clone();
        asm.bind(main);
        let mut cx = EmitCtx {
            asm: &mut asm,
            persistent,
            scratch: scratch_regs(),
            fscratch: fscratch_regs(),
            base: 0x10_0000,
            rng: &mut rng,
        };
        kernel.emit_init(&mut cx);
        asm.li(counter, iters);
        let top = asm.label();
        asm.bind(top);
        asm.call(func);
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Gt, counter, Reg::ZERO, top);
        asm.halt();
        asm.finish()
    }

    pub fn measure_program(prog: &Program, max_insts: u64) -> Measured {
        let mut m = Measured::default();
        for d in Tracer::new(prog, max_insts) {
            m.insts += 1;
            match d.class {
                InstClass::Load => {
                    m.loads += 1;
                    if let Some(dep) = d.mem_dep {
                        if dep.inst_distance < 128 {
                            m.comm_loads += 1;
                            if d.is_partial_word_comm(d.inst(prog.code())) {
                                m.partial_comm += 1;
                            }
                            if dep.coverage == Coverage::Partial {
                                m.multi_source += 1;
                            }
                        }
                    }
                }
                InstClass::Store => m.stores += 1,
                _ => {}
            }
        }
        m
    }
}
