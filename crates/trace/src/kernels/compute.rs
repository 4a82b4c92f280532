//! Compute and control-flow filler kernels.

use nosq_isa::{Cond, Extension, MemWidth};
use rand::Rng;

use super::{EmitCtx, Kernel, KernelStats};

/// Pure integer ALU work with a configurable dependence shape.
#[derive(Debug, Clone)]
pub struct AluKernel {
    /// Instructions per call.
    pub ops: usize,
    /// If true the ops form independent accumulations (high ILP); if
    /// false they form one serial chain (low ILP).
    pub parallel: bool,
}

impl Kernel for AluKernel {
    fn name(&self) -> String {
        format!("alu{}{}", self.ops, if self.parallel { "p" } else { "s" })
    }

    fn persistent_int(&self) -> usize {
        0
    }

    fn emit_init(&self, _cx: &mut EmitCtx<'_>) {}

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let [a, b, c, d, ..] = cx.scratch;
        if self.parallel {
            let accs = [a, b, c, d];
            for j in 0..self.ops {
                let r = accs[j % 4];
                cx.asm.addi(r, r, (j + 1) as i64);
            }
        } else {
            for j in 0..self.ops {
                cx.asm.addi(a, a, (j + 1) as i64);
            }
        }
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: self.ops as f64,
            loads: 0.0,
            comm_loads: 0.0,
            partial_comm: 0.0,
            stores: 0.0,
        }
    }
}

/// Data-driven conditional branches with controllable predictability.
///
/// Branch directions come from a pre-generated random bit array with
/// P(taken) = `taken_prob`; a bimodal predictor converges to the majority
/// direction, so the steady-state mis-prediction rate approaches
/// `min(p, 1-p)`.
#[derive(Debug, Clone)]
pub struct BranchyKernel {
    /// Probability that a branch is taken.
    pub taken_prob: f64,
    /// Number of backing 64-bit words.
    pub words: u64,
}

impl Kernel for BranchyKernel {
    fn name(&self) -> String {
        "branchy".to_owned()
    }

    fn persistent_int(&self) -> usize {
        2 // data base, bit index
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let data = cx.persistent[0];
        let idx = cx.persistent[1];
        let words: Vec<u64> = (0..self.words)
            .map(|_| {
                let mut w = 0u64;
                for b in 0..64 {
                    if cx.rng.gen_bool(self.taken_prob) {
                        w |= 1 << b;
                    }
                }
                w
            })
            .collect();
        cx.asm.data_u64s(cx.base, &words);
        cx.asm.li(data, cx.base as i64);
        cx.asm.li(idx, 0);
    }

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let data = cx.persistent[0];
        let idx = cx.persistent[1];
        let [t0, w, t2, acc, ..] = cx.scratch;
        let taken_l = cx.asm.label();
        let join = cx.asm.label();
        let no_wrap = cx.asm.label();

        // Fetch the word holding bit `idx`.
        cx.asm.shri(t0, idx, 6);
        cx.asm.shli(t0, t0, 3);
        cx.asm.add(t0, data, t0);
        cx.asm.load(w, t0, 0, MemWidth::B8, Extension::Zero);
        cx.asm.andi(t2, idx, 63);
        cx.asm.alu(nosq_isa::AluKind::Shr, w, w, t2);
        cx.asm.andi(w, w, 1);
        cx.asm.branch(Cond::Ne, w, nosq_isa::Reg::ZERO, taken_l);
        cx.asm.addi(acc, acc, 1);
        cx.asm.jump(join);
        cx.asm.bind(taken_l);
        cx.asm.addi(acc, acc, 2);
        cx.asm.bind(join);
        cx.asm.addi(idx, idx, 1);
        cx.asm.li(t0, (self.words * 64) as i64);
        cx.asm.branch(Cond::Lt, idx, t0, no_wrap);
        cx.asm.li(idx, 0);
        cx.asm.bind(no_wrap);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 14.0,
            loads: 1.0,
            comm_loads: 0.0,
            partial_comm: 0.0,
            stores: 0.0,
        }
    }
}

/// A single-precision stencil using `lds`/`sts`: reads a read-only f32
/// array, writes an output element, and immediately reloads it — 4-byte
/// float communication that exercises SMB's float-conversion transform
/// (paper §3.5).
#[derive(Debug, Clone)]
pub struct FpStencilKernel {
    /// Elements in the input/output arrays.
    pub elems: u64,
}

impl Kernel for FpStencilKernel {
    fn name(&self) -> String {
        format!("fpstencil{}", self.elems)
    }

    fn persistent_int(&self) -> usize {
        2 // base, byte index
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let base = cx.persistent[0];
        let idx = cx.persistent[1];
        // Input: f32 values packed two per u64 word.
        let n_words = self.elems / 2 + 1;
        let words: Vec<u64> = (0..n_words)
            .map(|i| {
                let lo = (1.0 + (2 * i) as f32 / 64.0).to_bits() as u64;
                let hi = (1.0 + (2 * i + 1) as f32 / 64.0).to_bits() as u64;
                lo | (hi << 32)
            })
            .collect();
        cx.asm.data_u64s(cx.base, &words);
        cx.asm.li(base, cx.base as i64);
        cx.asm.li(idx, 0);
    }

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let base = cx.persistent[0];
        let idx = cx.persistent[1];
        let [t0, t1, ..] = cx.scratch;
        let [f0, f1, f2, half] = cx.fscratch;
        cx.asm.li(half, 0.5f64.to_bits() as i64);
        let no_wrap = cx.asm.label();
        let out_ofs = (self.elems * 4 + 64) as i64;

        cx.asm.add(t0, base, idx);
        cx.asm.lds(f0, t0, 0);
        cx.asm.lds(f1, t0, 4);
        cx.asm.fadd(f2, f0, f1);
        cx.asm.fmul(f2, f2, half);
        // Write Z[i] and reload it: sts -> lds communication.
        cx.asm.addi(t1, t0, out_ofs as i32 as i64);
        cx.asm.sts(f2, t1, 0);
        cx.asm.lds(f0, t1, 0);
        cx.asm.fadd(f1, f1, f0);
        cx.asm.addi(idx, idx, 4);
        cx.asm.li(t0, (self.elems * 4 - 4) as i64);
        cx.asm.branch(Cond::Lt, idx, t0, no_wrap);
        cx.asm.li(idx, 0);
        cx.asm.bind(no_wrap);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 13.0,
            loads: 3.0,
            comm_loads: 1.0,
            partial_comm: 1.0,
            stores: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::measure;
    use super::*;

    #[test]
    fn alu_kernel_has_no_memory() {
        let m = measure(
            &AluKernel {
                ops: 10,
                parallel: true,
            },
            50,
            100_000,
        );
        assert_eq!(m.loads, 0);
        assert_eq!(m.stores, 0);
        assert_eq!(m.insts, 2 + 50 * 14 + 1); // jump+li, per-iter call/body/ret/addi/branch, halt
    }

    #[test]
    fn branchy_taken_rate_tracks_probability() {
        use super::super::testutil::driver_program;
        use crate::tracer::Tracer;
        let k = BranchyKernel {
            taken_prob: 0.8,
            words: 128,
        };
        let prog = driver_program(&k, 500);
        let (mut taken, mut total) = (0u64, 0u64);
        for d in Tracer::new(&prog, 1_000_000) {
            // Count only the data-driven diamond branch (Ne condition).
            if let nosq_isa::Inst::Branch { cond: Cond::Ne, .. } = d.inst(prog.code()) {
                total += 1;
                if d.taken {
                    taken += 1;
                }
            }
        }
        assert_eq!(total, 500);
        let rate = taken as f64 / total as f64;
        assert!((rate - 0.8).abs() < 0.08, "taken rate {rate}");
    }

    #[test]
    fn fp_stencil_reload_communicates_partially() {
        let m = measure(&FpStencilKernel { elems: 64 }, 60, 100_000);
        assert_eq!(m.loads, 180);
        assert_eq!(m.comm_loads, 60, "only the Z reload communicates");
        assert_eq!(m.partial_comm, 60, "4-byte float comm is partial-word");
        assert_eq!(m.multi_source, 0);
    }
}
