//! Path-dependent communication kernels (paper §3.3).

use nosq_isa::{Cond, Extension, MemWidth, Reg};
use rand::Rng;

use super::{EmitCtx, Kernel, KernelStats};

/// A load whose bypassing distance is decided by a branch taken `noise`
/// conditional branches earlier.
///
/// One path stores the loaded slot first and a dummy second (distance 1);
/// the other stores them in the opposite order (distance 0). The two
/// paths store *different values*, so a wrong-distance bypass yields a
/// wrong value and a real squash (no value-coincidence forgiveness).
///
/// With `noise + 1` direction bits inside the predictor's path history the
/// pattern is perfectly learnable; with `noise` larger than the history
/// length the determining branch falls outside the window and the load
/// mis-predicts roughly half the time — exactly the "differentiating
/// signature longer than the predictor's history" pathology the paper's
/// delay mechanism targets.
#[derive(Debug, Clone)]
pub struct PathDepKernel {
    /// Number of noise branches between the determining branch and the load.
    pub noise: usize,
    /// Number of random 64-bit words backing the branch decisions.
    pub words: u64,
    /// Probability that the determining bit is 1. With an unlearnable
    /// `noise` this sets the mis-prediction rate of the load: ~0.5 for a
    /// fair bit ("hard"), ~`1 - bias` for a biased one ("flaky" — the
    /// loads the paper's delay mechanism suppresses at low cost).
    pub bias: f64,
}

impl PathDepKernel {
    /// A variant learnable by the default 8-bit-history predictor but
    /// not by a 4-bit one: its differentiating signature (determining
    /// branch + noise) spans six direction bits — the Figure-5 history
    /// sensitivity case.
    pub fn easy() -> PathDepKernel {
        PathDepKernel {
            noise: 5,
            words: 512,
            bias: 0.5,
        }
    }

    /// A variant whose signature exceeds the default history length:
    /// mis-predicts about half its occurrences.
    pub fn hard() -> PathDepKernel {
        PathDepKernel {
            noise: 14,
            words: 512,
            bias: 0.5,
        }
    }

    /// Unlearnable but heavily biased: mis-predicts a few percent of
    /// occurrences, so the confidence mechanism converts it to a delayed
    /// load (the dominant component of the paper's delayed-load mass).
    pub fn flaky() -> PathDepKernel {
        PathDepKernel::flaky_with_rate(0.04)
    }

    /// A flaky variant with an explicit per-occurrence distance-flip rate
    /// `r`: without delay it mis-predicts ≈ 2·r of its occurrences (each
    /// flip costs two mis-predictions — the flip and the flip back).
    pub fn flaky_with_rate(r: f64) -> PathDepKernel {
        PathDepKernel {
            noise: 14,
            words: 512,
            bias: (1.0 - r).clamp(0.5, 1.0),
        }
    }
}

impl Kernel for PathDepKernel {
    fn name(&self) -> String {
        format!("pathdep{}b{}", self.noise, (self.bias * 100.0) as u32)
    }

    fn persistent_int(&self) -> usize {
        2 // data base, word index (slots live below the data base)
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let data = cx.persistent[0];
        let idx = cx.persistent[1];
        let words: Vec<u64> = (0..self.words)
            .map(|_| {
                let mut w: u64 = cx.rng.gen();
                // Bias the determining bit (bit 0).
                if cx.rng.gen_bool(self.bias) {
                    w |= 1;
                } else {
                    w &= !1;
                }
                // Noise bits are deterministic (always taken): they exist
                // to push the determining bit outside the predictor's
                // history window, not to add entropy — and constant bits
                // keep the load's folded history (and hence its single
                // confidence counter) stable, as in real loop bodies.
                for j in 1..=self.noise as u32 {
                    w |= 1 << j;
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
        // The two slots live just below the data array.
        let (slot_x, slot_d) = (-16i64, -8i64);
        let [t0, w, t2, addr_a, addr_b, acc] = cx.scratch;
        let else_l = cx.asm.label();
        let join = cx.asm.label();
        let no_wrap = cx.asm.label();

        // w = random word for this iteration (read-only, never communicates).
        cx.asm.shli(t0, idx, 3);
        cx.asm.add(t0, data, t0);
        cx.asm.load(w, t0, 0, MemWidth::B8, Extension::Zero);

        // The determining branch selects the *order* of the two upcoming
        // stores by computing their target addresses; the stores
        // themselves sit right next to the load, so the communication is
        // still in flight when the load renames.
        cx.asm.andi(t2, w, 1);
        cx.asm.branch(Cond::Eq, t2, Reg::ZERO, else_l);
        cx.asm.addi(addr_a, data, slot_x); // X stored first: distance 1
        cx.asm.addi(addr_b, data, slot_d);
        cx.asm.jump(join);
        cx.asm.bind(else_l);
        cx.asm.addi(addr_a, data, slot_d);
        cx.asm.addi(addr_b, data, slot_x); // X stored second: distance 0
        cx.asm.bind(join);

        // Noise diamonds on higher bits of the same word, *between* the
        // determining branch and the load: with `noise` exceeding the
        // predictor's history length, the determining direction falls
        // outside the folded history at the load.
        for j in 1..=self.noise {
            let skip = cx.asm.label();
            cx.asm.shri(t2, w, j as i64);
            cx.asm.andi(t2, t2, 1);
            cx.asm.branch(Cond::Eq, t2, Reg::ZERO, skip);
            cx.asm.addi(acc, acc, 1);
            cx.asm.bind(skip);
        }

        // The two stores carry different values (w vs w+1), so a
        // wrong-distance bypass is a real value mismatch.
        cx.asm.store(w, addr_a, 0, MemWidth::B8);
        cx.asm.addi(t2, w, 1);
        cx.asm.store(t2, addr_b, 0, MemWidth::B8);

        // The path-dependent load, adjacent to its producing stores.
        cx.asm
            .load(t0, data, slot_x as i32, MemWidth::B8, Extension::Zero);
        cx.asm.add(acc, acc, t0);

        // Advance the word index with wrap.
        cx.asm.addi(idx, idx, 1);
        cx.asm.li(t0, self.words as i64);
        cx.asm.branch(Cond::Lt, idx, t0, no_wrap);
        cx.asm.li(idx, 0);
        cx.asm.bind(no_wrap);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 16.0 + 3.0 * self.noise as f64,
            loads: 2.0,      // the data word + the path-dependent load
            comm_loads: 1.0, // only the path-dependent load
            partial_comm: 0.0,
            stores: 2.0,
        }
    }
}

/// A shared function whose load's bypassing distance depends on the call
/// site: site A stores the slot and calls; site B stores the slot plus a
/// dummy and calls. The call-PC bits in the path history distinguish the
/// two (paper §3.3's context-sensitive patterns).
#[derive(Debug, Clone, Default)]
pub struct CallSiteKernel;

impl Kernel for CallSiteKernel {
    fn name(&self) -> String {
        "callsite".to_owned()
    }

    fn persistent_int(&self) -> usize {
        1 // parity counter
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let parity = cx.persistent[0];
        cx.asm.li(parity, 0);
    }

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let parity = cx.persistent[0];
        let [t0, val, acc, slots, _, inner_link] = cx.scratch;
        cx.asm.li(slots, cx.base as i64);

        // The callee: loads the slot. Emitted inline-skipped via jump.
        let callee = cx.asm.label();
        let after_callee = cx.asm.label();
        let site_b = cx.asm.label();
        let done = cx.asm.label();

        cx.asm.jump(after_callee);
        cx.asm.bind(callee);
        cx.asm.load(t0, slots, 0, MemWidth::B8, Extension::Zero);
        cx.asm.add(acc, acc, t0);
        cx.asm.ret_reg(inner_link);
        cx.asm.bind(after_callee);

        cx.asm.addi(parity, parity, 1);
        cx.asm.andi(t0, parity, 1);
        cx.asm.branch(Cond::Eq, t0, Reg::ZERO, site_b);
        // Site A: distance 0.
        cx.asm.addi(val, parity, 100);
        cx.asm.store(val, slots, 0, MemWidth::B8);
        cx.asm.call_linked(callee, inner_link);
        cx.asm.jump(done);
        // Site B: distance 1.
        cx.asm.bind(site_b);
        cx.asm.addi(val, parity, 200);
        cx.asm.store(val, slots, 0, MemWidth::B8);
        cx.asm.store(val, slots, 8, MemWidth::B8);
        cx.asm.call_linked(callee, inner_link);
        cx.asm.bind(done);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 11.0,
            loads: 1.0,
            comm_loads: 1.0,
            partial_comm: 0.0,
            stores: 1.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{driver_program, measure};
    use super::*;
    use crate::tracer::Tracer;
    use nosq_isa::InstClass;

    #[test]
    fn pathdep_distances_follow_the_determining_bit() {
        let k = PathDepKernel {
            noise: 2,
            words: 64,
            bias: 0.5,
        };
        let prog = driver_program(&k, 100);
        let mut dist_counts = [0u64; 3];
        for d in Tracer::new(&prog, 200_000) {
            if d.class == InstClass::Load {
                if let Some(dep) = d.mem_dep {
                    if dep.store_distance < 2 {
                        dist_counts[dep.store_distance as usize] += 1;
                    } else {
                        dist_counts[2] += 1;
                    }
                }
            }
        }
        // Both distances occur; nothing beyond distance 1.
        assert!(dist_counts[0] > 10, "distance-0 loads: {dist_counts:?}");
        assert!(dist_counts[1] > 10, "distance-1 loads: {dist_counts:?}");
        assert_eq!(dist_counts[2], 0, "unexpected distances: {dist_counts:?}");
    }

    #[test]
    fn pathdep_loads_split_comm_noncomm() {
        let k = PathDepKernel::easy();
        let m = measure(&k, 50, 100_000);
        assert_eq!(m.loads, 100);
        assert_eq!(m.comm_loads, 50);
        assert_eq!(m.multi_source, 0);
    }

    #[test]
    fn callsite_alternates_distances() {
        let k = CallSiteKernel;
        let prog = driver_program(&k, 40);
        let mut seen = std::collections::HashSet::new();
        for d in Tracer::new(&prog, 100_000) {
            if d.class == InstClass::Load {
                if let Some(dep) = d.mem_dep {
                    seen.insert(dep.store_distance);
                }
            }
        }
        assert_eq!(seen, [0u32, 1u32].into_iter().collect());
    }
}
