//! Non-communicating memory kernels with controllable cache behaviour.

use nosq_isa::{Cond, Extension, MemWidth};
use rand::Rng;

use super::{EmitCtx, Kernel, KernelStats};

/// Streams reads over a read-only array. Loads never communicate with
/// stores; the footprint controls whether they hit in L1, L2, or memory.
#[derive(Debug, Clone)]
pub struct StreamKernel {
    /// Array size in 8-byte elements.
    pub elems: u64,
    /// Stride between consecutive reads, in elements.
    pub stride: u64,
}

impl Kernel for StreamKernel {
    fn name(&self) -> String {
        format!("stream{}", self.elems)
    }

    fn persistent_int(&self) -> usize {
        2 // base, index
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let base = cx.persistent[0];
        let idx = cx.persistent[1];
        // Touch only a few pages of data; untouched bytes read as zero,
        // which is fine for a sum.
        let seed: Vec<u64> = (0..self.elems.min(512)).map(|i| i * 7 + 1).collect();
        cx.asm.data_u64s(cx.base, &seed);
        cx.asm.li(base, cx.base as i64);
        cx.asm.li(idx, 0);
    }

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let base = cx.persistent[0];
        let idx = cx.persistent[1];
        let [t0, t1, acc, ..] = cx.scratch;
        let no_wrap = cx.asm.label();
        cx.asm.add(t0, base, idx);
        cx.asm.load(t1, t0, 0, MemWidth::B8, Extension::Zero);
        cx.asm.add(acc, acc, t1);
        cx.asm.addi(idx, idx, (self.stride * 8) as i64);
        cx.asm.li(t0, (self.elems * 8) as i64);
        cx.asm.branch(Cond::Lt, idx, t0, no_wrap);
        cx.asm.li(idx, 0);
        cx.asm.bind(no_wrap);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 7.0,
            loads: 1.0,
            comm_loads: 0.0,
            partial_comm: 0.0,
            stores: 0.0,
        }
    }
}

/// Walks a randomized ring of pointers: a serialized load-to-load
/// dependence chain. With a footprint beyond L2 this is memory-latency
/// bound (the `mcf`/`art` personality); loads never communicate.
#[derive(Debug, Clone)]
pub struct PointerChaseKernel {
    /// Number of 8-byte nodes in the ring.
    pub nodes: u64,
}

impl Kernel for PointerChaseKernel {
    fn name(&self) -> String {
        format!("chase{}", self.nodes)
    }

    fn persistent_int(&self) -> usize {
        1 // current pointer
    }

    fn emit_init(&self, cx: &mut EmitCtx<'_>) {
        let cur = cx.persistent[0];
        // Random Hamiltonian cycle over the nodes.
        let n = self.nodes as usize;
        let mut order: Vec<u64> = (0..self.nodes).collect();
        for i in (1..n).rev() {
            let j = cx.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut next = vec![0u64; n];
        for i in 0..n {
            let from = order[i] as usize;
            let to = order[(i + 1) % n];
            next[from] = cx.base + to * 8;
        }
        cx.asm.data_u64s(cx.base, &next);
        cx.asm.li(cur, (cx.base + order[0] * 8) as i64);
    }

    fn emit_body(&self, cx: &mut EmitCtx<'_>) {
        let cur = cx.persistent[0];
        // Two hops per call amortize call overhead a little.
        cx.asm.load(cur, cur, 0, MemWidth::B8, Extension::Zero);
        cx.asm.load(cur, cur, 0, MemWidth::B8, Extension::Zero);
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            insts: 2.0,
            loads: 2.0,
            comm_loads: 0.0,
            partial_comm: 0.0,
            stores: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::measure;
    use super::*;

    #[test]
    fn stream_never_communicates() {
        let m = measure(
            &StreamKernel {
                elems: 256,
                stride: 1,
            },
            100,
            100_000,
        );
        assert_eq!(m.loads, 100);
        assert_eq!(m.comm_loads, 0);
        assert_eq!(m.stores, 0);
    }

    #[test]
    fn chase_visits_every_node() {
        let m = measure(&PointerChaseKernel { nodes: 64 }, 40, 100_000);
        assert_eq!(m.loads, 80);
        assert_eq!(m.comm_loads, 0);
    }

    #[test]
    fn chase_ring_is_a_single_cycle() {
        // Follow the generated next-pointers directly.
        use crate::tracer::Tracer;
        use nosq_isa::InstClass;
        let k = PointerChaseKernel { nodes: 16 };
        let prog = super::super::testutil::driver_program(&k, 16);
        let mut seen = std::collections::HashSet::new();
        for d in Tracer::new(&prog, 100_000) {
            if d.class == InstClass::Load {
                seen.insert(d.addr);
            }
        }
        assert_eq!(seen.len(), 16, "walk must cover the whole ring");
    }
}
