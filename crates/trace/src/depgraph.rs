//! The dependence oracle: an exact store→load dependence graph derived
//! from a recorded trace in one pass.
//!
//! The tracer already annotates each load with its *youngest* producing
//! store ([`MemDep`](crate::MemDep)); that is all the timing models
//! need. Auditing the pipeline needs more: the exact producer *set* per
//! byte, so a bypass from the wrong store, a mis-filtered re-execution
//! or a phantom squash can be pinned to a specific store SSN. This
//! module replays a dynamic instruction stream through the same paged
//! [`LastWriterMap`] the tracer uses (via
//! [`LastWriterMap::scan_bytes`]) and emits a [`DependenceGraph`]:
//!
//! * one [`LoadDep`] per committed load, carrying the producing store
//!   SSN of every byte read, the youngest producer, dependence
//!   distances, and the full/partial/multi-source classification;
//! * one [`StoreNode`] per committed store (SSN, PC, address, width);
//! * [store-set clusters](DependenceGraph::store_sets): static store
//!   PCs related by feeding the same loads, computed with a union-find
//!   over the producer sets (the static structure a store-set predictor
//!   would learn).
//!
//! The graph is the ground truth the audit observer (`nosq-audit`)
//! cross-checks the live pipeline against, and [Table 5
//! stats](crate::analyze::analyze_program) are now derived from it via
//! [`DependenceGraph::comm_stats`] instead of a second last-writer walk.

use nosq_isa::{Inst, InstClass, Program};

use crate::analyze::CommStats;
use crate::lastwriter::{ByteWriter, LastWriterMap};
use crate::record::{Coverage, DynInst};
use crate::tracer::{TraceBuffer, Tracer};

/// One committed store in the dynamic stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoreNode {
    /// Dynamic sequence number.
    pub seq: u64,
    /// 1-based store sequence number (`store_index + 1`).
    pub ssn: u64,
    /// Static PC.
    pub pc: u64,
    /// Effective address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
}

/// One committed load with its exact producer set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoadDep {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static PC.
    pub pc: u64,
    /// Effective address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// Architectural value the load must produce.
    pub value: u64,
    /// Stores renamed before this load (so `SSNrename` at the load).
    pub stores_before: u64,
    /// Producing store SSN per byte read, in address order; 0 means the
    /// byte comes from initial memory. Slots past `width` are 0.
    pub byte_ssns: [u64; 8],
    /// SSN of the youngest producing store over all bytes (0 if none).
    pub youngest_ssn: u64,
    /// Distance in dynamic stores to the youngest producer
    /// (`stores_before - youngest_ssn`); meaningful when communicating.
    pub store_distance: u64,
    /// Distance in dynamic instructions to the youngest producer;
    /// meaningful when communicating.
    pub inst_distance: u64,
    /// Whether the youngest producer covers every byte read.
    pub coverage: Coverage,
    /// Whether either side of the communication is sub-8-byte.
    pub partial_word: bool,
    /// `load.addr - youngest_store.addr` (the SMB shift amount);
    /// meaningful for [`Coverage::Full`].
    pub shift: u8,
}

impl LoadDep {
    /// Whether any read byte was produced by a traced store.
    pub fn communicates(&self) -> bool {
        self.youngest_ssn != 0
    }

    /// Whether the load communicates within a `window`-instruction
    /// window (the criterion Table 5 and the pipeline's `comm_loads`
    /// counter use).
    pub fn in_window(&self, window: u64) -> bool {
        self.communicates() && self.inst_distance < window
    }

    /// The distinct producing store SSNs, ascending (empty when the
    /// load reads only initial memory).
    pub fn producers(&self) -> Vec<u64> {
        let mut ssns: Vec<u64> = self.byte_ssns.iter().copied().filter(|&s| s != 0).collect();
        ssns.sort_unstable();
        ssns.dedup();
        ssns
    }
}

/// A cluster of static store PCs related by feeding the same loads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSet {
    /// Member store PCs, ascending.
    pub store_pcs: Vec<u64>,
    /// Load PCs consuming from the cluster, ascending.
    pub load_pcs: Vec<u64>,
}

/// The exact store→load dependence graph of one dynamic stream. See the
/// module docs.
#[derive(Clone, Debug, Default)]
pub struct DependenceGraph {
    insts: u64,
    loads: Vec<LoadDep>,
    stores: Vec<StoreNode>,
    store_sets: Vec<StoreSet>,
}

impl DependenceGraph {
    /// Builds the graph from a trace recorded from `program`.
    pub fn from_trace(program: &Program, trace: &TraceBuffer) -> DependenceGraph {
        DependenceGraph::from_insts(program, trace.insts())
    }

    /// Builds the graph by tracing `program` live (one functional pass).
    pub fn from_program(program: &Program, max_insts: u64) -> DependenceGraph {
        let code = program.code();
        let mut b = DepGraphBuilder::new();
        for d in Tracer::new(program, max_insts) {
            b.push(d.inst(code), &d);
        }
        b.finish()
    }

    /// Builds the graph from a dynamic instruction stream of `program`,
    /// starting at its first instruction.
    pub fn from_insts(program: &Program, insts: &[DynInst]) -> DependenceGraph {
        let code = program.code();
        let mut b = DepGraphBuilder::new();
        for d in insts {
            b.push(d.inst(code), d);
        }
        b.finish()
    }

    /// Dynamic instructions analyzed.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Every committed load, in program order.
    pub fn loads(&self) -> &[LoadDep] {
        &self.loads
    }

    /// Every committed store, in program order (index = SSN − 1).
    pub fn stores(&self) -> &[StoreNode] {
        &self.stores
    }

    /// The store-set clusters, ordered by smallest member PC.
    pub fn store_sets(&self) -> &[StoreSet] {
        &self.store_sets
    }

    /// Looks up a load by dynamic sequence number.
    pub fn load_by_seq(&self, seq: u64) -> Option<&LoadDep> {
        self.loads
            .binary_search_by_key(&seq, |l| l.seq)
            .ok()
            .map(|i| &self.loads[i])
    }

    /// Looks up a store by its 1-based SSN.
    pub fn store_by_ssn(&self, ssn: u64) -> Option<&StoreNode> {
        if ssn == 0 {
            return None;
        }
        self.stores.get(ssn as usize - 1)
    }

    /// Derives the Table 5 communication signature for a
    /// `window`-instruction window. Byte-identical to the pre-oracle
    /// streaming measurement (`analyze_program` regression-tests this).
    pub fn comm_stats(&self, window: u64) -> CommStats {
        let mut stats = CommStats {
            insts: self.insts,
            loads: self.loads.len() as u64,
            stores: self.stores.len() as u64,
            window,
            ..CommStats::default()
        };
        for l in &self.loads {
            if l.in_window(window) {
                stats.comm_loads += 1;
                if l.partial_word {
                    stats.partial_comm += 1;
                }
                if l.coverage == Coverage::Partial {
                    stats.multi_source += 1;
                }
            }
        }
        stats
    }
}

/// Incremental [`DependenceGraph`] construction over a dynamic
/// instruction stream (e.g. straight off a [`Tracer`]).
pub struct DepGraphBuilder {
    map: LastWriterMap,
    insts: u64,
    loads: Vec<LoadDep>,
    stores: Vec<StoreNode>,
    scratch: [Option<ByteWriter>; 8],
}

impl Default for DepGraphBuilder {
    fn default() -> DepGraphBuilder {
        DepGraphBuilder::new()
    }
}

impl DepGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> DepGraphBuilder {
        DepGraphBuilder {
            map: LastWriterMap::new(),
            insts: 0,
            loads: Vec::new(),
            stores: Vec::new(),
            scratch: [None; 8],
        }
    }

    /// Feeds the next dynamic instruction, in program order, with its
    /// static instruction `inst`. The builder numbers pushes from 0;
    /// that count is the instruction's sequence number in the graph.
    pub fn push(&mut self, inst: &Inst, d: &DynInst) {
        let seq = self.insts;
        self.insts += 1;
        match d.class {
            InstClass::Store => {
                let width = inst.mem_width().expect("store has width").bytes();
                let float32 = matches!(inst, Inst::Store { float32: true, .. });
                self.stores.push(StoreNode {
                    seq,
                    ssn: d.stores_before + 1,
                    pc: d.pc,
                    addr: d.addr,
                    width: width as u8,
                });
                self.map.record_store(
                    d.addr,
                    width,
                    ByteWriter {
                        store_seq: seq,
                        store_index: d.stores_before,
                        store_addr: d.addr,
                        store_width: width as u8,
                        store_float32: float32,
                    },
                );
            }
            InstClass::Load => {
                let width = inst.mem_width().expect("load has width").bytes();
                self.map.scan_bytes(d.addr, width, &mut self.scratch);
                let mut byte_ssns = [0u64; 8];
                let mut youngest: Option<ByteWriter> = None;
                let mut all_same = true;
                let mut any_missing = false;
                for (i, w) in self.scratch.iter().take(width as usize).enumerate() {
                    match w {
                        Some(w) => {
                            byte_ssns[i] = w.store_index + 1;
                            match youngest {
                                None => youngest = Some(*w),
                                Some(y) if w.store_seq != y.store_seq => {
                                    all_same = false;
                                    if w.store_seq > y.store_seq {
                                        youngest = Some(*w);
                                    }
                                }
                                Some(_) => {}
                            }
                        }
                        None => any_missing = true,
                    }
                }
                let (youngest_ssn, store_distance, inst_distance, shift, partial_word) =
                    match youngest {
                        Some(y) => (
                            y.store_index + 1,
                            d.stores_before - (y.store_index + 1),
                            seq - y.store_seq,
                            d.addr.wrapping_sub(y.store_addr) as u8,
                            y.store_width < 8 || width < 8,
                        ),
                        None => (0, 0, 0, 0, false),
                    };
                let coverage = if all_same && !any_missing {
                    Coverage::Full
                } else {
                    Coverage::Partial
                };
                // The tracer's summarizing scan and the per-byte oracle
                // pass must agree on the youngest producer.
                if let Some(dep) = d.mem_dep {
                    debug_assert_eq!(dep.store_distance, crate::MemDep::saturate(store_distance));
                    debug_assert_eq!(dep.inst_distance, crate::MemDep::saturate(inst_distance));
                    debug_assert_eq!(dep.shift, shift);
                }
                self.loads.push(LoadDep {
                    seq,
                    pc: d.pc,
                    addr: d.addr,
                    width: width as u8,
                    value: d.load_value(),
                    stores_before: d.stores_before,
                    byte_ssns,
                    youngest_ssn,
                    store_distance,
                    inst_distance,
                    coverage,
                    partial_word,
                    shift,
                });
            }
            _ => {}
        }
    }

    /// Finishes the pass: clusters store sets and returns the graph.
    pub fn finish(self) -> DependenceGraph {
        let store_sets = cluster_store_sets(&self.loads, &self.stores);
        DependenceGraph {
            insts: self.insts,
            loads: self.loads,
            stores: self.stores,
            store_sets,
        }
    }
}

/// Union-find clustering of static store PCs: two store PCs land in one
/// cluster when some load (or two dynamic instances of one static load)
/// consumes bytes from both. Deterministic: PCs are processed in sorted
/// order and clusters are emitted sorted by smallest member.
fn cluster_store_sets(loads: &[LoadDep], stores: &[StoreNode]) -> Vec<StoreSet> {
    // Distinct producing-store PCs, sorted; indices into this vector are
    // the union-find element ids.
    let mut pcs: Vec<u64> = Vec::new();
    for l in loads {
        for &ssn in &l.byte_ssns {
            if ssn != 0 {
                pcs.push(stores[ssn as usize - 1].pc);
            }
        }
    }
    pcs.sort_unstable();
    pcs.dedup();
    let pc_id = |pc: u64| pcs.binary_search(&pc).expect("producer pc indexed");

    let mut parent: Vec<usize> = (0..pcs.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        // Smaller root wins so representatives are stable.
        if ra < rb {
            parent[rb] = ra;
        } else {
            parent[ra] = rb;
        }
    }

    // Producers of one dynamic load belong together; dynamic instances
    // of one static load link their producers through `load_anchor`.
    let mut load_anchor: Vec<(u64, usize)> = Vec::new(); // (load pc, element)
    let mut load_members: Vec<(u64, u64)> = Vec::new(); // (store pc elem root later, load pc) collected after unions
    for l in loads {
        let producers = l.producers();
        if producers.is_empty() {
            continue;
        }
        let first = pc_id(stores[producers[0] as usize - 1].pc);
        for &ssn in &producers[1..] {
            union(&mut parent, first, pc_id(stores[ssn as usize - 1].pc));
        }
        match load_anchor.binary_search_by_key(&l.pc, |&(pc, _)| pc) {
            Ok(i) => union(&mut parent, load_anchor[i].1, first),
            Err(i) => load_anchor.insert(i, (l.pc, first)),
        }
        load_members.push((pcs[first], l.pc));
    }

    // Emit clusters keyed by root, sorted by smallest member PC (which
    // is the root's PC, since smaller ids win unions and pcs is sorted).
    let mut sets: Vec<StoreSet> = Vec::new();
    let mut root_of: Vec<usize> = Vec::with_capacity(pcs.len());
    for i in 0..pcs.len() {
        root_of.push(find(&mut parent, i));
    }
    let mut roots: Vec<usize> = root_of.clone();
    roots.sort_unstable();
    roots.dedup();
    for &r in &roots {
        let store_pcs: Vec<u64> = (0..pcs.len())
            .filter(|&i| root_of[i] == r)
            .map(|i| pcs[i])
            .collect();
        let mut load_pcs: Vec<u64> = load_members
            .iter()
            .filter(|&&(anchor_pc, _)| root_of[pc_id(anchor_pc)] == r)
            .map(|&(_, load_pc)| load_pc)
            .collect();
        load_pcs.sort_unstable();
        load_pcs.dedup();
        sets.push(StoreSet {
            store_pcs,
            load_pcs,
        });
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_isa::{Assembler, Extension, MemWidth, Reg};

    fn graph(asm: Assembler, max: u64) -> DependenceGraph {
        let prog = asm.finish();
        DependenceGraph::from_program(&prog, max)
    }

    #[test]
    fn per_byte_producers_are_exact() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x1122_3344_5566_7788);
        asm.store(v, b, 0, MemWidth::B8); // SSN 1
        asm.store(v, b, 2, MemWidth::B2); // SSN 2 overwrites bytes 2..4
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let g = graph(asm, 100);
        assert_eq!(g.loads().len(), 1);
        let l = &g.loads()[0];
        assert_eq!(l.byte_ssns, [1, 1, 2, 2, 1, 1, 1, 1]);
        assert_eq!(l.youngest_ssn, 2);
        assert_eq!(l.producers(), vec![1, 2]);
        assert_eq!(l.coverage, Coverage::Partial);
        assert_eq!(g.store_by_ssn(2).unwrap().width, 2);
        assert_eq!(g.load_by_seq(l.seq).unwrap(), l);
    }

    #[test]
    fn uncommunicating_load_has_empty_producer_set() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.data_u64s(0x1000, &[42]);
        asm.li(b, 0x1000);
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let g = graph(asm, 100);
        let l = &g.loads()[0];
        assert!(!l.communicates());
        assert!(l.producers().is_empty());
        assert_eq!(l.value, 42);
        assert!(g.store_sets().is_empty());
    }

    #[test]
    fn store_sets_cluster_through_shared_loads() {
        // Two stores at distinct PCs feed one load (multi-source): one
        // cluster. A third, unrelated store/load pair forms another.
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x7f);
        asm.store(v, b, 0, MemWidth::B1);
        asm.store(v, b, 1, MemWidth::B1);
        asm.load(v, b, 0, MemWidth::B2, Extension::Zero);
        asm.store(v, b, 0x40, MemWidth::B8);
        asm.load(v, b, 0x40, MemWidth::B8, Extension::Zero);
        asm.halt();
        let g = graph(asm, 100);
        assert_eq!(g.store_sets().len(), 2);
        assert_eq!(g.store_sets()[0].store_pcs.len(), 2);
        assert_eq!(g.store_sets()[0].load_pcs.len(), 1);
        assert_eq!(g.store_sets()[1].store_pcs.len(), 1);
    }

    #[test]
    fn graph_matches_tracer_annotations_on_synthetic_workload() {
        use crate::profiles::Profile;
        use crate::synth::synthesize;
        let profile = Profile::by_name("gzip").unwrap();
        let prog = synthesize(profile, 42);
        let trace = TraceBuffer::record(&prog, 20_000);
        let g = DependenceGraph::from_trace(&prog, &trace);
        assert_eq!(g.insts(), trace.len() as u64);
        let mut li = 0usize;
        for (seq, d) in trace.insts().iter().enumerate() {
            if d.class != InstClass::Load {
                continue;
            }
            let l = &g.loads()[li];
            li += 1;
            assert_eq!(l.seq, seq as u64);
            match d.mem_dep {
                Some(dep) => {
                    assert_eq!(l.youngest_ssn, d.dep_ssn().unwrap());
                    assert_eq!(l.store_distance, u64::from(dep.store_distance));
                    assert_eq!(l.inst_distance, u64::from(dep.inst_distance));
                    assert_eq!(l.coverage, dep.coverage);
                    assert_eq!(l.partial_word, d.is_partial_word_comm(d.inst(prog.code())));
                }
                None => assert!(!l.communicates()),
            }
        }
        assert_eq!(li, g.loads().len());
        assert!(!g.store_sets().is_empty());
    }
}
