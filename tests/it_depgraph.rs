//! Property suite for the dependence-oracle graph: the one-pass
//! [`DepGraphBuilder`] must agree *exactly* with a naive per-byte
//! `BTreeMap` model on every load's producer set, youngest-store
//! identity, distances, coverage, and shift — no matter how stores
//! overlap, straddle pages, or scatter across the address space. The
//! graph is the ground truth `nosq-audit` proves the pipeline against,
//! so any divergence here would turn the auditor's "proofs" into noise.

use std::collections::BTreeMap;

use proptest::prelude::*;

use nosq_isa::{Extension, Inst, InstClass, MemWidth, Reg};
use nosq_trace::{Coverage, DepGraphBuilder, DynInst};

/// The reference oracle: one `(ssn, seq, addr, width)` entry per byte
/// address, updated store by store.
#[derive(Default)]
struct NaiveOracle {
    bytes: BTreeMap<u64, (u64, u64, u64, u8)>,
}

/// What the naive model expects for one load.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    byte_ssns: [u64; 8],
    youngest_ssn: u64,
    store_distance: u64,
    inst_distance: u64,
    coverage: Coverage,
    partial_word: bool,
    shift: u8,
}

impl NaiveOracle {
    fn record_store(&mut self, ssn: u64, seq: u64, addr: u64, width: u64) {
        for i in 0..width {
            self.bytes
                .insert(addr.wrapping_add(i), (ssn, seq, addr, width as u8));
        }
    }

    fn scan(&self, seq: u64, stores_before: u64, addr: u64, width: u64) -> Expected {
        let mut byte_ssns = [0u64; 8];
        let mut youngest: Option<(u64, u64, u64, u8)> = None;
        let mut all_same = true;
        let mut any_missing = false;
        for i in 0..width {
            match self.bytes.get(&addr.wrapping_add(i)) {
                Some(&w) => {
                    byte_ssns[i as usize] = w.0;
                    match youngest {
                        None => youngest = Some(w),
                        Some(y) if w.0 != y.0 => {
                            all_same = false;
                            if w.0 > y.0 {
                                youngest = Some(w);
                            }
                        }
                        Some(_) => {}
                    }
                }
                None => any_missing = true,
            }
        }
        let (youngest_ssn, store_distance, inst_distance, shift, partial_word) = match youngest {
            Some((ssn, sseq, saddr, swidth)) => (
                ssn,
                stores_before - ssn,
                seq - sseq,
                addr.wrapping_sub(saddr) as u8,
                swidth < 8 || width < 8,
            ),
            None => (0, 0, 0, 0, false),
        };
        Expected {
            byte_ssns,
            youngest_ssn,
            store_distance,
            inst_distance,
            coverage: if all_same && !any_missing {
                Coverage::Full
            } else {
                Coverage::Partial
            },
            partial_word,
            shift,
        }
    }
}

#[derive(Clone, Debug)]
struct Op {
    store: bool,
    addr: u64,
    width: u64,
}

/// Same address-space stress shape as `it_lastwriter`: dense overlap,
/// both page-boundary straddles, sparse pages, and the wrap-around end
/// of the address space.
fn addr_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..64).prop_map(|o| 0x1000 + o),
        (0u64..16).prop_map(|o| 0x13f8 + o),
        (0u64..16).prop_map(|o| 0x1ff8 + o),
        (0u64..64).prop_map(|o| 0x9_0000 + o * 0x400),
        (0u64..8).prop_map(|o| u64::MAX - 7 + o),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        addr_strategy(),
        prop_oneof![Just(1u64), Just(2u64), Just(4u64), Just(8u64)],
    )
        .prop_map(|(store, addr, width)| Op { store, addr, width })
}

fn mem_width(bytes: u64) -> MemWidth {
    match bytes {
        1 => MemWidth::B1,
        2 => MemWidth::B2,
        4 => MemWidth::B4,
        _ => MemWidth::B8,
    }
}

/// A synthetic committed-stream instruction and its static
/// instruction; `mem_dep` is left `None` (the builder computes its own
/// dependences — that is the point).
fn dyn_inst(seq: u64, stores_before: u64, op: &Op) -> (Inst, DynInst) {
    let inst = if op.store {
        Inst::Store {
            data: Reg::int(1),
            base: Reg::int(2),
            ofs: 0,
            width: mem_width(op.width),
            float32: false,
        }
    } else {
        Inst::Load {
            rd: Reg::int(1),
            base: Reg::int(2),
            ofs: 0,
            width: mem_width(op.width),
            ext: Extension::Zero,
        }
    };
    let d = DynInst {
        // Small static PC alphabet so store-set clustering has
        // something to merge.
        pc: 0x400 + (seq % 7) * 4,
        addr: op.addr,
        value: seq ^ 0xa5a5,
        stores_before,
        mem_dep: None,
        taken: false,
        class: if op.store {
            InstClass::Store
        } else {
            InstClass::Load
        },
    };
    (inst, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass graph equals the naive per-byte model on every load.
    #[test]
    fn graph_matches_naive_per_byte_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut builder = DepGraphBuilder::new();
        let mut naive = NaiveOracle::default();
        let mut expected = Vec::new();
        let mut stores = 0u64;
        for (seq, op) in ops.iter().enumerate() {
            let (inst, d) = dyn_inst(seq as u64, stores, op);
            builder.push(&inst, &d);
            if op.store {
                stores += 1;
                naive.record_store(stores, seq as u64, op.addr, op.width);
            } else {
                expected.push((seq as u64, naive.scan(seq as u64, stores, op.addr, op.width)));
            }
        }
        let graph = builder.finish();
        prop_assert_eq!(graph.insts(), ops.len() as u64);
        prop_assert_eq!(graph.stores().len() as u64, stores);
        prop_assert_eq!(graph.loads().len(), expected.len());
        for (load, (seq, want)) in graph.loads().iter().zip(&expected) {
            prop_assert_eq!(load.seq, *seq);
            let got = Expected {
                byte_ssns: load.byte_ssns,
                youngest_ssn: load.youngest_ssn,
                store_distance: load.store_distance,
                inst_distance: load.inst_distance,
                coverage: load.coverage,
                partial_word: load.partial_word,
                shift: load.shift,
            };
            prop_assert_eq!(&got, want, "load seq {} diverged", seq);
            // The public producer view is the distinct nonzero per-byte
            // SSNs, and communication means "any produced byte".
            let mut ssns: Vec<u64> =
                want.byte_ssns.iter().copied().filter(|&s| s != 0).collect();
            ssns.sort_unstable();
            ssns.dedup();
            prop_assert_eq!(load.producers(), ssns);
            prop_assert_eq!(load.communicates(), want.youngest_ssn != 0);
        }
    }

    /// Structural invariants: stores are SSN-dense and addressable by
    /// `store_by_ssn`, loads by `load_by_seq`, and `comm_stats` is the
    /// per-load fold it claims to be.
    #[test]
    fn graph_indices_and_stats_are_consistent(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut builder = DepGraphBuilder::new();
        let mut stores = 0u64;
        for (seq, op) in ops.iter().enumerate() {
            let (inst, d) = dyn_inst(seq as u64, stores, op);
            builder.push(&inst, &d);
            if op.store {
                stores += 1;
            }
        }
        let graph = builder.finish();
        for (i, s) in graph.stores().iter().enumerate() {
            prop_assert_eq!(s.ssn, i as u64 + 1);
            prop_assert_eq!(graph.store_by_ssn(s.ssn), Some(s));
        }
        prop_assert!(graph.store_by_ssn(0).is_none());
        prop_assert!(graph.store_by_ssn(stores + 1).is_none());
        for l in graph.loads() {
            prop_assert_eq!(graph.load_by_seq(l.seq), Some(l));
            for &ssn in &l.producers() {
                let s = graph.store_by_ssn(ssn);
                prop_assert!(s.is_some(), "producer ssn {} missing", ssn);
                prop_assert!(s.unwrap().seq < l.seq);
            }
        }
        for window in [1u64, 8, 64, 1 << 40] {
            let cs = graph.comm_stats(window);
            let want: u64 = graph.loads().iter().filter(|l| l.in_window(window)).count() as u64;
            prop_assert_eq!(cs.comm_loads, want);
            prop_assert!(cs.partial_comm <= cs.comm_loads);
            prop_assert!(cs.multi_source <= cs.comm_loads);
        }
    }
}
