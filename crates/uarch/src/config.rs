//! Machine configuration (paper §4.1).

use nosq_isa::{AluKind, InstClass};

use crate::branch::HybridConfig;
use crate::cache::CacheConfig;

/// Full timing-model configuration for the simulated 4-way superscalar.
///
/// [`MachineConfig::paper_default`] reproduces the paper's §4.1 machine;
/// [`MachineConfig::paper_window256`] reproduces §4.4's scaled machine
/// (window resources doubled, branch predictor quadrupled).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Fetch/issue/commit width.
    pub width: usize,
    /// Reorder-buffer entries (the instruction window).
    pub rob_size: usize,
    /// Issue-queue entries.
    pub iq_size: usize,
    /// Load-queue entries (baseline; NoSQ can eliminate it).
    pub lq_size: usize,
    /// Store-queue entries (baseline only).
    pub sq_size: usize,
    /// Physical registers.
    pub phys_regs: usize,
    /// Per-cycle issue slots for simple integer ops.
    pub simple_int_slots: usize,
    /// Per-cycle issue slots for complex integer/FP ops.
    pub complex_slots: usize,
    /// Per-cycle issue slots for branches.
    pub branch_slots: usize,
    /// Per-cycle issue slots for loads.
    pub load_slots: usize,
    /// Per-cycle issue slots for stores (baseline; unused by NoSQ).
    pub store_slots: usize,
    /// Front-end depth in cycles from fetch to dispatch (predict 1 +
    /// fetch 3 + decode 1 + rename 1).
    pub front_depth: u64,
    /// Register-read stages between issue and execute.
    pub regread_depth: u64,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// DTLB entries.
    pub dtlb_entries: usize,
    /// DTLB associativity.
    pub dtlb_ways: usize,
    /// DTLB miss penalty in cycles.
    pub tlb_miss_penalty: u64,
    /// Direction-predictor sizing.
    pub bpred: HybridConfig,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// RAS depth.
    pub ras_depth: usize,
    /// Hardware SSN width in bits (paper: 20).
    pub ssn_bits: u32,
}

impl MachineConfig {
    /// The paper's §4.1 baseline machine.
    pub fn paper_default() -> MachineConfig {
        MachineConfig {
            width: 4,
            rob_size: 128,
            iq_size: 40,
            lq_size: 48,
            sq_size: 24,
            phys_regs: 160,
            simple_int_slots: 4,
            complex_slots: 2,
            branch_slots: 1,
            load_slots: 1,
            store_slots: 1,
            front_depth: 6,
            regread_depth: 2,
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            mem_latency: 150,
            dtlb_entries: 128,
            dtlb_ways: 4,
            tlb_miss_penalty: 30,
            bpred: HybridConfig::paper_default(),
            btb_entries: 2048,
            btb_ways: 4,
            ras_depth: 32,
            ssn_bits: 20,
        }
    }

    /// The §4.4 scaled machine: all window resources doubled and the
    /// branch predictor quadrupled. (NoSQ's bypassing predictor is *not*
    /// enlarged — that is the point of the experiment.)
    pub fn paper_window256() -> MachineConfig {
        let mut cfg = MachineConfig::paper_default();
        cfg.rob_size = 256;
        cfg.iq_size = 80;
        cfg.lq_size = 96;
        cfg.sq_size = 48;
        cfg.phys_regs = 320;
        cfg.bpred = HybridConfig::paper_large();
        cfg
    }

    /// Execution latency of an instruction class (cycles in the execute
    /// stage, excluding register read and cache access).
    pub fn exec_latency(&self, class: InstClass, alu: Option<AluKind>) -> u64 {
        match class {
            InstClass::SimpleInt | InstClass::Branch => 1,
            InstClass::Load | InstClass::Store => 1, // address generation
            InstClass::Halt => 1,
            InstClass::Complex => match alu {
                Some(AluKind::Mul) => 7,
                Some(AluKind::Div) => 20,
                Some(AluKind::FDiv) => 16,
                Some(AluKind::FAdd) | Some(AluKind::FSub) => 4,
                Some(AluKind::FMul) => 4,
                Some(AluKind::IToF) | Some(AluKind::FToI) => 4,
                _ => 4,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_1() {
        let c = MachineConfig::paper_default();
        assert_eq!(c.width, 4);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.iq_size, 40);
        assert_eq!(c.lq_size, 48);
        assert_eq!(c.sq_size, 24);
        assert_eq!(c.phys_regs, 160);
        assert_eq!(c.l1d.hit_latency, 3);
        assert_eq!(c.l2.hit_latency, 10);
        assert_eq!(c.mem_latency, 150);
        assert_eq!(c.ssn_bits, 20);
    }

    #[test]
    fn window256_doubles_resources() {
        let c = MachineConfig::paper_window256();
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.lq_size, 96);
        assert_eq!(c.phys_regs, 320);
        assert_eq!(c.bpred.bimodal_entries, 16384);
    }

    #[test]
    fn complex_ops_are_slower() {
        let c = MachineConfig::paper_default();
        assert_eq!(c.exec_latency(InstClass::SimpleInt, None), 1);
        assert!(c.exec_latency(InstClass::Complex, Some(AluKind::Div)) > 10);
        assert!(
            c.exec_latency(InstClass::Complex, Some(AluKind::FMul))
                > c.exec_latency(InstClass::SimpleInt, None)
        );
    }
}
