//! Communication-signature measurement (paper Table 5, left half).

use nosq_isa::Program;

use crate::depgraph::DependenceGraph;

/// Measured in-window store-load communication of a workload.
#[derive(Copy, Clone, Debug, Default)]
pub struct CommStats {
    /// Dynamic instructions examined.
    pub insts: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads whose producing store is within the instruction window.
    pub comm_loads: u64,
    /// In-window communicating loads where either side is sub-8-byte.
    pub partial_comm: u64,
    /// In-window communicating loads needing bytes from multiple stores.
    pub multi_source: u64,
    /// The window length used (instructions).
    pub window: u64,
}

impl CommStats {
    /// Total communication as a percentage of committed loads
    /// (Table 5 "total" column).
    pub fn comm_pct(&self) -> f64 {
        percent(self.comm_loads, self.loads)
    }

    /// Partial-word communication as a percentage of committed loads
    /// (Table 5 "partial-word" column).
    pub fn partial_pct(&self) -> f64 {
        percent(self.partial_comm, self.loads)
    }

    /// Multi-source (un-bypassable) communication as a percentage of
    /// committed loads.
    pub fn multi_source_pct(&self) -> f64 {
        percent(self.multi_source, self.loads)
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Replays up to `max_insts` dynamic instructions of `program` and
/// measures its store-load communication within a `window`-instruction
/// window (the paper uses the 128-instruction ROB with no store limit).
///
/// The stats are derived from the dependence oracle's
/// [`DependenceGraph`] — the same exact producer analysis `nosq-audit`
/// cross-checks the pipeline against — so Table 5 and the auditor can
/// never drift apart.
pub fn analyze_program(program: &Program, max_insts: u64, window: u64) -> CommStats {
    DependenceGraph::from_program(program, max_insts).comm_stats(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_isa::{Assembler, Extension, InstClass, MemWidth, Reg};

    /// The pre-oracle streaming measurement, kept verbatim as the
    /// regression reference for the graph-derived implementation.
    fn naive_comm_stats(program: &Program, max_insts: u64, window: u64) -> CommStats {
        use crate::record::Coverage;
        use crate::tracer::Tracer;
        let mut stats = CommStats {
            window,
            ..CommStats::default()
        };
        for d in Tracer::new(program, max_insts) {
            stats.insts += 1;
            match d.class {
                InstClass::Load => {
                    stats.loads += 1;
                    if let Some(dep) = d.mem_dep {
                        if u64::from(dep.inst_distance) < window {
                            stats.comm_loads += 1;
                            if d.is_partial_word_comm(d.inst(program.code())) {
                                stats.partial_comm += 1;
                            }
                            if dep.coverage == Coverage::Partial {
                                stats.multi_source += 1;
                            }
                        }
                    }
                }
                InstClass::Store => stats.stores += 1,
                _ => {}
            }
        }
        stats
    }

    #[test]
    fn graph_derived_stats_match_streaming_reference() {
        use crate::profiles::Profile;
        use crate::synth::synthesize;
        for name in ["gzip", "gcc", "mesa.o", "applu", "gsm.e"] {
            let profile = Profile::by_name(name).unwrap();
            let prog = synthesize(profile, 42);
            for window in [128u64, 256] {
                let new = analyze_program(&prog, 25_000, window);
                let old = naive_comm_stats(&prog, 25_000, window);
                assert_eq!(new.insts, old.insts, "{name} w{window}");
                assert_eq!(new.loads, old.loads, "{name} w{window}");
                assert_eq!(new.stores, old.stores, "{name} w{window}");
                assert_eq!(new.comm_loads, old.comm_loads, "{name} w{window}");
                assert_eq!(new.partial_comm, old.partial_comm, "{name} w{window}");
                assert_eq!(new.multi_source, old.multi_source, "{name} w{window}");
                assert_eq!(new.window, old.window, "{name} w{window}");
            }
        }
    }

    #[test]
    fn window_gates_communication() {
        // Store, then 200 filler instructions, then the load: communicates
        // in a 512-instruction window but not a 128-instruction one.
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.store(v, b, 0, MemWidth::B8);
        for _ in 0..200 {
            asm.addi(v, v, 1);
        }
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let prog = asm.finish();
        let near = analyze_program(&prog, 1_000, 512);
        assert_eq!(near.comm_loads, 1);
        let far = analyze_program(&prog, 1_000, 128);
        assert_eq!(far.comm_loads, 0);
        assert_eq!(far.loads, 1);
    }

    #[test]
    fn percentages_handle_zero_loads() {
        let mut asm = Assembler::new();
        asm.halt();
        let prog = asm.finish();
        let stats = analyze_program(&prog, 10, 128);
        assert_eq!(stats.comm_pct(), 0.0);
        assert_eq!(stats.partial_pct(), 0.0);
    }
}
