//! Structured simulation reports: typed metric groups, derived metrics,
//! and machine-readable serialization.
//!
//! A finished (or in-flight) session summarizes into a [`SimReport`]:
//! exact integer counters organized into four groups — [`FrontendMetrics`],
//! [`MemoryMetrics`], [`VerificationMetrics`], [`StallMetrics`] — plus the
//! top-level `cycles`/`insts` pair. All counters are exact, so `Eq`
//! compares two runs bit-for-bit (the determinism regression suite relies
//! on this). [`SimReport::to_json`] and [`SimReport::to_csv_row`] emit
//! machine-readable artifacts through the shared [`crate::ser`] writers,
//! without any external serialization crate.

use crate::ser::{csv_row, JsonObject};

/// Front-end (fetch / branch prediction) counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontendMetrics {
    /// Branch direction / target mis-predictions.
    pub branch_mispredicts: u64,
}

/// Memory-system counters: loads, stores, and how loads obtained their
/// values (bypass, delay, forwarding, cache).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryMetrics {
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads that bypassed through SMB (NoSQ variants). Counted at
    /// dispatch, so squashed-and-refetched loads count once per dispatch.
    pub bypassed_loads: u64,
    /// Loads delayed by the confidence mechanism.
    pub delayed_loads: u64,
    /// Loads whose bypass needed the injected shift & mask instruction.
    pub shift_mask_uops: u64,
    /// Loads forwarded from the store queue (baseline only).
    pub sq_forwards: u64,
    /// Data-cache reads issued by the out-of-order core.
    pub ooo_dcache_reads: u64,
    /// Committed loads that had in-window communication (ground truth).
    pub comm_loads: u64,
    /// ... of which partial-word.
    pub partial_comm_loads: u64,
}

/// Load-verification (SVW / T-SSBF) counters and squash causes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VerificationMetrics {
    /// Squashes caused by bypassing mis-predictions (NoSQ; the paper's
    /// "mis-predictions").
    pub bypass_mispredicts: u64,
    /// Squashes caused by memory-ordering violations (baseline).
    pub ordering_squashes: u64,
    /// Data-cache reads issued by back-end re-execution.
    pub backend_dcache_reads: u64,
    /// Loads that passed the SVW filter (skipped re-execution).
    pub reexec_filtered: u64,
    /// SSN wrap-around drains performed.
    pub ssn_wrap_drains: u64,
}

/// Dispatch-stall counters (structural hazards at rename).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StallMetrics {
    /// Dispatch stalls due to a full store queue (baseline only).
    pub sq_dispatch_stalls: u64,
    /// Dispatch stalls due to a full issue queue.
    pub iq_dispatch_stalls: u64,
    /// Dispatch stalls due to physical-register exhaustion.
    pub reg_dispatch_stalls: u64,
}

/// The structured result of one simulation session.
///
/// Produced by [`crate::Simulator::finish`] (or the one-shot
/// [`crate::simulate`] wrapper) and also readable mid-session through
/// [`crate::Simulator::stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Total cycles executed so far.
    pub cycles: u64,
    /// Committed (retired) instructions.
    pub insts: u64,
    /// Front-end counters.
    pub frontend: FrontendMetrics,
    /// Memory-system counters.
    pub memory: MemoryMetrics,
    /// Verification counters.
    pub verification: VerificationMetrics,
    /// Dispatch-stall counters.
    pub stalls: StallMetrics,
}

/// Stable flat view of every counter, shared by the JSON and CSV
/// encoders: `(group, name, accessor)`. The empty group holds the
/// top-level counters.
type CounterField = (&'static str, &'static str, fn(&SimReport) -> u64);

const COUNTER_FIELDS: &[CounterField] = &[
    ("", "cycles", |r| r.cycles),
    ("", "insts", |r| r.insts),
    ("frontend", "branch_mispredicts", |r| {
        r.frontend.branch_mispredicts
    }),
    ("memory", "loads", |r| r.memory.loads),
    ("memory", "stores", |r| r.memory.stores),
    ("memory", "bypassed_loads", |r| r.memory.bypassed_loads),
    ("memory", "delayed_loads", |r| r.memory.delayed_loads),
    ("memory", "shift_mask_uops", |r| r.memory.shift_mask_uops),
    ("memory", "sq_forwards", |r| r.memory.sq_forwards),
    ("memory", "ooo_dcache_reads", |r| r.memory.ooo_dcache_reads),
    ("memory", "comm_loads", |r| r.memory.comm_loads),
    ("memory", "partial_comm_loads", |r| {
        r.memory.partial_comm_loads
    }),
    ("verification", "bypass_mispredicts", |r| {
        r.verification.bypass_mispredicts
    }),
    ("verification", "ordering_squashes", |r| {
        r.verification.ordering_squashes
    }),
    ("verification", "backend_dcache_reads", |r| {
        r.verification.backend_dcache_reads
    }),
    ("verification", "reexec_filtered", |r| {
        r.verification.reexec_filtered
    }),
    ("verification", "ssn_wrap_drains", |r| {
        r.verification.ssn_wrap_drains
    }),
    ("stalls", "sq_dispatch_stalls", |r| {
        r.stalls.sq_dispatch_stalls
    }),
    ("stalls", "iq_dispatch_stalls", |r| {
        r.stalls.iq_dispatch_stalls
    }),
    ("stalls", "reg_dispatch_stalls", |r| {
        r.stalls.reg_dispatch_stalls
    }),
];

impl SimReport {
    // ----------------------------------------------------------------
    // Derived metrics.
    // ----------------------------------------------------------------

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Bypassing mis-predictions per 10,000 committed loads (Table 5's
    /// right-hand metric).
    pub fn mispredicts_per_10k_loads(&self) -> f64 {
        if self.memory.loads == 0 {
            0.0
        } else {
            10_000.0 * self.verification.bypass_mispredicts as f64 / self.memory.loads as f64
        }
    }

    /// Percentage of committed loads delayed (Table 5, parenthesized).
    pub fn delayed_pct(&self) -> f64 {
        if self.memory.loads == 0 {
            0.0
        } else {
            100.0 * self.memory.delayed_loads as f64 / self.memory.loads as f64
        }
    }

    /// Percentage of committed loads that bypassed.
    pub fn bypassed_pct(&self) -> f64 {
        if self.memory.loads == 0 {
            0.0
        } else {
            100.0 * self.memory.bypassed_loads as f64 / self.memory.loads as f64
        }
    }

    /// Total data-cache reads (Figure 4's metric).
    pub fn dcache_reads(&self) -> u64 {
        self.memory.ooo_dcache_reads + self.verification.backend_dcache_reads
    }

    /// Fraction of loads that re-executed (paper: ~0.7% with the
    /// T-SSBF).
    pub fn reexec_rate(&self) -> f64 {
        if self.memory.loads == 0 {
            0.0
        } else {
            self.verification.backend_dcache_reads as f64 / self.memory.loads as f64
        }
    }

    /// Execution time relative to a reference run of the same workload.
    ///
    /// Returns [`f64::NAN`] when the reference run retired no cycles —
    /// a zero-cycle reference carries no timing information, and the old
    /// `0.0` return silently read as "infinitely fast". Callers that
    /// require a meaningful reference should assert on `!is_nan()`
    /// (the bench harness's `rel_time` helper does).
    pub fn relative_time(&self, reference: &SimReport) -> f64 {
        if reference.cycles == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / reference.cycles as f64
        }
    }

    // ----------------------------------------------------------------
    // Serialization (hand-rolled: the build environment has no
    // crates.io access, so no serde).
    // ----------------------------------------------------------------

    /// Flat `(group, name, value)` view of every counter, in the stable
    /// order shared by the JSON and CSV encoders. Top-level counters
    /// (`cycles`, `insts`) report an empty group.
    pub fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
        COUNTER_FIELDS
            .iter()
            .map(|&(group, name, get)| (group, name, get(self)))
            .collect()
    }

    /// Encodes the report as a self-contained JSON object: the counter
    /// groups nested as sub-objects plus a `derived` object with the
    /// [floating-point metrics](Self::ipc). Built on the shared
    /// [`crate::ser`] writers, so the output is always valid JSON.
    pub fn to_json(&self) -> String {
        let counters = self.counters();
        let mut obj = JsonObject::new();
        // Top-level (empty-group) counters first, then each group as a
        // nested object in order of first appearance — independent of
        // how `counters()` interleaves them.
        for &(group, name, value) in &counters {
            if group.is_empty() {
                obj.field_u64(name, value);
            }
        }
        let mut groups: Vec<&str> = Vec::new();
        for &(group, _, _) in &counters {
            if !group.is_empty() && !groups.contains(&group) {
                groups.push(group);
            }
        }
        for group in groups {
            let mut nested = JsonObject::new();
            for &(g, name, value) in &counters {
                if g == group {
                    nested.field_u64(name, value);
                }
            }
            obj.field_raw(group, &nested.finish());
        }
        let mut derived = JsonObject::new();
        derived
            .field_f64("ipc", self.ipc())
            .field_f64("bypassed_pct", self.bypassed_pct())
            .field_f64("delayed_pct", self.delayed_pct())
            .field_f64(
                "mispredicts_per_10k_loads",
                self.mispredicts_per_10k_loads(),
            )
            .field_f64("reexec_rate", self.reexec_rate())
            .field_u64("dcache_reads", self.dcache_reads());
        obj.field_raw("derived", &derived.finish());
        obj.finish()
    }

    /// The CSV header matching [`Self::to_csv_row`]: dotted
    /// `group.name` column names in the stable counter order.
    pub fn csv_header() -> String {
        let cells: Vec<String> = COUNTER_FIELDS
            .iter()
            .map(|&(group, name, _)| {
                if group.is_empty() {
                    name.to_owned()
                } else {
                    format!("{group}.{name}")
                }
            })
            .collect();
        csv_row(&cells)
    }

    /// Encodes the counters as one CSV row in [`Self::csv_header`]'s
    /// column order.
    pub fn to_csv_row(&self) -> String {
        let cells: Vec<String> = COUNTER_FIELDS
            .iter()
            .map(|&(_, _, get)| get(self).to_string())
            .collect();
        csv_row(&cells)
    }
}

nosq_wire::wire_struct!(FrontendMetrics { branch_mispredicts });
nosq_wire::wire_struct!(MemoryMetrics {
    loads,
    stores,
    bypassed_loads,
    delayed_loads,
    shift_mask_uops,
    sq_forwards,
    ooo_dcache_reads,
    comm_loads,
    partial_comm_loads
});
nosq_wire::wire_struct!(VerificationMetrics {
    bypass_mispredicts,
    ordering_squashes,
    backend_dcache_reads,
    reexec_filtered,
    ssn_wrap_drains
});
nosq_wire::wire_struct!(StallMetrics {
    sq_dispatch_stalls,
    iq_dispatch_stalls,
    reg_dispatch_stalls
});
nosq_wire::wire_struct!(SimReport {
    cycles,
    insts,
    frontend,
    memory,
    verification,
    stalls
});

/// Geometric mean of a slice of positive values (used for the per-suite
/// means in Figures 2-3).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            cycles: 1000,
            insts: 2000,
            memory: MemoryMetrics {
                loads: 500,
                delayed_loads: 10,
                ooo_dcache_reads: 450,
                ..MemoryMetrics::default()
            },
            verification: VerificationMetrics {
                bypass_mispredicts: 5,
                backend_dcache_reads: 5,
                ..VerificationMetrics::default()
            },
            ..SimReport::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.mispredicts_per_10k_loads() - 100.0).abs() < 1e-9);
        assert!((r.delayed_pct() - 2.0).abs() < 1e-9);
        assert_eq!(r.dcache_reads(), 455);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.mispredicts_per_10k_loads(), 0.0);
        assert_eq!(r.reexec_rate(), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        let g = geometric_mean(&[0.9, 1.1]);
        assert!(g > 0.99 && g < 1.0, "{g}");
    }

    #[test]
    fn relative_time() {
        let fast = SimReport {
            cycles: 900,
            ..SimReport::default()
        };
        let slow = SimReport {
            cycles: 1000,
            ..SimReport::default()
        };
        assert!((slow.relative_time(&fast) - 1.111).abs() < 1e-3);
        assert!((fast.relative_time(&slow) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn relative_time_against_empty_reference_is_nan() {
        let r = sample();
        let empty = SimReport::default();
        assert!(r.relative_time(&empty).is_nan());
    }

    #[test]
    fn counters_cover_every_field_once() {
        let c = sample().counters();
        assert_eq!(c.len(), 20, "counter field list out of sync");
        let mut names: Vec<String> = c.iter().map(|(g, n, _)| format!("{g}.{n}")).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 20, "duplicate counter name");
        // Spot-check group placement.
        assert!(c.contains(&("", "cycles", 1000)));
        assert!(c.contains(&("memory", "loads", 500)));
        assert!(c.contains(&("verification", "bypass_mispredicts", 5)));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = sample();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        // Balanced braces / quotes (a cheap structural check with no
        // JSON parser available offline).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "{json}");
        // No malformed separators (a cheap proxy for real parsing).
        for bad in ["{,", ",,", ",}", "{}", "::"] {
            assert!(!json.contains(bad), "malformed `{bad}` in {json}");
        }
        for (group, name, value) in r.counters() {
            assert!(
                json.contains(&format!("\"{name}\":{value}")),
                "{group}.{name} missing"
            );
        }
        assert!(json.contains("\"derived\":{"));
        assert!(json.contains("\"ipc\":2.000000"));
        // No NaN/inf can leak into the output.
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header = SimReport::csv_header();
        let row = sample().to_csv_row();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "{header} vs {row}"
        );
        assert!(header.starts_with("cycles,insts,frontend.branch_mispredicts"));
        assert!(row.starts_with("1000,2000,0"));
    }
}
