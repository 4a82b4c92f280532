//! The `nosq audit` grid: dependence-oracle auditing of profile ×
//! preset cells.
//!
//! For each selected trace profile the runner synthesizes the workload,
//! builds one [`DependenceGraph`] (the oracle pass), and then audits
//! every selected preset against that shared graph with an
//! [`nosq_audit::AuditObserver`] attached to a live session. Profiles
//! fan out across worker threads; the oracle is built once per profile
//! no matter how many presets ride on it.
//!
//! The optional fault-injection knob ([`AuditOptions::break_predictor`])
//! corrupts every Nth bypass *and* exempts it from verification
//! (`FaultPlan::break_predictor`), turning the grid into a
//! self-test: a healthy auditor must report violations under injection
//! and none without it.

use nosq_audit::{audit_config, AuditReport, DependenceGraph};
use nosq_core::ser::{JsonArray, JsonObject};
use nosq_core::{FaultPlan, SimReport};
use nosq_trace::{synthesize, Profile};

use crate::campaign::Preset;
use crate::executor::parallel_map_indexed;

/// The audit grid's default trace profiles: one from each suite, plus
/// gcc.
pub const DEFAULT_PROFILES: [&str; 4] = ["gzip", "gcc", "applu", "gsm.e"];

/// The presets the auditor exercises by default: every NoSQ variant
/// (the baselines have no bypasses to prove, but can be added).
pub const DEFAULT_PRESETS: [Preset; 3] = [Preset::NosqNoDelay, Preset::Nosq, Preset::PerfectSmb];

/// What `nosq audit` should run.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Trace profiles to audit.
    pub profiles: Vec<&'static Profile>,
    /// Pipeline presets to audit per profile.
    pub presets: Vec<Preset>,
    /// Dynamic-instruction budget per cell.
    pub max_insts: u64,
    /// Workload synthesis seed.
    pub seed: u64,
    /// Worker threads (0 = one per CPU).
    pub threads: usize,
    /// Corrupt every Nth bypass and exempt it from verification
    /// (fault-injection self-test).
    pub break_predictor: Option<u64>,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            profiles: DEFAULT_PROFILES
                .iter()
                .map(|n| Profile::by_name(n).expect("built-in profile"))
                .collect(),
            presets: DEFAULT_PRESETS.to_vec(),
            max_insts: crate::campaign::DEFAULT_MAX_INSTS,
            seed: crate::campaign::DEFAULT_SEED,
            threads: 0,
            break_predictor: None,
        }
    }
}

/// One audited profile × preset cell.
#[derive(Clone, Debug)]
pub struct AuditCell {
    /// The workload.
    pub profile: &'static Profile,
    /// The pipeline preset.
    pub preset: Preset,
    /// The session's counters.
    pub report: SimReport,
    /// The audit verdict.
    pub audit: AuditReport,
}

/// The whole grid's outcome.
#[derive(Clone, Debug)]
pub struct AuditRunResult {
    /// All audited cells, profile-major in option order.
    pub cells: Vec<AuditCell>,
    /// Whether fault injection was active.
    pub injecting: bool,
}

impl AuditRunResult {
    /// Total rule violations across the grid.
    pub fn total_violations(&self) -> u64 {
        self.cells.iter().map(|c| c.audit.violations).sum()
    }

    /// Total loads audited across the grid.
    pub fn total_loads(&self) -> u64 {
        self.cells.iter().map(|c| c.audit.stats.loads).sum()
    }
}

/// Runs the audit grid: one oracle pass per profile, one audited
/// session per (profile, preset) cell.
pub fn run_audit(opts: &AuditOptions) -> AuditRunResult {
    let per_profile = parallel_map_indexed(opts.profiles.len(), opts.threads, |i| {
        let profile = opts.profiles[i];
        let program = synthesize(profile, opts.seed);
        let graph = DependenceGraph::from_program(&program, opts.max_insts);
        opts.presets
            .iter()
            .map(|&preset| {
                let mut cfg = preset.config(opts.max_insts);
                if let Some(period) = opts.break_predictor {
                    cfg = cfg
                        .into_builder()
                        .faults(FaultPlan {
                            break_predictor: Some(period),
                        })
                        .build();
                }
                let (report, audit) = audit_config(&program, &graph, cfg);
                AuditCell {
                    profile,
                    preset,
                    report,
                    audit,
                }
            })
            .collect::<Vec<AuditCell>>()
    });
    AuditRunResult {
        cells: per_profile.into_iter().flatten().collect(),
        injecting: opts.break_predictor.is_some(),
    }
}

/// Serializes the grid outcome as the `audit.json` artifact: run-level
/// totals plus one object per cell with its stats and diagnostics.
pub fn audit_json(result: &AuditRunResult) -> String {
    let mut cells = JsonArray::new();
    for cell in &result.cells {
        let mut o = JsonObject::new();
        o.field_str("profile", cell.profile.name)
            .field_str("preset", cell.preset.name())
            .field_u64("loads", cell.audit.stats.loads)
            .field_u64("violations", cell.audit.violations)
            .field_raw("audit", &cell.audit.to_json());
        cells.push_raw(&o.finish());
    }
    let mut root = JsonObject::new();
    root.field_u64("total_violations", result.total_violations())
        .field_u64("total_loads", result.total_loads())
        .field_raw(
            "fault_injection",
            if result.injecting { "true" } else { "false" },
        )
        .field_raw("cells", &cells.finish());
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AuditOptions {
        AuditOptions {
            profiles: vec![Profile::by_name("gzip").unwrap()],
            presets: vec![Preset::Nosq],
            max_insts: 5_000,
            threads: 1,
            ..AuditOptions::default()
        }
    }

    #[test]
    fn small_grid_is_clean_and_serializes() {
        let result = run_audit(&small());
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.total_violations(), 0);
        assert!(result.total_loads() > 0);
        let json = audit_json(&result);
        crate::json::parse(&json).expect("audit.json parses");
        assert!(json.contains("\"total_violations\":0"));
    }

    #[test]
    fn injection_produces_violations() {
        let opts = AuditOptions {
            max_insts: 30_000,
            break_predictor: Some(8),
            ..small()
        };
        let result = run_audit(&opts);
        assert!(result.injecting);
        assert!(result.total_violations() > 0);
    }

    #[test]
    fn default_options_cover_the_grid() {
        let opts = AuditOptions::default();
        assert_eq!(opts.profiles.len(), 4);
        assert_eq!(opts.presets.len(), 3);
    }
}
