//! Simulation configuration: machine + load/store-unit model.

use nosq_uarch::MachineConfig;

use crate::predictor::PredictorConfig;

/// Why a [`SimConfigBuilder::try_build`] rejected a configuration.
///
/// The simulator's structures index with power-of-two set counts and
/// treat zero-sized resources as deadlock, so a degenerate machine
/// either panics deep inside the pipeline or silently models different
/// hardware than requested. `try_build` surfaces both classes up front.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A machine resource that must be non-zero is zero.
    ZeroResource(&'static str),
    /// A set-associative table's geometry is inconsistent (`ways == 0`,
    /// `ways > entries`, or `entries` not divisible by `ways`).
    TableGeometry {
        /// Which table.
        table: &'static str,
        /// Configured total entries.
        entries: usize,
        /// Configured associativity.
        ways: usize,
    },
    /// A set-associative table's set count is not a power of two. The
    /// indexing functions mask/round to powers of two, so a
    /// non-power-of-two request silently models a larger table.
    NonPowerOfTwoSets {
        /// Which table.
        table: &'static str,
        /// The implied (non-power-of-two) set count.
        sets: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroResource(what) => {
                write!(f, "machine resource `{what}` must be non-zero")
            }
            ConfigError::TableGeometry {
                table,
                entries,
                ways,
            } => write!(
                f,
                "{table}: invalid geometry ({entries} entries, {ways} ways); \
                 ways must be in 1..=entries and divide entries evenly"
            ),
            ConfigError::NonPowerOfTwoSets { table, sets } => write!(
                f,
                "{table}: {sets} sets is not a power of two; indexing assumes \
                 power-of-two set counts, so the modelled capacity would differ \
                 from the requested one"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks one set-associative table's geometry: consistent ways and a
/// power-of-two set count (the indexing assumption shared by the
/// bypassing predictor, BTB, and DTLB).
fn check_table(table: &'static str, entries: usize, ways: usize) -> Result<(), ConfigError> {
    if entries == 0 {
        return Err(ConfigError::ZeroResource(table));
    }
    if ways == 0 || ways > entries || !entries.is_multiple_of(ways) {
        return Err(ConfigError::TableGeometry {
            table,
            entries,
            ways,
        });
    }
    let sets = entries / ways;
    if !sets.is_power_of_two() {
        return Err(ConfigError::NonPowerOfTwoSets { table, sets });
    }
    Ok(())
}

/// Baseline load-scheduling policy (paper §4.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// Oracle scheduling: loads wait exactly as long as needed, never
    /// squash (the Figure 2 normalization baseline).
    Perfect,
    /// Realistic StoreSets-based scheduling.
    StoreSets,
}

/// Which load/store unit the pipeline models.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LsuModel {
    /// Conventional associative store queue with SVW-filtered
    /// re-execution (the paper's baseline).
    BaselineSq {
        /// Load-scheduling policy.
        scheduling: Scheduling,
    },
    /// NoSQ: exclusive speculative memory bypassing, no store queue,
    /// stores execute in the commit pipeline.
    Nosq {
        /// Enable the confidence-based delay mechanism (paper §3.3).
        delay: bool,
    },
    /// NoSQ with a perfect bypassing predictor and idealized partial-word
    /// support (Figure 2's fourth bar).
    NosqOracle,
}

impl LsuModel {
    /// Whether this is a NoSQ variant (no store queue).
    pub fn is_nosq(&self) -> bool {
        !matches!(self, LsuModel::BaselineSq { .. })
    }

    /// Back-end commit-pipeline depth in stages: the baseline's 6 (setup,
    /// SVW, 3× data cache, commit) vs NoSQ's 8 (setup, 2× register read,
    /// agen/SVW, 3× data cache, commit) — paper §4.1.
    pub fn backend_depth(&self) -> u64 {
        if self.is_nosq() {
            8
        } else {
            6
        }
    }
}

/// Deliberate hardware-bug injection, used by `nosq audit
/// --break-predictor` to prove the dependence-oracle auditor catches
/// real violations.
///
/// A corrupted bypass alone is *not* observable at commit: value-based
/// verification squashes every wrong-value bypass, so the architectural
/// stream stays correct. The injected fault therefore models a
/// predictor bug *and* a complicit SVW filter: the victim load bypasses
/// from the wrong in-flight store and is exempted from verification, so
/// a genuinely wrong value commits — exactly the class of silent
/// failure the auditor exists to detect.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Corrupt every `period`-th bypassing load (1-based count over
    /// loads that dispatch in bypassing mode). `None` disables
    /// injection. Only NoSQ predictor-driven runs ([`LsuModel::Nosq`])
    /// are affected; loads with no alternative in-flight store to
    /// bypass from are skipped.
    pub break_predictor: Option<u64>,
}

/// Complete configuration for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine parameters (§4.1).
    pub machine: MachineConfig,
    /// Load/store-unit model.
    pub lsu: LsuModel,
    /// Bypassing-predictor sizing (NoSQ variants).
    pub predictor: PredictorConfig,
    /// Dynamic-instruction budget.
    pub max_insts: u64,
    /// Fault injection for auditor validation (defaults to none).
    pub faults: FaultPlan,
}

impl SimConfig {
    fn base(lsu: LsuModel, max_insts: u64) -> SimConfig {
        SimConfig {
            machine: MachineConfig::paper_default(),
            lsu,
            predictor: PredictorConfig::paper_default(),
            max_insts,
            faults: FaultPlan::default(),
        }
    }

    /// Starts a fluent [`SimConfigBuilder`] from the paper's defaults
    /// (headline NoSQ-with-delay on the 128-entry-window machine).
    ///
    /// ```
    /// use nosq_core::{LsuModel, SimConfig};
    ///
    /// let cfg = SimConfig::builder()
    ///     .lsu(LsuModel::Nosq { delay: false })
    ///     .window256()
    ///     .max_insts(50_000)
    ///     .build();
    /// assert_eq!(cfg.machine.rob_size, 256);
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::base(LsuModel::Nosq { delay: true }, 150_000),
        }
    }

    /// Reopens this configuration as a builder, for deriving variants
    /// from a preset (`SimConfig::nosq(n).into_builder().window256()...`).
    pub fn into_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { cfg: self }
    }

    /// The idealized baseline: associative SQ + perfect scheduling (the
    /// denominator of every relative-execution-time figure).
    pub fn baseline_perfect(max_insts: u64) -> SimConfig {
        SimConfig::base(
            LsuModel::BaselineSq {
                scheduling: Scheduling::Perfect,
            },
            max_insts,
        )
    }

    /// The realistic baseline: associative SQ + StoreSets scheduling.
    pub fn baseline_storesets(max_insts: u64) -> SimConfig {
        SimConfig::base(
            LsuModel::BaselineSq {
                scheduling: Scheduling::StoreSets,
            },
            max_insts,
        )
    }

    /// NoSQ without delay (Figure 2's second bar).
    pub fn nosq_no_delay(max_insts: u64) -> SimConfig {
        SimConfig::base(LsuModel::Nosq { delay: false }, max_insts)
    }

    /// NoSQ with delay (Figure 2's third bar — the headline design).
    pub fn nosq(max_insts: u64) -> SimConfig {
        SimConfig::base(LsuModel::Nosq { delay: true }, max_insts)
    }

    /// Perfect SMB (Figure 2's fourth bar).
    pub fn perfect_smb(max_insts: u64) -> SimConfig {
        SimConfig::base(LsuModel::NosqOracle, max_insts)
    }

    /// Scales the machine to the 256-entry window of §4.4 (NoSQ's
    /// bypassing predictor is intentionally *not* enlarged).
    pub fn with_window256(self) -> SimConfig {
        self.into_builder().window256().build()
    }

    /// Validates this configuration against the simulator's structural
    /// assumptions; see [`ConfigError`] for what is rejected. The paper
    /// presets always validate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let m = &self.machine;
        for (what, value) in [
            ("max_insts", self.max_insts as usize),
            ("width", m.width),
            ("rob_size", m.rob_size),
            ("iq_size", m.iq_size),
            ("lq_size", m.lq_size),
            ("phys_regs", m.phys_regs),
            ("ssn_bits", m.ssn_bits as usize),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroResource(what));
            }
        }
        if matches!(self.lsu, LsuModel::BaselineSq { .. }) && m.sq_size == 0 {
            return Err(ConfigError::ZeroResource("sq_size"));
        }
        check_table("btb", m.btb_entries, m.btb_ways)?;
        check_table("dtlb", m.dtlb_entries, m.dtlb_ways)?;
        let p = &self.predictor;
        if self.lsu.is_nosq() && !p.unbounded {
            check_table("bypassing predictor", p.entries_per_table, p.ways)?;
        }
        if self.faults.break_predictor == Some(0) {
            return Err(ConfigError::ZeroResource("faults.break_predictor"));
        }
        Ok(())
    }
}

/// Fluent builder for [`SimConfig`], replacing ad-hoc preset mutation.
///
/// Obtained from [`SimConfig::builder`] (paper defaults) or
/// [`SimConfig::into_builder`] (derive from a preset). Every setter
/// consumes and returns the builder; [`build`](Self::build) yields the
/// finished configuration. The five paper presets remain available as
/// named constructors ([`SimConfig::baseline_perfect`],
/// [`SimConfig::baseline_storesets`], [`SimConfig::nosq_no_delay`],
/// [`SimConfig::nosq`], [`SimConfig::perfect_smb`]).
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the machine parameters wholesale.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.cfg.machine = machine;
        self
    }

    /// Selects the load/store-unit model.
    pub fn lsu(mut self, lsu: LsuModel) -> Self {
        self.cfg.lsu = lsu;
        self
    }

    /// Sets the bypassing-predictor sizing (NoSQ variants).
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.cfg.predictor = predictor;
        self
    }

    /// Sets the dynamic-instruction budget.
    pub fn max_insts(mut self, max_insts: u64) -> Self {
        self.cfg.max_insts = max_insts;
        self
    }

    /// Sets the fault-injection plan (auditor validation only; defaults
    /// to no faults).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Selects the paper's default 128-entry-window machine (§4.1).
    pub fn window128(self) -> Self {
        self.machine(MachineConfig::paper_default())
    }

    /// Selects the 256-entry-window machine of §4.4: window resources
    /// doubled, branch predictor quadrupled — the bypassing predictor
    /// is intentionally *not* enlarged.
    pub fn window256(self) -> Self {
        self.machine(MachineConfig::paper_window256())
    }

    /// Finishes the configuration, validating it first.
    ///
    /// Rejects degenerate machines — zero-sized window resources or
    /// instruction budget, zero-entry predictor tables, and
    /// non-power-of-two set counts where the indexing assumes powers of
    /// two; see [`ConfigError`].
    pub fn try_build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Finishes the configuration.
    ///
    /// Forwards to [`try_build`](Self::try_build) and panics on a
    /// validation error; use `try_build` to handle invalid
    /// configurations gracefully.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn build(self) -> SimConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid SimConfig: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_depths_match_paper() {
        assert_eq!(
            LsuModel::BaselineSq {
                scheduling: Scheduling::Perfect
            }
            .backend_depth(),
            6
        );
        assert_eq!(LsuModel::Nosq { delay: true }.backend_depth(), 8);
        assert_eq!(LsuModel::NosqOracle.backend_depth(), 8);
    }

    #[test]
    fn constructors_select_models() {
        assert!(!SimConfig::baseline_storesets(1).lsu.is_nosq());
        assert!(SimConfig::nosq(1).lsu.is_nosq());
        assert!(SimConfig::perfect_smb(1).lsu.is_nosq());
        let big = SimConfig::nosq(1).with_window256();
        assert_eq!(big.machine.rob_size, 256);
        assert_eq!(
            big.predictor.entries_per_table,
            PredictorConfig::paper_default().entries_per_table,
            "bypassing predictor must not scale with the window"
        );
    }

    #[test]
    fn builder_defaults_match_the_headline_preset() {
        let built = SimConfig::builder().max_insts(5_000).build();
        assert_eq!(built.lsu, LsuModel::Nosq { delay: true });
        assert_eq!(
            built.machine.rob_size,
            SimConfig::nosq(5_000).machine.rob_size
        );
        assert_eq!(built.max_insts, 5_000);
    }

    #[test]
    fn builder_roundtrips_presets() {
        let direct = SimConfig::baseline_storesets(9_000).with_window256();
        let built = SimConfig::baseline_storesets(9_000)
            .into_builder()
            .window256()
            .build();
        assert_eq!(direct.lsu, built.lsu);
        assert_eq!(direct.machine.rob_size, built.machine.rob_size);
        assert_eq!(direct.max_insts, built.max_insts);
    }

    #[test]
    fn builder_window_toggles_are_inverse() {
        let cfg = SimConfig::builder().window256().window128().build();
        assert_eq!(cfg.machine.rob_size, SimConfig::nosq(1).machine.rob_size);
    }

    #[test]
    fn paper_presets_validate() {
        for cfg in [
            SimConfig::baseline_perfect(1),
            SimConfig::baseline_storesets(1),
            SimConfig::nosq_no_delay(1),
            SimConfig::nosq(1),
            SimConfig::perfect_smb(1),
            SimConfig::nosq(1).with_window256(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn try_build_rejects_zero_resources() {
        let mut machine = MachineConfig::paper_default();
        machine.rob_size = 0;
        let err = SimConfig::builder().machine(machine).try_build().err();
        assert_eq!(err, Some(ConfigError::ZeroResource("rob_size")));
        let err = SimConfig::builder().max_insts(0).try_build().err();
        assert_eq!(err, Some(ConfigError::ZeroResource("max_insts")));
    }

    #[test]
    fn try_build_rejects_degenerate_predictors() {
        let zero = PredictorConfig {
            entries_per_table: 0,
            ..PredictorConfig::paper_default()
        };
        assert_eq!(
            SimConfig::builder().predictor(zero).try_build().err(),
            Some(ConfigError::ZeroResource("bypassing predictor"))
        );
        let lopsided = PredictorConfig {
            entries_per_table: 1000, // 250 sets: not a power of two
            ..PredictorConfig::paper_default()
        };
        assert_eq!(
            SimConfig::builder().predictor(lopsided).try_build().err(),
            Some(ConfigError::NonPowerOfTwoSets {
                table: "bypassing predictor",
                sets: 250
            })
        );
        let no_ways = PredictorConfig {
            ways: 0,
            ..PredictorConfig::paper_default()
        };
        assert!(matches!(
            SimConfig::builder().predictor(no_ways).try_build(),
            Err(ConfigError::TableGeometry { .. })
        ));
        // The unbounded predictor ignores capacity, and the baseline SQ
        // models never consult the predictor tables at all.
        let unbounded = PredictorConfig {
            entries_per_table: 0,
            unbounded: true,
            ..PredictorConfig::paper_default()
        };
        assert!(SimConfig::builder()
            .predictor(unbounded)
            .try_build()
            .is_ok());
        assert!(SimConfig::baseline_storesets(1)
            .into_builder()
            .predictor(zero)
            .try_build()
            .is_ok());
    }

    #[test]
    fn build_panics_on_invalid_config() {
        let r = std::panic::catch_unwind(|| SimConfig::builder().max_insts(0).build());
        assert!(r.is_err(), "build() must forward try_build's rejection");
    }

    #[test]
    fn config_errors_render() {
        let msgs = [
            ConfigError::ZeroResource("rob_size").to_string(),
            ConfigError::TableGeometry {
                table: "btb",
                entries: 7,
                ways: 3,
            }
            .to_string(),
            ConfigError::NonPowerOfTwoSets {
                table: "dtlb",
                sets: 12,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("rob_size"));
        assert!(msgs[1].contains("btb") && msgs[1].contains("7"));
        assert!(msgs[2].contains("power of two"));
    }
}
