//! # nosq-bench
//!
//! Harness utilities for regenerating the NoSQ paper's evaluation
//! (Table 5 and Figures 2-5). Each `benches/` target is a standalone
//! binary (`harness = false`) that prints the same rows/series the paper
//! reports, with the paper's numbers alongside for comparison. Table 5
//! and Figures 2-5 run as `nosq-lab` campaigns; this crate supplies
//! only the workload seed, the budget knob, the relative-time check,
//! artifact writes and suite-grouped table formatting.
//!
//! The dynamic-instruction budget per run is controlled by the
//! `NOSQ_DYN_INSTS` environment variable (default 150,000 — enough for
//! the predictors to reach steady state while keeping `cargo bench
//! --workspace` to a few minutes). Increase it for tighter numbers.
//!
//! Set `NOSQ_ARTIFACT_DIR=<dir>` to make the harnesses that support it
//! (Table 5, Figure 2) also write machine-readable JSON/CSV artifacts
//! built from [`nosq_core::SimReport`]'s serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use nosq_core::SimReport;
use nosq_trace::{Profile, Suite};

/// Workload seed of the paper harnesses: the campaign engine's
/// default, so code that synthesizes a workload itself measures the
/// same programs the figures do.
pub const SEED: u64 = nosq_lab::DEFAULT_SEED;

/// Dynamic instructions per simulation (`NOSQ_DYN_INSTS`, default 150k).
///
/// # Panics
///
/// Panics if `NOSQ_DYN_INSTS` is set but not a positive integer
/// (underscore separators allowed). Silently falling back to the
/// default would make a whole benchmark campaign measure the wrong
/// budget without anyone noticing.
pub fn dyn_insts() -> u64 {
    let Some(raw) = std::env::var_os("NOSQ_DYN_INSTS") else {
        return 150_000;
    };
    let text = raw
        .to_str()
        .unwrap_or_else(|| panic!("NOSQ_DYN_INSTS is not valid UTF-8: {raw:?}"));
    match text.replace('_', "").parse() {
        Ok(n) if n > 0 => n,
        _ => panic!("NOSQ_DYN_INSTS must be a positive integer, got `{text}`"),
    }
}

/// [`SimReport::relative_time`] with the reference checked: panics if
/// the reference run retired no cycles (which would yield NaN). The
/// paper's relative-execution-time figures are meaningless without a
/// real reference run, so the harnesses fail loudly instead of
/// plotting garbage.
pub fn rel_time(r: &SimReport, reference: &SimReport) -> f64 {
    let rel = r.relative_time(reference);
    assert!(
        !rel.is_nan(),
        "reference run retired no cycles; relative time undefined"
    );
    rel
}

/// The artifact output directory (`NOSQ_ARTIFACT_DIR`), if configured.
pub fn artifact_dir() -> Option<PathBuf> {
    std::env::var_os("NOSQ_ARTIFACT_DIR").map(PathBuf::from)
}

/// Writes a machine-readable artifact under `NOSQ_ARTIFACT_DIR` and
/// returns its path; a no-op returning `None` when the variable is
/// unset.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file cannot be
/// written — a requested artifact that silently vanishes is worse than
/// a failed run.
pub fn write_artifact(file_name: &str, contents: &str) -> Option<PathBuf> {
    let dir = artifact_dir()?;
    std::fs::create_dir_all(&dir).expect("create NOSQ_ARTIFACT_DIR");
    let path = dir.join(file_name);
    std::fs::write(&path, contents).expect("write artifact");
    println!("(wrote {})", path.display());
    Some(path)
}

/// Formats a suite-grouped table: prints a separator and a per-suite
/// aggregation row after each suite.
pub struct SuiteTable {
    header: String,
    rows: Vec<(Suite, String)>,
}

impl SuiteTable {
    /// Creates a table with the given header line.
    pub fn new(header: impl Into<String>) -> SuiteTable {
        SuiteTable {
            header: header.into(),
            rows: Vec::new(),
        }
    }

    /// Adds one benchmark row.
    pub fn row(&mut self, suite: Suite, line: impl Into<String>) {
        self.rows.push((suite, line.into()));
    }

    /// Prints the table with `summary` lines after each suite (keyed by
    /// suite).
    pub fn print(&self, summaries: &[(Suite, String)]) {
        println!("{}", self.header);
        println!("{}", "-".repeat(self.header.len().min(100)));
        for suite in Suite::all() {
            let mut any = false;
            for (s, line) in &self.rows {
                if *s == suite {
                    println!("{line}");
                    any = true;
                }
            }
            if any {
                for (s, line) in summaries {
                    if *s == suite {
                        println!("{line}");
                    }
                }
                println!();
            }
        }
    }
}

/// Per-suite geometric means of (benchmark → value) pairs.
pub fn suite_geomeans(values: &[(&'static Profile, f64)]) -> Vec<(Suite, f64)> {
    Suite::all()
        .into_iter()
        .map(|suite| {
            let vals: Vec<f64> = values
                .iter()
                .filter(|(p, _)| p.suite == suite)
                .map(|(_, v)| *v)
                .collect();
            (suite, nosq_core::geometric_mean(&vals))
        })
        .filter(|(_, g)| *g > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_insts_has_sane_default() {
        // Do not mutate the environment (other tests run in parallel);
        // just check the default path when the var is absent.
        if std::env::var("NOSQ_DYN_INSTS").is_err() {
            assert_eq!(dyn_insts(), 150_000);
        }
    }

    /// Helper target for the subprocess tests below: evaluates
    /// `dyn_insts()` whenever the variable is set, so a garbage value
    /// panics (failing the subprocess) and a known-good value is
    /// asserted.
    #[test]
    fn dyn_insts_probe_value() {
        match std::env::var("NOSQ_DYN_INSTS").as_deref() {
            Ok("2_500") => assert_eq!(dyn_insts(), 2_500),
            Ok(_) => {
                let _ = dyn_insts();
            }
            Err(_) => {}
        }
    }

    /// An unparsable `NOSQ_DYN_INSTS` must panic with the offending
    /// value — checked in subprocesses so the parent test environment
    /// stays untouched.
    #[test]
    fn dyn_insts_rejects_garbage() {
        let exe = std::env::current_exe().expect("test binary path");
        for bad in ["abc", "0", "-5", "1.5", ""] {
            let out = std::process::Command::new(&exe)
                .args(["--exact", "tests::dyn_insts_probe_value"])
                .env("NOSQ_DYN_INSTS", bad)
                .output()
                .expect("spawn test subprocess");
            assert!(
                !out.status.success(),
                "NOSQ_DYN_INSTS=`{bad}` must panic, got success"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains(bad) || bad.is_empty(),
                "panic message must name the offending value `{bad}`"
            );
        }
    }

    #[test]
    fn dyn_insts_parses_underscored_values() {
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(&exe)
            .args(["--exact", "tests::dyn_insts_probe_value"])
            .env("NOSQ_DYN_INSTS", "2_500")
            .output()
            .expect("spawn test subprocess");
        assert!(out.status.success(), "2_500 must parse");
    }

    #[test]
    fn rel_time_checks_the_reference() {
        let r = SimReport {
            cycles: 1_000,
            insts: 2_000,
            ..SimReport::default()
        };
        assert!(rel_time(&r, &r) == 1.0);
        let empty = SimReport::default();
        let panicked = std::panic::catch_unwind(|| rel_time(&r, &empty));
        assert!(panicked.is_err(), "NaN reference must panic");
    }

    #[test]
    fn suite_geomeans_group_correctly() {
        let a = Profile::by_name("gzip").unwrap();
        let b = Profile::by_name("applu").unwrap();
        let g = suite_geomeans(&[(a, 2.0), (b, 8.0)]);
        assert_eq!(g.len(), 2);
        assert!(g
            .iter()
            .any(|(s, v)| *s == Suite::SpecInt && (*v - 2.0).abs() < 1e-12));
        assert!(g
            .iter()
            .any(|(s, v)| *s == Suite::SpecFp && (*v - 8.0).abs() < 1e-12));
    }
}
