//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <sweep|long|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-out <file>]
//! ```
//!
//! `--trace 0` measures the workload with tracing off and prints its
//! end-to-end metrics; `--trace 1` drives the same jobs serially
//! through each layer's public calls with spans on and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Outputs are checked; any mismatch makes `correct` false and the
//! exit code 1. README.md lists every metric and what it should move.

mod golden;
mod openloop;
mod serve;
mod sim;
mod spans;
mod stats;
mod traced;
mod util;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use nosq_core::SimReport;
use nosq_lab::Artifact;

const USAGE: &str = "usage: perfbench --workload <sweep|long|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1> [--spans-out <file>]";

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Design-space campaign: 4 profiles × 5 presets, replay path.
    Sweep,
    /// Full live runs of two designs, then sampled estimates.
    Long,
    /// In-process daemon under mixed hot/cold traffic.
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep" => Some(Workload::Sweep),
            "long" => Some(Workload::Long),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, golden::DEFAULT_SEED, 30.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_out,
    })
}

/// Operations attempted and failed, the first few failures, and
/// informational notes for the report.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Records an informational line for the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.notes.extend(other.notes);
    }
}

/// The campaign engine's own figures from a workload's untraced run.
#[derive(Copy, Clone, Debug)]
pub struct LabFigures {
    /// Median wall seconds of one `run_campaign*` call.
    pub wall_s: f64,
    /// Σ job busy time / (wall × threads), median over calls.
    pub parallel_eff: f64,
    /// Share of jobs that replayed a trace an earlier job recorded.
    pub trace_reuse: f64,
}

/// Daemon figures, from serve traffic.
#[derive(Copy, Clone, Debug, Default)]
pub struct ServeFigures {
    /// Median `submit` time of cold requests, ms.
    pub submit_ms: f64,
    /// Median `wait` time of cold requests, ms.
    pub wait_ms: f64,
    /// Median latency of cache-hot requests, ms.
    pub hot_p50_ms: f64,
    /// Median time of a local run of the same spec, ms.
    pub local_sim_ms: f64,
    /// Median cold latency minus `local_sim_ms`, ms.
    pub overhead_ms: f64,
    /// Cache hits / lookups, from the daemon's `status`.
    pub cache_hit_ratio: f64,
    /// `busy` replies retried.
    pub busy_retries: u64,
    /// Latest any request was sent after its due time, ms.
    pub gen_late_ms: f64,
    /// Journal growth per cold campaign, bytes.
    pub journal_bytes_per_job: f64,
}

/// What one untraced workload run measured and checked.
pub struct Figures {
    setup_s: f64,
    sim_mips: f64,
    nosq_rel_time: f64,
    /// Latencies of the workload's uncached requests, ms.
    cold_ms: Vec<f64>,
    peak_rss_mb: f64,
    pipeline_rss_mb: f64,
    lab: LabFigures,
    serve: Option<ServeFigures>,
    checks: Checks,
    /// `sweep`'s artifacts, for the traced run to compare against.
    reference: Vec<Artifact>,
    /// `long`'s full-run reports, for the traced run to compare against.
    full_reports: Vec<SimReport>,
}

/// Runs a workload untraced.
fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Figures, String> {
    match workload {
        Workload::Sweep => Ok(sim::sweep(seed, seconds)),
        Workload::Long => Ok(sim::long(seed, seconds)),
        Workload::ServeMix => serve::serve_mix(seed, seconds),
    }
}

/// One named metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
pub struct Output {
    checks: Checks,
    metrics: Vec<Metric>,
}

fn end_to_end(args: &Args) -> Result<Output, String> {
    let f = measure(args.workload, args.seed, args.seconds)?;
    let tail = stats::tail(&f.cold_ms).ok_or(format!(
        "only {} cold samples; the tail needs at least {}",
        f.cold_ms.len(),
        stats::TAIL_BEYOND + 1
    ))?;
    let mut checks = f.checks;
    checks.note(format!(
        "cold_tail_ms is p{} of {} cold samples ({} beyond it)",
        tail.pct, tail.n, tail.beyond
    ));
    Ok(Output {
        checks,
        metrics: vec![
            metric("setup_s", f.setup_s, "s"),
            metric("peak_rss_mb", f.peak_rss_mb, "MB"),
            metric("sim_mips", f.sim_mips, "MIPS"),
            metric("nosq_rel_time", f.nosq_rel_time, "ratio"),
            metric("cold_p50_ms", stats::median(&f.cold_ms), "ms"),
            metric("cold_tail_ms", tail.value, "ms"),
        ],
    })
}

fn json_line(out: &Output) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            args.seconds,
            args.spans_out.as_deref(),
        )
    } else {
        end_to_end(&args)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.checks.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.checks.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: metric `{}` is {}, not a number",
            m.name, m.value
        );
        return ExitCode::FAILURE;
    }
    println!("{}", json_line(&out));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
