//! `nosq` — run and serve NoSQ experiment campaigns from the command
//! line.
//!
//! ```text
//! nosq run <spec-file> [--threads N] [--out DIR] [--max-insts N] [--progress]
//!                      [--sample WARMUP:INTERVAL:COUNT]
//!                      [--journal FILE] [--ckpt-every N]
//! nosq run --resume <journal> [--out DIR]
//! nosq table5          [--threads N] [--out DIR] [--max-insts N]
//! nosq smoke           [--threads N] [--out DIR]
//! nosq audit           [--small] [--break-predictor N] [--threads N] [--out DIR] [--max-insts N]
//! nosq check           [--bound small|full] [--model NAME] [--seed-bug] [--out DIR]
//! nosq lint            [--allow FILE] [--root DIR]
//! nosq serve           [--addr HOST:PORT] [--workers N] [--journal FILE] [--out DIR]
//! nosq loadgen         [--addr HOST:PORT] [--clients N] [--requests N] [--hot PCT] [--out DIR]
//! nosq submit <spec-file> [--addr HOST:PORT] [--out DIR]
//! nosq shutdown        [--addr HOST:PORT]
//! nosq list [profiles|presets]
//! ```
//!
//! Artifacts land in `--out`, else `$NOSQ_ARTIFACT_DIR`, else
//! `./nosq-artifacts`. See `crates/lab/src/spec.rs` (or the README's
//! "Running campaigns" section) for the spec-file format, and
//! `crates/serve/src/protocol.rs` (README "Serving campaigns") for the
//! daemon's wire protocol.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;

use nosq_check::sync::StdSync;
use nosq_lab::lint::{lint_tree, Allowlist};
use nosq_lab::reports::{table5, table5_json, Table5Row};
use nosq_lab::{
    artifacts, audit_json, check_json, json, run_audit, run_campaign, run_checks, timing_artifact,
    write_artifacts, Artifact, AuditOptions, BoundPreset, Campaign, CampaignResult, CheckOptions,
    Preset, ProgressCounters, RunOptions, WorkerContext,
};
use nosq_serve::{
    fingerprint_hex, loadgen_json, run_loadgen, signal, Journal, JournaledCampaign, LoadgenOptions,
    ServeClient, ServeOptions, Server,
};
use nosq_trace::{Profile, Suite};

const USAGE: &str = "\
nosq — NoSQ experiment-campaign runner

USAGE:
    nosq run <spec-file> [OPTIONS]   run a campaign from a spec file
    nosq run --resume <journal>      finish half-done campaigns from a journal
    nosq table5 [OPTIONS]            regenerate paper Table 5 (47 benchmarks)
    nosq smoke [OPTIONS]             sub-second self-check campaign
    nosq audit [OPTIONS]             prove every speculative bypass against the
                                     dependence oracle (4 profiles x 3 NoSQ presets)
    nosq check [OPTIONS]             model-check the lock-free executor core and
                                     injection queue over every thread interleaving
    nosq lint [OPTIONS]              determinism source lint over crates/
    nosq serve [OPTIONS]             campaign service daemon: job queue over TCP,
                                     LRU result cache, crash-safe journal
    nosq loadgen [OPTIONS]           hammer a live daemon with mixed hot/cold
                                     traffic; write BENCH_serve.json
    nosq submit <spec-file> [OPTIONS] run one campaign through a live daemon
    nosq shutdown [OPTIONS]          ask a live daemon to drain and exit
    nosq list [profiles|presets]     show available benchmarks / presets
    nosq help                        this text

OPTIONS:
    --threads N          worker threads (default: one per CPU)
    --out DIR            artifact directory (default: $NOSQ_ARTIFACT_DIR or ./nosq-artifacts)
    --max-insts N        override the per-job dynamic-instruction budget
    --progress           live progress line on stderr
    --sample W:I:C       (run) sampled estimate instead of full simulation:
                         fast-forward W instructions, then measure C windows
                         of I instructions spread over the rest
    --resume FILE        (run) recover a crash-safe journal: write artifacts of
                         every completed campaign, resume every half-finished
                         one from its latest valid checkpoint
    --ckpt-every N       (run --journal / serve) mid-job checkpoint cadence in
                         committed instructions (default 50000; 0 = job
                         boundaries only)
    --small              (audit) single-cell gzip x nosq grid, small budget
    --break-predictor N  (audit) corrupt every Nth bypass and hide it from
                         verification; exits 0 only if the auditor catches it
    --allow FILE         (lint) allowlist path (default: ./lint.allow)
    --root DIR           (lint) workspace root to scan (default: .)
    --bound NAME         (check) exploration preset: `small` (preemption-bounded,
                         the CI setting) or `full` (exhaustive); default small
    --model NAME         (check) run a single model instead of the whole suite
    --seed-bug           (check) run the deliberately broken models; exits 0
                         only if the checker flags them
    --addr HOST:PORT     (serve/loadgen/submit/shutdown) daemon address
                         (default 127.0.0.1:7433; serve accepts :0 for an
                         ephemeral port, printed on startup)
    --workers N          (serve) worker pool size (default: one per CPU, max 8)
    --journal FILE       (run/serve) crash-safe journal path: completed results
                         plus mid-job checkpoints, resumable after kill -9
                         (serve default: <out>/serve.journal)
    --cache-cap N        (serve) LRU result-cache capacity (default 64)
    --clients N          (loadgen) concurrent clients (default 8)
    --requests N         (loadgen) requests per client (default 4)
    --hot PCT            (loadgen) percentage of cache-hot traffic (default 50)
    --interval-ms N      (loadgen) open-loop arrival interval (default 40)
";

/// The built-in smoke campaign: 2 presets × 3 profiles, small budget.
/// Written as a JSON spec so `nosq smoke` also exercises the parser.
const SMOKE_SPEC: &str = r#"{
    "name": "smoke",
    "configs": ["nosq", "baseline-storesets"],
    "profiles": ["gzip", "gsm.e", "applu"],
    "max_insts": 4000,
    "baseline": "baseline-storesets"
}"#;

struct Options {
    threads: usize,
    out: PathBuf,
    max_insts: Option<u64>,
    progress: bool,
    sample: Option<nosq_core::SamplePlan>,
    small: bool,
    break_predictor: Option<u64>,
    allow: Option<PathBuf>,
    root: PathBuf,
    bound: BoundPreset,
    model: Option<String>,
    seed_bug: bool,
    addr: String,
    workers: usize,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    ckpt_every: u64,
    cache_cap: usize,
    clients: usize,
    requests: usize,
    hot: u32,
    interval_ms: u64,
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nosq: error: {msg}");
    ExitCode::FAILURE
}

fn usage_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nosq: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        // No subcommand is a usage error: usage text on stderr, exit 2
        // (same convention as every other malformed invocation).
        eprintln!("nosq: a subcommand is required\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let (positional, options) = match parse_options(&args[1..]) {
        Ok(parsed) => parsed,
        Err(msg) => return usage_error(msg),
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        "list" => cmd_list(positional.first().map(String::as_str)),
        "run" => match (positional.as_slice(), &options.resume) {
            ([], Some(journal)) => run_journaled(journal, None, &options),
            ([_], Some(_)) => usage_error("`--resume` takes the journal in place of a spec file"),
            ([spec], None) => cmd_run(spec, &options),
            _ => usage_error("`nosq run` takes exactly one spec file (or `--resume <journal>`)"),
        },
        cmd @ ("table5" | "smoke") if !positional.is_empty() => {
            usage_error(format!("`nosq {cmd}` takes no positional arguments"))
        }
        "table5" => cmd_table5(&options),
        "smoke" => cmd_smoke(&options),
        "audit" if !positional.is_empty() => {
            usage_error("`nosq audit` takes no positional arguments")
        }
        "audit" => cmd_audit(&options),
        "check" if !positional.is_empty() => {
            usage_error("`nosq check` takes no positional arguments")
        }
        "check" => cmd_check(&options),
        "lint" if !positional.is_empty() => {
            usage_error("`nosq lint` takes no positional arguments")
        }
        "lint" => cmd_lint(&options),
        cmd @ ("serve" | "loadgen" | "shutdown") if !positional.is_empty() => {
            usage_error(format!("`nosq {cmd}` takes no positional arguments"))
        }
        "serve" => cmd_serve(&options),
        "loadgen" => cmd_loadgen(&options),
        "submit" => match positional.as_slice() {
            [spec] => cmd_submit(spec, &options),
            _ => usage_error("`nosq submit` takes exactly one spec file"),
        },
        "shutdown" => cmd_shutdown(&options),
        other => usage_error(format!("unknown command `{other}`")),
    }
}

fn parse_options(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut options = Options {
        threads: 0,
        out: std::env::var_os("NOSQ_ARTIFACT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("nosq-artifacts")),
        max_insts: None,
        progress: false,
        sample: None,
        small: false,
        break_predictor: None,
        allow: None,
        root: PathBuf::from("."),
        bound: BoundPreset::Small,
        model: None,
        seed_bug: false,
        addr: "127.0.0.1:7433".to_owned(),
        workers: 0,
        journal: None,
        resume: None,
        ckpt_every: 50_000,
        cache_cap: 64,
        clients: 8,
        requests: 4,
        hot: 50,
        interval_ms: 40,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--threads" => {
                options.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "`--threads` expects an integer".to_owned())?;
            }
            "--out" => options.out = PathBuf::from(value_of("--out")?),
            "--max-insts" => {
                let v: u64 = value_of("--max-insts")?
                    .replace('_', "")
                    .parse()
                    .map_err(|_| "`--max-insts` expects an integer".to_owned())?;
                options.max_insts = Some(v);
            }
            "--progress" => options.progress = true,
            "--sample" => {
                let v = value_of("--sample")?;
                let plan =
                    nosq_core::SamplePlan::parse(&v).map_err(|e| format!("`--sample` {e}"))?;
                options.sample = Some(plan);
            }
            "--small" => options.small = true,
            "--break-predictor" => {
                let v: u64 = value_of("--break-predictor")?
                    .parse()
                    .map_err(|_| "`--break-predictor` expects an integer".to_owned())?;
                if v == 0 {
                    return Err("`--break-predictor` expects a period >= 1".to_owned());
                }
                options.break_predictor = Some(v);
            }
            "--allow" => options.allow = Some(PathBuf::from(value_of("--allow")?)),
            "--root" => options.root = PathBuf::from(value_of("--root")?),
            "--bound" => {
                let name = value_of("--bound")?;
                options.bound = BoundPreset::parse(&name)
                    .ok_or_else(|| format!("`--bound` expects `small` or `full`, got `{name}`"))?;
            }
            "--model" => options.model = Some(value_of("--model")?),
            "--seed-bug" => options.seed_bug = true,
            "--addr" => options.addr = value_of("--addr")?,
            "--workers" => {
                options.workers = value_of("--workers")?
                    .parse()
                    .map_err(|_| "`--workers` expects an integer".to_owned())?;
            }
            "--journal" => options.journal = Some(PathBuf::from(value_of("--journal")?)),
            "--resume" => options.resume = Some(PathBuf::from(value_of("--resume")?)),
            "--ckpt-every" => {
                options.ckpt_every = value_of("--ckpt-every")?
                    .replace('_', "")
                    .parse()
                    .map_err(|_| "`--ckpt-every` expects an instruction count".to_owned())?;
            }
            "--cache-cap" => {
                options.cache_cap = value_of("--cache-cap")?
                    .parse()
                    .map_err(|_| "`--cache-cap` expects an integer".to_owned())?;
            }
            "--clients" => {
                options.clients = value_of("--clients")?
                    .parse()
                    .map_err(|_| "`--clients` expects an integer".to_owned())?;
            }
            "--requests" => {
                options.requests = value_of("--requests")?
                    .parse()
                    .map_err(|_| "`--requests` expects an integer".to_owned())?;
            }
            "--hot" => {
                let v: u32 = value_of("--hot")?
                    .parse()
                    .map_err(|_| "`--hot` expects an integer percentage".to_owned())?;
                if v > 100 {
                    return Err("`--hot` expects a percentage in 0..=100".to_owned());
                }
                options.hot = v;
            }
            "--interval-ms" => {
                options.interval_ms = value_of("--interval-ms")?
                    .parse()
                    .map_err(|_| "`--interval-ms` expects an integer".to_owned())?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ => positional.push(arg.clone()),
        }
    }
    // Checkpointing snapshots the serial campaign loop's sessions; the
    // sampling estimator has no snapshot form, so a durable run (or a
    // journal resume) excludes it.
    if (options.journal.is_some() || options.resume.is_some()) && options.sample.is_some() {
        return Err("`--journal`/`--resume` are incompatible with `--sample`".to_owned());
    }
    Ok((positional, options))
}

fn run_options(options: &Options) -> RunOptions {
    RunOptions {
        threads: options.threads,
        progress: options.progress,
    }
}

fn cmd_list(what: Option<&str>) -> ExitCode {
    match what {
        None | Some("profiles") => {
            for suite in Suite::all() {
                println!("{suite}:");
                for p in Profile::suite(suite) {
                    println!("  {}", p.name);
                }
            }
            if what.is_none() {
                println!();
                list_presets();
            }
            ExitCode::SUCCESS
        }
        Some("presets") => {
            list_presets();
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(format!("unknown list `{other}`")),
    }
}

fn list_presets() {
    println!("presets:");
    for preset in Preset::all() {
        println!("  {}", preset.name());
    }
}

/// Runs a campaign, writes its artifacts, prints the summary. The body
/// of `nosq run`, shared by `nosq smoke`.
fn execute(campaign: &Campaign, options: &Options) -> Result<Vec<Artifact>, ExitCode> {
    let result = run_campaign(campaign, &run_options(options));
    let files = artifacts(&result);
    write_and_report(campaign, &result, &files, options)?;
    Ok(files)
}

/// The artifact-writing + summary-printing tail of a campaign run,
/// shared by the plain and journaled paths.
fn write_and_report(
    campaign: &Campaign,
    result: &CampaignResult,
    files: &[Artifact],
    options: &Options,
) -> Result<(), ExitCode> {
    // The timing artifact is written alongside but kept out of `files`:
    // it is deliberately nondeterministic (wall-clock), while `files`
    // must be byte-identical across re-runs and thread counts.
    let timing = timing_artifact(result);
    let mut paths = write_artifacts(&options.out, files).map_err(|e| {
        fail(format!(
            "writing artifacts to {}: {e}",
            options.out.display()
        ))
    })?;
    paths.extend(
        write_artifacts(&options.out, std::slice::from_ref(&timing))
            .map_err(|e| fail(format!("writing timing artifact: {e}")))?,
    );

    println!(
        "campaign `{}`: {} configs × {} profiles = {} jobs on {} thread{} in {:.2?} ({:.1} MIPS/worker)",
        campaign.name,
        campaign.configs.len(),
        campaign.profiles.len(),
        campaign.jobs(),
        result.threads,
        if result.threads == 1 { "" } else { "s" },
        result.elapsed,
        result.aggregate_mips(),
    );
    println!("\n{:<24} {:>12}", "config", "geomean IPC");
    for (ci, config) in campaign.configs.iter().enumerate() {
        let ipcs: Vec<f64> = (0..campaign.profiles.len())
            .map(|p| result.report(p, ci).ipc())
            .collect();
        let mut line = format!(
            "{:<24} {:>12.3}",
            config.name,
            nosq_core::geometric_mean(&ipcs)
        );
        if let Some(base) = campaign.baseline {
            let rels: Vec<f64> = (0..campaign.profiles.len())
                .map(|p| result.report(p, ci).relative_time(result.report(p, base)))
                .collect();
            line.push_str(&format!(
                "   rel-time {:.3}",
                nosq_core::geometric_mean(&rels)
            ));
        }
        println!("{line}");
    }
    println!();
    for path in &paths {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Writes `files` into `--out` and lists each path written; `what`
/// names the files in the error.
fn write_listed(files: &[Artifact], what: &str, options: &Options) -> Result<(), ExitCode> {
    let paths =
        write_artifacts(&options.out, files).map_err(|e| fail(format!("writing {what}: {e}")))?;
    for path in &paths {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Checks a generated JSON report, then writes it into `--out` as
/// `file_name` and lists it: a malformed report never lands.
fn write_report(file_name: &str, contents: String, options: &Options) -> Result<(), ExitCode> {
    if let Err(e) = json::parse(&contents) {
        return Err(fail(format!("generated {file_name} is malformed: {e}")));
    }
    let report = Artifact {
        file_name: file_name.to_owned(),
        contents,
    };
    write_listed(std::slice::from_ref(&report), file_name, options)
}

/// Creates the directory a journal at `path` goes in (creating the
/// empty path of a bare file name is a no-op).
fn create_parent(path: &Path) -> Result<(), ExitCode> {
    let dir = path.parent().unwrap_or(path);
    std::fs::create_dir_all(dir).map_err(|e| fail(format!("creating {}: {e}", dir.display())))
}

fn cmd_run(spec_path: &str, options: &Options) -> ExitCode {
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => return fail(format!("reading {spec_path}: {e}")),
    };
    let mut campaign = match Campaign::from_spec(&text) {
        Ok(c) => c,
        Err(e) => return fail(format!("{spec_path}: {e}")),
    };
    if let Some(n) = options.max_insts {
        campaign = match rebudget(campaign, n) {
            Ok(c) => c,
            Err(e) => return fail(e),
        };
    }
    if let Some(plan) = &options.sample {
        return execute_sampled(&campaign, plan, options);
    }
    if let Some(journal) = &options.journal {
        // Checkpoint records embed the spec verbatim so the journal is
        // self-contained for recovery; a CLI-side rebudget would make
        // the executed campaign diverge from the recorded text.
        if options.max_insts.is_some() {
            return fail(
                "`--journal` records the spec verbatim for recovery; \
                 set max_insts in the spec instead of `--max-insts`",
            );
        }
        let wanted = JournaledCampaign::new(campaign, text);
        return run_journaled(journal, Some(wanted), options);
    }
    match execute(&campaign, options) {
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `nosq run --journal` and `nosq run --resume`: the one-shot runner
/// with the daemon's crash durability, through the daemon's own
/// [`JournaledCampaign::run`]. `wanted` is the spec file's campaign
/// under `--journal`, and `None` under `--resume`, which takes every
/// campaign the journal holds. A completed campaign's artifacts are
/// written from the journal without simulating; a half-finished one
/// resumes from its latest checkpoint record, and a record that cannot
/// be resumed is reported and skipped ([`CheckpointEntry::recover`]'s
/// rule, as in the daemon); a wanted campaign the journal lacks runs
/// fresh. Nothing reports a result before its completion record is
/// fsync'd. `--journal` creates its journal; `--resume` refuses a path
/// that does not exist and writes nothing there.
///
/// [`CheckpointEntry::recover`]: nosq_serve::CheckpointEntry::recover
fn run_journaled(path: &Path, wanted: Option<JournaledCampaign>, options: &Options) -> ExitCode {
    if wanted.is_some() {
        if let Err(code) = create_parent(path) {
            return code;
        }
    } else if !path.exists() {
        return fail(format!("{}: no such journal to recover", path.display()));
    }
    let (journal, recovered) = match Journal::open(path) {
        Ok(opened) => opened,
        Err(e) => return fail(format!("opening journal {}: {e}", path.display())),
    };
    if journal.truncated_bytes() > 0 {
        eprintln!(
            "nosq: warning: journal recovery discarded {} torn byte(s)",
            journal.truncated_bytes()
        );
    }
    let taken = |fingerprint: u64| wanted.as_ref().is_none_or(|w| w.fingerprint == fingerprint);
    let completed: Vec<_> = recovered
        .completed
        .iter()
        .filter(|entry| taken(entry.fingerprint))
        .collect();
    let mut runs = Vec::new();
    for entry in recovered.partial.iter().filter(|e| taken(e.fingerprint)) {
        match entry.recover() {
            Ok(resumable) => runs.push(resumable),
            Err(e) => eprintln!("nosq: warning: {e}; record skipped"),
        }
    }
    if completed.is_empty() && runs.is_empty() {
        match wanted {
            Some(wanted) => runs.push((wanted, None)),
            None => return fail(format!("{}: nothing to recover", path.display())),
        }
    }

    for entry in completed {
        println!(
            "recovered completed campaign `{}` ({}); writing it without re-simulating",
            entry.name,
            fingerprint_hex(entry.fingerprint)
        );
        if let Err(code) = write_listed(&entry.artifacts, "artifacts", options) {
            return code;
        }
    }
    let journal = Mutex::new(journal);
    let mut ctx = WorkerContext::new();
    for (journaled, resume) in runs {
        let campaign = &journaled.campaign;
        let id = fingerprint_hex(journaled.fingerprint);
        let name = &campaign.name;
        match &resume {
            Some(r) => println!(
                "resuming `{name}` ({id}) from checkpoint: {}/{} jobs already complete{}",
                r.job_index,
                campaign.jobs(),
                r.checkpoint
                    .as_ref()
                    .map_or("", |_| ", mid-job state restored"),
            ),
            None => println!("running `{name}` ({id}) from scratch"),
        }
        let progress: ProgressCounters<StdSync> = ProgressCounters::new();
        let (result, files, appended) = journaled.run(
            Some(&journal),
            &mut ctx,
            &progress,
            options.ckpt_every,
            resume,
        );
        if let Err(e) = appended {
            return fail(format!("journaling completed campaign: {e}"));
        }
        if let Err(code) = write_and_report(campaign, &result, &files, options) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// `nosq run --sample`: replace each grid job's full simulation with
/// the checkpointed-sampling estimator — fast-forward functionally,
/// measure periodic windows, extrapolate. Prints the estimate table;
/// no byte-stable campaign artifacts are written (an estimate is not a
/// [`nosq_core::SimReport`], and must never be mistaken for one).
fn execute_sampled(
    campaign: &Campaign,
    plan: &nosq_core::SamplePlan,
    options: &Options,
) -> ExitCode {
    use nosq_core::{sampled_replay_with_arena, SimArena};
    use nosq_trace::TraceBuffer;

    let programs = nosq_lab::synthesize_programs(campaign, options.threads);
    let started = std::time::Instant::now();
    let mut arena = SimArena::new();
    println!(
        "{:<10} {:<20} {:>7} {:>12} {:>12} {:>9} {:>14}",
        "profile", "config", "windows", "measured", "total", "est IPC", "est cycles"
    );
    for (p, profile) in campaign.profiles.iter().enumerate() {
        let budget = campaign
            .configs
            .iter()
            .map(|c| c.config.max_insts)
            .max()
            .unwrap_or(0);
        let trace = TraceBuffer::record_with_arena(&programs[p], budget, &mut arena.trace);
        for named in &campaign.configs {
            let est = sampled_replay_with_arena(
                &programs[p],
                named.config.clone(),
                &trace,
                plan,
                &mut arena,
            );
            if est.windows == 0 {
                return fail(format!(
                    "sample plan measured no windows for {} × {} (warmup {} covers the whole \
                     {}-instruction run)",
                    profile.name, named.name, plan.warmup, est.total_insts
                ));
            }
            println!(
                "{:<10} {:<20} {:>7} {:>12} {:>12} {:>9.3} {:>14.0}",
                profile.name,
                named.name,
                est.windows,
                est.measured_insts,
                est.total_insts,
                est.ipc(),
                est.est_cycles(),
            );
        }
    }
    println!(
        "\nsampled campaign `{}`: {} jobs estimated in {:.2?} (plan {}:{}:{})",
        campaign.name,
        campaign.jobs(),
        started.elapsed(),
        plan.warmup,
        plan.interval,
        plan.count,
    );
    ExitCode::SUCCESS
}

/// Re-applies a CLI `--max-insts` override to every configuration.
fn rebudget(mut campaign: Campaign, max_insts: u64) -> Result<Campaign, String> {
    for named in &mut campaign.configs {
        named.config = named
            .config
            .clone()
            .into_builder()
            .max_insts(max_insts)
            .try_build()
            .map_err(|e| e.to_string())?;
    }
    Ok(campaign)
}

fn cmd_table5(options: &Options) -> ExitCode {
    let max_insts = options.max_insts.unwrap_or(nosq_lab::DEFAULT_MAX_INSTS);
    let (rows, result) = match table5(max_insts, &run_options(options)) {
        Ok(out) => out,
        Err(e) => return fail(e),
    };
    print_table5(&rows);
    let mut files = artifacts(&result);
    files.push(Artifact {
        file_name: "table5.json".to_owned(),
        contents: table5_json(&rows),
    });
    match write_listed(&files, "artifacts", options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn print_table5(rows: &[Table5Row]) {
    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>9} {:>7}",
        "benchmark", "comm%", "part%", "mis/10k-nd", "mis/10k-d", "del%"
    );
    for suite in Suite::all() {
        let in_suite: Vec<&Table5Row> = rows.iter().filter(|r| r.profile.suite == suite).collect();
        if in_suite.is_empty() {
            continue;
        }
        for r in &in_suite {
            println!(
                "{:<10} {:>7.1} {:>7.1} {:>9.1} {:>9.1} {:>7.1}",
                r.profile.name,
                r.comm_pct,
                r.partial_pct,
                r.no_delay.mispredicts_per_10k_loads(),
                r.delay.mispredicts_per_10k_loads(),
                r.delay.delayed_pct(),
            );
        }
        let mean = |f: &dyn Fn(&Table5Row) -> f64| {
            in_suite.iter().map(|r| f(r)).sum::<f64>() / in_suite.len() as f64
        };
        println!(
            "{:<10} {:>7.1} {:>7.1} {:>9.1} {:>9.1} {:>7.1}\n",
            format!("{suite}.avg"),
            mean(&|r| r.comm_pct),
            mean(&|r| r.partial_pct),
            mean(&|r| r.no_delay.mispredicts_per_10k_loads()),
            mean(&|r| r.delay.mispredicts_per_10k_loads()),
            mean(&|r| r.delay.delayed_pct()),
        );
    }
}

/// `nosq smoke`: run the built-in campaign, then *prove* the artifacts
/// are present, well-formed, and thread-count-independent — the CI
/// gate for the whole engine. Any failure exits non-zero.
fn cmd_smoke(options: &Options) -> ExitCode {
    let mut campaign = match Campaign::from_spec(SMOKE_SPEC) {
        Ok(c) => c,
        Err(e) => return fail(format!("built-in smoke spec: {e}")),
    };
    if let Some(n) = options.max_insts {
        campaign = match rebudget(campaign, n) {
            Ok(c) => c,
            Err(e) => return fail(e),
        };
    }
    let files = match execute(&campaign, options) {
        Ok(files) => files,
        Err(code) => return code,
    };

    // 1. Every artifact exists on disk with the exact bytes produced.
    for artifact in &files {
        let path = options.out.join(&artifact.file_name);
        match std::fs::read_to_string(&path) {
            Ok(on_disk) if on_disk == artifact.contents => {}
            Ok(_) => return fail(format!("{} differs from produced bytes", path.display())),
            Err(e) => return fail(format!("missing artifact {}: {e}", path.display())),
        }
        if artifact.contents.is_empty() {
            return fail(format!("artifact {} is empty", artifact.file_name));
        }
    }

    // 2. JSON artifacts parse; CSV artifacts have the right shape.
    for artifact in &files {
        if artifact.file_name.ends_with(".json") {
            if let Err(e) = json::parse(&artifact.contents) {
                return fail(format!("{} is malformed: {e}", artifact.file_name));
            }
        } else if artifact.file_name.ends_with(".csv") {
            let mut lines = artifact.contents.lines();
            let header_cols = lines.next().map_or(0, |h| h.split(',').count());
            if header_cols < 3 || lines.any(|l| l.split(',').count() != header_cols) {
                return fail(format!("{} has ragged rows", artifact.file_name));
            }
        }
    }
    let matrix = files
        .iter()
        .find(|a| a.file_name.ends_with(".matrix.json"))
        .expect("matrix artifact exists");
    let parsed = json::parse(&matrix.contents).expect("validated above");
    if parsed.as_array().map(<[_]>::len) != Some(campaign.jobs()) {
        return fail("matrix.json does not cover the whole job grid");
    }

    // 3. Serial and forced-multi-thread re-runs both aggregate to
    //    byte-identical artifacts (the executor's determinism
    //    contract). The explicit 2-thread run keeps the check real on
    //    single-core machines, where the auto thread count is 1.
    for threads in [1usize, 2] {
        let rerun = run_campaign(
            &campaign,
            &RunOptions {
                threads,
                ..RunOptions::default()
            },
        );
        if artifacts(&rerun) != files {
            return fail(format!(
                "{threads}-thread re-run produced different artifact bytes"
            ));
        }
    }

    println!(
        "smoke OK: {} artifacts validated, determinism checked",
        files.len()
    );
    ExitCode::SUCCESS
}

/// `nosq audit`: run the dependence-oracle grid, write `audit.json`,
/// and gate on the verdict. Without `--break-predictor`, any violation
/// fails; with it, *zero* violations fail — the injected faults must be
/// caught for the auditor to count as healthy.
fn cmd_audit(options: &Options) -> ExitCode {
    let mut opts = AuditOptions {
        threads: options.threads,
        break_predictor: options.break_predictor,
        ..AuditOptions::default()
    };
    if options.small {
        opts.profiles.truncate(1); // gzip
        opts.presets = vec![Preset::Nosq];
        opts.max_insts = 20_000;
    }
    if let Some(n) = options.max_insts {
        opts.max_insts = n;
    }

    let result = run_audit(&opts);
    println!(
        "{:<10} {:<12} {:>9} {:>9} {:>8} {:>12} {:>10}",
        "profile", "preset", "loads", "bypassed", "exact", "coincidental", "violations"
    );
    for cell in &result.cells {
        println!(
            "{:<10} {:<12} {:>9} {:>9} {:>8} {:>12} {:>10}",
            cell.profile.name,
            cell.preset.name(),
            cell.audit.stats.loads,
            cell.audit.stats.bypassed,
            cell.audit.stats.exact_bypasses,
            cell.audit.stats.coincidental_bypasses,
            cell.audit.violations,
        );
    }

    if let Err(code) = write_report("audit.json", audit_json(&result), options) {
        return code;
    }

    let violations = result.total_violations();
    if result.injecting {
        if violations == 0 {
            return fail("fault injection was active but the auditor reported no violations");
        }
        println!(
            "audit OK (self-test): {} injected-fault violations caught across {} loads",
            violations,
            result.total_loads()
        );
        ExitCode::SUCCESS
    } else if violations > 0 {
        for cell in &result.cells {
            for diag in &cell.audit.diagnostics {
                eprintln!(
                    "nosq audit: {} × {}: {diag}",
                    cell.profile.name,
                    cell.preset.name()
                );
            }
        }
        fail(format!(
            "{violations} audit violations across {} cells",
            result.cells.len()
        ))
    } else {
        println!(
            "audit OK: {} loads across {} cells proved against the dependence oracle",
            result.total_loads(),
            result.cells.len()
        );
        ExitCode::SUCCESS
    }
}

/// `nosq check`: model-check the lock-free lab structures over every
/// thread interleaving, write `check.json`, and gate on the verdict.
/// A clean run fails on any violation or incomplete exploration; a
/// `--seed-bug` run fails unless the checker flags the planted bug (a
/// checker that passes its seeded bug proves nothing).
fn cmd_check(options: &Options) -> ExitCode {
    let opts = CheckOptions {
        bound: options.bound,
        model: options.model.clone(),
        seed_bug: options.seed_bug,
    };
    let reports = match run_checks(&opts) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };

    println!(
        "{:<15} {:>14} {:>9} {:>9} {:>12} {:>9} {:>11}",
        "model", "interleavings", "pruned", "skipped", "ops", "complete", "violations"
    );
    for r in &reports {
        println!(
            "{:<15} {:>14} {:>9} {:>9} {:>12} {:>9} {:>11}",
            r.model,
            r.interleavings,
            r.pruned_states,
            r.skipped_preemptions,
            r.ops,
            r.complete,
            r.violations,
        );
    }

    if let Err(code) = write_report("check.json", check_json(&opts, &reports), options) {
        return code;
    }

    let violations: u64 = reports.iter().map(|r| r.violations).sum();
    let interleavings: u64 = reports.iter().map(|r| r.interleavings).sum();
    if opts.seed_bug {
        if violations == 0 {
            return fail("the seeded bug was active but the checker reported no violations");
        }
        println!(
            "check OK (self-test): {violations} seeded-bug violations caught across {} models",
            reports.len()
        );
        ExitCode::SUCCESS
    } else if violations > 0 {
        for r in &reports {
            for diag in &r.diagnostics {
                eprintln!("nosq check: {}: {diag}", r.model);
            }
        }
        fail(format!(
            "{violations} concurrency violations across {} models",
            reports.len()
        ))
    } else if let Some(r) = reports.iter().find(|r| !r.complete) {
        fail(format!(
            "model `{}` hit an exploration bound before finishing; rerun with `--bound full`",
            r.model
        ))
    } else {
        println!(
            "check OK: {} models verified clean over {interleavings} interleavings ({} bounds)",
            reports.len(),
            opts.bound.name()
        );
        ExitCode::SUCCESS
    }
}

/// `nosq lint`: the determinism source lint over `crates/`. Violations
/// exit non-zero (the CI hard gate); stale allowlist entries warn.
fn cmd_lint(options: &Options) -> ExitCode {
    let allow_path = options
        .allow
        .clone()
        .unwrap_or_else(|| options.root.join("lint.allow"));
    let allow = match Allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let result = match lint_tree(&options.root, &allow) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    for finding in &result.findings {
        eprintln!("nosq lint: {finding}");
    }
    for stale in &result.stale_allows {
        eprintln!("nosq lint: warning: stale allowlist entry {stale}");
    }
    if !result.is_clean() {
        return fail(format!(
            "{} determinism violations in {} scanned files (allowlist: {})",
            result.findings.len(),
            result.files_scanned,
            allow_path.display()
        ));
    }
    println!(
        "lint OK: {} files scanned, 0 violations, {} stale allowlist entries",
        result.files_scanned,
        result.stale_allows.len()
    );
    ExitCode::SUCCESS
}

/// `nosq serve`: bind, announce the port, and run until drained. The
/// journal defaults to `<out>/serve.journal` so a bare `nosq serve`
/// is crash-safe out of the box.
fn cmd_serve(options: &Options) -> ExitCode {
    signal::install();
    let journal = options
        .journal
        .clone()
        .unwrap_or_else(|| options.out.join("serve.journal"));
    if let Err(code) = create_parent(&journal) {
        return code;
    }
    let server = match Server::bind(ServeOptions {
        addr: options.addr.clone(),
        workers: options.workers,
        journal: Some(journal.clone()),
        cache_capacity: options.cache_cap,
        ckpt_every_insts: options.ckpt_every,
        watch_signals: true,
        ..ServeOptions::default()
    }) {
        Ok(s) => s,
        Err(e) => return fail(format!("binding {}: {e}", options.addr)),
    };
    println!(
        "nosq serve: listening on {} (journal {}, {} recovered)",
        server.local_addr(),
        journal.display(),
        server.recovered()
    );
    // CI scrapes the port from a redirected stdout; don't let the
    // announcement sit in a block buffer while the daemon runs.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    match server.run() {
        Ok(stats) => {
            println!(
                "nosq serve: drained after {} jobs ({} cache hits, {} misses, {} connections)",
                stats.jobs_run, stats.cache_hits, stats.cache_misses, stats.connections
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("serving: {e}")),
    }
}

/// `nosq loadgen`: drive a live daemon, verify every byte, and write
/// `BENCH_serve.json`. Any artifact divergence is a hard failure.
fn cmd_loadgen(options: &Options) -> ExitCode {
    let opts = LoadgenOptions {
        addr: options.addr.clone(),
        clients: options.clients,
        requests_per_client: options.requests,
        hot_pct: options.hot,
        interval_ms: options.interval_ms,
        max_insts: options.max_insts.unwrap_or(2_000),
    };
    let report = match run_loadgen(&opts) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    println!(
        "loadgen: {} clients x {} requests, p50 {:.1} ms, p99 {:.1} ms, {:.1} jobs/s, \
         {} cached responses, {} divergences",
        report.clients,
        report.requests / report.clients.max(1),
        report.p50_ms,
        report.p99_ms,
        report.jobs_per_sec,
        report.cached_responses,
        report.divergence
    );
    if let Err(code) = write_report("BENCH_serve.json", loadgen_json(&report), options) {
        return code;
    }
    if report.divergence > 0 {
        return fail(format!(
            "{} artifact divergences between daemon and local runs",
            report.divergence
        ));
    }
    ExitCode::SUCCESS
}

/// `nosq submit`: run one campaign through a live daemon and write the
/// returned artifacts exactly where `nosq run` would.
fn cmd_submit(spec_path: &str, options: &Options) -> ExitCode {
    let spec = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => return fail(format!("reading {spec_path}: {e}")),
    };
    // Parse locally first: a bad spec should fail with the same
    // message whether or not a daemon is up.
    if let Err(e) = Campaign::from_spec(&spec) {
        return fail(format!("{spec_path}: {e}"));
    }
    let mut client = match ServeClient::connect(&options.addr) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let reply = match client.submit(&spec) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    println!("submitted job {} ({})", reply.job, reply.state);
    let progress = options.progress;
    let outcome = match client.wait_with(&reply.job, |done, total, insts| {
        if progress {
            eprint!("\r{done}/{total} jobs, {insts} insts");
        }
    }) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    if progress && outcome.progress_events > 0 {
        eprintln!();
    }
    if outcome.cached {
        println!("served from cache/journal (no re-simulation)");
    }
    match write_listed(&outcome.artifacts, "artifacts", options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `nosq shutdown`: ask a live daemon to drain and exit.
fn cmd_shutdown(options: &Options) -> ExitCode {
    match ServeClient::connect(&options.addr).and_then(|mut c| c.shutdown()) {
        Ok(()) => {
            println!("daemon at {} is draining", options.addr);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}
