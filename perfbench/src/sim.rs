//! The `sweep` and `long` workloads, untraced: what a user of the
//! campaign engine and of `nosq run --sample` waits for.

use std::time::Instant;

use nosq_core::{sampled_replay_with_arena, SamplePlan, SimArena, SimReport};
use nosq_lab::{
    artifacts, run_campaign_on, synthesize_programs, Artifact, Campaign, CampaignResult, Preset,
    RunOptions,
};
use nosq_trace::TraceBuffer;

use crate::stats::{geomean, median};
use crate::util::{digest, median_time, peak_rss_mb};
use crate::{golden, Checks, Figures, LabFigures};

/// The profile set: both SPEC suites and MediaBench.
pub const PROFILES: [&str; 4] = ["gzip", "gcc", "applu", "gsm.e"];
/// Instructions per simulation job.
pub const BUDGET: u64 = 1_000_000;
/// Worker threads for campaigns: the benchmark's load stays within two
/// cores.
pub const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median. Synthesis runs on one
/// thread, so thread start-up does not swamp the sub-millisecond work.
pub const SETUP_REPS: usize = 51;
/// Fewest measured repetitions, however short the run.
const MIN_REPEATS: usize = 3;
/// The two designs `nosq_rel_time` compares.
pub const DESIGNS: [Preset; 2] = [Preset::Nosq, Preset::BaselineStoresets];

/// The design-space campaign: every paper preset over the profile set.
pub fn sweep_campaign(seed: u64) -> Campaign {
    Preset::all()
        .into_iter()
        .fold(Campaign::builder("sweep"), |b, p| b.preset(p))
        .profiles(PROFILES)
        .max_insts(BUDGET)
        .seed(seed)
        .baseline(Preset::BaselineStoresets.name())
        .build()
        .expect("the sweep campaign is valid")
}

/// A single-design campaign over the profile set; one configuration
/// sends every job down the lab's live path.
pub fn long_campaign(seed: u64, design: Preset) -> Campaign {
    Campaign::builder(format!("long-{}", design.name()))
        .preset(design)
        .profiles(PROFILES)
        .max_insts(BUDGET)
        .seed(seed)
        .build()
        .expect("the long campaign is valid")
}

/// The sampling schedule `long` estimates with: skip a tenth, then 20
/// windows of 1k instructions.
pub fn sample_plan(budget: u64) -> SamplePlan {
    SamplePlan {
        warmup: budget / 10,
        interval: 1_000,
        count: 20,
    }
}

fn run_opts() -> RunOptions {
    RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    }
}

/// Digest of a campaign's artifact bytes.
pub fn artifact_digest(files: &[Artifact]) -> u64 {
    digest(
        files
            .iter()
            .flat_map(|a| [a.file_name.as_bytes(), a.contents.as_bytes()]),
    )
}

/// Digest of simulation reports.
pub fn report_digest(reports: &[SimReport]) -> u64 {
    let json: Vec<String> = reports.iter().map(SimReport::to_json).collect();
    digest(json.iter().map(String::as_bytes))
}

/// Geometric mean over profiles of cycles(`nosq`) / cycles(`baseline-storesets`).
pub fn rel_time(nosq: &[SimReport], baseline: &[SimReport]) -> f64 {
    let ratios: Vec<f64> = nosq
        .iter()
        .zip(baseline)
        .map(|(n, b)| n.relative_time(b))
        .collect();
    geomean(&ratios)
}

fn insts(result: &CampaignResult) -> u64 {
    result.reports.iter().map(|r| r.insts).sum()
}

/// Wall time, parallel efficiency and trace reuse over campaign runs.
pub fn lab_figures(runs: &[&CampaignResult]) -> LabFigures {
    let wall: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    let eff: Vec<f64> = runs
        .iter()
        .map(|r| {
            let busy: f64 = r.timings.iter().map(|t| t.trace_secs + t.sim_secs).sum();
            busy / (r.elapsed.as_secs_f64() * r.threads as f64)
        })
        .collect();
    // A job reused a trace when it recorded none on the replay path
    // (more than one configuration); live jobs never do.
    let (mut reused, mut jobs) = (0usize, 0usize);
    for r in runs {
        jobs += r.timings.len();
        if r.campaign.configs.len() > 1 {
            reused += r.timings.iter().filter(|t| t.trace_secs == 0.0).count();
        }
    }
    LabFigures {
        wall_s: median(&wall),
        parallel_eff: median(&eff),
        trace_reuse: reused as f64 / jobs.max(1) as f64,
    }
}

fn check_budget(checks: &mut Checks, what: &str, reports: &[SimReport], budget: u64) {
    for (i, r) in reports.iter().enumerate() {
        checks.op(r.insts == budget && r.cycles > 0, || {
            format!(
                "{what} job {i}: {} insts in {} cycles, expected {budget} insts",
                r.insts, r.cycles
            )
        });
    }
}

/// `sweep`: the design-space campaign, repeated for `seconds`.
pub fn sweep(seed: u64, seconds: f64) -> Figures {
    let campaign = sweep_campaign(seed);
    let (setup_s, programs) = median_time(SETUP_REPS, |_| synthesize_programs(&campaign, 1));
    let opts = run_opts();
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        runs.push(run_campaign_on(&campaign, &programs, &opts));
    }
    let pipeline_rss_mb = peak_rss_mb();

    let mut checks = Checks::default();
    let files = artifacts(&runs[0]);
    check_budget(&mut checks, "sweep", &runs[0].reports, BUDGET);
    golden::check(&mut checks, "sweep", seed, artifact_digest(&files));
    for (k, r) in runs.iter().enumerate().skip(1) {
        for (i, (a, b)) in runs[0].reports.iter().zip(&r.reports).enumerate() {
            checks.op(a == b, || {
                format!("sweep repeat {k} job {i} differs from repeat 0")
            });
        }
    }

    let col = |p: Preset| campaign.config_index(p.name()).expect("preset column");
    let per_design = |p: Preset| -> Vec<SimReport> {
        (0..PROFILES.len())
            .map(|i| *runs[0].report(i, col(p)))
            .collect()
    };
    let mips: Vec<f64> = runs
        .iter()
        .map(|r| insts(r) as f64 / r.elapsed.as_secs_f64() / 1e6)
        .collect();
    let cold_ms = runs
        .iter()
        .flat_map(|r| &r.timings)
        .map(|t| (t.trace_secs + t.sim_secs) * 1e3)
        .collect();
    checks.note(format!(
        "sweep: {} campaign repeats of {} jobs",
        runs.len(),
        campaign.jobs()
    ));
    let run_refs: Vec<&CampaignResult> = runs.iter().collect();
    Figures {
        setup_s,
        sim_mips: median(&mips),
        nosq_rel_time: rel_time(&per_design(DESIGNS[0]), &per_design(DESIGNS[1])),
        cold_ms,
        peak_rss_mb: peak_rss_mb(),
        pipeline_rss_mb,
        lab: lab_figures(&run_refs),
        serve: None,
        checks,
        reference: files,
        full_reports: Vec::new(),
    }
}

/// `long`: full live runs of both designs for a third of `seconds`,
/// then sampled estimates of the same jobs for the rest. A sample
/// request takes about half as long as a full-run repeat, so it gets
/// the larger share to collect enough latency samples.
pub fn long(seed: u64, seconds: f64) -> Figures {
    let campaigns = DESIGNS.map(|d| long_campaign(seed, d));
    let (setup_s, programs) = median_time(SETUP_REPS, |_| synthesize_programs(&campaigns[0], 1));
    let opts = run_opts();
    let mut fulls: Vec<[CampaignResult; 2]> = Vec::new();
    let start = Instant::now();
    while fulls.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds / 3.0 {
        fulls.push(
            campaigns
                .each_ref()
                .map(|c| run_campaign_on(c, &programs, &opts)),
        );
    }
    let pipeline_rss_mb = peak_rss_mb();

    // One request is what `nosq run --sample` does for the campaign:
    // record each profile once, then estimate both designs on it. A
    // whole request per sample keeps the latency population unimodal.
    let plan = sample_plan(BUDGET);
    let mut arena = SimArena::new();
    let mut sampled: Vec<Vec<nosq_core::SampledReport>> = Vec::new();
    let mut cold_ms = Vec::new();
    let start = Instant::now();
    while sampled.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        let t = Instant::now();
        let mut estimates = Vec::new();
        for program in &programs {
            let trace = TraceBuffer::record_with_arena(program, BUDGET, &mut arena.trace);
            for design in DESIGNS {
                let cfg = design.config(BUDGET);
                estimates.push(sampled_replay_with_arena(
                    program, cfg, &trace, &plan, &mut arena,
                ));
            }
        }
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sampled.push(estimates);
    }

    let mut checks = Checks::default();
    let full_reports: Vec<SimReport> = fulls[0]
        .iter()
        .flat_map(|r| r.reports.iter().copied())
        .collect();
    check_budget(&mut checks, "long", &full_reports, BUDGET);
    golden::check(&mut checks, "long", seed, report_digest(&full_reports));
    for (k, f) in fulls.iter().enumerate().skip(1) {
        for (d, r) in f.iter().enumerate() {
            checks.op(r.reports == fulls[0][d].reports, || {
                format!(
                    "long repeat {k}: full `{}` reports differ from repeat 0",
                    DESIGNS[d].name()
                )
            });
        }
    }
    for (k, s) in sampled.iter().enumerate().skip(1) {
        checks.op(*s == sampled[0], || {
            format!("long sample request {k}: estimates differ from request 0")
        });
    }
    for (i, est) in sampled[0].iter().enumerate() {
        checks.op(est.windows > 0 && est.total_insts == BUDGET, || {
            format!(
                "long estimate {i}: {} windows over {} insts",
                est.windows, est.total_insts
            )
        });
    }

    let mips: Vec<f64> = fulls
        .iter()
        .map(|f| {
            let secs: f64 = f.iter().map(|r| r.elapsed.as_secs_f64()).sum();
            f.iter().map(insts).sum::<u64>() as f64 / secs / 1e6
        })
        .collect();
    let worst_err = sampled[0]
        .iter()
        .enumerate()
        .map(|(i, est)| {
            let full = fulls[0][i % 2].report(i / 2, 0);
            (est.ipc() - full.ipc()).abs() / full.ipc() * 100.0
        })
        .fold(0.0, f64::max);
    checks.note(format!(
        "long: {} full-run repeats, {} sample requests; worst sampled IPC error {worst_err:.2}%",
        fulls.len(),
        sampled.len()
    ));
    let run_refs: Vec<&CampaignResult> = fulls.iter().flatten().collect();
    Figures {
        setup_s,
        sim_mips: median(&mips),
        nosq_rel_time: rel_time(&fulls[0][0].reports, &fulls[0][1].reports),
        cold_ms,
        peak_rss_mb: peak_rss_mb(),
        pipeline_rss_mb,
        lab: lab_figures(&run_refs),
        serve: None,
        checks,
        reference: Vec::new(),
        full_reports,
    }
}
