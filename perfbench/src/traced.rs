//! The traced run: a workload's jobs driven serially through each
//! layer's public calls, alternately with spans off and on.
//! Every pass touches every layer: the workload's own jobs take most
//! of it, and a small fixed probe covers each layer the workload does
//! not drive (sampling for `sweep` and `serve-mix`, the daemon for
//! `sweep` and `long`), so each per-layer metric is a measurement on
//! every workload.

use std::path::Path;
use std::time::Instant;

use nosq_core::{
    sampled_replay_with_arena, SampledReport, SimArena, SimReport, Simulator, StopCondition,
};
use nosq_isa::Program;
use nosq_lab::{
    artifacts, run_campaign, run_campaign_on, Artifact, Campaign, CampaignResult, Preset,
    RunOptions,
};
use nosq_serve::{campaign_fingerprint, CheckpointEntry, Journal, ServeClient};
use nosq_trace::{synthesize, DynInst, Profile, TraceBuffer};

use crate::openloop::is_hot;
use crate::serve::{
    bind, cache_hit_ratio, cold_spec, file_len, hot_spec, request, Daemon, COLD_BUDGET, HOT_PCT,
};
use crate::sim::{long_campaign, sample_plan, sweep_campaign, BUDGET, DESIGNS, PROFILES};
use crate::spans::Spans;
use crate::stats::median;
use crate::util::TempDir;
use crate::{measure, metric, Checks, Metric, Output, ServeFigures, Workload};

/// Cycles per `run_until` call, as the lab's executor steps its jobs.
const CHUNK_CYCLES: u64 = 8_192;
/// Budget of the sampling probe.
const SAMPLE_PROBE_BUDGET: u64 = 200_000;
/// Requests of the daemon probe (`sweep`, `long`).
const SERVE_PROBE_REQUESTS: usize = 4;
/// Requests of `serve-mix`'s serial pass.
const SERVE_MIX_REQUESTS: usize = 16;
/// Repetitions of the checkpoint encode and journal append.
const CKPT_REPS: usize = 5;
/// Untraced/traced pass pairs.
const PASS_ROUNDS: usize = 2;

/// What one serial pass computed.
#[derive(Default)]
struct Pass {
    checks: Checks,
    /// Instructions recorded by `trace.record` calls.
    recorded: u64,
    /// Instructions and cycles simulated inside `pipeline.*` spans.
    pipe_insts: u64,
    pipe_cycles: u64,
    /// The workload's own `nosq` reports, for the modelled counts.
    nosq: Vec<SimReport>,
    /// Sampled estimates with the full run each estimates.
    sampled: Vec<(SampledReport, SimReport)>,
    /// Seconds spent recording for and running the sampled estimates.
    sample_secs: f64,
    serve: ServeFigures,
    ckpt_bytes: usize,
    encode_ms: f64,
    append_ms: f64,
    /// `sweep`'s artifacts.
    artifacts: Vec<Artifact>,
    /// `long`'s full-run reports, `nosq` then `baseline-storesets`.
    full_reports: Vec<SimReport>,
}

impl Pass {
    fn simulated(&mut self, r: &SimReport) {
        self.pipe_insts += r.insts;
        self.pipe_cycles += r.cycles;
    }
}

fn programs_for(sp: &mut Spans, campaign: &Campaign) -> Vec<Program> {
    campaign
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| sp.span("trace.synth", i as u64, |_| synthesize(p, campaign.seed)))
        .collect()
}

/// Runs one job to completion on a recorded trace in `run_until` chunks.
fn replay(
    sp: &mut Spans,
    pass: &mut Pass,
    job: u64,
    program: &Program,
    cfg: nosq_core::SimConfig,
    trace: &TraceBuffer,
    arena: &mut SimArena,
) -> SimReport {
    let report = sp.span("pipeline.replay", job, |_| {
        let mut sim = Simulator::replay_with_arena(program, cfg, trace, arena);
        while !sim.is_done() {
            let target = sim.stats().cycles + CHUNK_CYCLES;
            sim.run_until(StopCondition::Cycles(target));
        }
        sim.finish()
    });
    pass.simulated(&report);
    report
}

/// A campaign, serially: each profile's trace recorded once and
/// replayed per configuration (or, `live`, each job traced inside the
/// pipeline through the lab's single-configuration path), then its
/// artifacts.
fn serial_campaign(
    sp: &mut Spans,
    pass: &mut Pass,
    campaign: &Campaign,
    programs: &[Program],
    arena: &mut SimArena,
    live: bool,
) -> (CampaignResult, Vec<Artifact>) {
    let started = Instant::now();
    let n_cfg = campaign.configs.len();
    let mut reports = Vec::with_capacity(campaign.jobs());
    for (p, program) in programs.iter().enumerate() {
        if live {
            for (c, named) in campaign.configs.iter().enumerate() {
                let job = Campaign {
                    configs: vec![named.clone()],
                    profiles: vec![campaign.profiles[p]],
                    baseline: None,
                    ..campaign.clone()
                };
                let opts = RunOptions {
                    threads: 1,
                    ..RunOptions::default()
                };
                let report = sp.span("pipeline.live", (p * n_cfg + c) as u64, |_| {
                    run_campaign_on(&job, std::slice::from_ref(program), &opts).reports[0]
                });
                pass.simulated(&report);
                reports.push(report);
            }
        } else {
            let budget = campaign
                .configs
                .iter()
                .map(|c| c.config.max_insts)
                .max()
                .unwrap_or(0);
            let trace = sp.span("trace.record", p as u64, |_| {
                TraceBuffer::record_with_arena(program, budget, &mut arena.trace)
            });
            pass.recorded += trace.len() as u64;
            for (c, named) in campaign.configs.iter().enumerate() {
                let job = (p * n_cfg + c) as u64;
                let cfg = named.config.clone();
                reports.push(replay(sp, pass, job, program, cfg, &trace, arena));
            }
        }
    }
    let result = CampaignResult {
        campaign: campaign.clone(),
        reports,
        threads: 1,
        elapsed: started.elapsed(),
        timings: Vec::new(),
    };
    let files = sp.span("lab.artifacts", 0, |_| artifacts(&result));
    (result, files)
}

fn nosq_rows(result: &CampaignResult) -> Vec<SimReport> {
    let Some(c) = result.campaign.config_index(Preset::Nosq.name()) else {
        return Vec::new();
    };
    (0..result.campaign.profiles.len())
        .map(|p| *result.report(p, c))
        .collect()
}

/// Sampled estimates of `designs` over `programs`; `fulls[p * designs + d]`
/// is the full run each estimates, or `None` to simulate it here.
fn sample_section(
    sp: &mut Spans,
    pass: &mut Pass,
    programs: &[Program],
    designs: &[Preset],
    budget: u64,
    fulls: Option<&[SimReport]>,
    arena: &mut SimArena,
) {
    let plan = sample_plan(budget);
    sp.span("sample.section", 0, |sp| {
        for (p, program) in programs.iter().enumerate() {
            let t = Instant::now();
            let trace = sp.span("trace.record", p as u64, |_| {
                TraceBuffer::record_with_arena(program, budget, &mut arena.trace)
            });
            pass.sample_secs += t.elapsed().as_secs_f64();
            pass.recorded += trace.len() as u64;
            for (d, design) in designs.iter().enumerate() {
                let job = (p * designs.len() + d) as u64;
                let full = match fulls {
                    Some(f) => f[job as usize],
                    None => replay(sp, pass, job, program, design.config(budget), &trace, arena),
                };
                let t = Instant::now();
                let est = sp.span("sample.replay", job, |_| {
                    sampled_replay_with_arena(program, design.config(budget), &trace, &plan, arena)
                });
                pass.sample_secs += t.elapsed().as_secs_f64();
                pass.sampled.push((est, full));
            }
        }
    });
}

/// Serial serve traffic against a fresh journaled daemon, then every
/// reply checked against a local run of its spec. `serial_local` runs
/// the local check through the layers' calls (spanned); otherwise it is
/// one `run_campaign` call, charged to the lab.
fn serve_section(
    sp: &mut Spans,
    pass: &mut Pass,
    seed: u64,
    requests: usize,
    tmp: &TempDir,
    serial_local: bool,
    arena: &mut SimArena,
) -> Result<(), String> {
    sp.span("serve.section", 0, |sp| {
        let journal = tmp.join(&format!("serve-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let server = sp.span("serve.bind", 0, |_| bind(journal.clone()))?;
        let daemon = Daemon::start(server);
        let addr = daemon.addr().to_owned();
        let mut client = ServeClient::connect(&addr).map_err(|e| format!("connecting: {e}"))?;
        let hot = hot_spec(seed);
        let warm = request(sp, 0, &mut client, &hot)?;
        let journal_before = file_len(&journal);
        let mut sent: Vec<(String, bool, f64, crate::serve::Reply)> = Vec::new();
        let mut late = Vec::new();
        let mut ready = Instant::now();
        for i in 0..requests {
            let hot_req = is_hot(i, HOT_PCT);
            let spec = if hot_req {
                hot.clone()
            } else {
                cold_spec(seed, i)
            };
            // Serial traffic: each request is due when the previous
            // one is answered.
            let t = Instant::now();
            late.push((t - ready).as_secs_f64() * 1e3);
            let reply = request(sp, i as u64 + 1, &mut client, &spec)?;
            ready = Instant::now();
            sent.push((spec, hot_req, (ready - t).as_secs_f64() * 1e3, reply));
        }
        let hit_ratio = sp.span("serve.status", 0, |_| cache_hit_ratio(&addr))?;
        drop(client);
        sp.span("serve.stop", 0, |_| daemon.stop())?;
        let cold_jobs = sent.iter().filter(|s| !s.1).count();
        let growth = file_len(&journal).saturating_sub(journal_before);
        let _ = std::fs::remove_file(&journal);

        let mut local_ms = Vec::new();
        let mut specs: Vec<(&str, Vec<&Vec<Artifact>>)> =
            vec![(hot.as_str(), vec![&warm.artifacts])];
        for s in &sent {
            if s.1 {
                specs[0].1.push(&s.3.artifacts);
            } else {
                specs.push((s.0.as_str(), vec![&s.3.artifacts]));
            }
        }
        for (i, (spec, served)) in specs.iter().enumerate() {
            let campaign = Campaign::from_spec(spec).map_err(|e| format!("bad spec: {e}"))?;
            let t = Instant::now();
            let files = sp.span("lab.local", i as u64, |sp| {
                if serial_local {
                    let programs = programs_for(sp, &campaign);
                    let (result, files) =
                        serial_campaign(sp, pass, &campaign, &programs, arena, false);
                    pass.nosq.extend(nosq_rows(&result));
                    files
                } else {
                    artifacts(&run_campaign(&campaign, &RunOptions::default()))
                }
            });
            local_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for got in served {
                pass.checks.op(**got == files, || {
                    format!("`{}` reply differs from a local run", campaign.name)
                });
            }
        }
        let lat =
            |hot: bool| -> Vec<f64> { sent.iter().filter(|s| s.1 == hot).map(|s| s.2).collect() };
        let cold_replies = || sent.iter().filter(|s| !s.1).map(|s| &s.3);
        let local_sim_ms = median(&local_ms);
        pass.serve = ServeFigures {
            submit_ms: median(&cold_replies().map(|r| r.submit_s * 1e3).collect::<Vec<_>>()),
            wait_ms: median(&cold_replies().map(|r| r.wait_s * 1e3).collect::<Vec<_>>()),
            hot_p50_ms: median(&lat(true)),
            local_sim_ms,
            overhead_ms: median(&lat(false)) - local_sim_ms,
            cache_hit_ratio: hit_ratio,
            busy_retries: sent.iter().map(|s| s.3.retries).sum(),
            gen_late_ms: late.iter().copied().fold(0.0, f64::max),
            journal_bytes_per_job: growth as f64 / cold_jobs.max(1) as f64,
        };
        Ok(())
    })
}

/// A mid-run checkpoint of a cold job: encoded, then appended to a
/// fresh journal, each `CKPT_REPS` times.
fn ckpt_section(
    sp: &mut Spans,
    pass: &mut Pass,
    seed: u64,
    tmp: &TempDir,
    arena: &mut SimArena,
) -> Result<(), String> {
    sp.span("ckpt.section", 0, |sp| {
        let spec = cold_spec(seed, 0);
        let campaign = Campaign::from_spec(&spec).map_err(|e| format!("bad spec: {e}"))?;
        let program = sp.span("trace.synth", 0, |_| {
            synthesize(campaign.profiles[0], campaign.seed)
        });
        let trace = sp.span("trace.record", 0, |_| {
            TraceBuffer::record_with_arena(&program, COLD_BUDGET, &mut arena.trace)
        });
        pass.recorded += trace.len() as u64;
        let cfg = campaign.configs[0].config.clone();
        let (snap, stats) = sp.span("pipeline.replay", 0, |sp| {
            let mut sim = Simulator::replay_with_arena(&program, cfg, &trace, arena);
            sim.run_until(StopCondition::Insts(COLD_BUDGET / 2));
            let snap = sp.span("ckpt.snapshot", 0, |_| sim.checkpoint());
            (snap, *sim.stats())
        });
        pass.simulated(&stats);
        let mut encode = Vec::new();
        let mut bytes = Vec::new();
        for k in 0..CKPT_REPS {
            let t = Instant::now();
            bytes = sp.span("ckpt.encode", k as u64, |_| snap.to_bytes());
            encode.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass.ckpt_bytes = bytes.len();
        pass.encode_ms = median(&encode);
        let entry = CheckpointEntry {
            fingerprint: campaign_fingerprint(&campaign),
            name: campaign.name.clone(),
            spec,
            job_index: 0,
            completed: Vec::new(),
            state: Some(bytes),
        };
        let path = tmp.join(&format!("ckpt-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = sp
            .span("journal.open", 0, |_| Journal::open(&path))
            .map_err(|e| format!("opening a journal: {e}"))?;
        let mut append = Vec::new();
        for k in 0..CKPT_REPS {
            let t = Instant::now();
            sp.span("journal.append", k as u64, |_| {
                journal.append_checkpoint(&entry)
            })
            .map_err(|e| format!("appending a checkpoint: {e}"))?;
            append.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass.append_ms = median(&append);
        drop(journal);
        let _ = std::fs::remove_file(&path);
        Ok(())
    })
}

/// One serial pass of `workload`: its own jobs, then a probe of each
/// layer it does not drive, then the checkpoint section.
fn pass(sp: &mut Spans, workload: Workload, seed: u64, tmp: &TempDir) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut arena = SimArena::new();
    match workload {
        Workload::Sweep => {
            let campaign = sweep_campaign(seed);
            let programs = programs_for(sp, &campaign);
            let (result, files) = sp.span("lab.campaign", 0, |sp| {
                serial_campaign(sp, &mut pass, &campaign, &programs, &mut arena, false)
            });
            pass.nosq = nosq_rows(&result);
            pass.artifacts = files;
        }
        Workload::Long => {
            let campaigns = DESIGNS.map(|d| long_campaign(seed, d));
            let programs = programs_for(sp, &campaigns[0]);
            for c in &campaigns {
                let (result, _) = sp.span("lab.campaign", 0, |sp| {
                    serial_campaign(sp, &mut pass, c, &programs, &mut arena, true)
                });
                pass.full_reports.extend(&result.reports);
            }
            pass.nosq = pass.full_reports[..PROFILES.len()].to_vec();
            // Full runs in (profile, design) order, as the sampler walks.
            let n = PROFILES.len();
            let fulls: Vec<SimReport> = (0..n)
                .flat_map(|p| [pass.full_reports[p], pass.full_reports[n + p]])
                .collect();
            let fulls = Some(fulls.as_slice());
            sample_section(
                sp, &mut pass, &programs, &DESIGNS, BUDGET, fulls, &mut arena,
            );
        }
        Workload::ServeMix => {
            let requests = SERVE_MIX_REQUESTS;
            serve_section(sp, &mut pass, seed, requests, tmp, true, &mut arena)?;
        }
    }
    if workload != Workload::Long {
        let gzip = Profile::by_name(PROFILES[0]).expect("profile exists");
        let probe = [sp.span("trace.synth", 0, |_| synthesize(gzip, seed))];
        let budget = SAMPLE_PROBE_BUDGET;
        sample_section(
            sp,
            &mut pass,
            &probe,
            &[Preset::Nosq],
            budget,
            None,
            &mut arena,
        );
    }
    if workload != Workload::ServeMix {
        let requests = SERVE_PROBE_REQUESTS;
        serve_section(sp, &mut pass, seed, requests, tmp, false, &mut arena)?;
    }
    ckpt_section(sp, &mut pass, seed, tmp, &mut arena)?;
    Ok(pass)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The traced run: untraced figures, then the serial pass with spans
/// off and on; prints every per-layer metric.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&Path>,
) -> Result<Output, String> {
    let figs = measure(workload, seed, seconds / 2.0)?;
    let tmp = TempDir::new("traced")?;
    let mut checks = figs.checks;
    // Untraced and traced passes alternate; the overhead compares the
    // best of each.
    let (mut wall_off, mut wall_on) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..PASS_ROUNDS {
        for on in [false, true] {
            let mut sp = Spans::new(on);
            let t = Instant::now();
            let mut p = pass(&mut sp, workload, seed, &tmp)?;
            let wall = t.elapsed().as_secs_f64();
            checks.merge(std::mem::take(&mut p.checks));
            if on {
                wall_on = wall_on.min(wall);
                last = Some((sp, p, wall));
            } else {
                wall_off = wall_off.min(wall);
            }
        }
    }
    let (sp, pass, last_wall) = last.expect("at least one traced pass");
    match workload {
        Workload::Sweep => checks.op(pass.artifacts == figs.reference, || {
            "serial sweep artifacts differ from the parallel campaign's".to_owned()
        }),
        Workload::Long => checks.op(pass.full_reports == figs.full_reports, || {
            "serial long reports differ from the parallel campaigns'".to_owned()
        }),
        Workload::ServeMix => {}
    }

    let layer = sp.layer_self();
    let name = sp.name_self();
    let get = |m: &std::collections::BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    for (l, secs) in &layer {
        checks.note(format!("self time {l:<9} {secs:>9.4} s"));
    }
    if let Some(path) = spans_out {
        std::fs::write(path, sp.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Modelled NoSQ counts over the workload's `nosq` runs.
    let sum = |f: fn(&SimReport) -> u64| pass.nosq.iter().map(f).sum::<u64>();
    let loads = sum(|r| r.memory.loads);
    let insts = sum(|r| r.insts);
    let squashes = sum(|r| r.verification.bypass_mispredicts + r.verification.ordering_squashes);
    let errs: Vec<f64> = pass
        .sampled
        .iter()
        .map(|(est, full)| (est.ipc() - full.ipc()) / full.ipc() * 100.0)
        .collect();
    let detail: u64 = pass
        .sampled
        .iter()
        .map(|(est, _)| est.measured_insts + est.windows * nosq_core::sample::DETAIL_WARMUP)
        .sum();
    let covered: u64 = pass.sampled.iter().map(|(est, _)| est.total_insts).sum();
    let serve = figs.serve.unwrap_or(pass.serve);
    let record_s = get(&name, "trace.record");
    let busy = get(&layer, "pipeline");

    let metrics: Vec<Metric> = vec![
        metric("trace.self_s", get(&layer, "trace"), "s"),
        metric("trace.synth_s", get(&name, "trace.synth"), "s"),
        metric("trace.record_s", record_s, "s"),
        metric(
            "trace.record_mips",
            pass.recorded as f64 / record_s / 1e6,
            "MIPS",
        ),
        metric(
            "trace.bytes_per_inst",
            std::mem::size_of::<DynInst>() as f64,
            "B",
        ),
        metric("pipeline.busy_s", busy, "s"),
        metric("pipeline.mips", pass.pipe_insts as f64 / busy / 1e6, "MIPS"),
        metric(
            "pipeline.ns_per_cycle",
            busy * 1e9 / pass.pipe_cycles.max(1) as f64,
            "ns",
        ),
        metric("pipeline.rss_mb", figs.pipeline_rss_mb, "MB"),
        metric(
            "pipeline.squash_per_kinst",
            1e3 * ratio(squashes, insts),
            "1/kinst",
        ),
        metric(
            "predictor.bypass_frac",
            ratio(sum(|r| r.memory.bypassed_loads), loads),
            "ratio",
        ),
        metric(
            "predictor.mispredict_per_kload",
            1e3 * ratio(sum(|r| r.verification.bypass_mispredicts), loads),
            "1/kload",
        ),
        metric(
            "svw.reexec_frac",
            ratio(sum(|r| r.verification.backend_dcache_reads), loads),
            "ratio",
        ),
        metric("sample.busy_s", get(&layer, "sample"), "s"),
        metric("sample.detail_frac", ratio(detail, covered), "ratio"),
        metric(
            "sample.ipc_bias_pct",
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            "%",
        ),
        metric(
            "sample.ipc_err_pct",
            errs.iter().map(|e| e.abs()).fold(0.0, f64::max),
            "%",
        ),
        metric(
            "sample.covered_mips",
            covered as f64 / pass.sample_secs / 1e6,
            "MIPS",
        ),
        metric("lab.self_s", get(&layer, "lab"), "s"),
        metric("lab.wall_s", figs.lab.wall_s, "s"),
        metric("lab.parallel_eff", figs.lab.parallel_eff, "ratio"),
        metric("lab.trace_reuse", figs.lab.trace_reuse, "ratio"),
        metric("lab.artifacts_s", get(&name, "lab.artifacts"), "s"),
        metric("serve.self_s", get(&layer, "serve"), "s"),
        metric("serve.submit_ms", serve.submit_ms, "ms"),
        metric("serve.wait_ms", serve.wait_ms, "ms"),
        metric("serve.local_sim_ms", serve.local_sim_ms, "ms"),
        metric("serve.overhead_ms", serve.overhead_ms, "ms"),
        metric("serve.hot_p50_ms", serve.hot_p50_ms, "ms"),
        metric("serve.cache_hit_ratio", serve.cache_hit_ratio, "ratio"),
        metric("serve.busy_retries", serve.busy_retries as f64, "count"),
        metric("serve.gen_late_ms", serve.gen_late_ms, "ms"),
        metric("journal.self_s", get(&layer, "journal"), "s"),
        metric("journal.bytes_per_job", serve.journal_bytes_per_job, "B"),
        metric("journal.append_ms", pass.append_ms, "ms"),
        metric("ckpt.self_s", get(&layer, "ckpt"), "s"),
        metric("ckpt.bytes", pass.ckpt_bytes as f64, "B"),
        metric("ckpt.encode_ms", pass.encode_ms, "ms"),
        metric(
            "tracing.overhead_pct",
            (wall_on / wall_off - 1.0) * 100.0,
            "%",
        ),
        metric(
            "tracing.cover_pct",
            sp.covered_secs() / last_wall * 100.0,
            "%",
        ),
    ];
    checks.note(format!(
        "best traced pass {wall_on:.3} s, best untraced {wall_off:.3} s, {} spans",
        sp.spans().len()
    ));
    Ok(Output { checks, metrics })
}
