//! The campaign executor: shards the `configs × profiles` job grid
//! across worker threads without any global lock, runs each job as an
//! incremental simulation session, and reassembles results in grid
//! order so the output is byte-identical regardless of thread count.
//!
//! # Job distribution
//!
//! Workers claim jobs through a single atomic cursor (`fetch_add`) —
//! the classic lock-free MPMC work-pickup for a *fixed* job list, in
//! the spirit of the Virtual-Link / FastForward-style queue designs
//! referenced by the project roadmap: producers and consumers never
//! share a mutex, and each result travels through storage owned by
//! exactly one writer. Completed jobs land in a per-worker buffer (a
//! single-producer sequence consumed once, at join, by the
//! coordinator — an SPSC hand-off with no concurrent readers), and the
//! coordinator merges buffers by job index after the scope joins.
//! Claiming whole jobs (not cycles) keeps the cursor cold: one
//! contended cache line touched once per ~10⁵ simulated instructions.
//!
//! The protocol itself — cursor, buffers, progress counters — lives in
//! [`grid`](crate::grid), written against the `sync` facade so `nosq
//! check` can exhaustively model-check the exact code that runs here
//! on real atomics (see `nosq_lab::checks`); this module keeps the
//! campaign-specific machinery (sessions, trace caching, timing).
//!
//! # Determinism
//!
//! Each job is an independent, deterministic simulation; the merge is
//! by job index; aggregation reads the merged vector in grid order.
//! Thread count therefore changes only wall-clock time, never a byte of
//! any artifact — `tests/it_lab.rs` locks this in.

use std::time::{Duration, Instant};

use nosq_check::sync::StdSync;
use nosq_core::{SimArena, SimCheckpoint, SimReport, Simulator, StopCondition};
use nosq_isa::Program;
use nosq_trace::{synthesize, TraceBuffer};

use crate::campaign::Campaign;
use crate::grid::{run_grid, ProgressCounters};

/// Executor knobs; [`RunOptions::default`] is right for most callers.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Worker threads; `0` means one per available CPU (capped by the
    /// job count).
    pub threads: usize,
    /// Print a live progress line to stderr while the grid runs.
    pub progress: bool,
}

/// Resolves a requested thread count against the machine and job count.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = nosq_check::sync::available_parallelism();
    let want = if requested == 0 { hw } else { requested };
    want.clamp(1, jobs.max(1))
}

/// Maps `f` over `0..len` using `threads` workers and a lock-free
/// atomic-cursor pickup; results return in index order regardless of
/// which worker computed what. The building block behind
/// [`synthesize_programs`] (and so [`run_campaign`]), Table 5's
/// trace-analysis pass and the audit grid ([`run_audit`](crate::run_audit)).
///
/// # Panics
///
/// Propagates panics from `f` (the whole map panics if any job does).
pub fn parallel_map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_ctx(len, threads, 1, || (), |(), i| f(i), None::<fn()>)
}

/// The generic engine behind [`parallel_map_indexed`] and
/// [`run_campaign_on`]: maps `f` over `0..len` with an atomic-cursor
/// pickup, giving every worker a private mutable context built by
/// `init` — the hook through which campaign workers keep a persistent
/// [`SimArena`] and trace cache across jobs. Workers claim `chunk`
/// consecutive indices per cursor bump, so related jobs (a profile's
/// configuration block in a campaign grid) land on one worker and its
/// cached state actually hits. `poll` is an optional coordinator-side
/// hook, invoked periodically while workers drain the job list (and
/// after every job on the serial path); it must not block.
fn parallel_map_ctx<C, T, I, F>(
    len: usize,
    threads: usize,
    chunk: usize,
    init: I,
    f: F,
    mut poll: Option<impl FnMut()>,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    let threads = effective_threads(threads, len);
    let chunk = chunk.max(1);
    if threads <= 1 || len <= 1 {
        let mut ctx = init();
        return (0..len)
            .map(|i| {
                let value = f(&mut ctx, i);
                if let Some(poll) = poll.as_mut() {
                    poll();
                }
                value
            })
            .collect();
    }
    run_grid::<StdSync, _, _, _, _>(
        len,
        threads,
        chunk,
        init,
        f,
        poll.as_mut().map(|p| p as &mut dyn FnMut()),
    )
}

/// Per-worker persistent simulation state: the recyclable arena and the
/// last recorded trace. The job grid is profile-major, so consecutive
/// jobs usually share a profile and the worker replays one recorded
/// trace across every configuration instead of re-running the
/// functional front end per job. On a profile change the worker drops
/// its cached trace and records the next one into that trace's storage,
/// which the arena keeps; so even with no trace cached, a worker that
/// has recorded holds one trace's records.
///
/// The struct is public so long-lived callers — the `nosq serve`
/// daemon's worker pool above all — can keep one context per worker
/// *across* campaigns: the trace cache is keyed by
/// `(profile name, seed, budget)`, which is stable across jobs, so a
/// repeated campaign spec reuses both the arena's buffers and the
/// recorded trace instead of paying the functional front end again.
#[derive(Default)]
pub struct WorkerContext {
    arena: SimArena,
    /// The cached trace, keyed by `(profile name, seed, budget)`.
    trace: Option<(TraceKey, TraceBuffer)>,
}

/// What makes a recorded trace reusable: same workload (profile name +
/// synthesis seed) and same dynamic-instruction budget.
type TraceKey = (&'static str, u64, u64);

impl WorkerContext {
    /// A fresh context (empty arena, no cached trace).
    pub fn new() -> WorkerContext {
        WorkerContext {
            arena: SimArena::new(),
            trace: None,
        }
    }
}

/// Wall-clock measurement of one grid job (the one deliberately
/// nondeterministic output of a campaign; kept out of the byte-stable
/// artifacts and aggregated into the separate timing artifact).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct JobTiming {
    /// Profile index in [`Campaign::profiles`].
    pub profile: usize,
    /// Configuration index in [`Campaign::configs`].
    pub config: usize,
    /// Seconds spent recording the functional trace for this job
    /// (`0.0` when the worker's cached trace was reused).
    pub trace_secs: f64,
    /// Seconds spent in the timing simulation proper.
    pub sim_secs: f64,
    /// Instructions committed.
    pub insts: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl JobTiming {
    /// Simulated MIPS of the timing simulation (instructions per
    /// wall-clock microsecond).
    pub fn mips(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.insts as f64 / self.sim_secs / 1.0e6
        } else {
            0.0
        }
    }
}

/// Largest per-job budget worth buffering for replay: beyond this the
/// recorded trace's memory cost (`size_of::<DynInst>()` bytes per
/// instruction, per worker; 192 MB at this cap) outweighs
/// re-running the streaming tracer per configuration. The worker's
/// arena keeps that storage for its next recording after the trace is
/// released, until the context drops.
const REPLAY_BUDGET_CAP: u64 = 4_000_000;

/// Session chunk size in cycles for jobs that take no snapshots: the
/// boundary at which live progress is published.
const CHUNK_CYCLES: u64 = 8_192;

/// The checkpoint duty of one [`run_job`]: hand `sink` a snapshot every
/// `every` committed instructions (`0` = never), and continue from
/// `resume` instead of starting the job from scratch.
struct JobCkpt<'a> {
    every: u64,
    resume: Option<SimCheckpoint>,
    sink: &'a mut dyn FnMut(&SimCheckpoint),
}

/// Runs grid job `i` as an incremental session on `worker`: the
/// worker's cached trace (re-recorded on profile change) replayed with
/// arena-recycled buffers, or a traced session when recording first
/// would not pay, advanced in chunks after each of which progress is
/// published.
/// Chunked, replayed, resumed and arena-backed execution is
/// bit-identical to a one-shot `simulate()` (the session API's core
/// guarantee), so none of this changes results, only wall-clock.
fn run_job(
    worker: &mut WorkerContext,
    campaign: &Campaign,
    programs: &[Program],
    i: usize,
    progress: &ProgressCounters<StdSync>,
    ckpt: Option<JobCkpt<'_>>,
) -> (SimReport, JobTiming) {
    let n_configs = campaign.configs.len();
    let (p, c) = (i / n_configs, i % n_configs);
    let program = &programs[p];
    let cfg = campaign.configs[c].config.clone();
    let mut no_sink = |_: &SimCheckpoint| {};
    let (every, resume, sink): (_, _, &mut dyn FnMut(&SimCheckpoint)) = match ckpt {
        Some(k) => (k.every, k.resume, k.sink),
        None => (0, None, &mut no_sink),
    };
    // Snapshots need a session over a recorded trace, so a
    // checkpointing or resumed job always records its trace first.
    // Otherwise record first only when the trace will be replayed
    // (several configurations per profile) and stays reasonably sized;
    // else run a traced session, which records its own stream a chunk
    // at a time and holds little more than the instructions in flight.
    let replay =
        every > 0 || resume.is_some() || (n_configs > 1 && cfg.max_insts <= REPLAY_BUDGET_CAP);
    let mut trace_secs = 0.0;
    if replay {
        let key = (campaign.profiles[p].name, campaign.seed, cfg.max_insts);
        if worker.trace.as_ref().map(|(k, _)| *k) != Some(key) {
            // Never hold two traces at once; dropping this one also
            // lets the recording below refill its storage.
            worker.trace = None;
            let started = Instant::now();
            let trace =
                TraceBuffer::record_with_arena(program, cfg.max_insts, &mut worker.arena.trace);
            trace_secs = started.elapsed().as_secs_f64();
            worker.trace = Some((key, trace));
        }
    } else {
        // Release any stale trace; the arena keeps its storage for the
        // worker's next recording.
        worker.trace = None;
    }

    let started = Instant::now();
    let mut sim = match &worker.trace {
        Some((_, trace)) => match &resume {
            Some(ck) => Simulator::resume_with_arena(program, trace, ck, &mut worker.arena),
            None => Simulator::replay_with_arena(program, cfg, trace, &mut worker.arena),
        },
        None => Simulator::with_arena(program, cfg, &mut worker.arena),
    };
    // Counting from 0 (not from a resumed snapshot's position) reports
    // the restored prefix as progress too.
    let mut published = 0;
    while !sim.is_done() {
        let stop = if every > 0 {
            StopCondition::Insts(sim.stats().insts + every)
        } else {
            StopCondition::Cycles(sim.stats().cycles + CHUNK_CYCLES)
        };
        sim.run_until(stop);
        progress.add_insts(sim.stats().insts - published);
        published = sim.stats().insts;
        if every > 0 && !sim.is_done() {
            sink(&sim.checkpoint());
        }
    }
    let report = sim.finish();
    progress.add_insts(report.insts - published);
    progress.job_done();
    let timing = JobTiming {
        profile: p,
        config: c,
        trace_secs,
        sim_secs: started.elapsed().as_secs_f64(),
        insts: report.insts,
        cycles: report.cycles,
    };
    (report, timing)
}

/// The outcome of one campaign run: every job's [`SimReport`] in grid
/// order, plus the campaign it came from.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// Profile-major reports: `reports[p * configs + c]` is profile `p`
    /// under configuration `c`.
    pub reports: Vec<SimReport>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock duration of the grid run (excluded from artifacts —
    /// it is the one nondeterministic output).
    pub elapsed: Duration,
    /// Per-job wall-time and throughput, in grid order. Like `elapsed`,
    /// timing is nondeterministic and therefore kept out of the
    /// byte-stable [`artifacts`](crate::artifacts); see
    /// [`timing_artifact`](crate::aggregate::timing_artifact).
    pub timings: Vec<JobTiming>,
}

impl CampaignResult {
    /// The report for (profile index, config index).
    pub fn report(&self, profile: usize, config: usize) -> &SimReport {
        &self.reports[profile * self.campaign.configs.len() + config]
    }

    /// Aggregate simulated MIPS across all jobs (total committed
    /// instructions over total simulation wall-time, trace recording
    /// excluded); `0.0` for an empty or timing-less result.
    pub fn aggregate_mips(&self) -> f64 {
        let insts: u64 = self.timings.iter().map(|t| t.insts).sum();
        let sim_secs: f64 = self.timings.iter().map(|t| t.sim_secs).sum();
        if sim_secs > 0.0 {
            insts as f64 / sim_secs / 1.0e6
        } else {
            0.0
        }
    }

    /// The baseline report for a profile, if the campaign named a
    /// baseline configuration.
    pub fn baseline_report(&self, profile: usize) -> Option<&SimReport> {
        self.campaign.baseline.map(|c| self.report(profile, c))
    }
}

/// Synthesizes every profile's workload (in parallel) for a campaign.
/// Exposed so callers that need the programs themselves (e.g. trace
/// analysis next to simulation) synthesize exactly once.
pub fn synthesize_programs(campaign: &Campaign, threads: usize) -> Vec<Program> {
    let profiles = &campaign.profiles;
    let seed = campaign.seed;
    parallel_map_indexed(profiles.len(), threads, |i| synthesize(profiles[i], seed))
}

/// Runs a campaign grid over pre-synthesized programs (one per profile,
/// in [`Campaign::profiles`] order).
///
/// # Panics
///
/// Panics if `programs.len() != campaign.profiles.len()`.
pub fn run_campaign_on(
    campaign: &Campaign,
    programs: &[Program],
    opts: &RunOptions,
) -> CampaignResult {
    assert_eq!(
        programs.len(),
        campaign.profiles.len(),
        "one program per profile"
    );
    let n_configs = campaign.configs.len();
    let jobs = campaign.jobs();
    let threads = effective_threads(opts.threads, jobs);
    let progress = ProgressCounters::<StdSync>::new();
    let started = Instant::now();

    let job = |worker: &mut WorkerContext, i: usize| {
        run_job(worker, campaign, programs, i, &progress, None)
    };

    // The coordinator doubles as the progress reporter while the
    // workers drain the grid.
    let poll = opts
        .progress
        .then_some(|| print_progress(&campaign.name, &progress, jobs, started));
    // Claim one profile's whole configuration block per cursor bump so
    // a worker's trace cache hits for every config after the first —
    // unless that would leave workers idle (fewer profiles than
    // threads), in which case fall back to even slices.
    let chunk = if campaign.profiles.len() >= threads {
        n_configs
    } else {
        (jobs / threads).max(1)
    };
    let outcomes: Vec<(SimReport, JobTiming)> =
        parallel_map_ctx(jobs, opts.threads, chunk, WorkerContext::new, job, poll);
    if opts.progress {
        print_progress(&campaign.name, &progress, jobs, started);
        eprintln!();
    }
    let (reports, timings) = outcomes.into_iter().unzip();

    CampaignResult {
        campaign: campaign.clone(),
        reports,
        threads,
        elapsed: started.elapsed(),
        timings,
    }
}

/// Synthesizes the workloads and runs the campaign grid; see
/// [`run_campaign_on`].
pub fn run_campaign(campaign: &Campaign, opts: &RunOptions) -> CampaignResult {
    let programs = synthesize_programs(campaign, opts.threads);
    run_campaign_on(campaign, &programs, opts)
}

/// Where to pick a campaign back up after a crash: the grid index of
/// the first unfinished job, the reports of everything before it, and
/// (when the crash hit mid-job) the interrupted job's simulator
/// checkpoint.
pub struct ResumeState {
    /// Grid index of the first job to (re)run; jobs `0..job_index` are
    /// in `completed`.
    pub job_index: usize,
    /// Reports of the already-finished jobs, in grid order.
    pub completed: Vec<nosq_core::SimReport>,
    /// Mid-job snapshot of job `job_index`, if one was taken; `None`
    /// restarts that job from scratch.
    pub checkpoint: Option<nosq_core::SimCheckpoint>,
}

/// One checkpoint emission from [`run_campaign_durable`]: everything a
/// caller needs to persist to make the campaign resumable at this
/// point.
pub struct CkptEvent<'a> {
    /// Grid index of the in-flight job (`completed.len() == job_index`).
    pub job_index: usize,
    /// Reports of the jobs finished so far, in grid order.
    pub completed: &'a [SimReport],
    /// The in-flight job's simulator snapshot; `None` at a job
    /// boundary (the next job starts from scratch on resume).
    pub state: Option<&'a nosq_core::SimCheckpoint>,
}

/// Runs a campaign grid serially on the calling thread, inside a
/// caller-owned [`WorkerContext`] and publishing into caller-owned
/// [`ProgressCounters`], with optional crash-durable checkpoints.
///
/// It is the engine under `nosq-serve`'s `JournaledCampaign::run`, the
/// one routine that runs a campaign for the `nosq serve` workers and
/// for `nosq run --journal` / `--resume`. Each daemon worker owns one
/// long-lived context, so arenas and recorded traces persist *across*
/// campaigns, and the shared counters are what the daemon streams to
/// `wait`ing clients (a resumed grid counts its restored work there
/// too). Every `ckpt_every_insts` committed instructions, and at every
/// job boundary, it hands `sink` a [`CkptEvent`] to persist, and it can
/// pick a grid back up from a [`ResumeState`], re-simulating only the
/// interrupted job's tail. An un-journaled caller passes cadence 0, no
/// resume point and a sink that ignores its events.
///
/// Reports are bit-identical to [`run_campaign`] at any checkpoint
/// cadence and any resume point (`tests/it_serve.rs` pins this). A
/// checkpointing or resumed job always buffers its trace for replay,
/// so budgets beyond the usual replay cap pay the memory.
///
/// `ckpt_every_insts == 0` disables mid-job snapshots; the sink then
/// sees only job-boundary events. The final boundary (all jobs done)
/// is not emitted — the caller's completion record supersedes it.
///
/// # Panics
///
/// Panics if `programs.len() != campaign.profiles.len()`, or if
/// `resume` is inconsistent with the campaign grid (more completed
/// reports than jobs, or `completed.len() != job_index`).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_durable(
    campaign: &Campaign,
    programs: &[Program],
    ctx: &mut WorkerContext,
    progress: &ProgressCounters<StdSync>,
    ckpt_every_insts: u64,
    resume: Option<ResumeState>,
    sink: &mut dyn FnMut(CkptEvent<'_>),
) -> CampaignResult {
    assert_eq!(
        programs.len(),
        campaign.profiles.len(),
        "one program per profile"
    );
    let n_configs = campaign.configs.len();
    let jobs = campaign.jobs();
    let started = Instant::now();
    let (start_job, mut reports, mut checkpoint) = match resume {
        Some(r) => {
            assert!(r.job_index <= jobs, "resume point outside the grid");
            assert_eq!(
                r.completed.len(),
                r.job_index,
                "resume reports must cover exactly the jobs before the resume point"
            );
            (r.job_index, r.completed, r.checkpoint)
        }
        None => (0, Vec::new(), None),
    };
    let mut timings = Vec::with_capacity(jobs);
    for (i, report) in reports.iter().enumerate() {
        // Pre-completed jobs surface in progress (so a `wait`ing client
        // sees the whole grid) but cost zero wall-clock in timings.
        progress.add_insts(report.insts);
        progress.job_done();
        timings.push(JobTiming {
            profile: i / n_configs,
            config: i % n_configs,
            trace_secs: 0.0,
            sim_secs: 0.0,
            insts: report.insts,
            cycles: report.cycles,
        });
    }

    for i in start_job..jobs {
        let (report, timing) = run_job(
            ctx,
            campaign,
            programs,
            i,
            progress,
            Some(JobCkpt {
                every: ckpt_every_insts,
                resume: checkpoint.take(),
                sink: &mut |state| {
                    sink(CkptEvent {
                        job_index: i,
                        completed: &reports,
                        state: Some(state),
                    })
                },
            }),
        );
        timings.push(timing);
        reports.push(report);
        if i + 1 < jobs {
            sink(CkptEvent {
                job_index: i + 1,
                completed: &reports,
                state: None,
            });
        }
    }

    CampaignResult {
        campaign: campaign.clone(),
        reports,
        threads: 1,
        elapsed: started.elapsed(),
        timings,
    }
}

fn print_progress(name: &str, progress: &ProgressCounters<StdSync>, jobs: usize, started: Instant) {
    let (done, insts) = progress.snapshot();
    let secs = started.elapsed().as_secs_f64();
    let rate = if secs > 0.0 {
        insts as f64 / secs / 1.0e6
    } else {
        0.0
    };
    eprint!("\r[{name}] jobs {done}/{jobs}  ({insts} insts, {rate:.1} Minst/s)   ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Preset;

    #[test]
    fn parallel_map_is_ordered_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out = parallel_map_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn effective_threads_is_bounded() {
        assert_eq!(effective_threads(5, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn campaign_reports_are_indexed_profile_major() {
        let campaign = Campaign::builder("t")
            .preset(Preset::Nosq)
            .preset(Preset::NosqNoDelay)
            .profiles(["gzip", "applu"])
            .max_insts(1_500)
            .build()
            .unwrap();
        let result = run_campaign(&campaign, &RunOptions::default());
        assert_eq!(result.reports.len(), 4);
        // Same profile, different configs: insts match, cycles differ
        // in general; different profiles: different workloads.
        assert_eq!(result.report(0, 0).insts, result.report(0, 1).insts);
        assert!(result.report(0, 0).cycles > 0);
        assert!(result.baseline_report(0).is_none());
    }
}
