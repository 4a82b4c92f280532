//! The `serve-mix` workload: an in-process daemon under open-loop
//! hot/cold traffic, then a closed-loop cold phase for capacity.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nosq_lab::json::Json;
use nosq_lab::{artifacts, run_campaign, synthesize_programs, Artifact, Campaign, RunOptions};
use nosq_serve::{ServeClient, ServeOptions, ServeStats, Server};

use crate::openloop::{is_hot, split, Schedule, Timed};
use crate::sim::{lab_figures, rel_time, SETUP_REPS};
use crate::spans::Spans;
use crate::stats::median;
use crate::util::{median_time, peak_rss_mb, TempDir};
use crate::{Checks, Figures, ServeFigures};

/// Instructions per job of a cold campaign: past the daemon's default
/// checkpoint cadence (50k), so every cold job journals a mid-job
/// checkpoint.
pub const COLD_BUDGET: u64 = 60_000;
/// Share of requests that resubmit the cached campaign.
pub const HOT_PCT: u32 = 50;
/// Client connections: the benchmark's load stays within two cores.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Gap between requests on one connection in the open-loop phase. One
/// cold campaign arrives per interval, about half the daemon's
/// closed-loop capacity on two cores.
const INTERVAL: Duration = Duration::from_millis(400);
/// Share of the run spent in the open-loop phase; the rest measures
/// capacity.
const OPEN_SHARE: f64 = 0.6;
/// How often a `busy` reply is retried before the request counts as
/// refused.
const MAX_BUSY_RETRIES: u64 = 8;

/// A cache-cold campaign: its own name and workload seed.
pub fn cold_spec(seed: u64, i: usize) -> String {
    let s = seed.wrapping_mul(100_000).wrapping_add(i as u64 + 1);
    format!(
        "name = pb-cold-{i}\nconfigs = nosq, baseline-storesets\nprofiles = gzip, gsm.e\n\
         max_insts = {COLD_BUDGET}\nseed = {s}\nbaseline = baseline-storesets\n"
    )
}

/// The campaign every hot request resubmits.
pub fn hot_spec(seed: u64) -> String {
    format!(
        "name = pb-hot\nconfigs = nosq, baseline-storesets\nprofiles = gzip, gsm.e\n\
         max_insts = {COLD_BUDGET}\nseed = {seed}\nbaseline = baseline-storesets\n"
    )
}

/// Binds a daemon with default options, two workers and a journal.
pub fn bind(journal: PathBuf) -> Result<Server, String> {
    Server::bind(ServeOptions {
        workers: WORKERS,
        journal: Some(journal),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("binding the daemon: {e}"))
}

/// A daemon running on its own thread. Dropping it drains the daemon
/// and joins the thread.
pub struct Daemon {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<ServeStats>>>,
}

impl Daemon {
    /// Runs `server` on a new thread.
    pub fn start(server: Server) -> Daemon {
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            thread: Some(thread),
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drains the daemon and waits for its thread.
    pub fn stop(mut self) -> Result<ServeStats, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<ServeStats, String> {
        let thread = self.thread.take().ok_or("daemon already stopped")?;
        let sent = ServeClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        let joined = thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        sent.map_err(|e| format!("shutdown: {e}"))?;
        joined.map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// One answered request.
pub struct Reply {
    /// The served artifacts.
    pub artifacts: Vec<Artifact>,
    /// Whether the daemon answered from its cache.
    pub cached: bool,
    /// Seconds in `submit`, retries included.
    pub submit_s: f64,
    /// Seconds in `wait`.
    pub wait_s: f64,
    /// `busy` replies retried.
    pub retries: u64,
}

/// Submits `spec`, retrying `busy` replies with backoff, then waits for
/// the result; each call is a span of request `req`.
pub fn request(
    sp: &mut Spans,
    req: u64,
    client: &mut ServeClient,
    spec: &str,
) -> Result<Reply, String> {
    let t = Instant::now();
    let mut retries = 0u64;
    let submitted = loop {
        match sp.span("serve.submit", req, |_| client.submit(spec)) {
            Ok(reply) => break reply,
            Err(e) if e.busy() && retries < MAX_BUSY_RETRIES => {
                let backoff = e.retry_ms.unwrap_or(100) << retries.min(4);
                std::thread::sleep(Duration::from_millis(backoff));
                retries += 1;
            }
            Err(e) => return Err(format!("submit: {e}")),
        }
    };
    let submit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = sp
        .span("serve.wait", req, |_| client.wait(&submitted.job))
        .map_err(|e| format!("wait: {e}"))?;
    Ok(Reply {
        artifacts: outcome.artifacts,
        cached: outcome.cached,
        submit_s,
        wait_s: t.elapsed().as_secs_f64(),
        retries,
    })
}

fn connect(addr: &str) -> Result<ServeClient, String> {
    ServeClient::connect(addr).map_err(|e| format!("connecting: {e}"))
}

/// Hit share of the daemon's cache lookups, from its `status`.
pub fn cache_hit_ratio(addr: &str) -> Result<f64, String> {
    let status = connect(addr)?
        .status()
        .map_err(|e| format!("status: {e}"))?;
    let count = |name: &str| status.get(name).and_then(Json::as_u64).unwrap_or(0);
    let (hits, misses) = (count("cache_hits"), count("cache_misses"));
    Ok(hits as f64 / (hits + misses).max(1) as f64)
}

/// Size of a file in bytes (0 if absent).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One open-loop request and its answer.
struct Sent {
    spec: String,
    timed: Timed,
    reply: Reply,
}

fn open_client(
    addr: &str,
    seed: u64,
    k: usize,
    per_client: usize,
    start: Instant,
) -> Result<Vec<Sent>, String> {
    let mut client = connect(addr)?;
    let mut off = Spans::new(false);
    let schedule = Schedule { interval: INTERVAL };
    let mut out = Vec::with_capacity(per_client);
    for i in 0..per_client {
        // Each connection alternates hot and cold, the two out of
        // phase, so one cold campaign arrives per interval; `g` numbers
        // the requests uniquely across connections.
        let g = i * CLIENTS + k;
        let hot = is_hot(i + k, HOT_PCT);
        let spec = if hot {
            hot_spec(seed)
        } else {
            cold_spec(seed, g)
        };
        schedule.wait_for(start, i);
        let sent = start.elapsed();
        let reply = request(&mut off, g as u64, &mut client, &spec)?;
        let timed = Timed {
            hot,
            due: schedule.due(i),
            sent,
            done: start.elapsed(),
        };
        out.push(Sent { spec, timed, reply });
    }
    Ok(out)
}

fn join_all<T>(results: Vec<std::thread::Result<Result<T, String>>>) -> Result<Vec<T>, String> {
    results
        .into_iter()
        .map(|r| r.map_err(|_| "client thread panicked".to_owned())?)
        .collect()
}

/// `serve-mix`: set-up, the open-loop phase, the closed-loop phase,
/// then a byte-for-byte check of every reply against a local run.
pub fn serve_mix(seed: u64, seconds: f64) -> Result<Figures, String> {
    let tmp = TempDir::new("serve-mix")?;
    let hot = hot_spec(seed);
    let hot_campaign = Campaign::from_spec(&hot).map_err(|e| format!("hot spec: {e}"))?;
    let journal = |i: usize| tmp.join(&format!("journal-{i}.bin"));
    let (setup_s, server) = median_time(SETUP_REPS, |i| {
        std::hint::black_box(synthesize_programs(&hot_campaign, 1));
        bind(journal(i))
    });
    let journal = journal(SETUP_REPS - 1);
    let daemon = Daemon::start(server?);
    let addr = daemon.addr().to_owned();

    // Fill the cache; the hot reply is checked with the others.
    let mut off = Spans::new(false);
    let warm = request(&mut off, 0, &mut connect(&addr)?, &hot)?;
    let journal_before = file_len(&journal);

    // At least 12 cold requests, so the tail percentile exists.
    let per_client = ((seconds * OPEN_SHARE / INTERVAL.as_secs_f64()) as usize).max(12);
    let start = Instant::now();
    let open: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let addr = &addr;
                s.spawn(move || open_client(addr, seed, k, per_client, start))
            })
            .collect();
        join_all(handles.into_iter().map(|h| h.join()).collect())
    })?
    .into_iter()
    .flatten()
    .collect();

    // Closed loop: each connection sends its next cold campaign as soon
    // as the last one is answered.
    let closed_secs = seconds * (1.0 - OPEN_SHARE);
    let next = AtomicUsize::new(open.len());
    let start = Instant::now();
    let closed: Vec<(String, Reply, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, next) = (&addr, &next);
                s.spawn(move || -> Result<Vec<_>, String> {
                    let mut client = connect(addr)?;
                    let mut off = Spans::new(false);
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < closed_secs {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let spec = cold_spec(seed, i);
                        let reply = request(&mut off, i as u64, &mut client, &spec)?;
                        out.push((spec, reply, start.elapsed()));
                    }
                    Ok(out)
                })
            })
            .collect();
        join_all(handles.into_iter().map(|h| h.join()).collect())
    })?
    .into_iter()
    .flatten()
    .collect();
    let closed_wall = closed
        .iter()
        .map(|c| c.2)
        .max()
        .unwrap_or_default()
        .as_secs_f64();

    let hit_ratio = cache_hit_ratio(&addr)?;
    daemon.stop()?;
    let pipeline_rss_mb = peak_rss_mb();
    let cold_jobs = open.iter().filter(|s| !s.timed.hot).count() + closed.len();
    let journal_growth = file_len(&journal).saturating_sub(journal_before);

    // Every reply must equal a local run of the same spec, byte for byte.
    let mut checks = Checks::default();
    let mut local_ms = Vec::new();
    let mut lab_runs = Vec::new();
    let mut ratios = (Vec::new(), Vec::new());
    let mut closed_insts = 0u64;
    let mut verify =
        |spec: &str, served: &[&Vec<Artifact>]| -> Result<Vec<nosq_core::SimReport>, String> {
            let campaign = Campaign::from_spec(spec).map_err(|e| format!("bad spec: {e}"))?;
            let t = Instant::now();
            let result = run_campaign(&campaign, &RunOptions::default());
            local_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let local = artifacts(&result);
            for got in served {
                checks.op(**got == local, || {
                    format!("`{}` reply differs from a local run", campaign.name)
                });
            }
            let reports = result.reports.clone();
            lab_runs.push(result);
            Ok(reports)
        };
    let hot_replies: Vec<&Vec<Artifact>> = std::iter::once(&warm.artifacts)
        .chain(
            open.iter()
                .filter(|s| s.timed.hot)
                .map(|s| &s.reply.artifacts),
        )
        .collect();
    verify(&hot, &hot_replies)?;
    for s in open.iter().filter(|s| !s.timed.hot) {
        let reports = verify(&s.spec, &[&s.reply.artifacts])?;
        // Profile-major, configs [nosq, baseline-storesets].
        for pair in reports.chunks(2) {
            ratios.0.push(pair[0]);
            ratios.1.push(pair[1]);
        }
    }
    for (spec, reply, _) in &closed {
        let reports = verify(spec, &[&reply.artifacts])?;
        closed_insts += reports.iter().map(|r| r.insts).sum::<u64>();
    }

    let timed: Vec<Timed> = open.iter().map(|s| s.timed).collect();
    let lat = split(&timed);
    let cold = || open.iter().filter(|s| !s.timed.hot);
    let local_sim_ms = median(&local_ms);
    let retries: u64 = open
        .iter()
        .map(|s| s.reply.retries)
        .chain(closed.iter().map(|c| c.1.retries))
        .sum();
    let cached_cold = cold().filter(|s| s.reply.cached).count();
    checks.op(cached_cold == 0, || {
        format!("{cached_cold} cold requests were answered from the cache")
    });
    let serve = ServeFigures {
        submit_ms: median(&cold().map(|s| s.reply.submit_s * 1e3).collect::<Vec<_>>()),
        wait_ms: median(&cold().map(|s| s.reply.wait_s * 1e3).collect::<Vec<_>>()),
        hot_p50_ms: median(&lat.hot),
        local_sim_ms,
        overhead_ms: median(&lat.cold) - local_sim_ms,
        cache_hit_ratio: hit_ratio,
        busy_retries: retries,
        gen_late_ms: timed.iter().map(Timed::late_ms).fold(0.0, f64::max),
        journal_bytes_per_job: journal_growth as f64 / cold_jobs.max(1) as f64,
    };
    checks.note(format!(
        "serve-mix: {} open-loop requests ({} hot), {} closed-loop; capacity {:.2} campaigns/s; \
         hot p50 {:.3} ms; generator at most {:.3} ms late; {} busy retries",
        open.len(),
        open.len() - cold().count(),
        closed.len(),
        closed.len() as f64 / closed_wall,
        serve.hot_p50_ms,
        serve.gen_late_ms,
        serve.busy_retries
    ));
    Ok(Figures {
        setup_s,
        sim_mips: closed_insts as f64 / closed_wall / 1e6,
        nosq_rel_time: rel_time(&ratios.0, &ratios.1),
        cold_ms: lat.cold,
        peak_rss_mb: peak_rss_mb(),
        pipeline_rss_mb,
        lab: lab_figures(&lab_runs.iter().collect::<Vec<_>>()),
        serve: Some(serve),
        checks,
        reference: Vec::new(),
        full_reports: Vec::new(),
    })
}
