//! The `nosq serve` daemon: TCP frontend, MPMC-fed worker pool, LRU
//! result cache, crash-safe journal, graceful drain.
//!
//! # Architecture
//!
//! ```text
//!            ┌ handler thread per connection ┐
//!  TCP ──────┤ parse line → dispatch         │
//!            └───────────┬───────────────────┘
//!                 submit │ (registry lock: dedup → cache → enqueue)
//!                        ▼
//!              InjectionQueue<QueuedJob>      ← the model-checked MPMC
//!                        │                      queue from nosq-lab
//!            ┌ worker threads, one WorkerContext each ┐
//!            │ JournaledCampaign::run: checkpoints,   │
//!            │ completion append (fsync) → artifacts  │
//!            │ → cache.insert                         │
//!            └───────────┬──────────────────────────┬─┘
//!                        ▼ registry: job → Done     ▼ condvar notify
//!                `wait` handlers stream progress / final artifacts
//! ```
//!
//! # Concurrency discipline
//!
//! The lock-free part — work hand-off — is exactly the
//! [`InjectionQueue`] that `nosq check` verifies exhaustively,
//! including the close/drain transition the daemon's shutdown uses
//! (`mpmc-close` model). Everything else is deliberately coarse: one
//! mutex over the job registry, one over the cache, one over the
//! journal. Those guard *per-campaign* operations (a handful per
//! second) while each job burns millions of simulated cycles between
//! lock touches, so there is nothing for finer locking to win.
//! [`JournaledCampaign::run`] encodes each journal record before it
//! takes the journal lock; the lock covers only the write and its
//! fsync.
//!
//! The drain protocol mirrors the `mpmc-close` model's happens-before
//! shape: `draining = true` and `queue.close()` happen under the
//! registry lock, and every submission checks `draining` under that
//! same lock *before* pushing — so no push can race the close, every
//! accepted job is drained, and workers may safely exit on
//! [`InjectionQueue::is_drained`].
//!
//! # Determinism
//!
//! Artifacts served over the wire are produced by
//! [`JournaledCampaign::run`], the routine both durable modes of
//! `nosq run` (`--journal` and `--resume`) use, and they are
//! byte-identical to a one-shot [`run_campaign`](nosq_lab::run_campaign)
//! at any thread count (the executor's core guarantee;
//! `tests/it_serve.rs` pins daemon-vs-CLI identity end to end). The
//! cache and journal store those same bytes, so a cache hit, a journal
//! replay after a crash, and a fresh simulation are indistinguishable
//! to clients. Half-finished campaigns are rebuilt at startup by
//! [`CheckpointEntry::recover`](crate::journal::CheckpointEntry::recover),
//! under the same rule as `nosq run --resume`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nosq_check::sync::StdSync;
use nosq_lab::{Campaign, InjectionQueue, ProgressCounters, ResumeState, WorkerContext};

use crate::cache::ResultCache;
use crate::fingerprint::{fingerprint_hex, parse_fingerprint};
use crate::journal::{Journal, JournaledCampaign, Recovered};
use crate::protocol::{
    busy_line, done_line, error_line, evicted_line, parse_request, progress_line, submit_line,
    unknown_job_line, Request,
};
use crate::signal;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address; port 0 binds an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Journal path; `None` runs without crash safety (tests only).
    pub journal: Option<PathBuf>,
    /// LRU cache capacity in campaigns.
    pub cache_capacity: usize,
    /// Poll termination signals (the `nosq serve` binary installs
    /// handlers; in-process test servers leave this off).
    pub watch_signals: bool,
    /// Mid-job checkpoint cadence in committed instructions (journaled
    /// campaigns only); `0` checkpoints at job boundaries only.
    pub ckpt_every_insts: u64,
    /// How long a started-but-unfinished request line may stall before
    /// the connection is dropped (the slow-loris defense); `0`
    /// disables the limit. Idle connections that have sent nothing are
    /// never timed out.
    pub request_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            journal: None,
            cache_capacity: 64,
            watch_signals: false,
            ckpt_every_insts: 50_000,
            request_timeout_ms: 10_000,
        }
    }
}

/// What one daemon lifetime did, reported by [`Server::run`].
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Campaigns simulated by the worker pool this lifetime.
    pub jobs_run: u64,
    /// Submissions answered from the LRU cache (journal replays
    /// included).
    pub cache_hits: u64,
    /// Submissions that had to simulate.
    pub cache_misses: u64,
    /// Completed results recovered from the journal at startup.
    pub recovered: u64,
    /// Half-finished campaigns re-enqueued from journal checkpoints at
    /// startup.
    pub resumed: u64,
    /// Connections accepted.
    pub connections: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
}

/// Per-job registry entry. Deliberately artifact-free: completed
/// artifacts live in the LRU cache (and the journal) only, so a
/// long-lived daemon's registry stays O(jobs seen), not O(bytes
/// served). A `Done` job whose artifacts were evicted answers `wait`
/// with a structured `evicted` error instead of pinning memory.
struct JobState {
    name: String,
    total_jobs: usize,
    status: JobStatus,
    cached: bool,
    progress: Arc<ProgressCounters<StdSync>>,
}

impl JobState {
    /// A newly registered job: `Queued` to run, or `Done` from the
    /// cache.
    fn new(campaign: &Campaign, status: JobStatus) -> JobState {
        JobState {
            name: campaign.name.clone(),
            total_jobs: campaign.jobs(),
            cached: status == JobStatus::Done,
            status,
            progress: Arc::new(ProgressCounters::new()),
        }
    }
}

struct QueuedJob {
    campaign: JournaledCampaign,
    /// Where to pick the campaign back up (journal recovery); `None`
    /// for fresh submissions. Boxed: a decoded simulator snapshot
    /// would otherwise grow every queue cell.
    resume: Option<Box<ResumeState>>,
}

#[derive(Default)]
struct Registry {
    jobs: BTreeMap<u64, JobState>,
    draining: bool,
    cache_hits: u64,
    cache_misses: u64,
    jobs_run: u64,
    connections: u64,
}

struct Shared {
    registry: Mutex<Registry>,
    cv: Condvar,
    queue: InjectionQueue<QueuedJob, StdSync>,
    cache: Mutex<ResultCache>,
    /// `None` runs without crash safety (tests only).
    journal: Option<Mutex<Journal>>,
    watch_signals: bool,
    ckpt_every_insts: u64,
    request_timeout_ms: u64,
}

impl Shared {
    /// Whether handlers and the accept loop should wind down: a drain
    /// was requested and every accepted job has completed.
    fn finished(&self) -> bool {
        let reg = self.registry.lock().expect("registry poisoned");
        reg.draining && reg.jobs.values().all(|job| job.status == JobStatus::Done)
    }

    /// Flips into draining state (idempotent). Taking the registry
    /// lock *before* closing the queue is the happens-before edge the
    /// `mpmc-close` model verifies: no submission can observe
    /// `draining == false` and push after the close.
    fn begin_drain(&self) {
        let mut reg = self.registry.lock().expect("registry poisoned");
        if !reg.draining {
            reg.draining = true;
            self.queue.close();
        }
        drop(reg);
        self.cv.notify_all();
    }

    /// Registers `job` as queued and pushes it, under the registry lock
    /// `reg`. A failed push unregisters it again, and its error says
    /// whether the queue was closed rather than full.
    fn enqueue(&self, reg: &mut Registry, job: QueuedJob) -> Result<(), bool> {
        let fingerprint = job.campaign.fingerprint;
        let state = JobState::new(&job.campaign.campaign, JobStatus::Queued);
        reg.jobs.insert(fingerprint, state);
        self.queue.try_push(job).map_err(|err| {
            reg.jobs.remove(&fingerprint);
            err.is_closed()
        })
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    opts: ServeOptions,
    shared: Shared,
    recovered: u64,
    resumed: u64,
}

impl Server {
    /// Binds the listener, opens the journal, replays recovered results
    /// into the cache, and re-enqueues half-finished campaigns from
    /// their latest valid checkpoints. No thread is spawned yet.
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (journal, salvaged) = match &opts.journal {
            Some(path) => {
                let (journal, salvaged) = Journal::open(path)?;
                (Some(Mutex::new(journal)), salvaged)
            }
            None => (None, Recovered::default()),
        };
        let recovered = salvaged.completed.len() as u64;
        let mut cache = ResultCache::new(opts.cache_capacity);
        for entry in salvaged.completed {
            cache.insert(entry.fingerprint, entry.artifacts);
        }

        let shared = Shared {
            registry: Mutex::new(Registry::default()),
            cv: Condvar::new(),
            queue: InjectionQueue::new(QUEUE_CAPACITY),
            cache: Mutex::new(cache),
            journal,
            watch_signals: opts.watch_signals,
            ckpt_every_insts: opts.ckpt_every_insts,
            request_timeout_ms: opts.request_timeout_ms,
        };

        // Re-enqueue half-finished campaigns. Checkpoint records embed
        // the spec verbatim, so recovery needs nothing beyond the
        // journal itself; a record that cannot be resumed is reported
        // and skipped, never served.
        let mut resumed = 0u64;
        for entry in salvaged.partial {
            let (campaign, resume) = match entry.recover() {
                Ok(resumable) => resumable,
                Err(e) => {
                    eprintln!("nosq serve: warning: {e}; record skipped");
                    continue;
                }
            };
            let id = fingerprint_hex(campaign.fingerprint);
            let mut reg = shared.registry.lock().expect("registry poisoned");
            let resume = resume.map(Box::new);
            match shared.enqueue(&mut reg, QueuedJob { campaign, resume }) {
                Ok(()) => resumed += 1,
                Err(_) => eprintln!("nosq serve: warning: cannot resume {id}: queue full"),
            }
        }

        Ok(Server {
            listener,
            local_addr,
            opts,
            shared,
            recovered,
            resumed,
        })
    }

    /// The bound address (the ephemeral port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Completed results recovered from the journal at bind time.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Runs the daemon to completion: accept loop plus worker pool,
    /// returning once a drain (SIGTERM or `shutdown` request) finishes.
    pub fn run(self) -> std::io::Result<ServeStats> {
        let workers = if self.opts.workers == 0 {
            nosq_check::sync::available_parallelism().clamp(1, 8)
        } else {
            self.opts.workers
        };
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(shared));
            }
            // The accept loop runs on the calling thread; handler
            // threads are scoped too, so `run` returns only after every
            // connection has wound down.
            loop {
                if shared.watch_signals && signal::drain_requested() {
                    shared.begin_drain();
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        shared
                            .registry
                            .lock()
                            .expect("registry poisoned")
                            .connections += 1;
                        scope.spawn(move || handle_connection(shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if shared.finished() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;

        let reg = self.shared.registry.lock().expect("registry poisoned");
        Ok(ServeStats {
            jobs_run: reg.jobs_run,
            cache_hits: reg.cache_hits,
            cache_misses: reg.cache_misses,
            recovered: self.recovered,
            resumed: self.resumed,
            connections: reg.connections,
        })
    }
}

/// One pool worker: drain the injection queue until it is closed and
/// empty, keeping a persistent [`WorkerContext`] so arenas and recorded
/// traces survive across campaigns.
fn worker_loop(shared: &Shared) {
    let mut ctx = WorkerContext::new();
    loop {
        match shared.queue.try_pop() {
            Some(job) => run_one(shared, job, &mut ctx),
            None if shared.queue.is_drained() => return,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn run_one(shared: &Shared, job: QueuedJob, ctx: &mut WorkerContext) {
    let fingerprint = job.campaign.fingerprint;
    let progress = {
        let mut reg = shared.registry.lock().expect("registry poisoned");
        let state = reg
            .jobs
            .get_mut(&fingerprint)
            .expect("queued job is registered");
        state.status = JobStatus::Running;
        Arc::clone(&state.progress)
    };
    shared.cv.notify_all();

    // Journal first (fsync), then cache, then report done — a crash
    // after the append can only lose the *report*, never the result.
    let (_, files, appended) = job.campaign.run(
        shared.journal.as_ref(),
        ctx,
        &progress,
        shared.ckpt_every_insts,
        job.resume.map(|resume| *resume),
    );
    if let Err(e) = appended {
        // Keep serving from memory; the operator sees the warning.
        eprintln!(
            "nosq serve: warning: journal append failed for {}: {e}",
            fingerprint_hex(fingerprint)
        );
    }
    shared
        .cache
        .lock()
        .expect("cache poisoned")
        .insert(fingerprint, files);

    let mut reg = shared.registry.lock().expect("registry poisoned");
    reg.jobs_run += 1;
    let state = reg
        .jobs
        .get_mut(&fingerprint)
        .expect("running job is registered");
    state.status = JobStatus::Done;
    drop(reg);
    shared.cv.notify_all();
}

/// Reads one request line, tolerating read timeouts (which the handler
/// uses to poll for drain). Returns `Ok(false)` on EOF or drain-exit.
///
/// The slow-loris defense lives here: once a request line has
/// *started* (any byte received), the clock runs — a connection that
/// stalls mid-line for `request_timeout_ms` gets `TimedOut` and the
/// handler thread is freed. Idle connections that have sent nothing
/// wait indefinitely (they cost one parked thread, not a wedged one,
/// and drain-exit still reclaims them). Waiting is accumulated from
/// the socket's 100 ms poll ticks rather than a wall clock, keeping
/// the handler loop free of `Instant::now` (the determinism lint's
/// domain) and the timeout exact in poll units.
fn read_line_patient(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<bool> {
    let mut stalled_ms: u64 = 0;
    loop {
        match reader.read_line(line) {
            Ok(0) => return Ok(false),
            Ok(_) => {
                // A timeout can split a line; keep reading until the
                // newline actually arrived.
                if line.ends_with('\n') {
                    return Ok(true);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if line.is_empty() {
                    // Idle poll: once the daemon has fully drained,
                    // stop waiting on quiet clients so `run` can
                    // return.
                    if shared.finished() {
                        return Ok(false);
                    }
                } else {
                    stalled_ms += READ_POLL_MS;
                    if shared.request_timeout_ms != 0 && stalled_ms >= shared.request_timeout_ms {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request line stalled",
                        ));
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The socket read-poll tick; also the unit [`read_line_patient`]
/// accumulates stall time in.
const READ_POLL_MS: u64 = 100;

/// Socket write timeout for responses: a stalled reader cannot pin a
/// handler thread forever.
const WRITE_TIMEOUT_MS: u64 = 10_000;

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Errors on one connection only ever end that connection.
    let _ = serve_connection(shared, stream);
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)))?;
    stream.set_write_timeout(Some(Duration::from_millis(WRITE_TIMEOUT_MS)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match read_line_patient(shared, &mut reader, &mut line) {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                // Slow loris: tell the peer why (best effort) and free
                // the thread.
                let _ = writeln!(writer, "{}", error_line("request line timed out"));
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let request = match parse_request(line.trim_end()) {
            Ok(req) => req,
            Err(msg) => {
                writeln!(writer, "{}", error_line(&msg))?;
                continue;
            }
        };
        match request {
            Request::Ping => {
                writeln!(writer, "{{\"ok\":true}}")?;
            }
            Request::Status => {
                writeln!(writer, "{}", status_response(shared))?;
            }
            Request::Submit { spec } => {
                writeln!(writer, "{}", submit_response(shared, &spec))?;
            }
            Request::Wait { job } => {
                stream_wait(shared, &mut writer, &job)?;
            }
            Request::Shutdown => {
                shared.begin_drain();
                writeln!(writer, "{{\"ok\":true,\"draining\":true}}")?;
            }
        }
        writer.flush()?;
    }
}

/// The submit path. Everything that decides queued-vs-cached-vs-dup —
/// and the push itself — happens under the registry lock, which is
/// what makes the drain cutoff sound (see the module docs).
fn submit_response(shared: &Shared, spec: &str) -> String {
    let campaign = match Campaign::from_spec(spec) {
        Ok(c) => JournaledCampaign::new(c, spec.to_owned()),
        Err(e) => return error_line(&format!("bad spec: {e}")),
    };
    let fingerprint = campaign.fingerprint;
    let id = fingerprint_hex(fingerprint);

    let mut reg = shared.registry.lock().expect("registry poisoned");
    if reg.draining {
        return error_line("draining: not accepting new campaigns");
    }
    // Idempotent resubmission: same spec, same job id. A completed
    // result still in the cache counts as a cache hit — the client
    // gets its bytes with no new simulation — while an in-flight
    // duplicate just shares the pending job. A completed job whose
    // artifacts were since evicted falls through to a fresh enqueue
    // (the resubmit *is* the documented recovery path for eviction).
    let cached = || {
        let mut cache = shared.cache.lock().expect("cache poisoned");
        cache.lookup(fingerprint).is_some()
    };
    match reg.jobs.get(&fingerprint).map(|j| j.status.clone()) {
        Some(JobStatus::Done) => {
            if cached() {
                reg.cache_hits += 1;
                reg.jobs.get_mut(&fingerprint).expect("job present").cached = true;
                return submit_line(&id, "cached");
            }
            reg.jobs.remove(&fingerprint);
        }
        Some(JobStatus::Running) => return submit_line(&id, "running"),
        Some(JobStatus::Queued) => return submit_line(&id, "queued"),
        None => {}
    }
    if cached() {
        reg.cache_hits += 1;
        let state = JobState::new(&campaign.campaign, JobStatus::Done);
        reg.jobs.insert(fingerprint, state);
        drop(reg);
        shared.cv.notify_all();
        return submit_line(&id, "cached");
    }
    reg.cache_misses += 1;
    let job = QueuedJob {
        campaign,
        resume: None,
    };
    match shared.enqueue(&mut reg, job) {
        Ok(()) => submit_line(&id, "queued"),
        Err(closed) => {
            reg.cache_misses -= 1;
            if !closed {
                // Structured backpressure: the client backs off and
                // retries instead of string-matching an error.
                busy_line(BUSY_RETRY_MS)
            } else {
                // Unreachable while the drain check above holds; kept
                // as a real branch rather than a panic so a protocol
                // bug degrades to an error response.
                error_line("draining: not accepting new campaigns")
            }
        }
    }
}

/// Retry hint sent with [`busy_line`] responses: roughly how long one
/// queued campaign takes to start draining under load.
const BUSY_RETRY_MS: u64 = 100;

/// Injection-queue capacity in campaigns (a power of two); a submission
/// beyond it is answered with [`busy_line`].
const QUEUE_CAPACITY: usize = 256;

/// Streams `progress` events until the job completes, then the `done`
/// event with artifacts (looked up in the cache — the registry holds
/// none). `wait` never blocks on an id the daemon is not actually
/// working on: an unknown id and an evicted result each get an
/// immediate structured error.
fn stream_wait(shared: &Shared, writer: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let Some(fingerprint) = parse_fingerprint(id) else {
        writeln!(
            writer,
            "{}",
            error_line(&format!("malformed job id `{id}`"))
        )?;
        return Ok(());
    };
    let mut last = (usize::MAX, u64::MAX);
    loop {
        enum Step {
            Done(String, bool),
            Progress(usize, usize, u64),
            Missing,
        }
        let step = {
            let mut reg = shared.registry.lock().expect("registry poisoned");
            loop {
                let Some(job) = reg.jobs.get(&fingerprint) else {
                    break Step::Missing;
                };
                if job.status == JobStatus::Done {
                    break Step::Done(job.name.clone(), job.cached);
                }
                let (done, insts) = job.progress.snapshot();
                let total = job.total_jobs;
                if (done, insts) != last {
                    last = (done, insts);
                    break Step::Progress(done, total, insts);
                }
                let (guard, _timeout) = shared
                    .cv
                    .wait_timeout(reg, Duration::from_millis(50))
                    .expect("registry poisoned");
                reg = guard;
            }
        };
        match step {
            Step::Missing => {
                writeln!(writer, "{}", unknown_job_line(id))?;
                return Ok(());
            }
            Step::Done(name, cached) => {
                let files = shared
                    .cache
                    .lock()
                    .expect("cache poisoned")
                    .lookup(fingerprint);
                match files {
                    Some(files) => writeln!(writer, "{}", done_line(id, &name, cached, &files))?,
                    None => writeln!(writer, "{}", evicted_line(id))?,
                }
                return Ok(());
            }
            Step::Progress(done, total, insts) => {
                writeln!(writer, "{}", progress_line(id, done, total, insts))?;
                writer.flush()?;
            }
        }
    }
}

fn status_response(shared: &Shared) -> String {
    use nosq_core::ser::JsonObject;
    let reg = shared.registry.lock().expect("registry poisoned");
    let count = |s: JobStatus| reg.jobs.values().filter(|j| j.status == s).count() as u64;
    let (hits, misses, evictions) = shared.cache.lock().expect("cache poisoned").stats();
    let (journal_records, journal_truncated) = shared.journal.as_ref().map_or((0, 0), |j| {
        let j = j.lock().expect("journal poisoned");
        (j.records(), j.truncated_bytes())
    });
    let mut obj = JsonObject::new();
    obj.field_bool("ok", true)
        .field_bool("draining", reg.draining)
        .field_u64("queued", count(JobStatus::Queued))
        .field_u64("running", count(JobStatus::Running))
        .field_u64("completed", count(JobStatus::Done))
        .field_u64("jobs_run", reg.jobs_run)
        .field_u64("cache_hits", reg.cache_hits)
        .field_u64("cache_misses", reg.cache_misses)
        .field_u64("cache_lookup_hits", hits)
        .field_u64("cache_lookup_misses", misses)
        .field_u64("cache_evictions", evictions)
        .field_u64("queue_len", shared.queue.len() as u64)
        .field_u64("journal_records", journal_records)
        .field_u64("journal_truncated_bytes", journal_truncated)
        .field_u64("connections", reg.connections);
    obj.finish()
}
