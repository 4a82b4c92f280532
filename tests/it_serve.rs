//! Integration: the `nosq serve` daemon against the offline engine.
//!
//! Everything here runs the real [`Server`] in-process on an ephemeral
//! port — the same code path `nosq serve` executes — and talks to it
//! through the real [`ServeClient`]. The contracts under test:
//!
//! 1. **Byte-identity**: artifacts served over the wire are exactly the
//!    bytes a one-shot `nosq run` of the same spec produces.
//! 2. **Concurrency**: ≥ 8 simultaneous clients get identical bytes
//!    for identical campaigns, with no divergence.
//! 3. **Crash safety**: a daemon restarted on a journal with a torn
//!    tail (the kill -9 mid-append case) recovers every completed
//!    record, truncates the tear, and serves resubmissions from the
//!    journal without re-simulating.
//! 4. **Cache accounting**: hits, misses, and the `cached` response
//!    flag add up.

use std::net::SocketAddr;
use std::path::PathBuf;

use nosq_check::sync::StdSync;
use nosq_lab::json::Json;
use nosq_lab::{
    artifacts, run_campaign, run_campaign_durable, synthesize_programs, Artifact, Campaign,
    CampaignResult, ProgressCounters, RunOptions, WorkerContext,
};
use nosq_serve::{ServeClient, ServeOptions, ServeStats, Server};

/// A small two-config campaign: enough to produce real matrix /
/// summary / speedup artifacts, small enough to run in milliseconds.
const SPEC: &str = "name = it-serve\nconfigs = nosq, baseline-storesets\n\
                    profiles = gzip\nmax_insts = 1500\nbaseline = baseline-storesets\n";

/// A spec that fingerprints differently from [`SPEC`] (other seed).
fn cold_spec(k: usize) -> String {
    format!(
        "name = it-serve-cold-{k}\nconfigs = nosq\nprofiles = gzip\n\
         max_insts = 1500\nseed = {}\n",
        4_000 + k as u64
    )
}

fn start(journal: Option<PathBuf>) -> (SocketAddr, std::thread::JoinHandle<ServeStats>) {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        journal,
        cache_capacity: 8,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(&addr.to_string()).expect("connect")
}

fn local_artifacts(spec: &str) -> Vec<Artifact> {
    let campaign = Campaign::from_spec(spec).expect("spec parses");
    artifacts(&run_campaign(&campaign, &RunOptions::default()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nosq-it-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn daemon_serves_cli_identical_bytes() {
    let (addr, handle) = start(None);
    let mut client = connect(addr);

    let outcome = client.run_spec(SPEC).expect("run spec");
    assert_eq!(outcome.name, "it-serve");
    assert!(!outcome.cached, "first submission must simulate");
    assert!(!outcome.artifacts.is_empty());
    assert_eq!(
        outcome.artifacts,
        local_artifacts(SPEC),
        "served artifacts must be byte-identical to `nosq run`"
    );

    // Unknown job ids are a polite protocol error, not a hang.
    let err = client.wait("0000000000000000").unwrap_err();
    assert!(err.to_string().contains("unknown job"), "{err}");
    let err = client.wait("not-a-fingerprint").unwrap_err();
    assert!(err.to_string().contains("malformed job id"), "{err}");

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.jobs_run, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn eight_concurrent_clients_see_no_divergence() {
    let (addr, handle) = start(None);
    const CLIENTS: usize = 8;

    let reference = local_artifacts(SPEC);
    let outcomes: Vec<(Vec<Artifact>, Vec<Artifact>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    // Everyone hammers the shared hot campaign…
                    let hot = client.run_spec(SPEC).expect("hot spec");
                    assert_eq!(
                        &hot.artifacts, reference,
                        "client {k}: hot artifacts diverged"
                    );
                    // …and runs one private cold campaign of its own.
                    let cold = client.run_spec(&cold_spec(k)).expect("cold spec");
                    (hot.artifacts, cold.artifacts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (k, (hot, cold)) in outcomes.iter().enumerate() {
        assert_eq!(hot, &reference);
        assert_eq!(
            cold,
            &local_artifacts(&cold_spec(k)),
            "client {k}: cold artifacts diverged from the local run"
        );
    }

    let mut client = connect(addr);
    let status = client.status().expect("status");
    let num = |n: &str| status.get(n).and_then(Json::as_u64).unwrap_or(u64::MAX);
    // The hot campaign simulates exactly once; every other hot
    // submission is a cache hit or an idempotent-duplicate reply.
    assert_eq!(num("jobs_run"), 1 + CLIENTS as u64);
    assert_eq!(num("completed"), 1 + CLIENTS as u64);
    assert_eq!(num("queued"), 0);
    assert_eq!(num("running"), 0);

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.jobs_run, 1 + CLIENTS as u64);
    assert_eq!(stats.connections as usize, CLIENTS + 1);
}

#[test]
fn killed_daemon_resumes_from_a_torn_journal() {
    let dir = scratch("journal");
    let journal = dir.join("serve.journal");

    // Lifetime 1: complete one campaign, drain cleanly.
    let (addr, handle) = start(Some(journal.clone()));
    let mut client = connect(addr);
    let first = client.run_spec(SPEC).expect("first run");
    assert!(!first.cached);
    client.shutdown().expect("shutdown");
    handle.join().expect("join server");

    // Simulate kill -9 mid-append: a record header promising more
    // payload than was ever written. Recovery must drop exactly this
    // tail and keep the completed record before it.
    let clean_len = std::fs::metadata(&journal).unwrap().len();
    assert!(clean_len > 12, "journal must hold the completed record");
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(b"torn payload");
    std::fs::write(&journal, &bytes).unwrap();

    // Lifetime 2: recover, serve the resubmission without simulating.
    let (addr, handle) = start(Some(journal.clone()));
    let mut client = connect(addr);
    let status = client.status().expect("status");
    let num = |n: &str| status.get(n).and_then(Json::as_u64).unwrap_or(u64::MAX);
    // Two valid records survive: the job-boundary checkpoint appended
    // mid-campaign and the completion record that supersedes it.
    assert_eq!(num("journal_records"), 2);
    assert!(
        num("journal_truncated_bytes") > 0,
        "recovery must report the discarded tail"
    );
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        clean_len,
        "the torn tail must be physically truncated"
    );

    let resumed = client.run_spec(SPEC).expect("resumed run");
    assert!(
        resumed.cached,
        "journal replay must serve without simulating"
    );
    assert_eq!(resumed.artifacts, first.artifacts);
    assert_eq!(resumed.artifacts, local_artifacts(SPEC));

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.jobs_run, 0, "nothing may re-simulate after recovery");
    assert_eq!(stats.recovered, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_journal_files_are_refused() {
    let dir = scratch("foreign");
    let journal = dir.join("not-a-journal");
    std::fs::write(&journal, b"definitely not NOSQJRNL data").unwrap();
    let err = match Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        journal: Some(journal),
        ..ServeOptions::default()
    }) {
        Err(e) => e,
        Ok(_) => panic!("a foreign file must not be clobbered"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_accounting_adds_up() {
    let (addr, handle) = start(None);
    let mut client = connect(addr);

    let miss = client.run_spec(SPEC).expect("first");
    let hit = client.run_spec(SPEC).expect("second");
    let cold = client.run_spec(&cold_spec(99)).expect("third");
    assert!(!miss.cached);
    assert!(hit.cached, "resubmission must be served from cache");
    assert!(!cold.cached);
    assert_eq!(hit.artifacts, miss.artifacts);

    let status = client.status().expect("status");
    let num = |n: &str| status.get(n).and_then(Json::as_u64).unwrap_or(u64::MAX);
    assert_eq!(num("cache_hits"), 1);
    assert_eq!(num("cache_misses"), 2);
    assert_eq!(num("jobs_run"), 2);

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
}

/// What a finished grid's progress counters must read: every job done
/// and every committed instruction counted.
fn completion(result: &CampaignResult) -> (usize, u64) {
    let insts = result.reports.iter().map(|r| r.insts).sum();
    (result.reports.len(), insts)
}

/// Runs `spec` through the durable runner without snapshots and at
/// cadence 400, checks each run against `run_campaign` byte for byte
/// and its progress counters against its reports, and captures the
/// first mid-job checkpoint event as the journal record a crashed
/// process would have fsynced — the raw material for the resume tests.
fn mid_job_entry(spec: &str) -> nosq_serve::CheckpointEntry {
    let journaled =
        nosq_serve::JournaledCampaign::new(Campaign::from_spec(spec).unwrap(), spec.to_owned());
    let campaign = &journaled.campaign;
    let programs = synthesize_programs(campaign, 1);
    let local = local_artifacts(spec);
    let mut captured: Option<nosq_serve::CheckpointEntry> = None;
    let mut ctx = WorkerContext::new();
    for cadence in [0, 400] {
        let progress: ProgressCounters<StdSync> = ProgressCounters::new();
        let mut sink = |ev: nosq_lab::CkptEvent<'_>| {
            assert!(cadence > 0 || ev.state.is_none(), "cadence 0 snapshots");
            if captured.is_none() && ev.state.is_some() {
                captured = Some(journaled.checkpoint(&ev));
            }
        };
        let full = run_campaign_durable(
            campaign, &programs, &mut ctx, &progress, cadence, None, &mut sink,
        );
        assert_eq!(
            artifacts(&full),
            local,
            "cadence {cadence}: the durable runner must match run_campaign bit-for-bit"
        );
        assert_eq!(progress.snapshot(), completion(&full), "cadence {cadence}");
    }
    captured.expect("a 1500-inst job checkpoints at cadence 400")
}

/// The tentpole's core claim at the library level: finishing a
/// campaign from a mid-job checkpoint record produces artifacts
/// byte-identical to the uninterrupted run — re-simulating only the
/// interrupted job's tail, never serving partially-applied state — and
/// progress that counts the restored prefix too.
#[test]
fn checkpoint_resume_is_bit_identical_to_uninterrupted() {
    for spec in [SPEC.to_owned(), cold_spec(0)] {
        let campaign = Campaign::from_spec(&spec).unwrap();
        let entry = mid_job_entry(&spec);
        let programs = synthesize_programs(&campaign, 1);
        for cadence in [0, 400] {
            // Resume from the captured record alone, exactly as
            // recovery does.
            let (_, resume) = entry.recover().expect("checkpoint recovers");
            let resume = resume.expect("checkpoint decodes");
            assert!(resume.checkpoint.is_some(), "mid-job state must restore");
            let mut ctx = WorkerContext::new();
            let progress: ProgressCounters<StdSync> = ProgressCounters::new();
            let resumed = run_campaign_durable(
                &campaign,
                &programs,
                &mut ctx,
                &progress,
                cadence,
                Some(resume),
                &mut |_| {},
            );
            assert_eq!(
                artifacts(&resumed),
                local_artifacts(&spec),
                "resumed artifacts must be byte-identical to the uninterrupted run"
            );
            assert_eq!(
                progress.snapshot(),
                completion(&resumed),
                "{} at cadence {cadence}: progress must count the restored prefix",
                campaign.name
            );
        }
    }
}

/// A daemon started on a journal holding only a mid-job checkpoint
/// (the kill -9 mid-campaign case) re-enqueues the half-finished job,
/// finishes it from the checkpoint, and serves the same bytes a fresh
/// simulation would — then the completion record supersedes the
/// checkpoint for the next lifetime.
#[test]
fn daemon_resumes_half_finished_jobs_from_the_journal() {
    let dir = scratch("partial");
    let journal_path = dir.join("serve.journal");
    let entry = mid_job_entry(SPEC);
    {
        let (mut journal, recovered) = nosq_serve::Journal::open(&journal_path).unwrap();
        assert!(recovered.completed.is_empty());
        journal.append_checkpoint(&entry).unwrap();
    }

    let (addr, handle) = start(Some(journal_path.clone()));
    let mut client = connect(addr);
    let job = nosq_serve::fingerprint_hex(entry.fingerprint);
    let outcome = client.wait(&job).expect("half-finished job completes");
    assert_eq!(outcome.artifacts, local_artifacts(SPEC));
    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.resumed, 1, "the checkpoint must re-enqueue its job");
    assert_eq!(stats.jobs_run, 1);

    let (_, recovered) = nosq_serve::Journal::open(&journal_path).unwrap();
    assert_eq!(recovered.completed.len(), 1);
    assert!(
        recovered.partial.is_empty(),
        "the completion record must supersede the checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `wait` on ids the daemon cannot serve answers with *structured*
/// errors — `unknown_job` for never-submitted ids, `evicted` for
/// completed jobs whose artifacts fell out of the LRU — and
/// resubmitting an evicted spec recomputes it (the documented
/// recovery path). No wait may hang.
#[test]
fn wait_errors_are_structured_not_hangs() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_capacity: 1,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = connect(addr);
    let reply = client.submit(SPEC).expect("submit");
    let job = reply.job.clone();
    client.wait(&job).expect("first wait");
    // Capacity 1: the cold campaign's completion evicts the hot one.
    client.run_spec(&cold_spec(7)).expect("cold spec");

    let raw = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut writer = raw;
    let mut ask = |line: String| -> Json {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        nosq_lab::json::parse(reply.trim_end()).expect("structured reply")
    };

    let doc = ask(format!("{{\"cmd\":\"wait\",\"job\":\"{job}\"}}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("evicted"), Some(&Json::Bool(true)), "{doc:?}");

    let doc = ask("{\"cmd\":\"wait\",\"job\":\"00000000deadbeef\"}".to_owned());
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("unknown_job"), Some(&Json::Bool(true)), "{doc:?}");

    // Resubmitting the evicted spec recomputes; bytes stay identical.
    let again = client.run_spec(SPEC).expect("resubmit evicted spec");
    assert!(!again.cached, "evicted results must recompute, not hang");
    assert_eq!(again.artifacts, local_artifacts(SPEC));

    client.shutdown().expect("shutdown");
    handle.join().expect("join server");
}

/// The slow-loris defense: a connection that starts a request line and
/// stalls is told so and dropped within the configured window, leaving
/// the daemon fully responsive — it cannot pin a handler thread.
#[test]
fn half_written_requests_time_out_and_free_the_worker() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        request_timeout_ms: 400,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"{\"cmd\":\"stat").expect("half a request");
    raw.flush().unwrap();
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("server reply");
    assert!(n > 0, "the stalled connection must be told, not just cut");
    assert!(line.contains("timed out"), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read EOF"),
        0,
        "the connection must be closed after the timeout"
    );

    // The daemon is still fully alive for well-behaved clients.
    let mut client = connect(addr);
    client.ping().expect("ping after loris");
    let outcome = client.run_spec(SPEC).expect("run after loris");
    assert_eq!(outcome.artifacts, local_artifacts(SPEC));
    client.shutdown().expect("shutdown");
    handle.join().expect("join server");
}

/// Keep the test specs honest: both forms must parse, and the cold
/// specs must fingerprint apart from the shared hot one.
#[test]
fn test_specs_parse_and_fingerprint_apart() {
    use nosq_serve::campaign_fingerprint;
    let hot = Campaign::from_spec(SPEC).unwrap();
    assert_eq!(hot.jobs(), 2);
    for k in 0..8 {
        let cold = Campaign::from_spec(&cold_spec(k)).unwrap();
        assert_ne!(campaign_fingerprint(&cold), campaign_fingerprint(&hot));
    }
}
