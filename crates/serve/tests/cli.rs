//! Exit-code and usage contract of the `nosq` binary.
//!
//! The conventions under test: exit 0 on success, exit 1 on runtime
//! failures (prefixed `nosq: error:` on stderr), exit 2 on usage
//! errors (usage text on stderr, never stdout). In particular, running
//! `nosq` with no subcommand is a usage *error* — it must not print
//! the help to stdout and exit as if that were a successful run.
//!
//! The durable one-shot path is pinned here too: a `nosq run --resume`
//! from a mid-job checkpoint, and a `nosq run --journal` rerun served
//! from the journal, write the same artifacts as a plain `nosq run`;
//! and a checkpoint record that cannot be resumed is skipped, never
//! re-simulated.

use std::path::Path;
use std::process::{Command, Output};

use nosq_check::sync::StdSync;
use nosq_lab::{run_campaign_durable, synthesize_programs, Campaign, ProgressCounters};
use nosq_serve::{fingerprint_hex, CheckpointEntry, Journal, JournaledCampaign};

fn nosq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nosq"))
        .args(args)
        .output()
        .expect("spawn nosq")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("nosq must exit, not be killed")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_subcommand_is_a_usage_error_on_stderr() {
    let out = nosq(&[]);
    assert_eq!(code(&out), 2);
    assert!(stdout(&out).is_empty(), "usage errors must not use stdout");
    let err = stderr(&out);
    assert!(err.contains("a subcommand is required"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = nosq(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(stdout(&out).is_empty());
    assert!(stderr(&out).contains("unknown command `frobnicate`"));
}

#[test]
fn unknown_option_exits_2() {
    for (args, flag) in [
        (&["smoke", "--frob"][..], "--frob"),
        (&["run", "spec.json", "--fused"], "--fused"),
    ] {
        let out = nosq(args);
        assert_eq!(code(&out), 2, "nosq {args:?}");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    }
}

#[test]
fn help_exits_0_on_stdout() {
    for invocation in [&["help"][..], &["--help"], &["-h"]] {
        let out = nosq(invocation);
        assert_eq!(code(&out), 0);
        let text = stdout(&out);
        assert!(text.contains("USAGE:"), "{text}");
        assert!(text.contains("nosq serve"), "help must list the daemon");
        assert!(text.contains("nosq loadgen"), "help must list the loadgen");
    }
}

#[test]
fn list_is_consistent_with_help() {
    let out = nosq(&["list", "presets"]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("nosq"));
    let out = nosq(&["list", "profiles"]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("gzip"));
}

#[test]
fn missing_positional_arguments_exit_2() {
    for args in [&["run"][..], &["submit"], &["run", "a", "b"]] {
        let out = nosq(args);
        assert_eq!(code(&out), 2, "nosq {args:?}");
        assert!(stderr(&out).contains("exactly one spec file"));
    }
    let out = nosq(&["serve", "stray"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("no positional arguments"));
}

#[test]
fn malformed_sample_plans_exit_2() {
    // Shape, field, and range errors are all usage errors: usage text
    // on stderr, exit 2, nothing on stdout.
    for bad in ["1000", "1:2", "1:2:3:4", "a:2:3", "1:0:3", "1:2:0"] {
        let out = nosq(&["run", "spec.json", "--sample", bad]);
        assert_eq!(code(&out), 2, "--sample {bad}");
        assert!(stdout(&out).is_empty(), "usage errors must not use stdout");
        let err = stderr(&out);
        assert!(err.contains("--sample"), "{err}");
        assert!(err.contains("USAGE:"), "{err}");
    }
    let out = nosq(&["run", "spec.json", "--sample"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("`--sample` needs a value"));
}

#[test]
fn durable_flag_contracts() {
    // `--resume` replaces the spec file; both together is a usage error.
    let out = nosq(&["run", "spec.json", "--resume", "j.journal"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("in place of a spec file"));
    // Checkpointing snapshots the serial replay loop, so a durable run
    // excludes the sampled engine.
    let out = nosq(&[
        "run",
        "spec.json",
        "--journal",
        "j.journal",
        "--sample",
        "100:50:2",
    ]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("incompatible"));
    // An unopenable journal is a runtime failure, not a usage error.
    let out = nosq(&["run", "--resume", "/nonexistent/dir/nosq.journal"]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("nosq: error:"));
}

#[test]
fn resuming_a_missing_journal_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("nosq-cli-absent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let journal = dir.join("absent.journal");
    let path = journal.to_str().unwrap();
    let out = nosq(&["run", "--resume", path]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains(path), "{}", stderr(&out));
    assert!(!journal.exists(), "`--resume` created {path}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampled_runs_succeed_on_a_real_spec() {
    let dir = std::env::temp_dir().join(format!("nosq-cli-sampled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec = dir.join("campaign.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "cli-sampled",
            "configs": ["nosq", "baseline-storesets"],
            "profiles": ["gzip"],
            "max_insts": 2000
        }"#,
    )
    .expect("write spec");
    let spec = spec.to_str().expect("utf-8 temp path");

    let sampled = nosq(&["run", spec, "--sample", "500:250:3"]);
    assert_eq!(code(&sampled), 0, "{}", stderr(&sampled));
    let text = stdout(&sampled);
    assert!(text.contains("est IPC"), "{text}");
    assert!(text.contains("sampled campaign `cli-sampled`"), "{text}");

    // A warm-up past the end of the run measures nothing: runtime
    // error, exit 1.
    let empty = nosq(&["run", spec, "--sample", "999999:250:3"]);
    assert_eq!(code(&empty), 1);
    assert!(stderr(&empty).contains("measured no windows"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The first mid-job checkpoint of grid job `job`, captured from the
/// durable runner at a 1,000-instruction cadence as the journal record
/// a process killed at that point would have left behind.
fn mid_job_checkpoint(spec: &str, job: usize) -> CheckpointEntry {
    let campaign = Campaign::from_spec(spec).expect("valid spec");
    let journaled = JournaledCampaign::new(campaign, spec.to_owned());
    let programs = synthesize_programs(&journaled.campaign, 1);
    let progress: ProgressCounters<StdSync> = ProgressCounters::new();
    let mut captured = None;
    let mut sink = |ev: nosq_lab::CkptEvent<'_>| {
        if captured.is_none() && ev.job_index == job && ev.state.is_some() {
            captured = Some(journaled.checkpoint(&ev));
        }
    };
    let (campaign, ctx) = (&journaled.campaign, &mut nosq_lab::WorkerContext::new());
    run_campaign_durable(campaign, &programs, ctx, &progress, 1_000, None, &mut sink);
    captured.expect("a 3,000-instruction job checkpoints at cadence 1,000")
}

#[test]
fn journaled_runs_resume_byte_identically() {
    let dir = std::env::temp_dir().join(format!("nosq-cli-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec_text = "name = cli-journal\nconfigs = nosq, baseline-storesets\n\
                     profiles = gzip\nmax_insts = 3000\n";
    let spec = dir.join("campaign.spec");
    std::fs::write(&spec, spec_text).expect("write spec");
    let journal = dir.join("run.journal");
    let (mut j, _) = Journal::open(&journal).expect("open journal");
    j.append_checkpoint(&mid_job_checkpoint(spec_text, 1))
        .expect("append checkpoint");
    drop(j);
    let path = |p: &Path| p.to_str().expect("utf-8 temp path").to_owned();
    let (spec, journal) = (path(&spec), path(&journal));
    let out = |name: &str| path(&dir.join(name));

    let plain = nosq(&["run", &spec, "--out", &out("plain")]);
    assert_eq!(code(&plain), 0, "{}", stderr(&plain));
    let resumed = nosq(&["run", "--resume", &journal, "--out", &out("resumed")]);
    assert_eq!(code(&resumed), 0, "{}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(
        text.contains("1/2 jobs already complete, mid-job state restored"),
        "{text}"
    );
    let again = nosq(&["run", &spec, "--journal", &journal, "--out", &out("again")]);
    assert_eq!(code(&again), 0, "{}", stderr(&again));
    let text = stdout(&again);
    assert!(text.contains("without re-simulating"), "{text}");

    for file in [
        "cli-journal.matrix.csv",
        "cli-journal.matrix.json",
        "cli-journal.summary.json",
    ] {
        let read = |run: &str| std::fs::read(dir.join(run).join(file)).expect("artifact written");
        let reference = read("plain");
        assert_eq!(read("resumed"), reference, "{file} after --resume");
        assert_eq!(read("again"), reference, "{file} from the journal");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint record whose spec no longer fingerprints to its key is
/// reported by id and skipped: `--resume` re-simulates and appends
/// nothing, however often it runs, and with nothing else in the
/// journal there is nothing to recover.
#[test]
fn unresumable_checkpoints_are_skipped_not_rerun() {
    let dir = std::env::temp_dir().join(format!("nosq-cli-stale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec = "name = cli-stale\nconfigs = nosq, baseline-storesets\n\
                profiles = gzip\nmax_insts = 3000\n";
    let mut stale = mid_job_checkpoint(spec, 1);
    stale.fingerprint ^= 1;
    let journal = dir.join("stale.journal");
    let (mut j, _) = Journal::open(&journal).expect("open journal");
    j.append_checkpoint(&stale).expect("append checkpoint");
    drop(j);
    let len = || std::fs::metadata(&journal).expect("journal exists").len();
    let (before, path) = (len(), journal.to_str().expect("utf-8 temp path"));
    for round in ["first", "second"] {
        let out = dir.join(round);
        let run = nosq(&["run", "--resume", path, "--out", out.to_str().unwrap()]);
        let (text, err) = (stdout(&run), stderr(&run));
        assert_eq!(code(&run), 1, "{round}: {err}");
        assert!(!text.contains("campaign `cli-stale`:"), "{round}: {text}");
        assert!(
            err.contains(&fingerprint_hex(stale.fingerprint)),
            "{round}: {err}"
        );
        assert!(err.contains("nothing to recover"), "{round}: {err}");
        assert_eq!(len(), before, "{round} run: the journal must not grow");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_failures_exit_1_not_2() {
    // An unreadable spec is a runtime error, not a usage error.
    let out = nosq(&["submit", "/nonexistent/campaign.spec"]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("nosq: error:"));

    // A well-formed request against no daemon likewise.
    let out = nosq(&["shutdown", "--addr", "127.0.0.1:1"]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("nosq: error:"));

    let out = nosq(&["loadgen", "--addr", "127.0.0.1:1"]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("daemon not reachable"));
}
