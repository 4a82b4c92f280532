//! Integration suite for the `nosq-lab` campaign engine: executor
//! determinism across thread counts, spec-driven campaigns end to end,
//! durable runs of one-config campaigns, and the engine's interaction
//! with `SimConfig` validation.

use nosq_check::sync::StdSync;
use nosq_lab::{
    artifacts, parallel_map_indexed, run_campaign, run_campaign_durable, synthesize_programs,
    Campaign, Preset, ProgressCounters, RunOptions, WorkerContext,
};

/// A small but non-trivial campaign: 3 presets × 8 profiles across all
/// three suites, with a baseline for the speedup artifacts.
fn campaign() -> Campaign {
    Campaign::builder("det")
        .preset(Preset::BaselineStoresets)
        .preset(Preset::NosqNoDelay)
        .preset(Preset::Nosq)
        .profiles([
            "gzip", "gsm.e", "applu", "gcc", "mesa.o", "vortex", "apsi", "epic.e",
        ])
        .max_insts(1_500)
        .baseline("baseline-storesets")
        .build()
        .expect("valid campaign")
}

/// The executor's headline contract: the aggregated artifacts are
/// byte-identical at 1, 2, and 8 threads.
#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let campaign = campaign();
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = RunOptions {
                threads,
                ..RunOptions::default()
            };
            (threads, artifacts(&run_campaign(&campaign, &opts)))
        })
        .collect();
    let (_, reference) = &runs[0];
    assert_eq!(reference.len(), 4, "matrix csv/json, summary, speedup");
    for (threads, arts) in &runs[1..] {
        assert_eq!(arts, reference, "artifacts diverged at {threads} threads");
    }
}

/// A spec-file campaign runs end to end and its artifacts parse with
/// the lab's own JSON parser.
#[test]
fn spec_campaign_runs_end_to_end() {
    let spec = "
name = spec-e2e
configs = nosq, assoc-sq
profiles = gzip, applu
max_insts = 1200
baseline = assoc-sq
";
    let campaign = Campaign::from_spec(spec).unwrap();
    let result = run_campaign(&campaign, &RunOptions::default());
    assert_eq!(result.reports.len(), 4);
    for artifact in artifacts(&result) {
        if artifact.file_name.ends_with(".json") {
            nosq_lab::json::parse(&artifact.contents)
                .unwrap_or_else(|e| panic!("{}: {e}", artifact.file_name));
        }
        assert!(!artifact.contents.is_empty());
    }
    // The engine-run reports match direct simulation of the same jobs.
    let program = nosq_trace::synthesize(campaign.profiles[0], campaign.seed);
    let direct = nosq_core::simulate(&program, campaign.configs[0].config.clone());
    assert_eq!(
        &direct,
        result.report(0, 0),
        "engine diverged from simulate()"
    );
}

/// A checkpointing one-config campaign snapshots traced sessions
/// instead of recording each job's trace first: at a nonzero cadence
/// the durable runner writes `run_campaign`'s artifacts, hands its sink
/// mid-job states, and spends no time recording.
#[test]
fn durable_one_config_campaign_checkpoints_without_recording() {
    let campaign = Campaign::builder("durable-one")
        .preset(Preset::Nosq)
        .profiles(["gzip", "applu"])
        .max_insts(5_000)
        .build()
        .expect("valid campaign");
    let programs = synthesize_programs(&campaign, 1);
    let progress: ProgressCounters<StdSync> = ProgressCounters::new();
    let mut states = 0;
    let result = run_campaign_durable(
        &campaign,
        &programs,
        &mut WorkerContext::new(),
        &progress,
        1_000,
        None,
        &mut |ev| states += usize::from(ev.state.is_some()),
    );
    assert_eq!(
        artifacts(&result),
        artifacts(&run_campaign(&campaign, &RunOptions::default())),
        "the durable runner must match run_campaign bit-for-bit"
    );
    assert!(states >= 1, "no mid-job state reached the sink");
    for t in &result.timings {
        assert_eq!(
            t.trace_secs, 0.0,
            "job {}/{} recorded a trace",
            t.profile, t.config
        );
    }
}

/// Campaign construction surfaces `SimConfig` validation errors
/// (`try_build` satellite) instead of panicking mid-run.
#[test]
fn invalid_grid_points_are_rejected_at_build_time() {
    let err = Campaign::builder("bad")
        .preset(Preset::Nosq)
        .capacity(1000) // 500 entries/table: non-power-of-two sets
        .profiles(["gzip"])
        .max_insts(100)
        .build()
        .unwrap_err();
    assert!(err.msg.contains("power of two"), "{err}");
}

/// The generic parallel map keeps index order under heavy
/// oversubscription.
#[test]
fn parallel_map_survives_oversubscription() {
    let out = parallel_map_indexed(257, 16, |i| i as u64 * 3);
    assert_eq!(out, (0..257).map(|i| i as u64 * 3).collect::<Vec<_>>());
}
