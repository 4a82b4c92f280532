//! Checkpoint round-trip property: snapshotting a traced or a replay
//! session at an arbitrary cycle, restoring it into a fresh simulator
//! (with or without a fresh arena), and running to completion must
//! reproduce the uninterrupted run's [`SimReport`] **bit for bit** —
//! the invariant mid-campaign durability (ROADMAP: resumable jobs)
//! rests on.
//!
//! The (vendored, deterministic) proptest stand-in picks the snapshot
//! cycle, configuration and session kind; the original session *keeps
//! running* after the snapshot, so the test also proves `checkpoint()`
//! does not perturb the session it captures.

use proptest::prelude::*;

use nosq_core::{SimArena, SimConfig, Simulator, StopCondition};
use nosq_trace::{synthesize, Profile, TraceBuffer};

const BUDGET: u64 = 6_000;

fn config(idx: usize) -> SimConfig {
    match idx {
        0 => SimConfig::nosq(BUDGET),
        1 => SimConfig::nosq_no_delay(BUDGET),
        2 => SimConfig::baseline_storesets(BUDGET),
        3 => SimConfig::baseline_perfect(BUDGET),
        _ => SimConfig::perfect_smb(BUDGET),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot a traced or a replay session at a random cycle,
    /// restore, run to completion: the resumed report equals the
    /// uninterrupted one, and so does the report of the session the
    /// snapshot was taken from. The other kind of session snapshots to
    /// the same bytes at that cycle. Before it runs, a resumed session
    /// re-checkpoints to the same bytes, which catches a restored field
    /// that the rest of the run overwrites.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical(
        snapshot_cycle in 1u64..9_000,
        cfg_idx in 0usize..5,
        traced in any::<bool>(),
    ) {
        let profile = Profile::by_name("g721.e").expect("profile exists");
        let program = synthesize(profile, nosq_bench::SEED);
        let trace = TraceBuffer::record(&program, BUDGET);
        let cfg = config(cfg_idx);
        let session = |traced: bool| {
            if traced {
                Simulator::new(&program, cfg.clone())
            } else {
                Simulator::replay(&program, cfg.clone(), &trace)
            }
        };

        let uninterrupted = Simulator::replay(&program, cfg.clone(), &trace).run();

        let mut sim = session(traced);
        sim.run_until(StopCondition::Cycles(snapshot_cycle));
        let ckpt = sim.checkpoint();
        sim.run_until(StopCondition::Done);
        let original = sim.finish();
        prop_assert_eq!(
            original, uninterrupted,
            "taking a checkpoint perturbed the running session"
        );

        let bytes = ckpt.to_bytes();
        let mut other = session(!traced);
        other.run_until(StopCondition::Cycles(snapshot_cycle));
        prop_assert!(
            other.checkpoint().to_bytes() == bytes,
            "traced and replay sessions snapshot differently at cycle {}", snapshot_cycle
        );

        let resumed = Simulator::resume(&program, &ckpt);
        prop_assert!(
            resumed.checkpoint().to_bytes() == bytes,
            "resume did not restore the whole machine (snapshot at cycle {})", snapshot_cycle
        );
        let resumed = resumed.run();
        prop_assert_eq!(
            resumed, uninterrupted,
            "resumed run diverged (snapshot at cycle {})", snapshot_cycle
        );

        let mut arena = SimArena::new();
        let resumed_arena = Simulator::resume_with_arena(&program, &ckpt, &mut arena);
        prop_assert!(
            resumed_arena.checkpoint().to_bytes() == bytes,
            "arena resume did not restore the whole machine (snapshot at cycle {})", snapshot_cycle
        );
        let resumed_arena = resumed_arena.run();
        prop_assert_eq!(
            resumed_arena, uninterrupted,
            "arena-resumed run diverged (snapshot at cycle {})", snapshot_cycle
        );
    }
}

/// A checkpoint taken after completion resumes as a completed session.
#[test]
fn checkpoint_of_finished_session_is_done() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let trace = TraceBuffer::record(&program, 2_000);
    let cfg = SimConfig::nosq(2_000);

    let mut sim = Simulator::replay(&program, cfg.clone(), &trace);
    sim.run_until(StopCondition::Done);
    let ckpt = sim.checkpoint();
    let expected = sim.finish();

    let resumed = Simulator::resume(&program, &ckpt);
    assert!(
        resumed.checkpoint().to_bytes() == ckpt.to_bytes(),
        "resume did not restore the whole machine"
    );
    assert!(resumed.is_done());
    assert_eq!(resumed.run(), expected);
}
