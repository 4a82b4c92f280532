//! Determinism regression: the whole evaluation pipeline (Table 5,
//! Figures 2-5) leans on `nosq_bench::SEED`-based reproducibility —
//! synthesizing the same profile with the same seed and simulating it
//! twice must yield byte-identical results. A nondeterministic
//! simulator would silently invalidate every paper comparison.

use nosq_core::{simulate, SimArena, SimConfig, Simulator, StopCondition};
use nosq_trace::{synthesize, Profile, TraceBuffer};

/// Two independent `synthesize` + `simulate` runs of the same
/// (profile, seed, config) triple must agree on every metric.
#[test]
fn same_profile_and_seed_give_identical_results() {
    let budget = 20_000;
    for name in ["gzip", "gsm.e", "applu"] {
        let profile = Profile::by_name(name).expect("profile exists");
        for cfg in [
            SimConfig::baseline_storesets(budget),
            SimConfig::nosq(budget),
            SimConfig::nosq_no_delay(budget),
        ] {
            let a = simulate(&synthesize(profile, nosq_bench::SEED), cfg.clone());
            let b = simulate(&synthesize(profile, nosq_bench::SEED), cfg);
            assert_eq!(a, b, "{name}: nondeterministic SimReport");
        }
    }
}

/// Different seeds must actually vary the workload (guards against a
/// synthesizer that ignores its seed, which would make the determinism
/// check above vacuous).
#[test]
fn different_seeds_give_different_programs() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let a = simulate(&synthesize(profile, 1), SimConfig::nosq(20_000));
    let b = simulate(&synthesize(profile, 2), SimConfig::nosq(20_000));
    assert_ne!(
        (a.cycles, a.memory.bypassed_loads),
        (b.cycles, b.memory.bypassed_loads),
        "seed has no effect on the synthesized workload"
    );
}

/// Session equivalence: chopping one simulation into an arbitrary
/// interleaving of `step()` and `run_until()` segments must reproduce
/// the one-shot `simulate()` report **bit for bit** — the incremental
/// session API is a pure re-packaging of the same cycle loop, never a
/// different machine.
#[test]
fn stepped_execution_matches_one_shot_bit_for_bit() {
    let budget = 20_000;
    let profile = Profile::by_name("g721.e").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    for cfg in [
        SimConfig::baseline_storesets(budget),
        SimConfig::nosq(budget),
        SimConfig::nosq_no_delay(budget),
        SimConfig::perfect_smb(budget),
    ] {
        let one_shot = simulate(&program, cfg.clone());

        let mut sim = Simulator::new(&program, cfg);
        // Mix every granularity the API offers.
        for _ in 0..257 {
            sim.step();
        }
        let here = sim.stats().cycles;
        sim.run_until(StopCondition::Cycles(here + 1_000));
        sim.run_until(StopCondition::Insts(5_000));
        sim.run_until(StopCondition::predicate(|s| s.memory.loads >= 1_000));
        sim.run_until(StopCondition::Done);
        assert!(sim.is_done());
        let stepped = sim.finish();

        assert_eq!(one_shot, stepped, "stepped session diverged");
    }
}

/// Already-satisfied stop conditions must not advance the pipeline.
#[test]
fn satisfied_stop_conditions_do_not_step() {
    let profile = Profile::by_name("gzip").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let mut sim = Simulator::new(&program, SimConfig::nosq(10_000));
    sim.run_until(StopCondition::Cycles(500));
    let at_500 = *sim.stats();
    sim.run_until(StopCondition::Cycles(400)); // already past
    sim.run_until(StopCondition::Insts(at_500.insts)); // already met
    assert_eq!(
        *sim.stats(),
        at_500,
        "satisfied conditions advanced the clock"
    );
}

/// Golden squash-heavy regression: these exact counters were produced
/// by the seed simulator (PR 3, commit `dcdaf4b`) *before* the
/// arena/ring/paged-map datapath refactor, for runs chosen to exercise
/// recovery heavily (ordering squashes in the StoreSets baseline,
/// bypass-mispredict squashes in no-delay NoSQ). The refactor — and in
/// particular the removal of the per-squash `machine.clone()` and the
/// event-driven issue scheduler — must be invisible in every one of
/// them.
#[test]
fn squash_heavy_runs_match_seed_golden_counters() {
    // (profile, nosq_no_delay?, cycles, ordering_squashes,
    //  bypass_mispredicts, branch_mispredicts, reexec_filtered,
    //  backend_dcache_reads, bypassed_loads, sq_forwards)
    type GoldenRow = (&'static str, bool, u64, u64, u64, u64, u64, u64, u64, u64);
    #[rustfmt::skip]
    let golden: [GoldenRow; 6] = [
        ("gzip",   false, 43446, 37, 0,  162, 3017, 191, 0,   267),
        ("gzip",   true,  43453, 0,  6,  109, 3053, 155, 295, 0),
        ("gcc",    false, 44460, 39, 0,  174, 2979, 95,  0,   139),
        ("gcc",    true,  45877, 0,  6,  118, 3013, 61,  177, 0),
        ("vortex", false, 41868, 32, 0,  154, 2808, 90,  0,   395),
        ("vortex", true,  42936, 0,  17, 130, 2718, 180, 316, 0),
    ];
    let mut arena = SimArena::new();
    for (name, nosq, cycles, ord, byp, br, filt, reads, bypassed, fwd) in golden {
        let profile = Profile::by_name(name).expect("profile exists");
        let program = synthesize(profile, nosq_bench::SEED);
        let cfg = if nosq {
            SimConfig::nosq_no_delay(40_000)
        } else {
            SimConfig::baseline_storesets(40_000)
        };
        // All four construction paths must reproduce the seed run. The
        // last replays a trace recorded through the arena, which from
        // the second row on refills the previous row's trace storage.
        let trace = TraceBuffer::record(&program, 40_000);
        let reused = TraceBuffer::record_with_arena(&program, 40_000, &mut arena.trace);
        for (path, r) in [
            ("simulate", simulate(&program, cfg.clone())),
            (
                "with_arena",
                Simulator::with_arena(&program, cfg.clone(), &mut arena).run(),
            ),
            (
                "replay_with_arena",
                Simulator::replay_with_arena(&program, cfg.clone(), &trace, &mut arena).run(),
            ),
            (
                "record_with_arena",
                Simulator::replay_with_arena(&program, cfg.clone(), &reused, &mut arena).run(),
            ),
        ] {
            let got = (
                r.cycles,
                r.verification.ordering_squashes,
                r.verification.bypass_mispredicts,
                r.frontend.branch_mispredicts,
                r.verification.reexec_filtered,
                r.verification.backend_dcache_reads,
                r.memory.bypassed_loads,
                r.memory.sq_forwards,
            );
            assert_eq!(
                got,
                (cycles, ord, byp, br, filt, reads, bypassed, fwd),
                "{name} nosq={nosq} via {path} diverged from the seed simulator"
            );
            assert_eq!(r.insts, 40_000, "{name} committed a different count");
        }
    }
}
