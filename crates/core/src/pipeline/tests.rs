//! Pipeline unit tests: each exercises one mechanism end to end on a
//! small hand-built program.

use nosq_isa::{Assembler, Cond, Extension, MemWidth, Reg};

use crate::config::{LsuModel, Scheduling, SimConfig};
use crate::pipeline::{simulate, InstSupply, Simulator, CHUNK};
use crate::report::SimReport;

fn all_configs(max: u64) -> Vec<(&'static str, SimConfig)> {
    vec![
        ("baseline-perfect", SimConfig::baseline_perfect(max)),
        ("baseline-storesets", SimConfig::baseline_storesets(max)),
        ("nosq-nodelay", SimConfig::nosq_no_delay(max)),
        ("nosq-delay", SimConfig::nosq(max)),
        ("perfect-smb", SimConfig::perfect_smb(max)),
    ]
}

/// A spill/reload loop: steady full-word store-load communication.
fn spill_loop(iters: i64) -> nosq_isa::Program {
    let mut asm = Assembler::new();
    let (base, v, t, i) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
    asm.li(base, 0x1000);
    asm.li(i, iters);
    let top = asm.label();
    asm.bind(top);
    asm.addi(v, v, 3);
    asm.store(v, base, 0, MemWidth::B8);
    asm.store(v, base, 8, MemWidth::B8);
    asm.load(t, base, 0, MemWidth::B8, Extension::Zero);
    asm.add(v, v, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    asm.finish()
}

/// A loop whose loads never communicate.
fn stream_loop(iters: i64) -> nosq_isa::Program {
    let mut asm = Assembler::new();
    let (base, t, acc, i) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
    asm.data_u64s(0x2000, &[5; 64]);
    asm.li(base, 0x2000);
    asm.li(i, iters);
    let top = asm.label();
    asm.bind(top);
    asm.load(t, base, 0, MemWidth::B8, Extension::Zero);
    asm.add(acc, acc, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    asm.finish()
}

fn run_all(prog: &nosq_isa::Program, max: u64) -> Vec<(&'static str, SimReport)> {
    all_configs(max)
        .into_iter()
        .map(|(name, cfg)| (name, simulate(prog, cfg)))
        .collect()
}

#[test]
fn all_configs_commit_the_same_instructions() {
    let prog = spill_loop(200);
    let results = run_all(&prog, 100_000);
    let insts = results[0].1.insts;
    assert!(insts > 1000, "{insts}");
    for (name, r) in &results {
        assert_eq!(r.insts, insts, "{name} committed a different count");
        assert_eq!(r.memory.loads, 200, "{name} load count");
        assert_eq!(r.memory.stores, 400, "{name} store count");
        assert!(r.cycles > 0 && r.ipc() > 0.1, "{name}: {} cycles", r.cycles);
    }
}

#[test]
fn nosq_bypasses_communicating_loads() {
    let prog = spill_loop(500);
    let r = simulate(&prog, SimConfig::nosq(100_000));
    // Every loop load communicates at distance 1; after the first
    // mispredict trains the predictor, the rest bypass.
    assert!(
        r.memory.bypassed_loads > 450,
        "bypassed {} of {} loads",
        r.memory.bypassed_loads,
        r.memory.loads
    );
    assert!(
        r.verification.bypass_mispredicts <= 3,
        "mispredicts {}",
        r.verification.bypass_mispredicts
    );
}

#[test]
fn bypassed_loads_skip_the_data_cache() {
    let prog = spill_loop(500);
    let nosq = simulate(&prog, SimConfig::nosq(100_000));
    let base = simulate(&prog, SimConfig::baseline_storesets(100_000));
    assert!(
        nosq.dcache_reads() < base.dcache_reads(),
        "nosq reads {} vs baseline {}",
        nosq.dcache_reads(),
        base.dcache_reads()
    );
    // The SVW filter lets verified bypasses skip re-execution too.
    assert!(
        nosq.reexec_rate() < 0.10,
        "re-execution rate {}",
        nosq.reexec_rate()
    );
}

#[test]
fn non_communicating_loads_do_not_bypass() {
    let prog = stream_loop(300);
    let r = simulate(&prog, SimConfig::nosq(100_000));
    assert_eq!(r.memory.bypassed_loads, 0);
    assert_eq!(r.verification.bypass_mispredicts, 0);
    assert_eq!(r.memory.comm_loads, 0);
}

#[test]
fn perfect_smb_never_mispredicts() {
    let prog = spill_loop(400);
    let r = simulate(&prog, SimConfig::perfect_smb(100_000));
    assert_eq!(r.verification.bypass_mispredicts, 0);
    assert!(
        r.memory.bypassed_loads >= 395,
        "bypassed {}",
        r.memory.bypassed_loads
    );
}

#[test]
fn baseline_perfect_never_squashes() {
    let prog = spill_loop(400);
    let r = simulate(
        &prog,
        SimConfig {
            lsu: LsuModel::BaselineSq {
                scheduling: Scheduling::Perfect,
            },
            ..SimConfig::baseline_perfect(100_000)
        },
    );
    assert_eq!(r.verification.ordering_squashes, 0);
}

#[test]
fn partial_word_bypass_uses_shift_mask() {
    // Wide store / narrow load at shift 4, repeatedly. The stored value
    // must change in its upper half so a stale read is a real mismatch.
    let mut asm = Assembler::new();
    let (base, c, v, t, i) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
    );
    asm.li(base, 0x1000);
    asm.li(i, 400);
    let top = asm.label();
    asm.bind(top);
    asm.addi(c, c, 1);
    asm.shli(v, c, 32);
    asm.add(v, v, c);
    asm.store(v, base, 0, MemWidth::B8);
    asm.load(t, base, 4, MemWidth::B2, Extension::Zero);
    asm.add(c, c, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    let prog = asm.finish();
    let r = simulate(&prog, SimConfig::nosq(100_000));
    assert!(
        r.memory.bypassed_loads > 300,
        "bypassed {}",
        r.memory.bypassed_loads
    );
    assert!(
        r.memory.shift_mask_uops > 300,
        "uops {}",
        r.memory.shift_mask_uops
    );
    assert!(
        r.verification.bypass_mispredicts < 10,
        "mispredicts {}",
        r.verification.bypass_mispredicts
    );
}

#[test]
fn multi_source_loads_mispredict_without_delay_but_not_with() {
    // Two one-byte stores feeding a two-byte load (the g721.e pattern).
    let mut asm = Assembler::new();
    let (base, v, t, i) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
    asm.li(base, 0x1000);
    asm.li(i, 600);
    let top = asm.label();
    asm.bind(top);
    asm.addi(v, v, 1);
    asm.store(v, base, 0, MemWidth::B1);
    asm.store(v, base, 1, MemWidth::B1);
    asm.load(t, base, 0, MemWidth::B2, Extension::Zero);
    asm.add(v, v, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    let prog = asm.finish();

    let no_delay = simulate(&prog, SimConfig::nosq_no_delay(200_000));
    let with_delay = simulate(&prog, SimConfig::nosq(200_000));
    assert!(
        no_delay.verification.bypass_mispredicts > 50,
        "no-delay mispredicts {}",
        no_delay.verification.bypass_mispredicts
    );
    assert!(
        with_delay.verification.bypass_mispredicts < no_delay.verification.bypass_mispredicts / 4,
        "delay {} vs no-delay {}",
        with_delay.verification.bypass_mispredicts,
        no_delay.verification.bypass_mispredicts
    );
    assert!(with_delay.memory.delayed_loads > 0);
    // Delay costs time but the program still completes correctly.
    assert_eq!(no_delay.insts, with_delay.insts);
}

#[test]
fn storesets_learns_to_avoid_ordering_squashes() {
    // A load that depends on a store whose address is ready late: the
    // first iterations squash, then StoreSets forces the load to wait.
    let mut asm = Assembler::new();
    let (base, slow, v, t, i) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
    );
    asm.li(base, 0x1000);
    asm.li(i, 300);
    let top = asm.label();
    asm.bind(top);
    // A long dependence chain producing the store's address.
    asm.mov(slow, base);
    for _ in 0..6 {
        asm.alui(nosq_isa::AluKind::Mul, slow, slow, 1);
    }
    asm.addi(v, v, 7);
    asm.store(v, slow, 0, MemWidth::B8); // address arrives late
    asm.load(t, base, 0, MemWidth::B8, Extension::Zero); // same address!
    asm.add(v, v, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    let prog = asm.finish();

    let r = simulate(&prog, SimConfig::baseline_storesets(200_000));
    assert!(
        r.verification.ordering_squashes > 0,
        "expected initial violations"
    );
    assert!(
        r.verification.ordering_squashes < 30,
        "storesets failed to learn: {} squashes",
        r.verification.ordering_squashes
    );
    let ideal = simulate(&prog, SimConfig::baseline_perfect(200_000));
    assert_eq!(ideal.verification.ordering_squashes, 0);
}

#[test]
fn float32_sts_lds_bypass_roundtrips() {
    let mut asm = Assembler::new();
    let (base, i) = (Reg::int(1), Reg::int(2));
    let (f, t) = (Reg::float(0), Reg::float(1));
    asm.li(base, 0x1000);
    asm.li(f, 1.25f64.to_bits() as i64);
    asm.li(i, 300);
    let top = asm.label();
    asm.bind(top);
    asm.sts(f, base, 0);
    asm.lds(t, base, 0);
    asm.fadd(f, t, t);
    asm.fmul(f, f, t);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    let prog = asm.finish();
    let r = simulate(&prog, SimConfig::nosq(100_000));
    assert!(
        r.memory.bypassed_loads > 200,
        "bypassed {}",
        r.memory.bypassed_loads
    );
    assert!(r.memory.shift_mask_uops > 200, "float bypass needs the uop");
    assert!(
        r.verification.bypass_mispredicts < 10,
        "mispredicts {}",
        r.verification.bypass_mispredicts
    );
}

#[test]
fn smb_latency_wins_on_communication_heavy_code() {
    let prog = spill_loop(2000);
    let nosq = simulate(&prog, SimConfig::nosq(100_000));
    let base = simulate(&prog, SimConfig::baseline_storesets(100_000));
    // NoSQ should not be slower than the baseline here (bypassing breaks
    // the store-load latency chain).
    assert!(
        nosq.cycles as f64 <= base.cycles as f64 * 1.05,
        "nosq {} vs baseline {}",
        nosq.cycles,
        base.cycles
    );
}

#[test]
fn ssn_wraparound_drains_cleanly() {
    let prog = spill_loop(300);
    let mut cfg = SimConfig::nosq(100_000);
    cfg.machine.ssn_bits = 7; // wrap every 128 stores; 600 stores → 4 wraps
    let r = simulate(&prog, cfg);
    assert!(
        r.verification.ssn_wrap_drains >= 3,
        "drains {}",
        r.verification.ssn_wrap_drains
    );
    assert_eq!(r.memory.stores, 600);
    // Equivalent run without wraps must commit identically.
    let r2 = simulate(&prog, SimConfig::nosq(100_000));
    assert_eq!(r.insts, r2.insts);
    assert!(r.cycles >= r2.cycles, "wrap drains cannot speed things up");
}

#[test]
fn branch_mispredicts_are_charged() {
    // Data-dependent unpredictable-ish branches.
    let mut asm = Assembler::new();
    let (x, t, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
    asm.li(x, 0x9E3779B97F4A7C15u64 as i64);
    asm.li(i, 400);
    let top = asm.label();
    let skip = asm.label();
    asm.bind(top);
    // xorshift-ish scramble; branch on low bit.
    asm.shri(t, x, 13);
    asm.xor(x, x, t);
    asm.shli(t, x, 7);
    asm.xor(x, x, t);
    asm.andi(t, x, 1);
    asm.branch(Cond::Eq, t, Reg::ZERO, skip);
    asm.addi(t, t, 1);
    asm.bind(skip);
    asm.addi(i, i, -1);
    asm.branch(Cond::Gt, i, Reg::ZERO, top);
    asm.halt();
    let prog = asm.finish();
    let r = simulate(&prog, SimConfig::baseline_perfect(100_000));
    assert!(
        r.frontend.branch_mispredicts > 50,
        "mispredicts {}",
        r.frontend.branch_mispredicts
    );
    // Compare against the same loop without the data-dependent branch
    // by checking IPC sanity only.
    assert!(r.ipc() > 0.3 && r.ipc() < 4.0, "ipc {}", r.ipc());
}

#[test]
fn window_256_is_not_slower() {
    let prog = spill_loop(1500);
    let small = simulate(&prog, SimConfig::nosq(100_000));
    let big = simulate(&prog, SimConfig::nosq(100_000).with_window256());
    assert!(
        big.cycles <= small.cycles + small.cycles / 20,
        "256-window {} vs 128-window {}",
        big.cycles,
        small.cycles
    );
}

#[test]
fn load_heavy_code_bounded_by_cache_port() {
    // 1 load per cycle max: a pure load loop cannot exceed ~2 IPC
    // (load + add per iteration beyond the port limit).
    let prog = stream_loop(2000);
    let r = simulate(&prog, SimConfig::baseline_perfect(100_000));
    assert!(r.ipc() <= 4.0, "ipc {}", r.ipc());
    assert!(r.ipc() > 0.5, "ipc {}", r.ipc());
}

/// A traced session records its stream a chunk at a time and drops
/// what has committed before each refill, so it holds at most [`CHUNK`]
/// records plus the instructions in flight, however long it runs. The
/// in-flight count is not bounded by the ROB (the fetch buffer has no
/// capacity limit), so the bound tracks its observed peak.
#[test]
fn a_traced_session_holds_a_chunk_plus_the_instructions_in_flight() {
    let n = 200_000;
    for name in ["gzip", "applu"] {
        let profile = nosq_trace::Profile::by_name(name).expect("profile exists");
        let program = nosq_trace::synthesize(profile, 42);
        for (preset, cfg) in [
            ("nosq", SimConfig::nosq(n)),
            ("baseline-storesets", SimConfig::baseline_storesets(n)),
        ] {
            let mut sim = Simulator::new(&program, cfg.with_window256());
            let mut in_flight_peak = 0;
            while sim.step() {
                let in_flight = sim.m.stream_next as u64 - sim.m.stats.insts;
                in_flight_peak = in_flight.max(in_flight_peak);
                let held = sim.insts.records.len() as u64;
                assert!(
                    held <= CHUNK as u64 + in_flight_peak,
                    "{name} under {preset}: {held} records held at {} committed, \
                     {in_flight_peak} in flight at most",
                    sim.m.stats.insts
                );
            }
            assert_eq!(sim.stats().insts, n, "{name} under {preset}");
        }
    }
}

/// In-flight instructions carry the low 32 bits of their sequence
/// numbers, which the supply widens against its base: a traced session
/// refilled across 2^32 reads every record under its own number.
#[test]
fn sequence_numbers_resolve_across_the_32_bit_wrap() {
    let profile = nosq_trace::Profile::by_name("gzip").expect("profile exists");
    let program = nosq_trace::synthesize(profile, 42);
    let want = nosq_trace::TraceBuffer::record(&program, 3 * CHUNK as u64);
    let base = u64::from(u32::MAX) - 100;
    let mut supply = InstSupply::traced(nosq_trace::Tracer::new(&program, want.len() as u64));
    supply.base = base;
    let mut next = base as usize;
    for (k, d) in want.insts().iter().enumerate() {
        // Everything fetched so far has committed, so a refill may drop it.
        let committed = next as u64;
        let seq = supply
            .next(&mut next, usize::MAX, committed)
            .expect("a record for every traced instruction");
        assert_eq!(supply.seq(seq), base + k as u64);
        let got = &supply[seq];
        assert_eq!(
            (got.pc, got.addr, got.stores_before),
            (d.pc, d.addr, d.stores_before),
            "record {k}"
        );
    }
    let committed = next as u64;
    assert_eq!(supply.next(&mut next, usize::MAX, committed), None);
    assert!(supply.base > u64::from(u32::MAX), "refilled past the wrap");
}
