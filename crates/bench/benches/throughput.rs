//! Measured simulation throughput: simulated MIPS (millions of dynamic
//! instructions per wall-clock second) for representative profiles
//! across all five pipeline configurations, plus tracer-only
//! throughput, written to `BENCH_throughput.json` at the repo root.
//!
//! This is the workspace's performance trajectory anchor: every hot-path
//! change should move these numbers, and nothing else in the evaluation
//! pipeline measures wall-clock at all (artifact bytes are deterministic
//! by design; throughput is the one thing that is allowed to vary).
//!
//! Budget per point comes from `NOSQ_DYN_INSTS` (default 150k).

use std::time::Instant;

use nosq_bench::{dyn_insts, workload};
use nosq_core::ser::{json_f64, JsonArray, JsonObject};
use nosq_core::{sampled_replay_with_arena, SamplePlan, SimConfig};
use nosq_trace::{Profile, TraceBuffer, Tracer};

/// The representative profile set: both SPEC suites and MediaBench.
const PROFILES: [&str; 4] = ["gzip", "gcc", "applu", "gsm.e"];

/// The five pipeline configurations of the paper's evaluation.
fn configs(n: u64) -> Vec<(&'static str, SimConfig)> {
    vec![
        ("assoc-sq", SimConfig::baseline_perfect(n)),
        ("baseline-storesets", SimConfig::baseline_storesets(n)),
        ("nosq-no-delay", SimConfig::nosq_no_delay(n)),
        ("nosq", SimConfig::nosq(n)),
        ("perfect-smb", SimConfig::perfect_smb(n)),
    ]
}

struct Point {
    profile: &'static str,
    config: &'static str,
    insts: u64,
    cycles: u64,
    wall_secs: f64,
    mips: f64,
}

/// One profile's sampled estimate vs its full `nosq` run.
/// `effective_mips` is instructions *covered* (trace total) per
/// wall-second — the throughput a user experiences when accepting the
/// estimator's error bar instead of simulating every instruction.
struct SampledRow {
    profile: &'static str,
    windows: u64,
    measured_insts: u64,
    total_insts: u64,
    wall_secs: f64,
    effective_mips: f64,
    est_ipc: f64,
    full_ipc: f64,
    ipc_err_pct: f64,
}

fn main() {
    let n = dyn_insts();
    let mut points = Vec::new();
    let mut tracer_points = Vec::new();
    let mut sampled_rows = Vec::new();
    let mut arena = nosq_core::SimArena::new();

    println!(
        "{:<9} {:<20} {:>10} {:>10} {:>9} {:>8}",
        "profile", "config", "insts", "cycles", "wall(ms)", "MIPS"
    );
    for name in PROFILES {
        let profile = Profile::by_name(name).expect("profile exists");
        let program = workload(profile);

        // Tracer throughput: the streaming functional front of the
        // datapath (execution + dependence analysis, no buffering).
        let started = Instant::now();
        let traced = Tracer::with_arena(&program, n, &mut arena.trace).count() as u64;
        let secs = started.elapsed().as_secs_f64();
        let mips = traced as f64 / secs / 1.0e6;
        println!(
            "{:<9} {:<20} {:>10} {:>10} {:>9.1} {:>8.2}",
            name,
            "tracer-only",
            traced,
            "-",
            secs * 1e3,
            mips
        );
        tracer_points.push((name, traced, secs, mips));

        // Pipeline throughput per configuration: one shared recorded
        // trace (untimed prep — its cost is the tracer point above
        // plus buffering, amortized across the sweep), arena recycled
        // across runs exactly like a lab worker.
        let trace = TraceBuffer::record_with_arena(&program, n, &mut arena.trace);
        let mut reports = Vec::new();
        for (cname, cfg) in configs(n) {
            let started = Instant::now();
            let report =
                nosq_core::Simulator::replay_with_arena(&program, cfg, &trace, &mut arena).run();
            let secs = started.elapsed().as_secs_f64();
            let mips = report.insts as f64 / secs / 1.0e6;
            println!(
                "{:<9} {:<20} {:>10} {:>10} {:>9.1} {:>8.2}",
                name,
                cname,
                report.insts,
                report.cycles,
                secs * 1e3,
                mips
            );
            points.push(Point {
                profile: name,
                config: cname,
                insts: report.insts,
                cycles: report.cycles,
                wall_secs: secs,
                mips,
            });
            reports.push(report);
        }

        // Sampled estimate of the headline `nosq` configuration:
        // fast-forward 10% as warm-up, then 20 windows of 1k
        // instructions. Error is reported against the full run
        // measured above.
        let plan = SamplePlan {
            warmup: n / 10,
            interval: 1_000,
            count: 20,
        };
        let started = Instant::now();
        let est =
            sampled_replay_with_arena(&program, SimConfig::nosq(n), &trace, &plan, &mut arena);
        let secs = started.elapsed().as_secs_f64();
        let full = &reports[3]; // configs(n)[3] is `nosq`
        let est_ipc = est.ipc();
        let full_ipc = full.insts as f64 / full.cycles as f64;
        let effective_mips = est.total_insts as f64 / secs / 1.0e6;
        let ipc_err_pct = (est_ipc - full_ipc).abs() / full_ipc * 100.0;
        println!(
            "{:<9} {:<20} {:>10} {:>10} {:>9.1} {:>8.2}  (IPC {:.3} vs {:.3}, err {:.1}%)",
            name,
            "sampled-nosq",
            est.measured_insts,
            est.measured_cycles,
            secs * 1e3,
            effective_mips,
            est_ipc,
            full_ipc,
            ipc_err_pct,
        );
        sampled_rows.push(SampledRow {
            profile: name,
            windows: est.windows,
            measured_insts: est.measured_insts,
            total_insts: est.total_insts,
            wall_secs: secs,
            effective_mips,
            est_ipc,
            full_ipc,
            ipc_err_pct,
        });
    }

    let json = throughput_json(n, &points, &tracer_points, &sampled_rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("(wrote {path})");

    let agg_insts: u64 = points.iter().map(|p| p.insts).sum();
    let agg_secs: f64 = points.iter().map(|p| p.wall_secs).sum();
    println!(
        "aggregate pipeline throughput: {:.2} MIPS over {} points",
        agg_insts as f64 / agg_secs / 1.0e6,
        points.len()
    );
}

fn throughput_json(
    n: u64,
    points: &[Point],
    tracer: &[(&str, u64, f64, f64)],
    sampled: &[SampledRow],
) -> String {
    let mut obj = JsonObject::new();
    obj.field_u64("dyn_insts_budget", n);

    let mut tr = JsonArray::new();
    for (name, insts, secs, mips) in tracer {
        let mut o = JsonObject::new();
        o.field_str("profile", name)
            .field_u64("insts", *insts)
            .field_raw("wall_secs", &json_f64(*secs))
            .field_raw("mips", &json_f64(*mips));
        tr.push_raw(&o.finish());
    }
    obj.field_raw("tracer", &tr.finish());

    let mut arr = JsonArray::new();
    for p in points {
        let mut o = JsonObject::new();
        o.field_str("profile", p.profile)
            .field_str("config", p.config)
            .field_u64("insts", p.insts)
            .field_u64("cycles", p.cycles)
            .field_raw("wall_secs", &json_f64(p.wall_secs))
            .field_raw("mips", &json_f64(p.mips));
        arr.push_raw(&o.finish());
    }
    obj.field_raw("pipeline", &arr.finish());

    let mut sa = JsonArray::new();
    for s in sampled {
        let mut o = JsonObject::new();
        o.field_str("profile", s.profile)
            .field_str("config", "nosq")
            .field_u64("windows", s.windows)
            .field_u64("measured_insts", s.measured_insts)
            .field_u64("total_insts", s.total_insts)
            .field_raw("wall_secs", &json_f64(s.wall_secs))
            .field_raw("effective_mips", &json_f64(s.effective_mips))
            .field_raw("est_ipc", &json_f64(s.est_ipc))
            .field_raw("full_ipc", &json_f64(s.full_ipc))
            .field_raw("ipc_err_pct", &json_f64(s.ipc_err_pct));
        sa.push_raw(&o.finish());
    }
    obj.field_raw("sampled", &sa.finish());

    let agg_insts: u64 = points.iter().map(|p| p.insts).sum();
    let agg_secs: f64 = points.iter().map(|p| p.wall_secs).sum();
    let tr_insts: u64 = tracer.iter().map(|t| t.1).sum();
    let tr_secs: f64 = tracer.iter().map(|t| t.2).sum();
    obj.field_raw(
        "aggregate_pipeline_mips",
        &json_f64(agg_insts as f64 / agg_secs / 1.0e6),
    );
    obj.field_raw(
        "aggregate_tracer_mips",
        &json_f64(tr_insts as f64 / tr_secs / 1.0e6),
    );
    obj.finish()
}
