//! Ablation for paper §3.1: distance-based vs store-PC-based dependence
//! representation.
//!
//! A store-PC scheme (StoreSets-style: each store PC maps to its *most
//! recent* dynamic instance) cannot represent a load that depends on an
//! older instance of the same static store — the paper's
//! `X[i] = A*X[i-2]` example. A distance-based scheme represents it
//! trivially. This harness replays ground-truth dependences from the
//! trace and scores both idealized predictors on exactly that
//! representational question (prediction = which dynamic store feeds the
//! load; both predictors are given oracle training).

use nosq_bench::dyn_insts;
use nosq_isa::InstClass;
use nosq_trace::kernels::{Kernel, SpillKernel, StridedKernel};
use nosq_trace::Tracer;
use std::collections::HashMap;

/// Scores both schemes on one kernel: fraction of in-window
/// communicating loads whose producing dynamic store is correctly
/// identified at rename time.
fn score(kernel: &dyn Kernel, budget: u64) -> (f64, f64, u64) {
    let program = kernel_driver(kernel);
    let mut dist_table: HashMap<u64, u32> = HashMap::new(); // load pc -> distance
    let mut last_instance: HashMap<u64, u64> = HashMap::new(); // store pc -> ssn
    let mut dep_store_pc: HashMap<u64, u64> = HashMap::new(); // load pc -> store pc
    let mut store_pc_by_ssn: HashMap<u64, u64> = HashMap::new();

    let (mut comm, mut dist_ok, mut pc_ok) = (0u64, 0u64, 0u64);
    for d in Tracer::new(&program, budget) {
        match d.class {
            InstClass::Store => {
                let ssn = d.stores_before + 1;
                last_instance.insert(d.pc, ssn);
                store_pc_by_ssn.insert(ssn, d.pc);
            }
            InstClass::Load => {
                if let Some(dep) = d.mem_dep {
                    if dep.inst_distance >= 128 {
                        continue;
                    }
                    comm += 1;
                    let actual_ssn = d.stores_before - u64::from(dep.store_distance);
                    // Distance scheme: predict SSNrename - learned distance.
                    if let Some(dist) = dist_table.get(&d.pc) {
                        if d.stores_before.saturating_sub(u64::from(*dist)) == actual_ssn {
                            dist_ok += 1;
                        }
                    }
                    // Store-PC scheme: predict the most recent instance of
                    // the learned static store.
                    if let Some(spc) = dep_store_pc.get(&d.pc) {
                        if last_instance.get(spc) == Some(&actual_ssn) {
                            pc_ok += 1;
                        }
                    }
                    // Oracle training for both.
                    dist_table.insert(d.pc, dep.store_distance);
                    if let Some(spc) = store_pc_by_ssn.get(&actual_ssn) {
                        dep_store_pc.insert(d.pc, *spc);
                    }
                }
            }
            _ => {}
        }
    }
    (
        100.0 * dist_ok as f64 / comm.max(1) as f64,
        100.0 * pc_ok as f64 / comm.max(1) as f64,
        comm,
    )
}

fn kernel_driver(kernel: &dyn Kernel) -> nosq_isa::Program {
    use nosq_isa::{Assembler, Reg};
    use nosq_trace::kernels::{emit_function, fscratch_regs, scratch_regs, EmitCtx, RegPool};
    use rand::SeedableRng;
    let mut asm = Assembler::new();
    let mut pool = RegPool::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let mut persistent = pool.alloc_int(kernel.persistent_int());
    persistent.extend(pool.alloc_float(kernel.persistent_float()));
    let main = asm.label();
    asm.jump(main);
    let mut cx = EmitCtx {
        asm: &mut asm,
        persistent,
        scratch: scratch_regs(),
        fscratch: fscratch_regs(),
        base: 0x10_0000,
        rng: &mut rng,
    };
    let func = emit_function(kernel, &mut cx);
    let persistent = cx.persistent.clone();
    asm.bind(main);
    let mut cx = EmitCtx {
        asm: &mut asm,
        persistent,
        scratch: scratch_regs(),
        fscratch: fscratch_regs(),
        base: 0x10_0000,
        rng: &mut rng,
    };
    kernel.emit_init(&mut cx);
    let top = asm.label();
    asm.bind(top);
    asm.call(func);
    asm.jump(top);
    let _ = Reg::ZERO;
    asm.finish()
}

fn main() {
    let n = dyn_insts().min(200_000);
    println!("Ablation (paper 3.1): which dynamic store feeds each communicating load?");
    println!();
    println!(
        "{:<34} | {:>10} | {:>10} | {:>8}",
        "workload", "distance%", "store-PC%", "loads"
    );
    println!("{}", "-".repeat(72));
    for (name, kernel) in [
        (
            "spill/fill (most-recent deps)",
            Box::new(SpillKernel { slots: 8 }) as Box<dyn Kernel>,
        ),
        // steps: 1 keeps the recurrence *rolled*: every dynamic instance
        // comes from the same static store, as in the paper's loop body.
        (
            "X[i] = A*X[i-2] (older instance)",
            Box::new(StridedKernel {
                k: 2,
                elems: 64,
                float: false,
                steps: 1,
            }),
        ),
        (
            "X[i] = A*X[i-6] (older instance)",
            Box::new(StridedKernel {
                k: 6,
                elems: 64,
                float: false,
                steps: 1,
            }),
        ),
    ] {
        let (dist, pc, comm) = score(kernel.as_ref(), n);
        println!("{name:<34} | {dist:>9.1}% | {pc:>9.1}% | {comm:>8}");
    }
    println!();
    println!("Both schemes handle most-recent-instance dependences; only the");
    println!("distance scheme can name an *older* dynamic instance of the same");
    println!("static store (the store-PC scheme always predicts the newest one).");
}
