//! The store-load bypassing predictor in isolation: path sensitivity and
//! the confidence/delay mechanism (paper §3.3).
//!
//! ```sh
//! cargo run --release -p nosq-examples --example bypassing_predictor
//! ```

use nosq_core::predictor::{BypassingPredictor, PathHistory, PredictorConfig};

/// Feeds the predictor a load whose bypassing distance depends on the
/// direction of a recent branch; reports steady-state accuracy.
fn path_dependent_accuracy(history_contains_branch: bool) -> f64 {
    let mut p = BypassingPredictor::new(PredictorConfig::paper_default());
    let pc = 0x400;
    let mut correct = 0u32;
    let mut total = 0u32;
    for i in 0..4000u64 {
        // The branch direction alternates with period 2; the distance is
        // 1 on taken paths and 0 on not-taken paths.
        let taken = (i / 2) % 2 == 0;
        let actual_dist = taken as u16;
        let mut h = PathHistory::new();
        if history_contains_branch {
            h.push_branch(taken);
        }
        let pred = p.predict(pc, &h);
        // A delayed (unconfident) load is always safe, never a
        // mis-prediction; a non-bypassing prediction for this
        // communicating load always is one.
        let mispredicted = pred.is_none_or(|pred| pred.confident && pred.dist != actual_dist);
        // Warm-up excluded from the score.
        if i >= 1000 {
            total += 1;
            correct += u32::from(!mispredicted);
        }
        p.train(pc, &h, pred, mispredicted, || Some((actual_dist, 0)));
    }
    100.0 * correct as f64 / total as f64
}

fn main() {
    println!("Path-dependent store-load distance (alternates 0/1 with a branch):");
    println!(
        "  with the branch in the path history : {:>6.2}% correct-or-delayed",
        path_dependent_accuracy(true)
    );
    println!(
        "  without path history (PC-only)      : {:>6.2}% correct-or-delayed",
        path_dependent_accuracy(false)
    );
    println!();
    println!("With the deciding branch visible in the history, the path-sensitive");
    println!("table learns one distance per path and approaches perfect accuracy;");
    println!("without it, the entry's distance flip-flops until the confidence");
    println!("mechanism parks the load in the safe delayed state (paper §3.3).");
}
