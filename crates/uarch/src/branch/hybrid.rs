//! Hybrid gShare/bimodal predictor with a chooser (paper §4.1's
//! "12k-entry hybrid gShare/bimodal predictor").

use super::{Bimodal, Counter2, GShare};

/// Sizing for the hybrid predictor.
#[derive(Copy, Clone, Debug)]
pub struct HybridConfig {
    /// Bimodal table entries.
    pub bimodal_entries: usize,
    /// gShare table entries.
    pub gshare_entries: usize,
    /// Chooser table entries.
    pub chooser_entries: usize,
    /// gShare global-history length in bits.
    pub history_bits: u32,
}

impl HybridConfig {
    /// The paper's 12k-entry predictor (4k per component).
    pub fn paper_default() -> HybridConfig {
        HybridConfig {
            bimodal_entries: 4096,
            gshare_entries: 4096,
            chooser_entries: 4096,
            history_bits: 12,
        }
    }

    /// The quadrupled predictor used with the 256-entry window (paper
    /// §4.4: "the branch predictor size is quadrupled").
    pub fn paper_large() -> HybridConfig {
        HybridConfig {
            bimodal_entries: 16384,
            gshare_entries: 16384,
            chooser_entries: 16384,
            history_bits: 14,
        }
    }
}

/// The hybrid direction predictor.
#[derive(Clone, Debug)]
pub struct HybridPredictor {
    bimodal: Bimodal,
    gshare: GShare,
    chooser: Vec<Counter2>, // predict() == true → use gshare
}

impl HybridPredictor {
    /// Builds the predictor.
    pub fn new(cfg: HybridConfig) -> HybridPredictor {
        HybridPredictor {
            bimodal: Bimodal::new(cfg.bimodal_entries),
            gshare: GShare::new(cfg.gshare_entries, cfg.history_bits),
            chooser: vec![Counter2::weakly_taken(); cfg.chooser_entries.next_power_of_two().max(2)],
        }
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }

    /// Predicted direction for the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        if self.chooser[self.chooser_index(pc)].predict() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Trains all components on the resolved outcome and advances global
    /// history. Returns the direction [`predict`](Self::predict) gave
    /// before the update.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let g = self.gshare.predict(pc);
        let b = self.bimodal.predict(pc);
        let mut predicted = g;
        // Chooser moves toward whichever component was right (when they
        // disagree).
        if g != b {
            let i = self.chooser_index(pc);
            predicted = if self.chooser[i].predict() { g } else { b };
            self.chooser[i].update(g == taken);
        }
        self.gshare.update(pc, taken);
        self.bimodal.update(pc, taken);
        self.gshare.push_history(taken);
        predicted
    }

    /// Global-history checkpoint (for squash recovery).
    pub fn history(&self) -> u64 {
        self.gshare.history()
    }

    /// Restores a history checkpoint.
    pub fn set_history(&mut self, history: u64) {
        self.gshare.set_history(history);
    }
}

nosq_wire::wire_struct!(HybridPredictor {
    bimodal,
    gshare,
    chooser
});

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pattern: impl Iterator<Item = bool>, warmup: usize) -> f64 {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, taken) in pattern.enumerate() {
            let pred = p.predict(0x100);
            if i >= warmup {
                total += 1;
                correct += (pred == taken) as usize;
            }
            assert_eq!(
                p.update(0x100, taken),
                pred,
                "update returns the prediction"
            );
        }
        correct as f64 / total as f64
    }

    #[test]
    fn biased_branch_is_nearly_perfect() {
        let acc = run((0..1000).map(|i| i % 10 != 0), 100);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn patterned_branch_selects_gshare() {
        // Period-4 pattern TTNT: bimodal alone gets ~75%, gshare ~100%.
        let pat = [true, true, false, true];
        let acc = run((0..2000).map(|i| pat[i % 4]), 500);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn always_taken_is_perfect() {
        let acc = run((0..500).map(|_| true), 50);
        assert_eq!(acc, 1.0);
    }
}
