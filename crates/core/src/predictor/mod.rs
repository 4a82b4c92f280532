//! The store-load bypassing predictor (paper §3.3).
//!
//! A hybrid of two parallel set-associative tables:
//!
//! * a **path-insensitive** table indexed by load PC, and
//! * a **path-sensitive** table indexed by load PC XOR-hashed with the
//!   path history (branch direction bits + call-PC bits).
//!
//! Loads access both in parallel; a hit in both prefers the
//! path-sensitive prediction. On a mis-prediction, entries are created in
//! both tables. Each entry carries a distance (in dynamic stores), a
//! partial-word shift amount, and a 7-bit confidence counter driving the
//! delay mechanism: a sub-threshold prediction makes the load wait for
//! the predicted store's commit instead of bypassing from it.

mod path;
mod table;

pub use path::PathHistory;
pub use table::{BypassEntry, BypassTable};

/// Sizing and behaviour of the bypassing predictor.
#[derive(Copy, Clone, Debug)]
pub struct PredictorConfig {
    /// Entries in *each* of the two tables (paper: 1K each, 10KB total).
    pub entries_per_table: usize,
    /// Set associativity (paper: 4).
    pub ways: usize,
    /// Path history bits hashed into the path-sensitive index (paper: 8).
    pub history_bits: u32,
    /// Ignore capacity (the Figure-5 "Inf" predictor).
    pub unbounded: bool,
    /// Confidence ceiling (7-bit counter: 127).
    pub conf_max: i16,
    /// Initial confidence on allocation ("initialized at an
    /// above-threshold value").
    pub conf_init: i16,
    /// Delay threshold: predictions below this confidence are delayed.
    pub conf_threshold: i16,
    /// Confidence step on a correct (non-mis-predicted) outcome.
    pub conf_up: i16,
    /// Confidence step on a mis-prediction with path prediction available.
    pub conf_down: i16,
}

impl PredictorConfig {
    /// The paper's default 10KB predictor: two 1K-entry 4-way tables,
    /// 8 history bits.
    pub fn paper_default() -> PredictorConfig {
        PredictorConfig {
            entries_per_table: 1024,
            ways: 4,
            history_bits: 8,
            unbounded: false,
            conf_max: 127,
            conf_init: 96,
            conf_threshold: 32,
            conf_up: 1,
            conf_down: 127,
        }
    }

    /// A capacity-scaled variant (Figure 5 top: total entries across both
    /// tables, storage equally split).
    pub fn with_capacity(total_entries: usize) -> PredictorConfig {
        PredictorConfig {
            entries_per_table: (total_entries / 2).max(4),
            ..PredictorConfig::paper_default()
        }
    }

    /// A history-scaled variant (Figure 5 bottom).
    pub fn with_history_bits(bits: u32) -> PredictorConfig {
        PredictorConfig {
            history_bits: bits,
            ..PredictorConfig::paper_default()
        }
    }

    /// The unbounded predictor (Figure 5's "Inf" bars).
    pub fn unbounded() -> PredictorConfig {
        PredictorConfig {
            unbounded: true,
            ..PredictorConfig::paper_default()
        }
    }
}

/// A bypassing prediction for one dynamic load.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted distance in dynamic stores (0 = most recent).
    pub dist: u16,
    /// Predicted partial-word shift amount in bytes.
    pub shift: u8,
    /// Above-threshold confidence? (below ⇒ delay, paper §3.3)
    pub confident: bool,
    /// Whether the path-sensitive table provided the prediction (drives
    /// the confidence update rule).
    pub path_sensitive: bool,
}

/// The hybrid bypassing predictor.
#[derive(Clone, Debug)]
pub struct BypassingPredictor {
    cfg: PredictorConfig,
    pc_table: BypassTable,
    path_table: BypassTable,
}

fn pc_key(pc: u64) -> u64 {
    pc >> 2
}

fn path_key(pc: u64, folded_history: u64) -> u64 {
    // Spread the folded history across both the index bits (low) and the
    // tag bits (high) so distinct (pc, history) pairs rarely produce the
    // same (set, tag) pair — the tagged-table equivalent of using a
    // second hash for the tag.
    (pc >> 2) ^ (folded_history << 3) ^ folded_history ^ (folded_history << 17)
}

impl BypassingPredictor {
    /// Builds a predictor.
    pub fn new(cfg: PredictorConfig) -> BypassingPredictor {
        BypassingPredictor {
            cfg,
            pc_table: BypassTable::new(
                cfg.entries_per_table,
                cfg.ways,
                cfg.unbounded,
                cfg.conf_init,
            ),
            path_table: BypassTable::new(
                cfg.entries_per_table,
                cfg.ways,
                cfg.unbounded,
                cfg.conf_init,
            ),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Decode-stage prediction: `None` means "predicted non-bypassing"
    /// (a miss in both tables). `history` must be the load's decode-time
    /// path history.
    pub fn predict(&mut self, load_pc: u64, history: &PathHistory) -> Option<Prediction> {
        let folded = history.fold(self.cfg.history_bits);
        let path_hit = self.path_table.lookup(path_key(load_pc, folded));
        let pc_hit = self.pc_table.lookup(pc_key(load_pc));
        let (entry, path_sensitive) = match (path_hit, pc_hit) {
            (Some(p), _) => (p, true),
            (None, Some(e)) => (e, false),
            (None, None) => return None,
        };
        Some(Prediction {
            dist: entry.dist,
            shift: entry.shift,
            confident: entry.conf >= self.cfg.conf_threshold,
            path_sensitive,
        })
    }

    /// Commit-stage training after a bypassing **mis-prediction**: install
    /// the observed distance/shift in both tables and decrement the
    /// confidence if a path-sensitive prediction was available but the
    /// load mis-predicted anyway (the paper's delay trigger). `actual` is
    /// `None` when the commit stage could not compute the true distance
    /// (T-SSBF miss): only the confidence is updated.
    pub fn train_mispredict(
        &mut self,
        load_pc: u64,
        history: &PathHistory,
        had_path_prediction: bool,
        actual: Option<(u16, u8)>,
    ) {
        let folded = history.fold(self.cfg.history_bits);
        let pkey = path_key(load_pc, folded);
        let ckey = pc_key(load_pc);
        if let Some((dist, shift)) = actual {
            self.path_table.install(pkey, dist, shift);
            self.pc_table.install(ckey, dist, shift);
        }
        if had_path_prediction {
            self.path_table
                .adjust_conf(pkey, -self.cfg.conf_down, self.cfg.conf_max);
            self.pc_table
                .adjust_conf(ckey, -self.cfg.conf_down, self.cfg.conf_max);
        }
    }

    /// Commit-stage training after a correct outcome (bypass verified, or
    /// a delayed/non-bypassing load that did not squash): confidence is
    /// incremented (paper: "incremented otherwise").
    pub fn train_correct(&mut self, load_pc: u64, history: &PathHistory) {
        let folded = history.fold(self.cfg.history_bits);
        self.path_table.adjust_conf(
            path_key(load_pc, folded),
            self.cfg.conf_up,
            self.cfg.conf_max,
        );
        self.pc_table
            .adjust_conf(pc_key(load_pc), self.cfg.conf_up, self.cfg.conf_max);
    }

    /// Commit-stage training of the load at `load_pc` from its
    /// decode-time `history` and prediction `pred`: a `mispredicted`
    /// load trains toward `actual()`, its producer's distance and shift
    /// if known; a verified load that had a prediction confirms it; any
    /// other load trains nothing. The commit stage and the sampler's
    /// warmer both train through this rule, each with its own verdict.
    pub fn train(
        &mut self,
        load_pc: u64,
        history: &PathHistory,
        pred: Option<Prediction>,
        mispredicted: bool,
        actual: impl FnOnce() -> Option<(u16, u8)>,
    ) {
        if mispredicted {
            let had_path = pred.is_some_and(|p| p.path_sensitive);
            self.train_mispredict(load_pc, history, had_path, actual());
        } else if pred.is_some() {
            self.train_correct(load_pc, history);
        }
    }

    /// Total live entries across both tables (diagnostics).
    pub fn len(&self) -> usize {
        self.pc_table.len() + self.path_table.len()
    }

    /// Whether both tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears both tables.
    pub fn clear(&mut self) {
        self.pc_table.clear();
        self.path_table.clear();
    }
}

nosq_wire::wire_struct!(PredictorConfig {
    entries_per_table,
    ways,
    history_bits,
    unbounded,
    conf_max,
    conf_init,
    conf_threshold,
    conf_up,
    conf_down
});
nosq_wire::wire_struct!(Prediction {
    dist,
    shift,
    confident,
    path_sensitive
});
nosq_wire::wire_struct!(BypassingPredictor {
    cfg,
    pc_table,
    path_table
});

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x400;

    fn predictor() -> BypassingPredictor {
        BypassingPredictor::new(PredictorConfig::paper_default())
    }

    #[test]
    fn cold_predictor_predicts_non_bypassing() {
        let mut p = predictor();
        assert_eq!(p.predict(PC, &PathHistory::new()), None);
    }

    #[test]
    fn training_installs_in_both_tables() {
        let mut p = predictor();
        let h = PathHistory::new();
        p.train_mispredict(PC, &h, false, Some((3, 0)));
        let pred = p.predict(PC, &h).unwrap();
        assert_eq!(pred.dist, 3);
        assert!(pred.path_sensitive, "path table hit takes precedence");
        // A different history misses the path table but falls back to PC.
        let mut h2 = PathHistory::new();
        h2.push_branch(true);
        let pred2 = p.predict(PC, &h2).unwrap();
        assert!(!pred2.path_sensitive);
        assert_eq!(pred2.dist, 3);
    }

    #[test]
    fn path_sensitive_distances_differ_per_history() {
        let mut p = predictor();
        let mut taken = PathHistory::new();
        taken.push_branch(true);
        let mut not_taken = PathHistory::new();
        not_taken.push_branch(false);
        p.train_mispredict(PC, &taken, false, Some((1, 0)));
        p.train_mispredict(PC, &not_taken, false, Some((0, 0)));
        assert_eq!(p.predict(PC, &taken).unwrap().dist, 1);
        assert_eq!(p.predict(PC, &not_taken).unwrap().dist, 0);
    }

    #[test]
    fn repeated_path_mispredicts_drop_below_threshold() {
        let mut p = predictor();
        let h = PathHistory::new();
        p.train_mispredict(PC, &h, false, Some((1, 0)));
        assert!(p.predict(PC, &h).unwrap().confident);
        // Path prediction now exists; repeated mispredicts erode it.
        for _ in 0..3 {
            p.train_mispredict(PC, &h, true, Some((1, 0)));
        }
        assert!(
            !p.predict(PC, &h).unwrap().confident,
            "conf {:?}",
            p.predict(PC, &h)
        );
    }

    #[test]
    fn correct_outcomes_slowly_restore_confidence() {
        let mut p = predictor();
        let h = PathHistory::new();
        p.train_mispredict(PC, &h, false, Some((1, 0)));
        for _ in 0..4 {
            p.train_mispredict(PC, &h, true, Some((1, 0)));
        }
        assert!(!p.predict(PC, &h).unwrap().confident);
        for _ in 0..200 {
            p.train_correct(PC, &h);
        }
        assert!(p.predict(PC, &h).unwrap().confident);
    }

    #[test]
    fn shift_amounts_are_learned() {
        let mut p = predictor();
        let h = PathHistory::new();
        p.train_mispredict(PC, &h, false, Some((0, 4)));
        assert_eq!(p.predict(PC, &h).unwrap().shift, 4);
    }

    #[test]
    fn tssbf_miss_training_updates_confidence_only() {
        let mut p = predictor();
        let h = PathHistory::new();
        p.train_mispredict(PC, &h, false, Some((2, 0)));
        p.train_mispredict(PC, &h, true, None); // no distance available
        let pred = p.predict(PC, &h).unwrap();
        assert_eq!(pred.dist, 2, "distance untouched on None training");
    }

    #[test]
    fn history_bits_zero_collapses_to_pc_indexing() {
        let mut p = BypassingPredictor::new(PredictorConfig::with_history_bits(0));
        let mut a = PathHistory::new();
        a.push_branch(true);
        let mut b = PathHistory::new();
        b.push_branch(false);
        p.train_mispredict(PC, &a, false, Some((5, 0)));
        // With no history bits both histories index the same entry.
        assert_eq!(p.predict(PC, &b).unwrap().dist, 5);
    }
}
