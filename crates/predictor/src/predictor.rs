//! The complete branch predictor: BTB + PHT + history, as configured by the
//! Branch Prediction settings tab.

use crate::counter::{CounterState, PredictorKind, SaturatingPredictor};
use crate::history::{HistoryKind, HistoryRegisters};
use serde::{Deserialize, Serialize};

/// Branch predictor configuration (paper §II-C, last tab).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// Number of branch-target-buffer entries.
    pub btb_size: usize,
    /// Number of pattern-history-table entries.
    pub pht_size: usize,
    /// Predictor state machine (zero/one/two-bit).
    pub predictor_kind: PredictorKind,
    /// Default state of freshly allocated PHT entries.
    pub default_state: CounterState,
    /// Local or global history shift registers.
    pub history: HistoryKind,
    /// History length in bits (0 = PC-indexed only).
    pub history_bits: u32,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            btb_size: 64,
            pht_size: 256,
            predictor_kind: PredictorKind::Two,
            default_state: CounterState::WeaklyTaken,
            history: HistoryKind::Global,
            history_bits: 4,
        }
    }
}

impl BranchPredictorConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.btb_size == 0 {
            return Err("BTB size must be at least 1".into());
        }
        if self.pht_size == 0 {
            return Err("PHT size must be at least 1".into());
        }
        Ok(())
    }
}

/// One BTB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
struct BtbEntry {
    valid: bool,
    pc: u64,
    target: u64,
}

/// Prediction returned to the fetch unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target from the BTB (None on a BTB miss — the fetch unit then
    /// falls through even for a predicted-taken branch, and the branch unit
    /// redirects later).
    pub target: Option<u64>,
    /// PHT index used, for GUI display of the consulted counter.
    pub pht_index: usize,
    /// State of the consulted counter at prediction time.
    pub counter_state: CounterState,
}

/// Accuracy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PredictorStats {
    /// Conditional-branch predictions made (updates observed).
    pub predictions: u64,
    /// Correct direction predictions.
    pub correct: u64,
    /// BTB lookups.
    pub btb_lookups: u64,
    /// BTB hits.
    pub btb_hits: u64,
}

impl PredictorStats {
    /// Direction prediction accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.predictions - self.correct
    }
}

/// The branch predictor used by the fetch and branch units.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    btb: Vec<BtbEntry>,
    pht: Vec<SaturatingPredictor>,
    history: HistoryRegisters,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Build a predictor from a validated configuration.
    pub fn new(config: BranchPredictorConfig) -> Result<Self, String> {
        config.validate()?;
        let pht = vec![
            SaturatingPredictor::new(config.predictor_kind, config.default_state);
            config.pht_size
        ];
        let history = HistoryRegisters::new(config.history, config.history_bits, config.pht_size);
        Ok(BranchPredictor {
            btb: vec![BtbEntry::default(); config.btb_size],
            pht,
            history,
            stats: PredictorStats::default(),
            config,
        })
    }

    /// Predictor with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(BranchPredictorConfig::default()).expect("default predictor config is valid")
    }

    /// The configuration in use.
    pub fn config(&self) -> &BranchPredictorConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    fn pht_index(&self, pc: u64) -> usize {
        let hist = self.history.value(pc);
        (((pc >> 2) ^ hist) as usize) % self.config.pht_size
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.btb_size
    }

    /// Predict the branch at `pc`.  Does not update any state; statistics are
    /// collected on [`BranchPredictor::update`].
    pub fn predict(&mut self, pc: u64) -> Prediction {
        let idx = self.pht_index(pc);
        let counter = self.pht[idx];
        let entry = self.btb[self.btb_index(pc)];
        self.stats.btb_lookups += 1;
        let target = if entry.valid && entry.pc == pc {
            self.stats.btb_hits += 1;
            Some(entry.target)
        } else {
            None
        };
        Prediction {
            taken: counter.predicts_taken(),
            target,
            pht_index: idx,
            counter_state: counter.state(),
        }
    }

    /// Peek at the prediction without touching BTB statistics (used by the
    /// GUI to display the counter a branch will consult).
    pub fn peek(&self, pc: u64) -> (usize, CounterState) {
        let idx = self.pht_index(pc);
        (idx, self.pht[idx].state())
    }

    /// Report the architectural outcome of the branch at `pc`.
    ///
    /// `predicted_taken` is the direction the fetch unit acted on, `taken` is
    /// the real outcome and `target` the real target (used to train the BTB).
    pub fn update(&mut self, pc: u64, predicted_taken: bool, taken: bool, target: u64) {
        self.stats.predictions += 1;
        if predicted_taken == taken {
            self.stats.correct += 1;
        }
        let idx = self.pht_index(pc);
        self.pht[idx].update(taken);
        self.history.record(pc, taken);
        if taken {
            let b = self.btb_index(pc);
            self.btb[b] = BtbEntry { valid: true, pc, target };
        }
    }

    /// Train only the BTB with the target of an unconditional jump without
    /// touching direction-prediction statistics or the PHT.
    pub fn train_btb(&mut self, pc: u64, target: u64) {
        let b = self.btb_index(pc);
        self.btb[b] = BtbEntry { valid: true, pc, target };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(kind: PredictorKind, default_state: CounterState) -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig {
            btb_size: 16,
            pht_size: 64,
            predictor_kind: kind,
            default_state,
            history: HistoryKind::Global,
            history_bits: 0,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(BranchPredictorConfig { btb_size: 0, ..Default::default() }.validate().is_err());
        assert!(BranchPredictorConfig { pht_size: 0, ..Default::default() }.validate().is_err());
        assert!(BranchPredictorConfig::default().validate().is_ok());
    }

    #[test]
    fn btb_miss_then_hit_after_taken_branch() {
        let mut p = predictor(PredictorKind::Two, CounterState::WeaklyTaken);
        let pred = p.predict(0x100);
        assert!(pred.target.is_none(), "cold BTB has no target");
        p.update(0x100, pred.taken, true, 0x200);
        let pred = p.predict(0x100);
        assert_eq!(pred.target, Some(0x200));
        assert_eq!(p.stats().btb_hits, 1);
        assert_eq!(p.stats().btb_lookups, 2);
    }

    #[test]
    fn not_taken_branches_do_not_pollute_btb() {
        let mut p = predictor(PredictorKind::Two, CounterState::WeaklyNotTaken);
        p.update(0x100, false, false, 0x200);
        assert_eq!(p.predict(0x100).target, None);
    }

    #[test]
    fn loop_branch_reaches_high_accuracy_with_two_bit() {
        let mut p = predictor(PredictorKind::Two, CounterState::WeaklyNotTaken);
        // A loop branch taken 9 times then not taken, repeated 10 times.
        for _ in 0..10 {
            for i in 0..10 {
                let taken = i != 9;
                let pred = p.predict(0x40);
                p.update(0x40, pred.taken, taken, 0x10);
            }
        }
        // 2-bit predictor mispredicts ~1-2 per loop iteration of 10.
        assert!(p.stats().accuracy() > 0.75, "accuracy {}", p.stats().accuracy());
    }

    #[test]
    fn one_bit_worse_than_two_bit_on_loop_pattern() {
        let run = |kind| {
            let mut p = predictor(kind, CounterState::WeaklyNotTaken);
            for _ in 0..50 {
                for i in 0..5 {
                    let taken = i != 4;
                    let pred = p.predict(0x40);
                    p.update(0x40, pred.taken, taken, 0x10);
                }
            }
            p.stats().accuracy()
        };
        let one = run(PredictorKind::One);
        let two = run(PredictorKind::Two);
        assert!(two > one, "two-bit {two} must beat one-bit {one} on loop exits");
    }

    #[test]
    fn zero_bit_accuracy_equals_taken_fraction() {
        let mut p = predictor(PredictorKind::Zero, CounterState::StronglyTaken);
        for i in 0..100 {
            let taken = i % 4 != 0; // 75 % taken
            let pred = p.predict(0x10);
            assert!(pred.taken, "always predicts the default direction");
            p.update(0x10, pred.taken, taken, 0x40);
        }
        assert!((p.stats().accuracy() - 0.75).abs() < 1e-9);
        assert_eq!(p.stats().mispredictions(), 25);
    }

    #[test]
    fn global_history_learns_alternating_pattern() {
        let mut p = BranchPredictor::new(BranchPredictorConfig {
            btb_size: 16,
            pht_size: 128,
            predictor_kind: PredictorKind::Two,
            default_state: CounterState::WeaklyNotTaken,
            history: HistoryKind::Global,
            history_bits: 2,
        })
        .unwrap();
        // Pattern T,N,T,N... — with 2 bits of history the predictor separates
        // the two contexts and converges; warm up then measure.
        let mut correct_tail = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let pred = p.predict(0x80);
            p.update(0x80, pred.taken, taken, 0x10);
            if i >= 100 && pred.taken == taken {
                correct_tail += 1;
            }
        }
        assert!(
            correct_tail >= 95,
            "history-based predictor should nail alternation, got {correct_tail}/100"
        );
    }

    #[test]
    fn different_branches_use_different_pht_entries() {
        let mut p = predictor(PredictorKind::Two, CounterState::WeaklyNotTaken);
        let a = p.predict(0x100).pht_index;
        let b = p.predict(0x104).pht_index;
        assert_ne!(a, b);
    }

    #[test]
    fn peek_does_not_change_stats() {
        let p = predictor(PredictorKind::Two, CounterState::WeaklyTaken);
        let before = *p.stats();
        let (_, state) = p.peek(0x40);
        assert_eq!(state, CounterState::WeaklyTaken);
        assert_eq!(*p.stats(), before);
    }
}
