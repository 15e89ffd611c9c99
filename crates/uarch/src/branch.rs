//! Branch predictors.
//!
//! The paper evaluates branch behaviour with a *hybrid* predictor combining a
//! bimodal component and a history-based component (§IV, PTLSim
//! configuration); Figure 9 reports prediction accuracy for original and
//! synthetic workloads.  This module provides [`Bimodal`], [`GShare`] and the
//! meta-chooser [`Hybrid`] built from both, plus a small observer that
//! measures accuracy over an execution.

use crate::exec::{InstSite, Observer};

/// A branch's identity as seen by the predictors: the dense site id assigned
/// by the program's [`ExecImage`](crate::image::ExecImage).  Using the dense
/// id (rather than the three-field [`InstSite`]) keeps table indexing to one
/// multiply on the simulation hot path.
pub type BranchSite = u32;

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter2(u8);

impl Counter2 {
    /// A counter initialized to "weakly taken".
    pub fn weakly_taken() -> Self {
        Counter2(2)
    }

    /// The predicted direction.
    pub fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Updates toward the actual outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// A branch-direction predictor.
pub trait Predictor {
    /// Predicts the direction of the branch at `site`.
    fn predict(&self, site: BranchSite) -> bool;
    /// Informs the predictor of the actual outcome.
    fn update(&mut self, site: BranchSite, taken: bool);

    /// Predicts, updates, and reports whether the prediction was correct.
    fn predict_and_update(&mut self, site: BranchSite, taken: bool) -> bool {
        let p = self.predict(site);
        self.update(site, taken);
        p == taken
    }
}

fn site_hash(site: BranchSite) -> u64 {
    // A cheap deterministic mix of the static branch location.
    u64::from(site).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Bimodal predictor: a table of 2-bit counters indexed by the branch site.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        Bimodal {
            table: vec![Counter2::weakly_taken(); entries.next_power_of_two().max(16)],
        }
    }

    fn index(&self, site: BranchSite) -> usize {
        (site_hash(site) as usize) & (self.table.len() - 1)
    }
}

impl Predictor for Bimodal {
    fn predict(&self, site: BranchSite) -> bool {
        self.table[self.index(site)].predict()
    }
    fn update(&mut self, site: BranchSite, taken: bool) {
        let i = self.index(site);
        self.table[i].update(taken);
    }
}

/// GShare predictor: counters indexed by the site hash xor the global history.
#[derive(Debug, Clone)]
pub struct GShare {
    table: Vec<Counter2>,
    history: u64,
    history_bits: u32,
}

impl GShare {
    /// Creates a predictor with `entries` counters and `history_bits` of global history.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        GShare {
            table: vec![Counter2::weakly_taken(); entries.next_power_of_two().max(16)],
            history: 0,
            history_bits: history_bits.min(24),
        }
    }

    fn index(&self, site: BranchSite) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        ((site_hash(site) ^ (self.history & mask)) as usize) & (self.table.len() - 1)
    }
}

impl Predictor for GShare {
    fn predict(&self, site: BranchSite) -> bool {
        self.table[self.index(site)].predict()
    }
    fn update(&mut self, site: BranchSite, taken: bool) {
        let i = self.index(site);
        self.table[i].update(taken);
        self.history = (self.history << 1) | taken as u64;
    }
}

/// Hybrid predictor: a meta table of 2-bit counters chooses, per branch,
/// between the bimodal and the history-based component (the paper's PTLSim
/// configuration).
#[derive(Debug, Clone)]
pub struct Hybrid {
    bimodal: Bimodal,
    gshare: GShare,
    meta: Vec<Counter2>,
}

impl Hybrid {
    /// Creates a hybrid predictor with `entries` counters per component.
    pub fn new(entries: usize) -> Self {
        Hybrid {
            bimodal: Bimodal::new(entries),
            gshare: GShare::new(entries, 12),
            meta: vec![Counter2::weakly_taken(); entries.next_power_of_two().max(16)],
        }
    }

    /// The PTLSim-like default configuration (4K entries).
    pub fn default_config() -> Self {
        Hybrid::new(4096)
    }

    fn meta_index(&self, site: BranchSite) -> usize {
        (site_hash(site) as usize) & (self.meta.len() - 1)
    }
}

impl Predictor for Hybrid {
    fn predict(&self, site: BranchSite) -> bool {
        if self.meta[self.meta_index(site)].predict() {
            self.gshare.predict(site)
        } else {
            self.bimodal.predict(site)
        }
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let bp = self.bimodal.predict(site);
        let gp = self.gshare.predict(site);
        // Train the chooser toward whichever component was right (only when
        // they disagree).
        if bp != gp {
            let i = self.meta_index(site);
            self.meta[i].update(gp == taken);
        }
        self.bimodal.update(site, taken);
        self.gshare.update(site, taken);
    }

    /// Fused predict + update computing each component's table index once
    /// (the default implementation recomputes them in `update`); this sits on
    /// the pipeline model's per-branch hot path.
    fn predict_and_update(&mut self, site: BranchSite, taken: bool) -> bool {
        let bi = self.bimodal.index(site);
        let gi = self.gshare.index(site);
        let mi = self.meta_index(site);
        let bp = self.bimodal.table[bi].predict();
        let gp = self.gshare.table[gi].predict();
        let p = if self.meta[mi].predict() { gp } else { bp };
        if bp != gp {
            self.meta[mi].update(gp == taken);
        }
        self.bimodal.table[bi].update(taken);
        self.gshare.table[gi].update(taken);
        self.gshare.history = (self.gshare.history << 1) | taken as u64;
        p == taken
    }
}

/// Accuracy statistics of a predictor over an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches executed.
    pub branches: u64,
    /// Correct predictions.
    pub correct: u64,
}

impl BranchStats {
    /// Prediction accuracy in `[0, 1]` (1.0 when no branches executed).
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            self.correct as f64 / self.branches as f64
        }
    }

    /// Misprediction rate in `[0, 1]`.
    pub fn misprediction_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }
}

/// An observer that measures a predictor's accuracy over an execution.
pub struct PredictorObserver<P> {
    /// The predictor under evaluation.
    pub predictor: P,
    /// Accumulated statistics.
    pub stats: BranchStats,
}

impl<P: Predictor> PredictorObserver<P> {
    /// Wraps a predictor.
    pub fn new(predictor: P) -> Self {
        PredictorObserver {
            predictor,
            stats: BranchStats::default(),
        }
    }
}

impl<P: Predictor> Observer for PredictorObserver<P> {
    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        self.stats.branches += 1;
        if self.predictor.predict_and_update(site_id, taken) {
            self.stats.correct += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u32) -> BranchSite {
        n
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter2::default();
        assert!(!c.predict());
        for _ in 0..10 {
            c.update(true);
        }
        assert!(c.predict());
        c.update(false);
        assert!(
            c.predict(),
            "one not-taken does not flip a saturated counter"
        );
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(1024);
        let mut correct = 0;
        for i in 0..1000 {
            if p.predict_and_update(site(1), true) {
                correct += 1;
            }
            let _ = i;
        }
        assert!(
            correct >= 990,
            "always-taken branch should be almost perfectly predicted"
        );
    }

    #[test]
    fn bimodal_struggles_with_alternating_branches() {
        let mut p = Bimodal::new(1024);
        let mut correct = 0;
        for i in 0..1000 {
            if p.predict_and_update(site(2), i % 2 == 0) {
                correct += 1;
            }
        }
        assert!(
            correct <= 600,
            "alternating branch defeats a bimodal predictor: {correct}"
        );
    }

    #[test]
    fn gshare_learns_short_periodic_patterns() {
        let mut p = GShare::new(4096, 8);
        let mut correct_late = 0;
        for i in 0..4000 {
            let taken = i % 3 == 0;
            let ok = p.predict_and_update(site(3), taken);
            if i >= 2000 && ok {
                correct_late += 1;
            }
        }
        assert!(
            correct_late as f64 / 2000.0 > 0.95,
            "gshare should lock onto a period-3 pattern: {correct_late}"
        );
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_bimodal_on_mixed_behaviour() {
        let mut hybrid = Hybrid::default_config();
        let mut bimodal = Bimodal::new(4096);
        let mut h_ok = 0u64;
        let mut b_ok = 0u64;
        for i in 0..6000u64 {
            // Branch 1: strongly biased. Branch 2: period 4 pattern.
            let (s, taken) = if i % 2 == 0 {
                (site(10), true)
            } else {
                (site(11), (i / 2) % 4 == 0)
            };
            if hybrid.predict_and_update(s, taken) {
                h_ok += 1;
            }
            if bimodal.predict_and_update(s, taken) {
                b_ok += 1;
            }
        }
        assert!(h_ok >= b_ok, "hybrid {h_ok} vs bimodal {b_ok}");
    }

    #[test]
    fn stats_accuracy() {
        let s = BranchStats {
            branches: 200,
            correct: 150,
        };
        assert!((s.accuracy() - 0.75).abs() < 1e-12);
        assert!((s.misprediction_rate() - 0.25).abs() < 1e-12);
        assert_eq!(BranchStats::default().accuracy(), 1.0);
    }
}
