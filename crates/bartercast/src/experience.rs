//! The experience function `E` (paper §V-B) and the adaptive-threshold
//! refinement sketched in §VII.
//!
//! > "we apply a simple threshold value T over the contribution function
//! > f_{j→i}. Hence node i considers node j to be experienced where
//! > E_i(j) = true iff f_{j→i} ≥ T."
//!
//! The paper selects `T = 5 MB` from trace simulations (Figure 5) and
//! proposes, as future work, adapting `T` endogenously: raise it when the
//! dispersion of incoming votes exceeds `D_max` (likely attack), lower it
//! when votes agree. [`AdaptiveThreshold`] implements that sketch and is
//! evaluated by the `ablation_adaptive_t` experiment.

use crate::protocol::BarterCast;
use rvs_sim::NodeId;

/// The paper's fixed-threshold experience function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdExperience {
    /// Threshold in MiB (paper: 5 MB).
    pub t_mib: f64,
}

impl ThresholdExperience {
    /// The paper's selected operating point, `T = 5` MB.
    pub const PAPER_DEFAULT: ThresholdExperience = ThresholdExperience { t_mib: 5.0 };

    /// A threshold of `t_mib` MiB.
    pub fn new(t_mib: f64) -> Self {
        ThresholdExperience { t_mib }
    }

    /// `E_i(j)`: does `i` consider `j` experienced?
    pub fn is_experienced(&self, bc: &BarterCast, i: NodeId, j: NodeId) -> bool {
        bc.contribution_mib(i, j) >= self.t_mib
    }
}

/// Adaptive threshold (paper §VII): per-node `T` steered by the dispersion
/// of incoming votes.
///
/// > "We could choose a maximum dispersion level of opinion in votes,
/// > D_max, above which we increase T. If incoming votes result in an
/// > increase in the dispersion level and take it above D_max, the value of
/// > T is increased and vice versa."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThreshold {
    /// Current threshold in MiB.
    pub t_mib: f64,
    /// Lower clamp (the paper suggests starting from `T = 0`).
    pub t_min_mib: f64,
    /// Upper clamp, bounding how exclusive the core can become.
    pub t_max_mib: f64,
    /// Additive step when dispersion exceeds `D_max`.
    pub raise_mib: f64,
    /// Additive step when dispersion is back below `D_max`.
    ///
    /// Deliberately much smaller than `raise_mib`: with a symmetric step
    /// the guard oscillates — once suspicious votes are purged, dispersion
    /// drops, `T` falls straight back and the attacker floods in again.
    /// Raising fast and decaying slowly breaks that cycle (see the
    /// `ablation_adaptive_t` experiment).
    pub decay_mib: f64,
    /// Dispersion level above which `T` is raised.
    pub d_max: f64,
}

impl Default for AdaptiveThreshold {
    fn default() -> Self {
        AdaptiveThreshold {
            t_mib: 0.0,
            t_min_mib: 0.0,
            t_max_mib: 50.0,
            raise_mib: 1.0,
            decay_mib: 0.05,
            d_max: 0.2,
        }
    }
}

rvs_checkpoint::persist_struct!(AdaptiveThreshold {
    t_mib,
    t_min_mib,
    t_max_mib,
    raise_mib,
    decay_mib,
    d_max
});

impl AdaptiveThreshold {
    /// The paper's literal symmetric sketch ("the value of T is increased
    /// and vice versa") — kept for the ablation's comparison; oscillates
    /// under sustained attack.
    pub fn symmetric(step_mib: f64) -> Self {
        AdaptiveThreshold {
            raise_mib: step_mib,
            decay_mib: step_mib,
            ..Default::default()
        }
    }

    /// `E_i(j)` under the current adaptive threshold.
    pub fn is_experienced(&self, bc: &BarterCast, i: NodeId, j: NodeId) -> bool {
        bc.contribution_mib(i, j) >= self.t_mib
    }

    /// Feed one dispersion observation `d ∈ [0, 1]` (e.g. the fraction of
    /// moderators whose incoming votes conflict). Raises `T` by
    /// `raise_mib` when `d > D_max`, lowers it by `decay_mib` otherwise,
    /// clamped to `[t_min, t_max]`.
    pub fn observe_dispersion(&mut self, d: f64) {
        if d > self.d_max {
            self.t_mib += self.raise_mib;
        } else {
            self.t_mib -= self.decay_mib;
        }
        self.t_mib = self.t_mib.clamp(self.t_min_mib, self.t_max_mib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BarterCastConfig;
    use rvs_bittorrent::TransferLedger;

    fn bc_with_upload(kib: u64) -> BarterCast {
        let mut l = TransferLedger::new();
        l.credit(NodeId(2), NodeId(1), kib);
        let mut bc = BarterCast::new(3, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        bc
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let bc = bc_with_upload(5 * 1024);
        let e = ThresholdExperience::PAPER_DEFAULT;
        assert!(e.is_experienced(&bc, NodeId(1), NodeId(2)));
        let bc_less = bc_with_upload(5 * 1024 - 1);
        assert!(!e.is_experienced(&bc_less, NodeId(1), NodeId(2)));
    }

    #[test]
    fn experience_is_asymmetric() {
        // 2 uploaded to 1; 1 never uploaded to 2.
        let mut l = TransferLedger::new();
        l.credit(NodeId(2), NodeId(1), 10 * 1024);
        let mut bc = BarterCast::new(3, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        bc.sync_own_records(NodeId(2), &l);
        let e = ThresholdExperience::PAPER_DEFAULT;
        assert!(e.is_experienced(&bc, NodeId(1), NodeId(2)));
        assert!(!e.is_experienced(&bc, NodeId(2), NodeId(1)));
    }

    #[test]
    fn zero_threshold_accepts_anyone_known() {
        let bc = bc_with_upload(1);
        let e = ThresholdExperience::new(0.0);
        assert!(e.is_experienced(&bc, NodeId(1), NodeId(2)));
        // Even a node with no contribution passes at T=0.
        assert!(e.is_experienced(&bc, NodeId(1), NodeId(0)));
    }

    #[test]
    fn adaptive_raises_on_high_dispersion() {
        let mut a = AdaptiveThreshold::default();
        for _ in 0..5 {
            a.observe_dispersion(0.9);
        }
        assert!((a.t_mib - 5.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_lowers_on_agreement_and_clamps() {
        let mut a = AdaptiveThreshold {
            t_mib: 2.0,
            ..Default::default()
        };
        // Decay is deliberately slow: 2 MiB / 0.05 per step = 40 steps.
        for _ in 0..50 {
            a.observe_dispersion(0.0);
        }
        assert_eq!(a.t_mib, a.t_min_mib);
        for _ in 0..1_000 {
            a.observe_dispersion(1.0);
        }
        assert_eq!(a.t_mib, a.t_max_mib);
    }

    #[test]
    fn symmetric_variant_raises_and_decays_equally() {
        let mut a = AdaptiveThreshold::symmetric(1.0);
        a.observe_dispersion(0.9);
        a.observe_dispersion(0.9);
        assert!((a.t_mib - 2.0).abs() < 1e-9);
        a.observe_dispersion(0.0);
        a.observe_dispersion(0.0);
        assert_eq!(a.t_mib, 0.0);
    }

    #[test]
    fn adaptive_gates_by_current_threshold() {
        let bc = bc_with_upload(3 * 1024); // 3 MiB contribution
        let mut a = AdaptiveThreshold::default(); // T = 0
        assert!(a.is_experienced(&bc, NodeId(1), NodeId(2)));
        for _ in 0..4 {
            a.observe_dispersion(1.0); // T climbs to 4
        }
        assert!(!a.is_experienced(&bc, NodeId(1), NodeId(2)));
    }
}
