//! The adaptive-threshold refinement of the experience function `E`
//! (paper §V-B) sketched in §VII.
//!
//! > "we apply a simple threshold value T over the contribution function
//! > f_{j→i}. Hence node i considers node j to be experienced where
//! > E_i(j) = true iff f_{j→i} ≥ T."
//!
//! The paper selects `T = 5 MB` from trace simulations (Figure 5) and
//! proposes, as future work, adapting `T` endogenously: raise it when the
//! dispersion of incoming votes exceeds `D_max` (likely attack), lower it
//! when votes agree. [`AdaptiveThreshold`] implements that sketch and is
//! evaluated by the `ablation_adaptive_t` experiment. `E_i(j)` itself is
//! one comparison of [`BarterCast::contribution_mib`] against `i`'s
//! current `T`, made by the scenario engine (`System::experienced`).
//!
//! [`BarterCast::contribution_mib`]: crate::BarterCast::contribution_mib

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

    /// Is `[t_min_mib, t_max_mib]` a range [`observe_dispersion`] can
    /// clamp to: neither bound NaN and the lower not above the upper?
    ///
    /// [`observe_dispersion`]: AdaptiveThreshold::observe_dispersion
    pub fn has_range(&self) -> bool {
        self.t_min_mib <= self.t_max_mib
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
}
