//! Sybil economics: what does it cost to subvert the vote? (paper §VII)
//!
//! "to gain enough experienced identities to influence the popular vote
//! the spam nodes would need to pay a high price in time and upload
//! bandwidth … The larger the size of the core the higher the cost of an
//! attack since more spam identities are needed to influence the vote."
//!
//! [`SybilCost`] quantifies that argument: minting identities is free
//! (creating a key pair costs nothing in Tribler), but every identity that
//! must pass the experience function at a node costs `T` MiB of genuine
//! upload *to that node* (or an equivalent 2-hop flow through it), and
//! outvoting a core of size `C` requires more than `C` experienced
//! identities.

/// Cost model for a Sybil/flash-crowd operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilCost {
    /// The experience threshold `T` in MiB.
    pub t_mib: f64,
    /// Attacker's sustained upload bandwidth in KiB/s.
    pub uplink_kibps: f64,
}

impl SybilCost {
    /// Upload volume (MiB) needed for `identities` Sybils to each appear
    /// experienced to `evaluators` distinct honest nodes. Contribution is
    /// judged per evaluator from its own subjective graph, so the flow must
    /// be paid towards each evaluator separately.
    pub fn upload_mib(&self, identities: usize, evaluators: usize) -> f64 {
        self.t_mib * identities as f64 * evaluators as f64
    }

    /// Wall-clock seconds to pay [`Self::upload_mib`] at the attacker's
    /// uplink (all identities share the operator's physical link — the
    /// defining constraint of a Sybil attack).
    pub fn upload_seconds(&self, identities: usize, evaluators: usize) -> f64 {
        let kib = self.upload_mib(identities, evaluators) * 1024.0;
        kib / self.uplink_kibps
    }

    /// Identities needed to outvote an experienced core of `core_size`
    /// honest voters under simple summation: one more than the core.
    pub fn identities_to_outvote(core_size: usize) -> usize {
        core_size + 1
    }

    /// Full cost (MiB, seconds) of the cheapest vote-subversion attack
    /// against a core of `core_size` nodes, where each Sybil must appear
    /// experienced to the single victim node it targets.
    pub fn cheapest_subversion(&self, core_size: usize) -> (f64, f64) {
        let ids = Self::identities_to_outvote(core_size);
        (self.upload_mib(ids, 1), self.upload_seconds(ids, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SybilCost {
        SybilCost {
            t_mib: 5.0,
            uplink_kibps: 512.0,
        }
    }

    #[test]
    fn upload_scales_with_identities_and_evaluators() {
        let m = model();
        assert_eq!(m.upload_mib(1, 1), 5.0);
        assert_eq!(m.upload_mib(10, 1), 50.0);
        assert_eq!(m.upload_mib(10, 30), 1_500.0);
    }

    #[test]
    fn time_follows_bandwidth() {
        let m = model();
        // 5 MiB at 512 KiB/s = 10 s.
        assert!((m.upload_seconds(1, 1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn outvoting_needs_core_plus_one() {
        assert_eq!(SybilCost::identities_to_outvote(30), 31);
        assert_eq!(SybilCost::identities_to_outvote(0), 1);
    }

    #[test]
    fn larger_cores_cost_more_to_subvert() {
        let m = model();
        let (mib_small, s_small) = m.cheapest_subversion(10);
        let (mib_big, s_big) = m.cheapest_subversion(100);
        assert!(mib_big > mib_small);
        assert!(s_big > s_small);
        // Scaling defence: cost grows linearly with core size.
        assert!((mib_big / mib_small - 101.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn zero_threshold_makes_attack_free() {
        let m = SybilCost {
            t_mib: 0.0,
            uplink_kibps: 512.0,
        };
        let (mib, secs) = m.cheapest_subversion(50);
        assert_eq!(mib, 0.0);
        assert_eq!(secs, 0.0);
    }
}
