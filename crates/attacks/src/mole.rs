//! The "front peer" / mole attack on BarterCast (paper §VII).
//!
//! "it is possible to fake experience by clever collusion within the
//! BarterCast protocol but this is difficult and again costly. This is a
//! variant of the so-called 'front peer' or 'mole' attack."
//!
//! One colluder — the *mole* — genuinely uploads to honest victims so its
//! edge into the honest graph is real. The other colluders never upload
//! anything; instead they claim enormous uploads *to the mole*, hoping the
//! victim's 2-hop maxflow routes their claimed flow through the mole's
//! real edge. The `ablation_mole` experiment measures the resulting
//! leverage: each colluder's apparent contribution is capped by the mole's
//! genuine upload, which is exactly the cost argument the paper makes.

use rvs_bartercast::protocol::Record;
use rvs_bartercast::BarterCast;
use rvs_sim::NodeId;
use std::collections::BTreeSet;

/// A mole-attack configuration.
#[derive(Debug, Clone)]
pub struct MoleAttack {
    /// The front peer with genuine edges to honest nodes.
    pub mole: NodeId,
    /// Colluders fabricating uploads to the mole.
    colluders: BTreeSet<NodeId>,
    /// Claimed upload per colluder, KiB.
    pub claimed_kib: u64,
}

impl MoleAttack {
    /// A mole attack with the given colluders (the mole must not collude
    /// with itself in the claimed-edge set).
    pub fn new(
        mole: NodeId,
        colluders: impl IntoIterator<Item = NodeId>,
        claimed_kib: u64,
    ) -> Self {
        let colluders: BTreeSet<NodeId> = colluders.into_iter().filter(|&c| c != mole).collect();
        assert!(!colluders.is_empty(), "mole attack needs colluders");
        MoleAttack {
            mole,
            colluders,
            claimed_kib,
        }
    }

    /// Colluders in ascending order.
    pub fn colluders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.colluders.iter().copied()
    }

    /// Execute the fabrication step against `victim`: every colluder (and
    /// the mole, corroborating) reports the fake `colluder → mole` edges.
    /// Edge endpoints are the reporters, so the receiver's validity rule
    /// accepts them — this is precisely the hole the 2-hop maxflow bounds.
    pub fn inject(&self, bc: &mut BarterCast, victim: NodeId) {
        for &c in &self.colluders {
            let record = Record {
                from: c,
                to: self.mole,
                kib: self.claimed_kib,
            };
            // Reported by the colluder itself…
            bc.inject_report(victim, c, record);
            // …and corroborated by the mole (the other endpoint).
            bc.inject_report(victim, self.mole, record);
        }
    }

    /// The attack's summed leverage against `victim`: total apparent
    /// contribution (KiB) of all colluders, as the victim computes it.
    ///
    /// Note that contribution queries are *independent* maxflows, so each
    /// colluder is individually capped by the mole's genuine edge, but the
    /// sum across colluders can reach `colluders × mole_edge` — the
    /// residual capacity is not shared between queries. This is faithful
    /// to deployed BarterCast and is part of why the paper calls the
    /// attack "difficult **and again costly**" rather than impossible.
    pub fn apparent_contribution_kib(&self, bc: &BarterCast, victim: NodeId) -> u64 {
        self.colluders
            .iter()
            .map(|&c| bc.contribution_kib(victim, c))
            .sum()
    }

    /// The largest single colluder's apparent contribution (KiB) —
    /// bounded by the mole's genuine upload to the victim.
    pub fn max_colluder_contribution_kib(&self, bc: &BarterCast, victim: NodeId) -> u64 {
        self.colluders
            .iter()
            .map(|&c| bc.contribution_kib(victim, c))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_bartercast::BarterCastConfig;
    use rvs_bittorrent::TransferLedger;

    /// Victim 0; mole 1 genuinely uploaded `real_kib` to the victim;
    /// colluders 2, 3 claim 1 GiB each.
    fn setup(real_kib: u64) -> (BarterCast, MoleAttack) {
        let mut ledger = TransferLedger::new();
        ledger.credit(NodeId(1), NodeId(0), real_kib);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        bc.sync_own_records(NodeId(0), &ledger);
        let attack = MoleAttack::new(NodeId(1), [NodeId(2), NodeId(3)], 1 << 20);
        (bc, attack)
    }

    #[test]
    fn colluder_set_excludes_mole() {
        let a = MoleAttack::new(NodeId(1), [NodeId(1), NodeId(2)], 100);
        assert_eq!(a.colluders().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn per_colluder_leverage_capped_by_moles_real_edge() {
        let (mut bc, attack) = setup(8 * 1024); // mole really uploaded 8 MiB
        attack.inject(&mut bc, NodeId(0));
        // Each colluder claims 1 GiB, but apparent contribution routes
        // through the mole's genuine 8 MiB edge — per-colluder ≤ 8 MiB,
        // and the sum is bounded by colluders × 8 MiB (independent
        // queries).
        let per = attack.max_colluder_contribution_kib(&bc, NodeId(0));
        assert!(
            per <= 8 * 1024,
            "per-colluder leverage {per} KiB exceeds mole's edge"
        );
        assert!(per > 0, "some leverage flows through the mole");
        let total = attack.apparent_contribution_kib(&bc, NodeId(0));
        assert!(total <= 2 * 8 * 1024);
    }

    #[test]
    fn no_real_edge_means_no_leverage() {
        let (mut bc, attack) = setup(0);
        attack.inject(&mut bc, NodeId(0));
        assert_eq!(attack.apparent_contribution_kib(&bc, NodeId(0)), 0);
    }

    #[test]
    fn leverage_grows_with_paid_cost() {
        // The defence's cost argument: doubling the mole's genuine upload
        // doubles the achievable leverage — faking experience is paying.
        let (mut bc_small, attack) = setup(4 * 1024);
        attack.inject(&mut bc_small, NodeId(0));
        let small = attack.apparent_contribution_kib(&bc_small, NodeId(0));
        let (mut bc_big, attack2) = setup(16 * 1024);
        attack2.inject(&mut bc_big, NodeId(0));
        let big = attack2.apparent_contribution_kib(&bc_big, NodeId(0));
        assert!(big > small);
        assert!(big <= 2 * 16 * 1024, "two colluders, independent queries");
    }

    #[test]
    #[should_panic(expected = "needs colluders")]
    fn mole_alone_is_not_an_attack() {
        MoleAttack::new(NodeId(1), [NodeId(1)], 100);
    }
}
