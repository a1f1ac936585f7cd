//! The message-flood adversary.
//!
//! A `Flooder` crowd does not bother lying *well* — it simply initiates
//! far more gossip than any honest peer, from many identities at once,
//! trying to drown receivers in work and crowd honest traffic out of
//! bounded inboxes and dedup windows. The defence under test is the
//! guard plane's per-peer, per-class token buckets (LOCKSS-style rate
//! limiting): each flooder identity exhausts its own budget at every
//! receiver within a round, accumulates `RateLimited` strikes, and is
//! quarantined — while honest peers' separate buckets stay full.
//!
//! Flooder traffic is routed through the scenario engine's normal send
//! path (peer sampling, fault plane, delivery events, auditor), never a
//! backdoor, so flood sends are subject to loss, partitions, and retry
//! accounting like any other message.

use rvs_sim::NodeId;
use std::collections::BTreeSet;

/// A crowd of flooding identities and their per-round send budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flooder {
    members: BTreeSet<NodeId>,
    /// Extra gossip initiations per member per round, on top of the one
    /// normal initiation every online node makes.
    per_round: u32,
}

impl Flooder {
    /// A flood from `members`, each initiating `per_round` extra sends
    /// per gossip round.
    pub fn new(members: impl IntoIterator<Item = NodeId>, per_round: u32) -> Self {
        Flooder {
            members: members.into_iter().collect(),
            per_round,
        }
    }

    /// Number of flooding identities.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Extra initiations per member per round.
    pub fn per_round(&self) -> u32 {
        self.per_round
    }

    /// Is `node` one of the flooders?
    pub fn is_member(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Members in ascending order (the engine iterates them serially, so
    /// the order is part of the deterministic replay).
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Is `per_round` a send budget a flood over `population` nodes may
    /// have: at most one extra send per node? A round's work grows with
    /// the budget times the members, so `rvs attack --flood-rate` and
    /// checkpoint restore both bound it here.
    pub fn rate_within(per_round: u32, population: usize) -> bool {
        usize::try_from(per_round).is_ok_and(|rate| rate <= population)
    }

    /// Does this flood fit a population of `population` nodes: its rate
    /// [within](Flooder::rate_within) the bound and every member one of
    /// the nodes?
    pub fn within(&self, population: usize) -> bool {
        let last = self.members.last().map_or(0, |m| m.index() + 1);
        Flooder::rate_within(self.per_round, population) && last <= population
    }
}

rvs_checkpoint::persist_struct!(Flooder { members, per_round });

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_checkpoint::{Decoder, Encoder, Persist};

    #[test]
    fn membership() {
        let f = Flooder::new((5..9).map(NodeId), 12);
        assert_eq!(f.size(), 4);
        assert_eq!(f.per_round(), 12);
        assert!(f.is_member(NodeId(7)));
        assert!(!f.is_member(NodeId(4)));
        let members: Vec<NodeId> = f.members().collect();
        assert_eq!(members, (5..9).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn a_flood_fits_its_population_or_not() {
        assert!(Flooder::rate_within(12, 12) && !Flooder::rate_within(13, 12));
        assert!(Flooder::rate_within(0, 0) && !Flooder::rate_within(u32::MAX, 100));
        let f = Flooder::new((5..9).map(NodeId), 9);
        assert!(f.within(9) && f.within(100));
        assert!(!f.within(8), "member n8 is outside 8 nodes");
        assert!(!Flooder::new([NodeId(0)], 101).within(100));
        assert!(Flooder::new([], 3).within(3));
    }

    #[test]
    fn persist_roundtrip() {
        let f = Flooder::new([NodeId(3), NodeId(1)], 7);
        let mut enc = Encoder::new();
        f.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Flooder::restore(&mut dec).unwrap();
        assert_eq!(back, f);
        assert_eq!(dec.remaining(), 0);
    }
}
