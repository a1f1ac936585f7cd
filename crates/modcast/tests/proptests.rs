//! Property-based tests for the moderation database and dissemination.

use proptest::prelude::*;
use rvs_modcast::{
    ContentQuality, KeyRegistry, LocalDb, LocalVote, Moderation, ModerationCast,
    ModerationCastConfig,
};
use rvs_sim::{DetRng, NodeId, SimTime, SwarmId};

fn registry() -> KeyRegistry {
    KeyRegistry::new(16, 1234)
}

fn item(reg: &KeyRegistry, moderator: u32, seq: u32) -> Moderation {
    Moderation::new(
        reg,
        NodeId(moderator),
        seq,
        SwarmId(0),
        SimTime::from_secs(seq as u64),
        ContentQuality::Genuine,
    )
}

proptest! {
    /// The db never exceeds capacity, never stores duplicates, and never
    /// stores items from disapproved moderators.
    #[test]
    fn db_capacity_and_vote_invariants(
        capacity in 1usize..20,
        ops in prop::collection::vec((0u32..6, 0u32..30, prop::bool::ANY), 0..80),
    ) {
        let reg = registry();
        let mut db = LocalDb::new(NodeId(15), capacity);
        let mut disapproved = std::collections::BTreeSet::new();
        for (step, (moderator, seq, vote_op)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            if vote_op {
                // Alternate approvals and disapprovals deterministically.
                let v = if seq % 2 == 0 { LocalVote::Approve } else { LocalVote::Disapprove };
                db.set_opinion(NodeId(moderator), v, now);
                if v == LocalVote::Disapprove {
                    disapproved.insert(moderator);
                } else {
                    disapproved.remove(&moderator);
                }
            } else {
                db.insert(item(&reg, moderator, seq), now);
            }
            prop_assert!(db.len() <= capacity);
            for m in db.known_moderators() {
                prop_assert!(!disapproved.contains(&m.0),
                    "item from disapproved moderator {m} survived");
            }
            prop_assert!(db.opinion_count() <= 6);
        }
    }

    /// Extract never returns items from unapproved foreign moderators and
    /// respects the budget.
    #[test]
    fn extract_respects_gating(
        approvals in prop::collection::vec(0u32..6, 0..6),
        items in prop::collection::vec((0u32..6, 0u32..40), 0..60),
        max in 0usize..30,
        seed: u64,
    ) {
        let reg = registry();
        let mut db = LocalDb::new(NodeId(15), 256);
        for &m in &approvals {
            db.set_opinion(NodeId(m), LocalVote::Approve, SimTime::ZERO);
        }
        for &(m, s) in &items {
            db.insert(item(&reg, m, s), SimTime::from_secs(s as u64));
        }
        let approved: std::collections::BTreeSet<u32> = approvals.iter().copied().collect();
        let mut rng = DetRng::new(seed);
        let out = db.extract(max, &mut rng);
        prop_assert!(out.len() <= max);
        for m in &out {
            prop_assert!(
                m.moderator == NodeId(15) || approved.contains(&m.moderator.0),
                "leaked unapproved item from {}", m.moderator
            );
        }
        // No duplicates.
        let mut ids: Vec<_> = out.iter().map(|m| m.id()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);
    }

    /// Gossip exchanges preserve signature validity: every stored item in
    /// every database always verifies.
    #[test]
    fn all_stored_items_verify(
        publishes in prop::collection::vec(0u32..8, 1..10),
        approvals in prop::collection::vec((0u32..8, 0u32..8), 0..16),
        meetings in prop::collection::vec((0u32..8, 0u32..8), 0..25),
        seed: u64,
    ) {
        let reg = KeyRegistry::new(8, 77);
        let mut mc = ModerationCast::new(8, ModerationCastConfig::default());
        let mut rng = DetRng::new(seed);
        for (k, &m) in publishes.iter().enumerate() {
            mc.publish(&reg, NodeId(m), SwarmId(0), ContentQuality::Genuine,
                SimTime::from_secs(k as u64));
        }
        for &(voter, m) in &approvals {
            if voter != m {
                mc.set_opinion(NodeId(voter), NodeId(m), LocalVote::Approve, SimTime::ZERO);
            }
        }
        for (k, &(a, b)) in meetings.iter().enumerate() {
            mc.exchange(&reg, NodeId(a), NodeId(b),
                SimTime::from_secs(100 + k as u64), &mut rng);
        }
        for i in 0..8 {
            for item in mc.db(NodeId(i)).items() {
                prop_assert!(item.verify(&reg), "node {i} stores a forged item");
            }
        }
    }
}
