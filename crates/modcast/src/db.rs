//! The per-node `local_db` of moderations plus the local user's votes.
//!
//! Semantics from §IV:
//!
//! * received moderations are stored locally (high availability, no DHT);
//! * the local user may approve (+) or disapprove (−) a *moderator*;
//! * disapproval removes all of the moderator's items and refuses new ones;
//! * `Extract()` — the list offered to a gossip partner — contains only
//!   moderations from approved moderators (or the node's own), selected by
//!   the recency + random policy that [6] found effective;
//! * `Merge()` inserts new moderations, respecting local votes.

use crate::moderation::{Moderation, ModerationId};
use rvs_sim::{DetRng, ModeratorId, NodeId, SimTime};
use std::collections::BTreeMap;

/// The local user's explicit vote on a moderator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalVote {
    /// Thumbs-up: quality moderator.
    Approve,
    /// Thumbs-down: spam moderator.
    Disapprove,
}

rvs_checkpoint::persist_enum!(LocalVote { Approve = 0, Disapprove = 1 });

/// Why (or whether) [`LocalDb::insert`] stored an item. Telemetry needs to
/// tell the approval gate apart from ordinary duplicate suppression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The moderation was stored.
    Stored,
    /// Refused: the local user disapproves of the moderator.
    RefusedByGate,
    /// Already present — gossip redundancy, not a refusal.
    Duplicate,
    /// The database is at capacity with only the node's own items.
    FullOfOwnItems,
}

/// Tally of one [`LocalDb::merge`]: how many offered items were stored and
/// how each refusal broke down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Items newly stored.
    pub stored: usize,
    /// Items refused by the local disapproval gate.
    pub refused_by_gate: usize,
    /// Items already present.
    pub duplicates: usize,
    /// Items dropped because the db held only own items at capacity.
    pub dropped_full: usize,
}

/// One node's moderation database and voting record.
#[derive(Debug, Clone)]
pub struct LocalDb {
    owner: NodeId,
    capacity: usize,
    items: BTreeMap<ModerationId, (Moderation, SimTime)>,
    opinions: BTreeMap<ModeratorId, (LocalVote, SimTime)>,
}

impl LocalDb {
    /// An empty database for `owner` holding at most `capacity` items.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "local_db capacity must be positive");
        LocalDb {
            owner,
            capacity,
            items: BTreeMap::new(),
            opinions: BTreeMap::new(),
        }
    }

    /// The node this database belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of stored moderations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no moderations are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The local user's vote on `moderator`, if any.
    pub fn opinion(&self, moderator: ModeratorId) -> Option<LocalVote> {
        self.opinions.get(&moderator).map(|&(v, _)| v)
    }

    /// All local votes as `(moderator, vote, time)`, deterministic order.
    pub fn opinions(&self) -> impl Iterator<Item = (ModeratorId, LocalVote, SimTime)> + '_ {
        self.opinions.iter().map(|(&m, &(v, t))| (m, v, t))
    }

    /// Number of votes the local user has cast.
    pub fn opinion_count(&self) -> usize {
        self.opinions.len()
    }

    /// Record the local user's vote. Disapproval purges the moderator's
    /// items (and blocks future ones). Re-voting replaces the old vote —
    /// a moderator appears at most once.
    pub fn set_opinion(&mut self, moderator: ModeratorId, vote: LocalVote, now: SimTime) {
        self.opinions.insert(moderator, (vote, now));
        if vote == LocalVote::Disapprove {
            self.items.retain(|id, _| id.moderator != moderator);
        }
    }

    /// Does the database hold this moderation?
    pub fn contains(&self, id: ModerationId) -> bool {
        self.items.contains_key(&id)
    }

    /// Does the database hold at least one item from `moderator`?
    pub fn has_items_from(&self, moderator: ModeratorId) -> bool {
        self.items
            .range(
                ModerationId { moderator, seq: 0 }..=ModerationId {
                    moderator,
                    seq: u32::MAX,
                },
            )
            .next()
            .is_some()
    }

    /// Moderators with at least one stored item, ascending.
    pub fn known_moderators(&self) -> Vec<ModeratorId> {
        let mut v: Vec<ModeratorId> = self.items.keys().map(|id| id.moderator).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All stored moderations (deterministic order).
    pub fn items(&self) -> impl Iterator<Item = &Moderation> + '_ {
        self.items.values().map(|(m, _)| m)
    }

    /// Insert one received moderation. Returns `true` if stored. Refused
    /// when the moderator is disapproved or the item is already present.
    /// At capacity, the oldest-received foreign item is evicted; the node's
    /// own moderations are never evicted.
    pub fn insert(&mut self, m: Moderation, received: SimTime) -> bool {
        self.insert_outcome(m, received) == InsertOutcome::Stored
    }

    /// Like [`Self::insert`], reporting *why* an item was refused.
    pub fn insert_outcome(&mut self, m: Moderation, received: SimTime) -> InsertOutcome {
        if self.opinion(m.moderator) == Some(LocalVote::Disapprove) {
            return InsertOutcome::RefusedByGate;
        }
        if self.items.contains_key(&m.id()) {
            return InsertOutcome::Duplicate;
        }
        if self.items.len() >= self.capacity {
            // Evict the oldest-received foreign item.
            let victim = self
                .items
                .iter()
                .filter(|(id, _)| id.moderator != self.owner)
                .min_by_key(|(id, (_, t))| (*t, **id))
                .map(|(id, _)| *id);
            match victim {
                Some(v) => {
                    self.items.remove(&v);
                }
                // Full of own items; drop the arrival.
                None => return InsertOutcome::FullOfOwnItems,
            }
        }
        self.items.insert(m.id(), (m, received));
        InsertOutcome::Stored
    }

    /// Merge a received moderation list (gossip `Merge()`): inserts each
    /// item, respecting local votes. Returns how many were new.
    pub fn merge(&mut self, list: &[Moderation], received: SimTime) -> usize {
        self.merge_counted(list, received).stored
    }

    /// Like [`Self::merge`], with a per-refusal-reason breakdown.
    pub fn merge_counted(&mut self, list: &[Moderation], received: SimTime) -> MergeStats {
        let mut stats = MergeStats::default();
        for m in list {
            match self.insert_outcome(*m, received) {
                InsertOutcome::Stored => stats.stored += 1,
                InsertOutcome::RefusedByGate => stats.refused_by_gate += 1,
                InsertOutcome::Duplicate => stats.duplicates += 1,
                InsertOutcome::FullOfOwnItems => stats.dropped_full += 1,
            }
        }
        stats
    }

    /// Build the moderation list offered to a gossip partner
    /// (`Extract()`): only the node's own moderations and those from
    /// approved moderators are eligible; at most `max` items, the
    /// newest-received half of them and the rest drawn uniformly from the
    /// older ones (the deployed recency + random hybrid).
    pub fn extract(&self, max: usize, rng: &mut DetRng) -> Vec<Moderation> {
        let mut eligible: Vec<(&Moderation, SimTime)> = self
            .items
            .values()
            .filter(|(m, _)| {
                m.moderator == self.owner || self.opinion(m.moderator) == Some(LocalVote::Approve)
            })
            .map(|(m, t)| (m, *t))
            .collect();
        if eligible.len() > max {
            eligible.sort_by_key(|(m, t)| (std::cmp::Reverse(*t), m.id()));
            let recent = max / 2;
            let rest = eligible.split_off(recent);
            let idx = rng.sample_indices(rest.len(), max - recent);
            eligible.extend(idx.into_iter().map(|i| rest[i]));
        }
        eligible.into_iter().map(|(m, _)| *m).collect()
    }
}

/// Stable binary encoding: owner, capacity, stored items, then the local
/// user's opinions. Restore rejects a zero capacity as corrupt rather than
/// tripping the constructor assertion.
impl rvs_checkpoint::Persist for LocalDb {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        self.owner.persist(enc);
        enc.usize(self.capacity);
        self.items.persist(enc);
        self.opinions.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let owner = NodeId::restore(dec)?;
        let capacity = dec.usize()?;
        if capacity == 0 {
            return Err(rvs_checkpoint::DecodeError::Corrupt(
                "LocalDb capacity must be positive".to_string(),
            ));
        }
        Ok(LocalDb {
            owner,
            capacity,
            items: BTreeMap::restore(dec)?,
            opinions: BTreeMap::restore(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moderation::ContentQuality;
    use crate::sign::KeyRegistry;
    use rvs_sim::SwarmId;

    fn reg() -> KeyRegistry {
        KeyRegistry::new(16, 7)
    }

    fn item(reg: &KeyRegistry, moderator: u32, seq: u32, t_hours: u64) -> Moderation {
        Moderation::new(
            reg,
            NodeId(moderator),
            seq,
            SwarmId(0),
            SimTime::from_hours(t_hours),
            ContentQuality::Genuine,
        )
    }

    #[test]
    fn insert_and_contains() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 10);
        let m = item(&reg, 1, 0, 1);
        assert!(db.insert(m, SimTime::from_hours(2)));
        assert!(db.contains(m.id()));
        assert!(!db.insert(m, SimTime::from_hours(3)), "duplicate refused");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn disapproval_purges_and_blocks() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 10);
        db.insert(item(&reg, 1, 0, 1), SimTime::from_hours(1));
        db.insert(item(&reg, 1, 1, 1), SimTime::from_hours(1));
        db.insert(item(&reg, 2, 0, 1), SimTime::from_hours(1));
        db.set_opinion(NodeId(1), LocalVote::Disapprove, SimTime::from_hours(2));
        assert_eq!(db.len(), 1, "moderator 1's items purged");
        assert!(!db.insert(item(&reg, 1, 2, 3), SimTime::from_hours(3)));
        assert_eq!(db.known_moderators(), vec![NodeId(2)]);
    }

    #[test]
    fn revote_replaces_single_entry() {
        let mut db = LocalDb::new(NodeId(0), 10);
        db.set_opinion(NodeId(1), LocalVote::Approve, SimTime::from_hours(1));
        db.set_opinion(NodeId(1), LocalVote::Disapprove, SimTime::from_hours(2));
        assert_eq!(db.opinion(NodeId(1)), Some(LocalVote::Disapprove));
        assert_eq!(db.opinion_count(), 1);
    }

    #[test]
    fn extract_gated_by_approval() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 20);
        db.insert(item(&reg, 1, 0, 1), SimTime::from_hours(1)); // approved below
        db.insert(item(&reg, 2, 0, 1), SimTime::from_hours(1)); // no vote
        db.insert(item(&reg, 0, 0, 1), SimTime::from_hours(1)); // own
        db.set_opinion(NodeId(1), LocalVote::Approve, SimTime::from_hours(1));
        let mut rng = DetRng::new(1);
        let out = db.extract(10, &mut rng);
        let mods: Vec<NodeId> = out.iter().map(|m| m.moderator).collect();
        assert!(mods.contains(&NodeId(0)), "own items always spread");
        assert!(mods.contains(&NodeId(1)), "approved moderator spreads");
        assert!(
            !mods.contains(&NodeId(2)),
            "unapproved moderator must not be forwarded"
        );
    }

    #[test]
    fn hybrid_extract_mixes_recent_and_random() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 128);
        db.set_opinion(NodeId(1), LocalVote::Approve, SimTime::ZERO);
        for s in 0..50 {
            db.insert(item(&reg, 1, s, 1), SimTime::from_hours(s as u64));
        }
        let mut rng = DetRng::new(3);
        let out = db.extract(10, &mut rng);
        assert_eq!(out.len(), 10);
        let recent = out.iter().filter(|m| m.seq >= 45).count();
        assert!(recent >= 5, "half the slots go to the newest items");
        let older = out.iter().filter(|m| m.seq < 45).count();
        assert!(older >= 1, "random half reaches older items");
    }

    #[test]
    fn capacity_evicts_oldest_foreign_first() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 3);
        db.insert(item(&reg, 0, 0, 0), SimTime::from_hours(0)); // own, oldest
        db.insert(item(&reg, 1, 0, 0), SimTime::from_hours(1));
        db.insert(item(&reg, 2, 0, 0), SimTime::from_hours(2));
        // Full. New arrival evicts the oldest foreign (moderator 1).
        let new_item = item(&reg, 3, 0, 0);
        assert!(db.insert(new_item, SimTime::from_hours(3)));
        assert_eq!(db.len(), 3);
        assert!(db.contains(new_item.id()));
        assert_eq!(db.known_moderators(), vec![NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn merge_counts_new_items() {
        let reg = reg();
        let mut db = LocalDb::new(NodeId(0), 10);
        let a = item(&reg, 1, 0, 1);
        let b = item(&reg, 1, 1, 1);
        db.insert(a, SimTime::ZERO);
        let added = db.merge(&[a, b], SimTime::from_hours(1));
        assert_eq!(added, 1);
        assert_eq!(db.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LocalDb::new(NodeId(0), 0);
    }
}
