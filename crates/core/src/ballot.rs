//! The local ballot box (paper §V-A).
//!
//! "each entry contains four items: mapping a unique moderator ID to a
//! vote, a time stamp and a unique peer ID … moderators may appear several
//! times in the list, recording votes for the same moderator received from
//! different peers. … The local ballot box has a maximum size of B_max
//! votes from unique peers — beyond which new votes replace the oldest
//! votes."
//!
//! Invariants enforced (and property-tested in `tests/`):
//!
//! * at most one entry per `(voter, moderator)` pair — one node, one vote;
//! * votes from at most `B_max` distinct voters; admitting voter number
//!   `B_max + 1` evicts the least-recently-heard voter wholesale;
//! * merging a voter's fresh list replaces that voter's earlier entries.

use crate::vote::{Vote, VoteEntry};
use rvs_sim::{ModeratorId, NodeId, SimTime};
use std::collections::BTreeMap;

/// What a [`BallotBox::merge`] actually did — how many vote entries were
/// written and how many voters were evicted to respect `B_max`. Consumed
/// by the telemetry layer; safe to ignore everywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Vote entries written from the incoming list.
    pub merged: usize,
    /// Distinct voters evicted wholesale to stay within `B_max`.
    pub evicted_voters: usize,
}

/// A bounded sample of other peers' votes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallotBox {
    b_max: usize,
    /// `(voter, moderator) → (vote, received_at)`.
    entries: BTreeMap<(NodeId, ModeratorId), (Vote, SimTime)>,
    /// Most recent time each voter's list was merged.
    last_heard: BTreeMap<NodeId, SimTime>,
}

impl BallotBox {
    /// An empty ballot box sampling at most `b_max` unique voters.
    pub fn new(b_max: usize) -> Self {
        assert!(b_max > 0, "B_max must be positive");
        BallotBox {
            b_max,
            entries: BTreeMap::new(),
            last_heard: BTreeMap::new(),
        }
    }

    /// The configured `B_max`.
    pub fn b_max(&self) -> usize {
        self.b_max
    }

    /// Number of distinct voters currently sampled.
    pub fn unique_voters(&self) -> usize {
        self.last_heard.len()
    }

    /// Total vote entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no votes are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge `voter`'s local vote list received at `now`. Replaces any
    /// earlier contribution from the same voter (their list is the current
    /// truth about their votes). Evicts the least-recently-heard voter when
    /// the unique-voter cap would be exceeded. Reports what happened so
    /// callers can account for merged votes and evictions.
    pub fn merge(&mut self, voter: NodeId, list: &[VoteEntry], now: SimTime) -> MergeOutcome {
        if list.is_empty() {
            return MergeOutcome::default();
        }
        // Replace the voter's previous contribution.
        self.forget_voter(voter);
        // Make room.
        let mut evicted_voters = 0;
        while self.last_heard.len() >= self.b_max {
            // The loop guard keeps the map non-empty whenever b_max > 0; a
            // b_max of 0 leaves nothing to evict, so stop instead of panic.
            let Some(oldest) = self
                .last_heard
                .iter()
                .min_by_key(|(&v, &t)| (t, v))
                .map(|(&v, _)| v)
            else {
                break;
            };
            self.forget_voter(oldest);
            evicted_voters += 1;
        }
        let before = self.entries.len();
        for e in list {
            self.entries.insert((voter, e.moderator), (e.vote, now));
        }
        self.last_heard.insert(voter, now);
        MergeOutcome {
            merged: self.entries.len() - before,
            evicted_voters,
        }
    }

    /// Drop every entry contributed by `voter`.
    pub fn forget_voter(&mut self, voter: NodeId) {
        if self.last_heard.remove(&voter).is_some() {
            self.entries.retain(|&(v, _), _| v != voter);
        }
    }

    /// Tally `(positive, negative)` for one moderator.
    pub fn tally(&self, moderator: ModeratorId) -> (usize, usize) {
        let mut pos = 0;
        let mut neg = 0;
        for (&(_, m), &(vote, _)) in &self.entries {
            if m == moderator {
                match vote {
                    Vote::Positive => pos += 1,
                    Vote::Negative => neg += 1,
                }
            }
        }
        (pos, neg)
    }

    /// All moderators with at least one sampled vote, ascending.
    pub fn moderators(&self) -> Vec<ModeratorId> {
        let mut v: Vec<ModeratorId> = self.entries.keys().map(|&(_, m)| m).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterate over all entries: `(voter, moderator, vote, received_at)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ModeratorId, Vote, SimTime)> + '_ {
        self.entries
            .iter()
            .map(|(&(v, m), &(vote, t))| (v, m, vote, t))
    }

    /// Vote dispersion in `[0, 1]`: mean over sampled moderators of
    /// `min(pos, neg) / (pos + neg)`. High dispersion — conflicting votes
    /// on the same moderators — is the attack signal driving the adaptive
    /// threshold (paper §VII). Returns 0 for an empty box.
    pub fn dispersion(&self) -> f64 {
        let mods = self.moderators();
        if mods.is_empty() {
            return 0.0;
        }
        let sum: f64 = mods
            .iter()
            .map(|&m| {
                let (p, n) = self.tally(m);
                let total = p + n;
                if total == 0 {
                    0.0
                } else {
                    p.min(n) as f64 / total as f64
                }
            })
            .sum();
        sum / mods.len() as f64
    }
}

/// Stable binary encoding: `B_max`, entries, last-heard map. Restore
/// rejects a zero `B_max` as corrupt rather than tripping the constructor
/// assertion.
impl rvs_checkpoint::Persist for BallotBox {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.usize(self.b_max);
        self.entries.persist(enc);
        self.last_heard.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let b_max = dec.usize()?;
        if b_max == 0 {
            return Err(rvs_checkpoint::DecodeError::Corrupt(
                "BallotBox B_max must be positive".to_string(),
            ));
        }
        Ok(BallotBox {
            b_max,
            entries: BTreeMap::restore(dec)?,
            last_heard: BTreeMap::restore(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(m: u32, vote: Vote) -> VoteEntry {
        VoteEntry {
            moderator: NodeId(m),
            vote,
            made_at: SimTime::ZERO,
        }
    }

    #[test]
    fn merge_and_tally() {
        let mut bb = BallotBox::new(10);
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(1));
        bb.merge(NodeId(2), &[e(0, Vote::Positive)], SimTime::from_secs(2));
        bb.merge(NodeId(3), &[e(0, Vote::Negative)], SimTime::from_secs(3));
        assert_eq!(bb.tally(NodeId(0)), (2, 1));
        assert_eq!(bb.unique_voters(), 3);
        assert_eq!(bb.len(), 3);
    }

    #[test]
    fn one_vote_per_voter_per_moderator() {
        let mut bb = BallotBox::new(10);
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(1));
        // The same voter re-encountered with a changed vote: replaced, not
        // double counted.
        bb.merge(NodeId(1), &[e(0, Vote::Negative)], SimTime::from_secs(5));
        assert_eq!(bb.tally(NodeId(0)), (0, 1));
        assert_eq!(bb.len(), 1);
    }

    #[test]
    fn remerge_replaces_whole_contribution() {
        let mut bb = BallotBox::new(10);
        bb.merge(
            NodeId(1),
            &[e(0, Vote::Positive), e(5, Vote::Negative)],
            SimTime::from_secs(1),
        );
        // Fresh list no longer mentions moderator 5.
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(9));
        assert_eq!(bb.tally(NodeId(5)), (0, 0));
        assert_eq!(bb.moderators(), vec![NodeId(0)]);
    }

    #[test]
    fn bmax_evicts_least_recently_heard() {
        let mut bb = BallotBox::new(3);
        for v in 1..=3 {
            bb.merge(
                NodeId(v),
                &[e(0, Vote::Positive)],
                SimTime::from_secs(v as u64),
            );
        }
        assert_eq!(bb.unique_voters(), 3);
        // Voter 4 arrives: voter 1 (oldest) evicted.
        bb.merge(NodeId(4), &[e(0, Vote::Negative)], SimTime::from_secs(10));
        assert_eq!(bb.unique_voters(), 3);
        assert_eq!(bb.tally(NodeId(0)), (2, 1));
        let voters: Vec<NodeId> = bb.iter().map(|(v, _, _, _)| v).collect();
        assert!(!voters.contains(&NodeId(1)));
    }

    #[test]
    fn refreshed_voter_survives_eviction_round() {
        let mut bb = BallotBox::new(2);
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(1));
        bb.merge(NodeId(2), &[e(0, Vote::Positive)], SimTime::from_secs(2));
        // Voter 1 heard again: now fresher than voter 2.
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(3));
        bb.merge(NodeId(3), &[e(0, Vote::Positive)], SimTime::from_secs(4));
        let voters: Vec<NodeId> = {
            let mut v: Vec<NodeId> = bb.iter().map(|(v, _, _, _)| v).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(voters, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn empty_list_is_ignored() {
        let mut bb = BallotBox::new(5);
        bb.merge(NodeId(1), &[], SimTime::from_secs(1));
        assert_eq!(bb.unique_voters(), 0);
        assert!(bb.is_empty());
    }

    #[test]
    fn dispersion_zero_when_unanimous() {
        let mut bb = BallotBox::new(10);
        for v in 1..=4 {
            bb.merge(
                NodeId(v),
                &[e(0, Vote::Positive)],
                SimTime::from_secs(v as u64),
            );
        }
        assert_eq!(bb.dispersion(), 0.0);
    }

    #[test]
    fn dispersion_high_when_split() {
        let mut bb = BallotBox::new(10);
        bb.merge(NodeId(1), &[e(0, Vote::Positive)], SimTime::from_secs(1));
        bb.merge(NodeId(2), &[e(0, Vote::Negative)], SimTime::from_secs(2));
        assert!((bb.dispersion() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dispersion_averages_over_moderators() {
        let mut bb = BallotBox::new(10);
        // Moderator 0: split (0.5). Moderator 1: unanimous (0.0).
        bb.merge(
            NodeId(1),
            &[e(0, Vote::Positive), e(1, Vote::Positive)],
            SimTime::from_secs(1),
        );
        bb.merge(
            NodeId(2),
            &[e(0, Vote::Negative), e(1, Vote::Positive)],
            SimTime::from_secs(2),
        );
        assert!((bb.dispersion() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "B_max must be positive")]
    fn zero_bmax_rejected() {
        BallotBox::new(0);
    }
}
