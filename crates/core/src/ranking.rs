//! Moderator ranking from ballot-box samples.
//!
//! The paper deliberately leaves the exact aggregation open ("any suitable
//! method could be applied such as simple summation or more complex
//! proportional approaches"); we implement simple summation — score =
//! positives − negatives — with deterministic tie-breaking, plus the top-K
//! list type exchanged by VoxPopuli.

use crate::ballot::BallotBox;
use rvs_sim::ModeratorId;

/// How raw ballot tallies become a moderator score. The paper: "any
/// suitable method could be applied such as simple summation or more
/// complex proportional approaches"; `ablation_rank_merge` compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMethod {
    /// `positives − negatives` (the default everywhere in this crate).
    Summation,
    /// Laplace-smoothed approval proportion `(p + 1) / (p + n + 2)`:
    /// favours consistently approved moderators over barely-sampled ones
    /// and is insensitive to how *many* votes a popular moderator drew.
    Proportional,
}

/// A ranked list of at most K moderators, best first — the message
/// exchanged by VoxPopuli and the output shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKList {
    /// Moderators in rank order (index 0 = best).
    pub ranked: Vec<ModeratorId>,
}

impl TopKList {
    /// The rank (1-based) of `moderator`, or `None` when absent.
    pub fn rank_of(&self, moderator: ModeratorId) -> Option<usize> {
        self.ranked
            .iter()
            .position(|&m| m == moderator)
            .map(|p| p + 1)
    }

    /// The top-ranked moderator, if any.
    pub fn top(&self) -> Option<ModeratorId> {
        self.ranked.first().copied()
    }

    /// Number of moderators listed.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no moderators are listed.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }
}

rvs_checkpoint::persist_struct!(TopKList { ranked });

/// Score and rank the moderators sampled in `ballot`, truncated to `k`.
///
/// Score = positives − negatives (simple summation). Ties break first by
/// more positives (a 5/5 split outranks 0/0), then by lower moderator id so
/// the output is total and deterministic.
pub fn rank_ballot(ballot: &BallotBox, k: usize) -> TopKList {
    rank_ballot_with_known(ballot, std::iter::empty(), k)
}

/// Score and rank with an explicit [`ScoreMethod`], truncated to `k`.
/// Ties break by more positives, then lower moderator id.
pub fn rank_ballot_scored(ballot: &BallotBox, method: ScoreMethod, k: usize) -> TopKList {
    let mut scored: Vec<(f64, usize, ModeratorId)> = ballot
        .moderators()
        .into_iter()
        .map(|m| {
            let (p, n) = ballot.tally(m);
            let score = match method {
                ScoreMethod::Summation => p as f64 - n as f64,
                ScoreMethod::Proportional => (p as f64 + 1.0) / ((p + n) as f64 + 2.0),
            };
            (score, p, m)
        })
        .collect();
    // total_cmp: panic-free and identical to the numeric order here (ballot
    // scores are finite, and equal tallies produce the same +0.0).
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    TopKList {
        ranked: scored.into_iter().take(k).map(|(_, _, m)| m).collect(),
    }
}

/// Rank only the moderators with strictly positive net score — the list a
/// node *recommends* to others.
///
/// VoxPopuli responses use this: "producing a ranked list of moderators
/// truncated to a maximum size of K" from the responder's ballot
/// statistics. A node never recommends a moderator its sample scores at
/// zero or below, so spam moderators and unknowns are simply absent
/// (treated as rank K+1 by the requester's merge).
pub fn rank_ballot_positive(ballot: &BallotBox, k: usize) -> TopKList {
    let mut list = rank_ballot(ballot, usize::MAX);
    list.ranked.retain(|&m| {
        let (p, n) = ballot.tally(m);
        p as i64 - n as i64 > 0
    });
    list.ranked.truncate(k);
    list
}

/// Like [`rank_ballot`], but additionally ranking `known` moderators that
/// the node has metadata from even when no votes were sampled for them
/// (score 0).
///
/// This matters for orderings like the paper's Figure 6: `M2` receives no
/// votes at all, yet the correct popular ordering is `M1 > M2 > M3` —
/// a zero-vote moderator outranks one with net-negative votes. Nodes learn
/// of moderators through ModerationCast, so their local databases supply
/// the `known` set.
pub fn rank_ballot_with_known(
    ballot: &BallotBox,
    known: impl IntoIterator<Item = ModeratorId>,
    k: usize,
) -> TopKList {
    let mut mods = ballot.moderators();
    mods.extend(known);
    mods.sort_unstable();
    mods.dedup();
    let mut scored: Vec<(i64, usize, ModeratorId)> = mods
        .into_iter()
        .map(|m| {
            let (p, n) = ballot.tally(m);
            (p as i64 - n as i64, p, m)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    TopKList {
        ranked: scored.into_iter().take(k).map(|(_, _, m)| m).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::{Vote, VoteEntry};
    use rvs_sim::{NodeId, SimTime};

    fn e(m: u32, vote: Vote) -> VoteEntry {
        VoteEntry {
            moderator: NodeId(m),
            vote,
            made_at: SimTime::ZERO,
        }
    }

    fn ballot(votes: &[(u32, u32, Vote)]) -> BallotBox {
        // (voter, moderator, vote)
        let mut bb = BallotBox::new(100);
        let mut per_voter: std::collections::BTreeMap<u32, Vec<VoteEntry>> = Default::default();
        for &(v, m, vote) in votes {
            per_voter.entry(v).or_default().push(e(m, vote));
        }
        for (v, list) in per_voter {
            bb.merge(NodeId(v), &list, SimTime::from_secs(v as u64));
        }
        bb
    }

    #[test]
    fn summation_orders_by_net_votes() {
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 0, Vote::Positive),
            (3, 1, Vote::Positive),
            (4, 2, Vote::Negative),
        ]);
        let top = rank_ballot(&bb, 3);
        assert_eq!(
            top.ranked,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            "M0(+2) > M1(+1) > M2(-1)"
        );
        assert_eq!(top.top(), Some(NodeId(0)));
    }

    #[test]
    fn truncates_to_k() {
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 1, Vote::Positive),
            (3, 2, Vote::Positive),
            (4, 3, Vote::Positive),
        ]);
        let top = rank_ballot(&bb, 2);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn tie_breaks_by_positive_count_then_id() {
        // M0: +1/-1 (net 0, 1 positive). M1: no votes sampled -> absent.
        // M2: 0/0 impossible; craft M2 with +2/-2 (net 0, 2 positives).
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 0, Vote::Negative),
            (3, 2, Vote::Positive),
            (4, 2, Vote::Positive),
            (5, 2, Vote::Negative),
            (6, 2, Vote::Negative),
        ]);
        let top = rank_ballot(&bb, 5);
        assert_eq!(top.ranked, vec![NodeId(2), NodeId(0)]);
    }

    #[test]
    fn unvoted_moderators_do_not_appear() {
        let bb = ballot(&[(1, 7, Vote::Negative)]);
        let top = rank_ballot(&bb, 10);
        assert_eq!(top.ranked, vec![NodeId(7)]);
        assert_eq!(top.rank_of(NodeId(7)), Some(1));
        assert_eq!(top.rank_of(NodeId(3)), None);
    }

    #[test]
    fn empty_ballot_gives_empty_list() {
        let bb = BallotBox::new(5);
        let top = rank_ballot(&bb, 3);
        assert!(top.is_empty());
        assert_eq!(top.top(), None);
    }

    #[test]
    fn positive_ranking_excludes_zero_and_negative() {
        // M0: +2. M1: +1/-1 (net 0). M2: -1.
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 0, Vote::Positive),
            (3, 1, Vote::Positive),
            (4, 1, Vote::Negative),
            (5, 2, Vote::Negative),
        ]);
        let top = rank_ballot_positive(&bb, 3);
        assert_eq!(top.ranked, vec![NodeId(0)], "only net-positive listed");
    }

    #[test]
    fn positive_ranking_truncates_to_k() {
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 1, Vote::Positive),
            (3, 2, Vote::Positive),
        ]);
        assert_eq!(rank_ballot_positive(&bb, 2).len(), 2);
    }

    #[test]
    fn known_moderators_rank_between_positive_and_negative() {
        // The Figure 6 shape: M0 voted up, M2 voted down, M1 known from
        // its moderation but unvoted — correct order M0 > M1 > M2.
        let bb = ballot(&[(1, 0, Vote::Positive), (2, 2, Vote::Negative)]);
        let top = rank_ballot_with_known(&bb, [NodeId(1)], 3);
        assert_eq!(top.ranked, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn proportional_prefers_consistency_over_volume() {
        // M0: 6+/3- (ratio 0.64 smoothed). M1: 2+/0- (ratio 0.75 smoothed).
        // Summation prefers M0 (+3 vs +2); proportional prefers M1.
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 0, Vote::Positive),
            (3, 0, Vote::Positive),
            (4, 0, Vote::Positive),
            (5, 0, Vote::Positive),
            (6, 0, Vote::Positive),
            (7, 0, Vote::Negative),
            (8, 0, Vote::Negative),
            (9, 0, Vote::Negative),
            (10, 1, Vote::Positive),
            (11, 1, Vote::Positive),
        ]);
        let summation = rank_ballot_scored(&bb, ScoreMethod::Summation, 2);
        let proportional = rank_ballot_scored(&bb, ScoreMethod::Proportional, 2);
        assert_eq!(summation.top(), Some(NodeId(0)));
        assert_eq!(proportional.top(), Some(NodeId(1)));
    }

    #[test]
    fn summation_method_matches_default_ranking() {
        let bb = ballot(&[
            (1, 0, Vote::Positive),
            (2, 1, Vote::Negative),
            (3, 2, Vote::Positive),
            (4, 2, Vote::Positive),
        ]);
        assert_eq!(
            rank_ballot_scored(&bb, ScoreMethod::Summation, 5),
            rank_ballot(&bb, 5)
        );
    }

    #[test]
    fn known_set_does_not_duplicate_voted_moderators() {
        let bb = ballot(&[(1, 0, Vote::Positive)]);
        let top = rank_ballot_with_known(&bb, [NodeId(0), NodeId(0)], 5);
        assert_eq!(top.ranked, vec![NodeId(0)]);
    }
}
