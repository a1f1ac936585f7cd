//! Votes and local vote lists (paper §V-A).
//!
//! "Each peer node stores a list of the votes the local user has made …
//! Each entry contains a pair mapping a unique moderator ID to a vote
//! (either positive or negative) plus a time stamp … Moderators may only
//! appear once in the list. … Nodes send a maximum of 50 votes, selecting
//! them based on a recency and random policy."

use rvs_modcast::LocalVote;
use rvs_sim::{DetRng, ModeratorId, SimTime};

/// A vote on a moderator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// Approval (+): quality moderator.
    Positive,
    /// Disapproval (−): spam moderator.
    Negative,
}

impl From<LocalVote> for Vote {
    fn from(v: LocalVote) -> Vote {
        match v {
            LocalVote::Approve => Vote::Positive,
            LocalVote::Disapprove => Vote::Negative,
        }
    }
}

/// One entry of a local vote list: the local user's own vote on one
/// moderator, with the time the vote was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteEntry {
    /// The moderator voted on.
    pub moderator: ModeratorId,
    /// The vote.
    pub vote: Vote,
    /// When the local user cast it.
    pub made_at: SimTime,
}

/// Selection policy when a vote list exceeds the per-message budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteListPolicy {
    /// Newest votes first.
    Recency,
    /// Uniformly random subset.
    Random,
    /// Half newest, half random from the remainder (deployed hybrid).
    RecencyAndRandom,
}

/// Select at most `max` entries from a full vote list according to
/// `policy`. The input may be in any order; the output order is
/// deterministic given the RNG state.
pub fn select_votes(
    mut entries: Vec<VoteEntry>,
    max: usize,
    policy: VoteListPolicy,
    rng: &mut DetRng,
) -> Vec<VoteEntry> {
    if entries.len() <= max {
        entries.sort_by_key(|e| (std::cmp::Reverse(e.made_at), e.moderator));
        return entries;
    }
    entries.sort_by_key(|e| (std::cmp::Reverse(e.made_at), e.moderator));
    match policy {
        VoteListPolicy::Recency => {
            entries.truncate(max);
            entries
        }
        VoteListPolicy::Random => {
            let idx = rng.sample_indices(entries.len(), max);
            idx.into_iter().map(|i| entries[i]).collect()
        }
        VoteListPolicy::RecencyAndRandom => {
            let recent = max / 2;
            let rest_take = max - recent;
            let rest = entries.split_off(recent);
            let idx = rng.sample_indices(rest.len(), rest_take);
            entries.extend(idx.into_iter().map(|i| rest[i]));
            entries
        }
    }
}

rvs_checkpoint::persist_enum!(Vote { Positive = 0, Negative = 1 });

rvs_checkpoint::persist_struct!(VoteEntry {
    moderator,
    vote,
    made_at
});

rvs_checkpoint::persist_enum!(VoteListPolicy { Recency = 0, Random = 1, RecencyAndRandom = 2 });

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::NodeId;

    fn entry(m: u32, t_hours: u64, vote: Vote) -> VoteEntry {
        VoteEntry {
            moderator: NodeId(m),
            vote,
            made_at: SimTime::from_hours(t_hours),
        }
    }

    fn many(n: u32) -> Vec<VoteEntry> {
        (0..n).map(|i| entry(i, i as u64, Vote::Positive)).collect()
    }

    #[test]
    fn local_vote_conversion() {
        assert_eq!(Vote::from(LocalVote::Approve), Vote::Positive);
        assert_eq!(Vote::from(LocalVote::Disapprove), Vote::Negative);
    }

    #[test]
    fn under_budget_returns_all_sorted_by_recency() {
        let mut rng = DetRng::new(1);
        let out = select_votes(many(5), 50, VoteListPolicy::RecencyAndRandom, &mut rng);
        assert_eq!(out.len(), 5);
        for w in out.windows(2) {
            assert!(w[0].made_at >= w[1].made_at);
        }
    }

    #[test]
    fn recency_takes_newest() {
        let mut rng = DetRng::new(2);
        let out = select_votes(many(100), 10, VoteListPolicy::Recency, &mut rng);
        assert_eq!(out.len(), 10);
        let mut ids: Vec<u32> = out.iter().map(|e| e.moderator.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (90..100).collect::<Vec<_>>());
    }

    #[test]
    fn random_covers_old_votes_across_calls() {
        let mut rng = DetRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            for e in select_votes(many(60), 10, VoteListPolicy::Random, &mut rng) {
                seen.insert(e.moderator.0);
            }
        }
        assert!(seen.len() >= 55, "random policy sweeps: {}", seen.len());
    }

    #[test]
    fn hybrid_mixes_recent_and_random() {
        let mut rng = DetRng::new(4);
        let out = select_votes(many(100), 20, VoteListPolicy::RecencyAndRandom, &mut rng);
        assert_eq!(out.len(), 20);
        let newest = out.iter().filter(|e| e.moderator.0 >= 90).count();
        assert!(newest >= 10, "newest half guaranteed: {newest}");
        let older = out.iter().filter(|e| e.moderator.0 < 90).count();
        assert!(older >= 1, "random half reaches older votes");
        // No duplicates.
        let mut ids: Vec<u32> = out.iter().map(|e| e.moderator.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn exact_budget_no_truncation() {
        let mut rng = DetRng::new(5);
        let out = select_votes(many(10), 10, VoteListPolicy::RecencyAndRandom, &mut rng);
        assert_eq!(out.len(), 10);
    }
}
