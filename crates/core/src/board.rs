//! The moderator leaderboard (paper §V-A).
//!
//! "Another possible use for the vote sample information is to display a
//! screen listing the top-K moderators themselves along with their
//! estimated percentage of the popular vote and other associated
//! information. We believe such a screen could psychologically incentivise
//! moderators to produce good moderations since they can see themselves
//! rise in the ranks."

use crate::ballot::BallotBox;
use crate::ranking::rank_ballot;
use rvs_sim::ModeratorId;
use std::fmt;

/// One row of the moderator leaderboard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardEntry {
    /// Rank, 1-based.
    pub rank: usize,
    /// The moderator.
    pub moderator: ModeratorId,
    /// Positive votes in the local sample.
    pub positive: usize,
    /// Negative votes in the local sample.
    pub negative: usize,
    /// Estimated share of the popular vote: this moderator's positive
    /// votes as a fraction of all sampled positive votes (0 when the
    /// sample holds no positive votes at all).
    pub vote_share: f64,
    /// Net approval among voters on this moderator, in `[-1, 1]`.
    pub approval: f64,
}

/// The top-K moderator screen built from a local ballot box.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeratorBoard {
    /// Rows in rank order.
    pub entries: Vec<BoardEntry>,
    /// Unique voters behind the sample (the poll's effective size).
    pub sample_size: usize,
}

impl ModeratorBoard {
    /// Build the board for the `k` best moderators in `ballot`.
    pub fn from_ballot(ballot: &BallotBox, k: usize) -> ModeratorBoard {
        let ranking = rank_ballot(ballot, k);
        let total_positive: usize = ballot
            .moderators()
            .into_iter()
            .map(|m| ballot.tally(m).0)
            .sum();
        let entries = ranking
            .ranked
            .iter()
            .enumerate()
            .map(|(idx, &moderator)| {
                let (positive, negative) = ballot.tally(moderator);
                let voters = positive + negative;
                BoardEntry {
                    rank: idx + 1,
                    moderator,
                    positive,
                    negative,
                    vote_share: if total_positive == 0 {
                        0.0
                    } else {
                        positive as f64 / total_positive as f64
                    },
                    approval: if voters == 0 {
                        0.0
                    } else {
                        (positive as f64 - negative as f64) / voters as f64
                    },
                }
            })
            .collect();
        ModeratorBoard {
            entries,
            sample_size: ballot.unique_voters(),
        }
    }

    /// The board row for `moderator`, if ranked.
    pub fn entry(&self, moderator: ModeratorId) -> Option<&BoardEntry> {
        self.entries.iter().find(|e| e.moderator == moderator)
    }
}

impl fmt::Display for ModeratorBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:>10} {:>6} {:>6} {:>8} {:>9}",
            "rank", "moderator", "+", "-", "share", "approval"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:>4} {:>10} {:>6} {:>6} {:>7.1}% {:>+9.2}",
                e.rank,
                e.moderator.to_string(),
                e.positive,
                e.negative,
                e.vote_share * 100.0,
                e.approval
            )?;
        }
        write!(f, "(sample: {} unique voters)", self.sample_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::{Vote, VoteEntry};
    use rvs_sim::{NodeId, SimTime};

    fn ballot() -> BallotBox {
        let mut bb = BallotBox::new(100);
        let e = |m: u32, vote| VoteEntry {
            moderator: NodeId(m),
            vote,
            made_at: SimTime::ZERO,
        };
        // M0: 3+, 0-. M1: 1+, 0-. M2: 0+, 2-.
        bb.merge(
            NodeId(10),
            &[e(0, Vote::Positive), e(2, Vote::Negative)],
            SimTime::from_secs(1),
        );
        bb.merge(
            NodeId(11),
            &[e(0, Vote::Positive), e(2, Vote::Negative)],
            SimTime::from_secs(2),
        );
        bb.merge(
            NodeId(12),
            &[e(0, Vote::Positive), e(1, Vote::Positive)],
            SimTime::from_secs(3),
        );
        bb
    }

    #[test]
    fn board_ranks_and_counts() {
        let board = ModeratorBoard::from_ballot(&ballot(), 3);
        assert_eq!(board.sample_size, 3);
        assert_eq!(board.entries.len(), 3);
        let top = &board.entries[0];
        assert_eq!((top.rank, top.moderator), (1, NodeId(0)));
        assert_eq!((top.positive, top.negative), (3, 0));
        // 3 of 4 positive votes in the sample.
        assert!((top.vote_share - 0.75).abs() < 1e-12);
        assert_eq!(top.approval, 1.0);
    }

    #[test]
    fn negative_moderator_has_negative_approval() {
        let board = ModeratorBoard::from_ballot(&ballot(), 3);
        let m2 = board.entry(NodeId(2)).expect("ranked");
        assert_eq!(m2.rank, 3);
        assert_eq!(m2.approval, -1.0);
        assert_eq!(m2.vote_share, 0.0);
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let board = ModeratorBoard::from_ballot(&ballot(), 10);
        let sum: f64 = board.entries.iter().map(|e| e.vote_share).sum();
        assert!(sum <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_ballot_gives_empty_board() {
        let bb = BallotBox::new(5);
        let board = ModeratorBoard::from_ballot(&bb, 3);
        assert!(board.entries.is_empty());
        assert_eq!(board.sample_size, 0);
        assert_eq!(board.entry(NodeId(0)), None);
    }

    #[test]
    fn display_renders_rows() {
        let board = ModeratorBoard::from_ballot(&ballot(), 3);
        let text = board.to_string();
        assert!(text.contains("rank"));
        assert!(text.contains("n0"));
        assert!(text.contains("3 unique voters"));
    }
}
