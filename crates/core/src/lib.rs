//! The paper's primary contribution: robust vote sampling (paper §V).
//!
//! Two related protocols plus ranking machinery:
//!
//! * **BallotBox** ([`ballot`], [`protocol`]) — every peer is its own
//!   pollster: it asks randomly sampled peers for their *local vote list*
//!   (their own first-hand votes on moderators, never hearsay), accepts the
//!   list only if the sender passes the experience function `E`, and merges
//!   it into a bounded *local ballot box* keyed one-vote-per-(voter,
//!   moderator). Accumulated ballots are never forwarded — that is what
//!   makes the sample collusion-resistant.
//! * **VoxPopuli** ([`voxpopuli`]) — the bootstrap path: a node whose
//!   ballot box holds votes from fewer than `B_min` unique peers asks
//!   others for their top-K moderator lists; only peers *not* themselves
//!   bootstrapping answer; the node rank-merges the last `V_max` lists by
//!   rank averaging (missing ⇒ rank K+1).
//! * **Ranking** ([`ranking`]) — simple vote summation over the ballot box
//!   (the paper leaves the exact method open) and top-K extraction.
//!
//! [`protocol::VoteSampling`] assembles the per-node state machines into
//! the population-wide protocol of Fig 3, parameterised by the experience
//! function so honest and adversarial encounters run the same code.

// DESIGN.md §9, `panic-surface`: this crate handles adversarial input, so
// outside tests a malformed message or an edge case degrades, never aborts.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod ballot;
pub mod board;
pub mod protocol;
pub mod ranking;
pub mod validate;
pub mod vote;
pub mod voxpopuli;

pub use ballot::{BallotBox, MergeOutcome};
pub use board::{BoardEntry, ModeratorBoard};
pub use protocol::{VoteSampling, VoteSamplingConfig};
pub use ranking::{
    rank_ballot, rank_ballot_positive, rank_ballot_scored, rank_ballot_with_known, ScoreMethod,
    TopKList,
};
pub use validate::{validate_topk, validate_vote_list};
pub use vote::{select_votes, Vote, VoteEntry, VoteListPolicy};
pub use voxpopuli::{MergeMethod, VoxCache};
