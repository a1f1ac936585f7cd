//! Peer Sampling Service (PSS).
//!
//! All three of the paper's protocols (ModerationCast, BallotBox,
//! VoxPopuli) assume "a peer sampling service which periodically returns a
//! random peer from the entire population of online peers" (§III). Tribler
//! implements this with BuddyCast, a variant of Newscast.
//!
//! This crate provides:
//!
//! * [`PeerSampler`] — the service trait;
//! * [`OraclePss`] — an idealised sampler drawing uniformly from the online
//!   population (the abstraction the paper's analysis assumes);
//! * [`NewscastPss`] — a Newscast-style gossip implementation with bounded
//!   views and age-based eviction, demonstrating that the service is
//!   realisable fully decentralised. Its samples approximate uniformity and
//!   may occasionally return peers that have just gone offline, exactly as
//!   in a deployed system.

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

pub mod newscast;
pub mod oracle;
pub mod validate;

pub use newscast::{NewscastConfig, NewscastPss};
pub use oracle::OraclePss;
pub use validate::validate_view;

use rvs_sim::{DetRng, NodeId};

/// A source of (approximately) uniformly random online peers.
pub trait PeerSampler {
    /// Draw a random peer for `requester`, never returning `requester`
    /// itself. Returns `None` when the sampler knows of no other peer.
    ///
    /// Implementations may return peers that have recently gone offline
    /// (gossip views lag churn); callers must tolerate contact failure.
    fn sample(&mut self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId>;
}
