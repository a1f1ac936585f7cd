//! Byzantine message plane: the receive-side defences every deployed
//! Tribler node needs before it can trust a wire message.
//!
//! The paper (§VI-C, §VII) argues BallotBox/VoxPopuli stay robust when
//! adversaries act *through the protocol*; this crate supplies the layer
//! underneath that argument — what happens when a peer does not even
//! speak the protocol correctly. It follows the LOCKSS observation
//! ("Preserving Peer Replicas By Rate-Limited Sampled Voting") that rate
//! limiting the sampling plane is itself a robustness mechanism, and the
//! secure-aggregation discipline of validating and *attributing* every
//! inbound record before it touches state:
//!
//! * [`reason`] — the typed rejection taxonomy ([`RejectReason`]) and the
//!   per-message-class budget axes ([`MessageClass`]). Every inbound
//!   message is totally classified: accepted, or mapped to exactly one
//!   reason. Validation never panics.
//! * [`config`] — [`GuardConfig`], the deterministic knobs: token-bucket
//!   capacity/refill per class, bounded-inbox cap, strike thresholds and
//!   decay, capped-doubling quarantine durations, timestamp windows, and
//!   the seen-window bound on receiver dedup state.
//! * [`governor`] — [`Governor`], the per-peer rate/budget state machine:
//!   token buckets, strike accounting, and quarantine with capped
//!   exponential backoff. Quarantine state is `Persist`-covered so
//!   checkpoints restore it byte-exactly; crash-reset wipes it as
//!   volatile protocol state.
//!
//! The governor is pure bookkeeping — it draws no randomness and reads no
//! clock beyond the [`rvs_sim::SimTime`] it is handed — so the scenario
//! engine stays byte-identical across thread counts and resume points.

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

pub mod config;
pub mod governor;
pub mod reason;

pub use config::GuardConfig;
pub use governor::{Governor, PeerGuard};
pub use reason::{MessageClass, RejectReason};
