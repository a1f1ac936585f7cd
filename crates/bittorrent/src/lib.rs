//! Piece-level BitTorrent swarm simulation.
//!
//! The paper's evaluation "operates at the BitTorrent file piece level …
//! every action that a BitTorrent client would need to take, down to the
//! exchange of file chunks, peer choking and piece selection" (§VI). This
//! crate is that simulator:
//!
//! * [`bitfield::Bitfield`] — per-peer piece possession maps;
//! * [`selection`] — rarest-first piece selection (random tie-break,
//!   random-first-piece);
//! * [`choke`] — tit-for-tat choking with periodic optimistic unchoke;
//! * [`swarm::SwarmSim`] — one swarm: membership, interest, bandwidth
//!   allocation, piece transfer, seeding / free-riding behaviour;
//! * [`ledger::TransferLedger`] — MiB-level upload accounting per ordered
//!   peer pair, the raw input to BarterCast;
//! * [`net::BitTorrentNet`] — all swarms of a trace plus churn handling,
//!   driven by fixed simulation ticks.
//!
//! The simulator is deterministic: members are kept in ascending id order,
//! and all randomness (optimistic unchoke, tie-breaks) comes from the
//! caller-supplied [`rvs_sim::DetRng`].

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

pub mod bitfield;
pub mod choke;
pub mod ledger;
pub mod net;
pub mod selection;
pub mod stats;
pub mod swarm;

pub use bitfield::Bitfield;
pub use ledger::TransferLedger;
pub use net::{BitTorrentNet, NetConfig, Window};
pub use stats::{network_health, SwarmHealth};
pub use swarm::{Completion, SwarmSim};
