//! ModerationCast: decentralized dissemination of signed metadata
//! (paper §IV).
//!
//! *Moderations* are metadata items (description, thumbnail, …) bound to a
//! `.torrent` and signed by their creator, the *moderator*. They spread by
//! push/pull gossip over the PSS (Fig 1), but **forwarding is gated by
//! approval**: a node only passes on moderations from moderators its local
//! user has approved (thumbs-up). Disapproval (thumbs-down) purges the
//! moderator's items from the local database and blocks future ones. Thus
//! well-approved moderators spread quickly while bad ones crawl via direct
//! contact only (Fig 2).
//!
//! Modules:
//!
//! * [`sign`] — the simulated Tribler PKI: keyed-hash signatures binding a
//!   moderation to its moderator (substitution documented in DESIGN.md);
//! * [`moderation`] — the metadata record and ground-truth quality label;
//! * [`db`] — the per-node `local_db` with the recency+random `Extract()`
//!   and vote-aware `Merge()`;
//! * [`protocol`] — the network-wide gossip state machine.

pub mod db;
pub mod moderation;
pub mod protocol;
pub mod sign;
pub mod validate;

pub use db::{InsertOutcome, LocalDb, LocalVote, MergeStats};
pub use moderation::{ContentQuality, Moderation, ModerationId};
pub use protocol::{ModerationCast, ModerationCastConfig};
pub use sign::{KeyRegistry, Signature};
pub use validate::validate_moderation_list;
