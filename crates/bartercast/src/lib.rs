//! BarterCast: decentralized contribution accounting and the experience
//! function (paper §V-B).
//!
//! "By using BarterCast, any node in the system can estimate the
//! contribution of any other node … based on up- and download statistics
//! that are exchanged among nodes in a reliable way. First, nodes record
//! statistics of their own BitTorrent file-transfers. Second, nodes
//! exchange their own direct statistics with other peers they encounter.
//! Based on these combined statistics each peer can build a graph of the
//! network with directed edges that denote the amount of MBs transferred
//! from one node to another node. The protocol then applies a maxflow
//! algorithm to derive peer contributions."
//!
//! Modules:
//!
//! * [`graph`] — per-node subjective transfer graphs with reporter-checked
//!   edge insertion (a peer may only report its *own* transfers), one
//!   `max`-accumulated weight per edge, stored as per-source rows of
//!   8-byte `(target, kib)` entries sorted by target (a row of one or two
//!   held in its slot), beside a column of the source ids and a column of
//!   the weights too wide for 32 bits — and checkpointed together, each
//!   distinct record once in one table and every graph as indices into it;
//! * [`maxflow`] — hop-bounded Edmonds–Karp, the reference the protocol's
//!   2-hop answer is tested against; the deployed BarterCast's 2-hop bound
//!   limits the leverage of false reports;
//! * [`protocol`] — the record-exchange gossip ([`BarterCast`]), which
//!   answers a 2-hop contribution query as one merge of `j`'s out-row with
//!   the owner's in-column, cheap enough that every query recomputes it
//!   (no cache — DESIGN.md §4), and whose receive half installs only the
//!   records the receiver has not already been given by that reporter;
//! * [`experience`] — the adaptive variant, sketched in the paper's
//!   discussion (§VII), of the threshold experience function
//!   `E_i(j) ⇔ f_{j→i} ≥ T`.

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

pub mod experience;
pub mod graph;
pub mod maxflow;
pub mod protocol;
pub mod validate;

#[cfg(test)]
mod tests;

pub use experience::AdaptiveThreshold;
pub use graph::SubjectiveGraph;
pub use protocol::{BarterCast, BarterCastConfig, Record};
pub use validate::validate_records;
