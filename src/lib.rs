//! # robust-vote-sampling
//!
//! A production-quality Rust reproduction of *"Robust vote sampling in a P2P
//! media distribution system"* (Rahman, Hales, Meulpolder, Heinink, Pouwelse,
//! Sips — TU Delft, IPDPS 2009): fully decentralized metadata dissemination
//! (**ModerationCast**), collusion-resistant vote sampling (**BallotBox**),
//! fast bootstrap ranking (**VoxPopuli**), and a BarterCast-maxflow
//! **experience function**, evaluated on a piece-level BitTorrent simulator
//! driven by churn-calibrated peer traces.
//!
//! This facade crate re-exports the workspace's public API. Start with
//! [`scenario`] for ready-made experiment harnesses, or assemble a system
//! yourself from the protocol crates:
//!
//! * [`sim`] — deterministic discrete-event engine, time, RNG.
//! * [`trace`] — peer churn traces (synthetic, filelist.org-calibrated).
//! * [`bittorrent`] — piece-level swarm simulation and transfer accounting.
//! * [`checkpoint`] — stable versioned binary persistence (`Persist`).
//! * [`pss`] — peer sampling service (oracle + Newscast gossip).
//! * [`bartercast`] — contribution graphs, bounded maxflow, experience.
//! * [`modcast`] — signed moderations and approval-gated dissemination.
//! * [`core`] — BallotBox / VoxPopuli vote sampling and ranking.
//! * [`guard`] — Byzantine message plane: typed validation gates,
//!   per-peer rate budgets, deterministic quarantine.
//! * [`attacks`] — flash crowds, moles, floods, wire mutation,
//!   lying aggregation.
//! * [`metrics`] — CEV, ordering accuracy, pollution, series statistics.
//! * [`telemetry`] — per-protocol counters, mergeable snapshots, timers.
//! * [`scenario`] — full-system wiring reproducing the paper's figures.
//! * [`cli`] — the one command-line grammar of `rvs` and `rvs-bench`.
//!
//! ## Quickstart
//!
//! ```
//! use robust_vote_sampling::scenario::{VoteSamplingConfig, run_vote_sampling};
//! use robust_vote_sampling::sim::SimDuration;
//!
//! // A scaled-down Figure-6 style run (24 peers, 36 hours): three
//! // moderators, honest voters, measure how fast the population converges
//! // on M1 > M2 > M3.
//! let cfg = VoteSamplingConfig {
//!     base_seed: 42,
//!     ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
//! };
//! let outcome = run_vote_sampling(&cfg);
//! let final_accuracy = outcome.accuracy.last().expect("series non-empty");
//! assert!(final_accuracy.value > 0.5, "most nodes should converge");
//! ```

pub mod cli;

pub use rvs_attacks as attacks;
pub use rvs_bartercast as bartercast;
pub use rvs_bittorrent as bittorrent;
pub use rvs_checkpoint as checkpoint;
pub use rvs_core as core;
pub use rvs_faults as faults;
pub use rvs_guard as guard;
pub use rvs_metrics as metrics;
pub use rvs_modcast as modcast;
pub use rvs_pss as pss;
pub use rvs_scenario as scenario;
pub use rvs_sim as sim;
pub use rvs_telemetry as telemetry;
pub use rvs_trace as trace;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
