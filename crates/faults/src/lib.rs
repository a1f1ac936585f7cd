//! Deterministic fault injection between protocol send and receive.
//!
//! The paper evaluates robustness only against *protocol-level* adversaries
//! (spam moderators, vote flooding); the network underneath is ideal. This
//! crate supplies the missing half: a fault plane that sits between a
//! protocol send and its receive and — driven entirely by a seeded
//! [`rvs_sim::DetRng`] stream — delays, reorders, duplicates, and drops
//! messages, cuts named partitions, and crash-restarts nodes.
//!
//! Everything is deterministic in the schedule plus the run seed: the same
//! [`FaultSchedule`] against the same seed replays byte-identically, which
//! is what lets chaos runs be regression-tested at all.
//!
//! * [`FaultConfig`] — link-level parameters (latency, jitter, independent
//!   loss, Gilbert–Elliott burst loss, duplication, retry/backoff).
//! * [`FaultSchedule`] — a serializable scenario: config plus named
//!   partition windows and crash-restart events (`rvs run --faults FILE`).
//! * [`FaultPlane`] — the runtime: per-send fate decisions
//!   ([`FaultPlane::decide`]) and partition state, owning the
//!   [`rvs_telemetry::FaultCounters`] block.
//! * [`Backoff`] — capped exponential backoff state for protocol retries
//!   (VoxPopuli bootstrap requests, encounter resends).

mod config;
mod plane;
mod retry;
mod schedule;

pub use config::{BurstLoss, FaultConfig, RetryConfig};
pub use plane::{FaultPlane, SendOutcome};
pub use retry::{Backoff, BackoffDecision};
pub use schedule::{CrashSpec, FaultSchedule, PartitionSpec};
