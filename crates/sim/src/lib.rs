//! Deterministic discrete-event simulation (DES) foundation for the
//! robust-vote-sampling workspace.
//!
//! The paper evaluates its protocols with a piece-level BitTorrent simulator
//! driven by seven-day peer traces. Everything above this crate (swarm
//! simulation, gossip protocols, attacks) is expressed as events scheduled on
//! the [`Engine`] defined here.
//!
//! Design goals:
//!
//! * **Determinism** — identical seeds produce identical runs. The event
//!   queue breaks timestamp ties with a monotone sequence number, and all
//!   randomness flows through [`rng::DetRng`], a self-contained
//!   xoshiro256\*\* generator.
//! * **Zero hidden global state** — the engine is a plain value; simulations
//!   can be forked, nested, and run in parallel threads.
//! * **Speed** — a 7-day, 100-peer trace with piece-level swarms runs in
//!   milliseconds, so 10-run averages and parameter sweeps stay interactive.

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

pub mod engine;
pub mod event;
pub mod id;
pub mod pool;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use id::{ModeratorId, NodeId, SwarmId};
pub use pool::Pool;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
