//! `rvs-perf` — the repository's benchmark: four workloads, six end-to-end
//! metrics and a per-layer traced run. See `perf/README.md`.
//!
//! The library half exists so that `tests/selftest.rs` can hold the
//! in-code tables against `BENCHMARK.json`; the `rvs-perf` binary is the
//! only other user.

pub mod child;
pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod replay;
pub mod spans;
pub mod table;
pub mod workload;
