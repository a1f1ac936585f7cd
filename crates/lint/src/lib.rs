//! `rvs-lint` — tidy-style static analysis for the vote-sampling workspace.
//!
//! The paper's evaluation and this repo's differential proofs are only
//! meaningful when runs are bit-reproducible: differential tests demand
//! `f64::to_bits`-identical results and the runtime auditor assumes all
//! randomness flows through seeded, forked RNG streams. Nothing in the
//! compiler stops a contributor from iterating a `HashSet`, reading the
//! wall clock in a protocol crate, or adding a panic path to gossip
//! handling — the class of silent nondeterminism that sampled-voting
//! systems identify as fatal to reproducible vote outcomes.
//!
//! Since the offline build cannot pull `syn` or dylint, this crate follows
//! rustc's `tidy` model: a zero-dependency, comment/string-aware lexer
//! ([`lexer`]) feeding a declarative rule engine ([`rules`]). The rule
//! families run over every workspace source file (`compat/` and the
//! negative-fixture corpus excluded):
//!
//! * **determinism** — `hash-container`, `wall-clock`, `ambient-rng`,
//!   `ambient-env`, `ambient-thread`: constructs whose behaviour depends on
//!   hasher seeds, clocks, entropy, environment, or scheduling.
//! * **panic-surface** — `panic-surface`: `unwrap()`/`expect(`/`panic!`
//!   and friends in non-test protocol-crate code.
//! * **suppression hygiene** — `unused-suppression`: an `allow(...)` that
//!   suppresses nothing is itself a finding.
//! * **lint metadata** — `stale-metadata`: the lint's own exempt-path and
//!   protocol-crate lists must name things that still exist on disk.
//!
//! The lint parses no declarations and reads no documentation. That the
//! telemetry counters are merged, serialized and documented, and that the
//! config fields, paper symbols and threading knobs are documented, is held
//! by the compiler (`rvs-telemetry`'s one counter list) and by the root
//! test `tests/design_reference.rs` (DESIGN.md §7, §8 and §11).
//!
//! Intentional exceptions carry a written justification:
//!
//! ```text
//! // rvs-lint: allow(wall-clock) -- gated phase timer, excluded from
//! //           deterministic comparisons
//! ```
//!
//! `allow(...)` covers its own line and the next; `allow-file(...)` covers
//! the whole file. An annotation without a `-- justification` is itself a
//! finding. The CLI (`cargo run -p rvs-lint -- --workspace-root .`) prints
//! findings as text or JSON and gates CI via `--deny-findings`; the same
//! engine runs as the tier-1 test `tests/static_analysis.rs`.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{lintable_files, run};
pub use report::{Finding, Report};
pub use rules::{check_source, Scope, TokenRule, PROTOCOL_CRATES, TOKEN_RULES};
