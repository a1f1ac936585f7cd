//! Adversary models (paper §VI-C and §VII).
//!
//! All attacks act through the same protocol surfaces honest nodes use —
//! vote lists, top-K responses, BarterCast records — never through
//! backdoors, so defences are exercised exactly where the paper claims
//! they hold:
//!
//! * [`flash_crowd`] — a collusive crowd of fresh identities promoting a
//!   spam moderator `M0` via votes and fabricated VoxPopuli top-K lists
//!   (Figures 7 and 8);
//! * [`mole`] — the "front peer" attack on BarterCast: colluders fabricate
//!   transfer claims behind a mole that has genuine edges to honest nodes;
//! * [`aggregation`] — the baseline the paper rejects in §II/§V-A:
//!   epidemic push–pull averaging, "highly vulnerable to lying behaviour",
//!   used by the `ablation_aggregation` experiment to show why BallotBox
//!   samples instead of aggregating.

//! * [`credence`] — a correlation-based rating baseline in the style of
//!   Credence (paper §VIII), used to quantify the isolation of non-voting
//!   peers that motivates binding votes to moderators and sampling them.
//!
//! * [`flooder`] — a crowd of identities that initiates far more gossip
//!   than honest peers, exercising the guard plane's per-peer token
//!   buckets, bounded inboxes, and quarantine;
//! * [`malformer`] — a wire-level mutator applying seeded structured
//!   corruption (stuffing, inflation, stale/future timestamps, bad
//!   signatures, truncation) to exercise every typed validation gate.

pub mod aggregation;
pub mod credence;
pub mod flash_crowd;
pub mod flooder;
pub mod malformer;
pub mod mole;

pub use aggregation::EpidemicAggregation;
pub use credence::{simulate_credence, CredenceOutcome, VoteHistories};
pub use flash_crowd::FlashCrowd;
pub use flooder::Flooder;
pub use malformer::Malformer;
pub use mole::MoleAttack;
