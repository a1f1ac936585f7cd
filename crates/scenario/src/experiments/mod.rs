//! Experiment harnesses reproducing the paper's evaluation (§VI) and the
//! discussion's proposed extensions (§VII).

pub mod ablations;
pub mod experience;
pub mod spam;
pub mod vote_sampling;
