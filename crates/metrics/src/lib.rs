//! Evaluation metrics for the reproduction experiments.
//!
//! * [`cev`] — the Collective Experience Value of §VI-A (Figure 5): the
//!   density of the directed experience graph over all ordered node pairs;
//! * [`ordering`] — Figure 6's effectiveness measure: the fraction of
//!   nodes whose current ranking places the moderators in the ground-truth
//!   order;
//! * [`pollution`] — Figure 8's attack measure: the fraction of nodes
//!   ranking the spam moderator top;
//! * [`series`] — time series collection, multi-run averaging on a shared
//!   sampling grid, and text rendering for the bench binaries;
//! * [`summary`] — scalar statistics (mean, standard deviation,
//!   percentiles, normal-approximation confidence intervals).
//!
//! Like the paper's CEV, these are *measurement-side* quantities computed
//! with global knowledge; they play no part in the protocols themselves.

pub mod cev;
pub mod convergence;
pub mod ordering;
pub mod pollution;
pub mod series;
pub mod summary;

pub use cev::collective_experience_value;
pub use convergence::{excursion_window_hours, first_crossing, time_above_hours, time_mean};
pub use ordering::{correct_ordering_fraction, orders_correctly};
pub use pollution::pollution_fraction;
pub use series::{Sample, TimeSeries};
pub use summary::Summary;
