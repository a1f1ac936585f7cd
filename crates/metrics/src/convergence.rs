//! Convergence descriptors for experiment time series: when a series
//! first crosses a threshold, how long it sits above one, how long an
//! excursion lasts, and its time-average.
//!
//! [`time_mean`] is the mean accuracy of the A3 vote-list policy ablation
//! (`rvs_scenario::experiments::ablations`). The other three have no
//! caller yet: the bench binaries compute what they print themselves
//! (Figure 6's first sample above 0.5, Figure 8's peak and half-recovery),
//! and ROADMAP items 6(b) and 6(c) queue these helpers for the interval
//! and calibration checks.

use crate::series::TimeSeries;
use rvs_sim::SimTime;

/// First sample time at which the series reaches `threshold` (≥), if any.
pub fn first_crossing(series: &TimeSeries, threshold: f64) -> Option<SimTime> {
    series
        .samples
        .iter()
        .find(|s| s.value >= threshold)
        .map(|s| s.time)
}

/// Total simulated time during which the series sits at or above
/// `threshold`, counting each sample interval by its left endpoint's
/// value. Returns hours.
pub fn time_above_hours(series: &TimeSeries, threshold: f64) -> f64 {
    let mut total = 0.0;
    for w in series.samples.windows(2) {
        if w[0].value >= threshold {
            total += (w[1].time - w[0].time).as_secs_f64() / 3600.0;
        }
    }
    total
}

/// Time-weighted mean of the series (trapezoidal). Returns 0 for series
/// with fewer than two samples.
pub fn time_mean(series: &TimeSeries) -> f64 {
    if series.len() < 2 {
        return series.samples.first().map(|s| s.value).unwrap_or(0.0);
    }
    let mut area = 0.0;
    let mut span = 0.0;
    for w in series.samples.windows(2) {
        let dt = (w[1].time - w[0].time).as_secs_f64();
        area += dt * (w[0].value + w[1].value) / 2.0;
        span += dt;
    }
    if span == 0.0 {
        series.samples[0].value
    } else {
        area / span
    }
}

/// The vulnerability window of an attack curve: time from the first
/// sample at/above `threshold` to the first *later* sample where the
/// series drops below `threshold` and stays below for the rest of the
/// series. `None` when the curve never reaches the threshold; the window
/// extends to the final sample when the series never durably recovers.
pub fn excursion_window_hours(series: &TimeSeries, threshold: f64) -> Option<f64> {
    let start = first_crossing(series, threshold)?;
    // Find the last sample at/above threshold.
    let last_above = series
        .samples
        .iter()
        .rev()
        .find(|s| s.value >= threshold)
        .expect("first_crossing implies one exists");
    Some((last_above.time - start).as_secs_f64() / 3600.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::SimDuration;

    fn series(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("t");
        let mut t = SimTime::ZERO;
        for &v in values {
            s.push(t, v);
            t += SimDuration::from_hours(1);
        }
        s
    }

    #[test]
    fn first_crossing_finds_threshold() {
        let s = series(&[0.0, 0.2, 0.6, 0.9]);
        assert_eq!(first_crossing(&s, 0.5), Some(SimTime::from_hours(2)));
        assert_eq!(first_crossing(&s, 0.95), None);
    }

    #[test]
    fn time_above_counts_intervals() {
        let s = series(&[0.0, 0.6, 0.7, 0.1, 0.8]);
        // Intervals starting at samples 1, 2 (0.6, 0.7) and 4 has no right
        // neighbour; sample 3 (0.1) below.
        assert!((time_above_hours(&s, 0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_mean_is_trapezoidal() {
        let s = series(&[0.0, 1.0]);
        assert!((time_mean(&s) - 0.5).abs() < 1e-12);
        let flat = series(&[0.3, 0.3, 0.3]);
        assert!((time_mean(&flat) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn time_mean_degenerate_cases() {
        assert_eq!(time_mean(&TimeSeries::new("e")), 0.0);
        assert_eq!(time_mean(&series(&[0.7])), 0.7);
    }

    #[test]
    fn excursion_window_spans_first_to_last_above() {
        let s = series(&[0.0, 0.6, 0.2, 0.7, 0.1, 0.0]);
        // First above at 1 h, last above at 3 h.
        assert_eq!(excursion_window_hours(&s, 0.5), Some(2.0));
        assert_eq!(excursion_window_hours(&s, 0.9), None);
    }
}
