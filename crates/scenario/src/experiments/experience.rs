//! Figure 5 — experience formation — and the §VI dataset statistics
//! ("Table 1").
//!
//! The paper runs trace-based simulations and plots the Collective
//! Experience Value over the seven days for several thresholds `T`,
//! selecting `T = 5 MB` because ≈20% of ordered node pairs produce
//! experience within 12 hours while free-riders and rarely-online peers
//! keep the curve well below 1.0 even after a week.
//!
//! Contribution values `f_{j→i}` do not depend on `T`, so one simulation
//! yields every threshold's curve: we sample the full contribution matrix
//! on a fixed grid and threshold it per `T`.

use crate::config::{ProtocolConfig, ScenarioSetup};
use crate::system::System;
use rvs_metrics::TimeSeries;
use rvs_sim::pool::{available_threads, run_indexed};
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::{TraceGenConfig, TraceStats};

/// Configuration for the experience-formation experiment.
#[derive(Debug, Clone)]
pub struct ExperienceConfig {
    /// Trace generator settings.
    pub trace: TraceGenConfig,
    /// Trace seed ("a typical trace from the dataset").
    pub trace_seed: u64,
    /// Protocol tuning.
    pub protocol: ProtocolConfig,
    /// Thresholds to plot, MiB (paper sweeps several; selects 5 MB).
    pub thresholds_mib: Vec<f64>,
    /// Sampling interval for the CEV curve (the curve spans the trace,
    /// `trace.duration`; paper: the full 7 days).
    pub sample_every: SimDuration,
}

impl ExperienceConfig {
    /// The paper's Figure 5 setup.
    pub fn paper() -> Self {
        ExperienceConfig {
            trace: TraceGenConfig::filelist_like(),
            trace_seed: 1,
            protocol: ProtocolConfig::default(),
            thresholds_mib: vec![2.0, 5.0, 10.0, 20.0],
            sample_every: SimDuration::from_hours(2),
        }
    }

    /// A scaled-down preset for tests and the quickstart example.
    pub fn quick(seed: u64) -> Self {
        ExperienceConfig {
            trace: TraceGenConfig::quick(20, SimDuration::from_hours(24)),
            trace_seed: seed,
            protocol: ProtocolConfig::default(),
            thresholds_mib: vec![2.0, 5.0],
            sample_every: SimDuration::from_hours(4),
        }
    }
}

/// Run the experience-formation experiment: one CEV time series per
/// threshold in [`ExperienceConfig::thresholds_mib`].
pub fn run_experience_formation(cfg: &ExperienceConfig) -> Vec<TimeSeries> {
    let trace = cfg.trace.generate(cfg.trace_seed);
    let n = trace.peer_count();
    let mut system = System::new(
        trace,
        cfg.protocol,
        ScenarioSetup::default(),
        cfg.trace_seed,
    );
    let mut series: Vec<TimeSeries> = cfg
        .thresholds_mib
        .iter()
        .map(|t| TimeSeries::new(format!("T={t}MB")))
        .collect();
    let thresholds = cfg.thresholds_mib.clone();
    let peers: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let end = SimTime::ZERO + cfg.trace.duration;
    system.run_until(end, cfg.sample_every, |sys, now| {
        // One pass over the contribution matrix covers every threshold.
        let mut counts = vec![0u64; thresholds.len()];
        for &evaluator in &peers {
            for &peer in &peers {
                if evaluator == peer {
                    continue;
                }
                let f = sys.bartercast().contribution_mib(evaluator, peer);
                for (k, &t) in thresholds.iter().enumerate() {
                    if f >= t {
                        counts[k] += 1;
                    }
                }
            }
        }
        let pairs = (n * (n - 1)) as f64;
        for (k, s) in series.iter_mut().enumerate() {
            s.push(now, counts[k] as f64 / pairs);
        }
    });
    series
}

/// Regenerate the dataset statistics the paper quotes for its 10 traces
/// (≈23k events each, ~50% average online, ~25% free-riders): generates
/// `n_traces` traces in parallel and returns per-trace stats plus the mean.
pub fn dataset_statistics(
    cfg: &TraceGenConfig,
    n_traces: usize,
    base_seed: u64,
) -> (Vec<TraceStats>, TraceStats) {
    let per_trace = run_indexed(n_traces, available_threads(), |i| {
        TraceStats::compute(&cfg.generate(base_seed + i as u64))
    });
    let mean = TraceStats::mean_over(&per_trace);
    (per_trace, mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cev_curves_are_monotone_in_threshold() {
        let cfg = ExperienceConfig::quick(3);
        let series = run_experience_formation(&cfg);
        assert_eq!(series.len(), 2);
        // At every sample, CEV(T=2) >= CEV(T=5).
        for (lo, hi) in series[0].samples.iter().zip(series[1].samples.iter()) {
            assert!(
                lo.value >= hi.value - 1e-12,
                "lower threshold must dominate: {} vs {}",
                lo.value,
                hi.value
            );
        }
    }

    #[test]
    fn cev_grows_over_time() {
        let cfg = ExperienceConfig::quick(4);
        let series = run_experience_formation(&cfg);
        let s = &series[0];
        assert!(s.len() >= 3);
        let first = s.samples.first().unwrap().value;
        let last = s.samples.last().unwrap().value;
        assert!(
            last > first,
            "experience should form over a day: {first} -> {last}"
        );
        assert!(last > 0.0, "some pairs must become experienced");
        assert!(last <= 1.0);
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = ExperienceConfig::quick(5);
        assert_eq!(
            run_experience_formation(&cfg),
            run_experience_formation(&cfg)
        );
    }

    #[test]
    fn dataset_statistics_aggregates() {
        let cfg = TraceGenConfig::quick(10, SimDuration::from_hours(12));
        let (per, mean) = dataset_statistics(&cfg, 4, 7);
        assert_eq!(per.len(), 4);
        assert_eq!(mean.unique_peers, 10);
    }
}
