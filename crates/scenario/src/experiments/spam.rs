//! Figure 8 — the flash-crowd spam attack.
//!
//! Setup (paper §VI-C): 30 nodes form a fixed experienced core converged
//! on a top moderator M1; a flash crowd of fresh identities joins and
//! promotes a spam moderator M0 — votes that the experience function makes
//! core and integrated nodes ignore, plus fabricated VoxPopuli top-K lists
//! that *do* reach bootstrapping newcomers, who "cannot distinguish core
//! nodes from other new nodes". The plot shows, per crowd size (1× and 2×
//! the core), the proportion of newly arrived normal nodes ranking M0 top.
//!
//! Expected shape: a 2×-core crowd defeats most new nodes for ≈24 hours
//! until their BitTorrent participation earns them `B_min` experienced
//! voters and the ballot path takes over; a 1× crowd only ever poisons a
//! minority; below 1× pollution stays at zero.

use crate::config::{CrowdSpec, ModeratorSpec, PreseededCore, ProtocolConfig, ScenarioSetup};
use crate::experiments::parallel::{default_threads, parallel_runs};
use crate::system::System;
use rvs_faults::FaultSchedule;
use rvs_metrics::TimeSeries;
use rvs_modcast::ContentQuality;
use rvs_sim::{ModeratorId, NodeId, SimDuration, SimTime, SwarmId};
use rvs_trace::{Trace, TraceGenConfig};

/// Configuration for the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct SpamAttackConfig {
    /// Trace generator settings.
    pub trace: TraceGenConfig,
    /// Protocol tuning.
    pub protocol: ProtocolConfig,
    /// Size of the fixed experienced core (paper: 30).
    pub core_size: usize,
    /// Crowd sizes to evaluate (paper: 30 and 60 — 1× and 2× core).
    pub crowd_sizes: Vec<usize>,
    /// Independent trace runs to average (paper: 10).
    pub runs: usize,
    /// Base seed; run `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Sampling interval of the pollution curve.
    pub sample_every: SimDuration,
    /// Simulated span (the interesting dynamics play out in 2–3 days).
    pub duration: SimDuration,
}

impl SpamAttackConfig {
    /// The paper's Figure 8 setup.
    pub fn paper() -> Self {
        SpamAttackConfig {
            trace: TraceGenConfig::filelist_like(),
            protocol: ProtocolConfig::default(),
            core_size: 30,
            crowd_sizes: vec![30, 60],
            runs: 10,
            base_seed: 500,
            sample_every: SimDuration::from_hours(2),
            duration: SimDuration::from_days(3),
        }
    }

    /// A scaled-down preset for tests and examples.
    pub fn quick(seed: u64) -> Self {
        SpamAttackConfig {
            trace: TraceGenConfig::quick(30, SimDuration::from_hours(36)),
            protocol: ProtocolConfig {
                experience_t_mib: 1.0,
                ..ProtocolConfig::default()
            },
            core_size: 8,
            crowd_sizes: vec![8, 16],
            runs: 2,
            base_seed: seed,
            sample_every: SimDuration::from_hours(4),
            duration: SimDuration::from_hours(36),
        }
    }

    /// The Figure 8 system at `seed` with a crowd of `crowd` identities:
    /// this config's trace generated from `seed`, the [`fig8_setup`] cast,
    /// and deliveries routed through `faults`. Returns it with the crowd's
    /// spam moderator M0.
    pub fn system(&self, seed: u64, crowd: usize, faults: FaultSchedule) -> (System, ModeratorId) {
        let trace = self.trace.generate(seed);
        let setup = fig8_setup(&trace, self.core_size, crowd);
        let system = System::with_faults(trace, self.protocol, setup, seed, faults);
        let spam = system.crowd().expect("fig8 has a crowd").spam_moderator();
        (system, spam)
    }
}

/// Build the Figure 8 scenario cast: pre-seeded core (the first
/// `core_size` arrivals, converged on M1 = the very first arrival) plus a
/// crowd of `crowd_size` identities joining at time zero.
pub fn fig8_setup(trace: &Trace, core_size: usize, crowd_size: usize) -> ScenarioSetup {
    let order = trace.arrival_order();
    assert!(
        order.len() > core_size,
        "population must exceed the core size"
    );
    let core_members: Vec<NodeId> = order.iter().copied().take(core_size).collect();
    let m1 = core_members[0];
    ScenarioSetup {
        moderators: vec![ModeratorSpec {
            moderator: m1,
            swarm: SwarmId(0),
            quality: ContentQuality::Genuine,
            publish_at: trace.peers[m1.index()].arrival,
        }],
        voters: Vec::new(),
        core: Some(PreseededCore {
            members: core_members,
            top_moderator: m1,
        }),
        crowd: Some(CrowdSpec::churning(crowd_size, SimTime::ZERO, SwarmId(0))),
    }
}

/// Pollution curves, one per crowd size, averaged over the runs.
pub fn run_spam_attack(cfg: &SpamAttackConfig) -> Vec<TimeSeries> {
    let jobs: Vec<(usize, usize)> = cfg
        .crowd_sizes
        .iter()
        .flat_map(|&size| (0..cfg.runs).map(move |r| (size, r)))
        .collect();
    let curves = parallel_runs(jobs.len(), default_threads(jobs.len()), |j| {
        let (crowd_size, run) = jobs[j];
        let seed = cfg.base_seed + run as u64;
        let (mut system, spam) = cfg.system(seed, crowd_size, FaultSchedule::default());
        let mut series = TimeSeries::new(format!("crowd={crowd_size} run={run}"));
        let end = SimTime::ZERO + cfg.duration;
        system.run_until(end, cfg.sample_every, |sys, now| {
            series.push(now, sys.new_node_pollution(spam));
        });
        series
    });
    // Average per crowd size, preserving crowd_sizes order.
    cfg.crowd_sizes
        .iter()
        .enumerate()
        .map(|(k, &size)| {
            let runs: Vec<TimeSeries> = curves[k * cfg.runs..(k + 1) * cfg.runs].to_vec();
            let factor = size as f64 / cfg.core_size as f64;
            TimeSeries::mean_over(format!("crowd={size} ({factor:.1}x core)"), &runs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_cast_shapes() {
        let trace = TraceGenConfig::quick(30, SimDuration::from_hours(24)).generate(3);
        let setup = fig8_setup(&trace, 8, 16);
        let core = setup.core.as_ref().unwrap();
        assert_eq!(core.members.len(), 8);
        assert_eq!(core.top_moderator, core.members[0]);
        assert_eq!(setup.crowd.unwrap().size, 16);
        assert_eq!(setup.moderators.len(), 1);
    }

    #[test]
    fn larger_crowds_pollute_more() {
        let cfg = SpamAttackConfig::quick(11);
        let curves = run_spam_attack(&cfg);
        assert_eq!(curves.len(), 2);
        let peak = |s: &TimeSeries| s.samples.iter().map(|p| p.value).fold(0.0_f64, f64::max);
        let small = peak(&curves[0]);
        let large = peak(&curves[1]);
        assert!(
            large >= small,
            "2x crowd should pollute at least as much as 1x: {small} vs {large}"
        );
        assert!(
            large > 0.0,
            "a 2x-core crowd must poison some bootstrapping nodes"
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = SpamAttackConfig::quick(13);
        assert_eq!(run_spam_attack(&cfg), run_spam_attack(&cfg));
    }
}
