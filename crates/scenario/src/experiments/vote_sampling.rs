//! Figure 6 — effectiveness of the vote-sampling system over time.
//!
//! Setup (paper §VI-B): "We set the first three nodes (M1, M2 and M3)
//! entering the system to be moderators and to spread a moderation related
//! to a .torrent file. We selected 10% of the population at random to
//! provide a positive vote for M1 and 10% to provide a negative vote for
//! M3. M2 gets no votes. Hence the correct ordering, based on the popular
//! vote, should be M1 > M2 > M3." BallotBox runs with `B_min = 5`,
//! `B_max = 100`; VoxPopuli with `V_max = 10`, `K = 3`.
//!
//! The measured quantity is the fraction of nodes whose displayed ranking
//! orders M1 > M2 > M3; the paper shows three typical single-trace runs
//! plus the average over 10 independent traces.

use crate::config::{ModeratorSpec, ProtocolConfig, ScenarioSetup, VoterSpec};
use crate::experiments::parallel::{default_threads, parallel_runs};
use crate::system::System;
use rvs_faults::FaultSchedule;
use rvs_metrics::TimeSeries;
use rvs_modcast::{ContentQuality, LocalVote};
use rvs_sim::{DetRng, ModeratorId, NodeId, SimDuration, SimTime, SwarmId};
use rvs_telemetry::Snapshot;
use rvs_trace::{Trace, TraceGenConfig};

/// Configuration for the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct VoteSamplingConfig {
    /// Trace generator settings.
    pub trace: TraceGenConfig,
    /// Protocol tuning (defaults carry the paper's B_min/B_max/V_max/K).
    pub protocol: ProtocolConfig,
    /// Fraction voting `+` on M1 (paper: 0.10).
    pub positive_fraction: f64,
    /// Fraction voting `−` on M3 (paper: 0.10).
    pub negative_fraction: f64,
    /// Independent trace runs to average (paper: 10).
    pub runs: usize,
    /// Base seed; run `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Sampling interval of the accuracy curve (the curve spans the
    /// trace, `trace.duration`).
    pub sample_every: SimDuration,
    /// Run each trace under the invariant auditor and panic on any
    /// violation (used by the CI scale smoke; off by default because the
    /// auditor costs wall-clock).
    pub audit: bool,
}

impl VoteSamplingConfig {
    /// The paper's Figure 6 setup.
    pub fn paper() -> Self {
        VoteSamplingConfig {
            trace: TraceGenConfig::filelist_like(),
            protocol: ProtocolConfig::default(),
            positive_fraction: 0.10,
            negative_fraction: 0.10,
            runs: 10,
            base_seed: 100,
            sample_every: SimDuration::from_hours(2),
            audit: false,
        }
    }

    /// A scaled-down cast of `peers` over `span` for tests, examples and
    /// the `--quick` figures: the quick trace preset, `T` = 1 MiB, and a
    /// denser voter assignment (25 % / 25 %) so a tiny population still
    /// produces meaningful samples. Two runs from base seed 0, sampled
    /// every 4 hours.
    pub fn quick(peers: usize, span: SimDuration) -> Self {
        VoteSamplingConfig {
            trace: TraceGenConfig::quick(peers, span),
            protocol: ProtocolConfig {
                experience_t_mib: 1.0,
                ..ProtocolConfig::default()
            },
            positive_fraction: 0.25,
            negative_fraction: 0.25,
            runs: 2,
            base_seed: 0,
            sample_every: SimDuration::from_hours(4),
            audit: false,
        }
    }

    /// The Figure 6 system at `seed`: this config's trace generated from
    /// `seed`, the [`fig6_setup`] cast at the configured fractions, and
    /// deliveries routed through `faults`. Returns it with `[M1, M2, M3]`.
    pub fn system(&self, seed: u64, faults: FaultSchedule) -> (System, [ModeratorId; 3]) {
        let trace = self.trace.generate(seed);
        let (setup, m) = fig6_setup(&trace, self.positive_fraction, self.negative_fraction, seed);
        let system = System::with_faults(trace, self.protocol, setup, seed, faults);
        (system, m)
    }

    /// Run `system` to the end of the trace span, sampling the fraction of
    /// nodes that order `m` correctly every `sample_every`.
    pub fn accuracy_curve(
        &self,
        system: &mut System,
        m: &[ModeratorId; 3],
        label: impl Into<String>,
    ) -> TimeSeries {
        let mut series = TimeSeries::new(label);
        let end = SimTime::ZERO + self.trace.duration;
        system.run_until(end, self.sample_every, |sys, now| {
            series.push(now, sys.ordering_accuracy(m));
        });
        series
    }
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteSamplingOutcome {
    /// Per-run accuracy curves ("three typical runs" in the paper).
    pub typical: Vec<TimeSeries>,
    /// Point-wise mean over all runs.
    pub accuracy: TimeSeries,
    /// The moderators `[M1, M2, M3]` of the *first* run (ids differ per
    /// trace; exposed for inspection).
    pub moderators: [ModeratorId; 3],
    /// Per-protocol counters merged over all runs (phase timings stripped,
    /// so the outcome stays deterministic given the seed).
    pub telemetry: Snapshot,
}

/// The smallest population the Figure 6 cast fits: three moderators and
/// three more peers.
pub const FIG6_MIN_PEERS: usize = 6;

/// The Figure 6 moderators `[M1, M2, M3]` of `trace`: its first three
/// arrivals.
///
/// # Panics
/// When `trace` has fewer than [`FIG6_MIN_PEERS`] peers.
pub fn fig6_moderators(trace: &Trace) -> [ModeratorId; 3] {
    let order = trace.arrival_order();
    assert!(
        order.len() >= FIG6_MIN_PEERS,
        "population too small for the Fig 6 cast"
    );
    [order[0], order[1], order[2]]
}

/// Build the Figure 6 scenario cast for a given trace.
pub fn fig6_setup(
    trace: &Trace,
    positive_fraction: f64,
    negative_fraction: f64,
    seed: u64,
) -> (ScenarioSetup, [ModeratorId; 3]) {
    let m = fig6_moderators(trace);
    let order = trace.arrival_order();
    let n_swarms = trace.swarms.len() as u32;
    let moderators = (0..3)
        .map(|k| ModeratorSpec {
            moderator: m[k],
            swarm: SwarmId(k as u32 % n_swarms),
            quality: ContentQuality::Genuine,
            publish_at: trace.peers[m[k].index()].arrival,
        })
        .collect();

    // Random voter assignment over the non-moderator population.
    let mut rng = DetRng::new(seed).fork(0xF166);
    let candidates: Vec<NodeId> = order.iter().copied().filter(|n| !m.contains(n)).collect();
    let n_pos = ((trace.peer_count() as f64) * positive_fraction).round() as usize;
    let n_neg = ((trace.peer_count() as f64) * negative_fraction).round() as usize;
    let picks = rng.sample_indices(candidates.len(), (n_pos + n_neg).min(candidates.len()));
    let mut voters = Vec::with_capacity(picks.len());
    for (k, idx) in picks.into_iter().enumerate() {
        let voter = candidates[idx];
        if k < n_pos {
            voters.push(VoterSpec {
                voter,
                moderator: m[0],
                vote: LocalVote::Approve,
            });
        } else {
            voters.push(VoterSpec {
                voter,
                moderator: m[2],
                vote: LocalVote::Disapprove,
            });
        }
    }
    (
        ScenarioSetup {
            moderators,
            voters,
            core: None,
            crowd: None,
        },
        m,
    )
}

/// Run one Figure 6 trace and return its accuracy curve plus the run's
/// counter snapshot (phase timings stripped — counters are deterministic
/// given the seed, wall-clock phases are not).
fn run_one(cfg: &VoteSamplingConfig, run: usize) -> (TimeSeries, [ModeratorId; 3], Snapshot) {
    let seed = cfg.base_seed + run as u64;
    let (mut system, m) = cfg.system(seed, FaultSchedule::default());
    if cfg.audit {
        system.enable_audit();
    }
    let series = cfg.accuracy_curve(&mut system, &m, format!("run {run}"));
    if cfg.audit {
        assert_eq!(
            system.audit_violations(),
            &[] as &[String],
            "invariant violations in run {run} (seed {seed})"
        );
    }
    let snapshot = system.telemetry_snapshot().counters_only();
    (series, m, snapshot)
}

/// Run the full Figure 6 experiment (parallel over traces).
pub fn run_vote_sampling(cfg: &VoteSamplingConfig) -> VoteSamplingOutcome {
    assert!(cfg.runs >= 1);
    let results = parallel_runs(cfg.runs, default_threads(cfg.runs), |r| run_one(cfg, r));
    let moderators = results[0].1;
    let telemetry = results
        .iter()
        .fold(Snapshot::default(), |acc, (_, _, snap)| acc.merged(snap));
    let typical: Vec<TimeSeries> = results.into_iter().map(|(s, _, _)| s).collect();
    let accuracy = TimeSeries::mean_over(format!("avg of {}", cfg.runs), &typical);
    VoteSamplingOutcome {
        typical,
        accuracy,
        moderators,
        telemetry,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The 24-peer × 36 h quick cast from base seed `seed`.
    pub(crate) fn quick(seed: u64) -> VoteSamplingConfig {
        VoteSamplingConfig {
            base_seed: seed,
            ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
        }
    }

    #[test]
    fn fig6_cast_matches_paper_shape() {
        let trace = TraceGenConfig::quick(30, SimDuration::from_hours(24)).generate(9);
        let (setup, m) = fig6_setup(&trace, 0.1, 0.1, 9);
        assert_eq!(setup.moderators.len(), 3);
        assert_eq!(setup.moderators[0].moderator, m[0]);
        let pos = setup
            .voters
            .iter()
            .filter(|v| v.vote == LocalVote::Approve)
            .count();
        let neg = setup.voters.len() - pos;
        assert_eq!(pos, 3, "10% of 30");
        assert_eq!(neg, 3);
        // Voters vote on the right moderators and are not moderators.
        for v in &setup.voters {
            assert!(!m.contains(&v.voter));
            match v.vote {
                LocalVote::Approve => assert_eq!(v.moderator, m[0]),
                LocalVote::Disapprove => assert_eq!(v.moderator, m[2]),
            }
        }
    }

    #[test]
    fn voters_are_distinct() {
        let trace = TraceGenConfig::quick(40, SimDuration::from_hours(24)).generate(2);
        let (setup, _) = fig6_setup(&trace, 0.2, 0.2, 2);
        let mut ids: Vec<NodeId> = setup.voters.iter().map(|v| v.voter).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "a node holds at most one assignment");
    }

    #[test]
    fn quick_run_converges_to_majority_accuracy() {
        let cfg = quick(42);
        let outcome = run_vote_sampling(&cfg);
        assert_eq!(outcome.typical.len(), 2);
        let last = outcome.accuracy.last().expect("non-empty");
        assert!(
            last.value > 0.5,
            "most nodes should order M1 > M2 > M3 by the end; got {}",
            last.value
        );
        // Accuracy starts near zero: nobody has votes or rankings yet.
        let first = outcome.accuracy.samples.first().unwrap();
        assert!(
            first.value < 0.3,
            "accuracy starts low, got {}",
            first.value
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = quick(7);
        let a = run_vote_sampling(&cfg);
        let b = run_vote_sampling(&cfg);
        assert_eq!(a, b);
    }
}
