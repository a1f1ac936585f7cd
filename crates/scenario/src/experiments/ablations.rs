//! Ablations and extensions (experiment index A1–A6 in DESIGN.md).
//!
//! These probe the design decisions the paper argues for in §II, §V and
//! §VII: the adaptive threshold sketch, the ballot-box bounds, the
//! vote-list selection policy, sampling-vs-aggregation, the mole attack's
//! cost, and VoxPopuli's bootstrap/vulnerability trade-off.

use crate::config::ProtocolConfig;
use crate::experiments::spam::{fig8_setup, SpamAttackConfig};
use crate::experiments::vote_sampling::VoteSamplingConfig;
use crate::system::System;
use rvs_attacks::{EpidemicAggregation, MoleAttack};
use rvs_bartercast::{AdaptiveThreshold, BarterCast, BarterCastConfig};
use rvs_bittorrent::TransferLedger;
use rvs_core::VoteListPolicy;
use rvs_faults::FaultSchedule;
use rvs_metrics::TimeSeries;
use rvs_sim::pool::{available_threads, run_indexed};
use rvs_sim::{DetRng, NodeId, SimTime};

/// A1 — adaptive threshold under attack: pollution with the fixed paper
/// threshold vs the §VII adaptive rule, plus where the adaptive `T`
/// settles.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Pollution under the fixed `T`.
    pub fixed: TimeSeries,
    /// Pollution under the paper's literal symmetric adaptive sketch.
    pub symmetric: TimeSeries,
    /// Pollution under the asymmetric (fast-raise, slow-decay) variant.
    pub adaptive: TimeSeries,
    /// Mean asymmetric-adaptive threshold across trace nodes at the end.
    pub final_t_mean_mib: f64,
}

/// Run the A1 ablation on the Figure 8 scenario (largest configured
/// crowd), with one twist: the crowd additionally votes the honest top
/// moderator *down*.
///
/// The demotion matters: the adaptive rule keys on vote **dispersion**,
/// and a pure promotion attack (everyone `+M0`, nobody `−M0`) produces
/// unanimous per-moderator votes — zero dispersion — so adaptive-`T` nodes
/// would never raise their guard (a genuine blind spot of the §VII sketch,
/// recorded in EXPERIMENTS.md). A demoting crowd splits the votes on `M1`
/// and trips the detector.
pub fn run_adaptive_threshold(cfg: &SpamAttackConfig) -> AdaptiveOutcome {
    let crowd_size = *cfg.crowd_sizes.iter().max().expect("at least one size");
    let run_variant = |adaptive: Option<AdaptiveThreshold>, label: &str| -> (TimeSeries, f64) {
        let seed = cfg.base_seed;
        let trace = cfg.trace.generate(seed);
        let mut setup = fig8_setup(&trace, cfg.core_size, crowd_size);
        let m1 = setup.core.as_ref().expect("fig8 has a core").top_moderator;
        if let Some(crowd) = setup.crowd.as_mut() {
            crowd.demote = Some(m1);
        }
        let spam = NodeId::from_index(trace.peer_count());
        let protocol = ProtocolConfig {
            adaptive_t: adaptive,
            votes: rvs_core::VoteSamplingConfig {
                // Adaptive nodes must shed votes accepted while T was low.
                revalidate: adaptive.is_some(),
                ..cfg.protocol.votes
            },
            ..cfg.protocol
        };
        let mut system = System::new(trace, protocol, setup, seed);
        let mut series = TimeSeries::new(label);
        let end = SimTime::ZERO + cfg.duration;
        system.run_until(end, cfg.sample_every, |sys, now| {
            series.push(now, sys.new_node_pollution(spam));
        });
        let final_t = system
            .adaptive_thresholds()
            .map(|ts| {
                let n = system.trace_peer_count();
                ts[..n].iter().map(|a| a.t_mib).sum::<f64>() / n as f64
            })
            .unwrap_or(cfg.protocol.experience_t_mib);
        (series, final_t)
    };
    let (fixed, _) = run_variant(None, "fixed T");
    let (symmetric, _) = run_variant(
        Some(AdaptiveThreshold::symmetric(1.0)),
        "adaptive (symmetric)",
    );
    let (adaptive, final_t_mean_mib) =
        run_variant(Some(AdaptiveThreshold::default()), "adaptive (asym)");
    AdaptiveOutcome {
        fixed,
        symmetric,
        adaptive,
        final_t_mean_mib,
    }
}

/// The Figure 6 accuracy curve of `cfg`'s base seed under `protocol`.
fn fig6_curve(
    cfg: &VoteSamplingConfig,
    protocol: ProtocolConfig,
    label: impl Into<String>,
) -> TimeSeries {
    let cfg = VoteSamplingConfig {
        protocol,
        ..cfg.clone()
    };
    let (mut system, m) = cfg.system(cfg.base_seed, FaultSchedule::default());
    cfg.accuracy_curve(&mut system, &m, label)
}

/// A2 — one row of the `B_min`/`B_max` sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BallotParamRow {
    /// Bootstrap sample floor.
    pub b_min: usize,
    /// Ballot capacity in unique voters.
    pub b_max: usize,
    /// Final ordering accuracy.
    pub final_accuracy: f64,
    /// First sampled hour at which accuracy exceeded 0.5, if ever.
    pub hours_to_half: Option<f64>,
}

/// Run the A2 sweep on the Figure 6 scenario.
pub fn run_ballot_param_sweep(
    cfg: &VoteSamplingConfig,
    b_mins: &[usize],
    b_maxes: &[usize],
) -> Vec<BallotParamRow> {
    let combos: Vec<(usize, usize)> = b_mins
        .iter()
        .flat_map(|&lo| b_maxes.iter().map(move |&hi| (lo, hi)))
        .filter(|&(lo, hi)| lo <= hi)
        .collect();
    run_indexed(combos.len(), available_threads(), |c| {
        let (b_min, b_max) = combos[c];
        let protocol = ProtocolConfig {
            votes: rvs_core::VoteSamplingConfig {
                b_min,
                b_max,
                ..cfg.protocol.votes
            },
            ..cfg.protocol
        };
        let series = fig6_curve(cfg, protocol, format!("bmin={b_min} bmax={b_max}"));
        let final_accuracy = series.last().map(|s| s.value).unwrap_or(0.0);
        let hours_to_half = series
            .samples
            .iter()
            .find(|s| s.value > 0.5)
            .map(|s| s.time.as_hours_f64());
        BallotParamRow {
            b_min,
            b_max,
            final_accuracy,
            hours_to_half,
        }
    })
}

/// A3 — one row of the vote-list policy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The selection policy evaluated.
    pub policy: VoteListPolicy,
    /// Final ordering accuracy.
    pub final_accuracy: f64,
    /// Time-weighted mean accuracy over the whole run — the
    /// discriminating statistic once every policy eventually converges.
    pub mean_accuracy: f64,
}

/// Run the A3 policy comparison on the Figure 6 scenario.
pub fn run_policy_sweep(cfg: &VoteSamplingConfig) -> Vec<PolicyRow> {
    let policies = [
        VoteListPolicy::Recency,
        VoteListPolicy::Random,
        VoteListPolicy::RecencyAndRandom,
    ];
    run_indexed(policies.len(), available_threads(), |k| {
        let policy = policies[k];
        let protocol = ProtocolConfig {
            votes: rvs_core::VoteSamplingConfig {
                policy,
                ..cfg.protocol.votes
            },
            ..cfg.protocol
        };
        let series = fig6_curve(cfg, protocol, format!("{policy:?}"));
        PolicyRow {
            policy,
            final_accuracy: series.last().map(|s| s.value).unwrap_or(0.0),
            mean_accuracy: rvs_metrics::time_mean(&series),
        }
    })
}

/// A4 — one row of the sampling-vs-aggregation comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationRow {
    /// Fraction of lying nodes.
    pub liar_fraction: f64,
    /// Ground-truth support among honest nodes.
    pub truth: f64,
    /// What epidemic averaging converges to (honest-node mean).
    pub epidemic_estimate: f64,
    /// What a BallotBox-style uniform sample of `B_max` voters estimates.
    pub ballot_estimate: f64,
}

/// Run the A4 comparison: epidemic aggregation vs direct sampling under
/// lying minorities.
pub fn run_aggregation_comparison(
    n: usize,
    true_support: f64,
    liar_fractions: &[f64],
    rounds: usize,
    b_max: usize,
    seed: u64,
) -> Vec<AggregationRow> {
    liar_fractions
        .iter()
        .map(|&lf| {
            let mut rng = DetRng::new(seed).fork((lf * 1000.0) as u64);
            let n_liars = ((n as f64) * lf).round() as usize;
            let n_honest = n - n_liars;
            let n_support = ((n_honest as f64) * true_support).round() as usize;
            // Honest nodes 0..n_honest (first n_support support), liars at
            // the tail. Positions are irrelevant to both protocols.
            let initial: Vec<f64> = (0..n)
                .map(|i| if i < n_support { 1.0 } else { 0.0 })
                .collect();
            let liars: Vec<NodeId> = (n_honest..n).map(NodeId::from_index).collect();
            let mut epidemic = EpidemicAggregation::new(initial, liars.clone(), 1.0);
            epidemic.run(rounds, &mut rng);
            let epidemic_estimate = epidemic.honest_mean();

            // BallotBox analogue: one pollster samples b_max distinct
            // voters uniformly; liars contribute a positive vote each,
            // honest voters their true vote. One node, one vote.
            let sample = rng.sample_indices(n, b_max.min(n));
            let positive = sample
                .iter()
                .filter(|&&i| i >= n_honest || i < n_support)
                .count();
            let ballot_estimate = positive as f64 / sample.len() as f64;
            AggregationRow {
                liar_fraction: lf,
                truth: true_support,
                epidemic_estimate,
                ballot_estimate,
            }
        })
        .collect()
}

/// A5 — one row of the mole-attack leverage table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoleRow {
    /// KiB the mole genuinely uploaded to the victim.
    pub real_kib: u64,
    /// KiB each colluder claims to have uploaded to the mole.
    pub claimed_kib: u64,
    /// Largest apparent contribution of any single colluder.
    pub per_colluder_kib: u64,
    /// Summed apparent contribution of all colluders.
    pub total_kib: u64,
}

/// Run the A5 mole-leverage measurement for several genuine payments.
pub fn run_mole_leverage(real_kibs: &[u64], claimed_kib: u64, colluders: usize) -> Vec<MoleRow> {
    assert!(colluders >= 1);
    real_kibs
        .iter()
        .map(|&real_kib| {
            let victim = NodeId(0);
            let mole = NodeId(1);
            let ids: Vec<NodeId> = (2..2 + colluders as u32).map(NodeId).collect();
            let mut ledger = TransferLedger::new();
            ledger.credit(mole, victim, real_kib);
            let mut bc = BarterCast::new(2 + colluders, BarterCastConfig::default());
            bc.sync_own_records(victim, &ledger);
            let attack = MoleAttack::new(mole, ids, claimed_kib);
            attack.inject(&mut bc, victim);
            MoleRow {
                real_kib,
                claimed_kib,
                per_colluder_kib: attack.max_colluder_contribution_kib(&bc, victim),
                total_kib: attack.apparent_contribution_kib(&bc, victim),
            }
        })
        .collect()
}

/// A6 — VoxPopuli on/off: bootstrap speed (Figure 6 scenario accuracy
/// curves) with and without the bootstrap protocol.
pub fn run_voxpopuli_ablation(cfg: &VoteSamplingConfig) -> (TimeSeries, TimeSeries) {
    let variant = |vox_enabled: bool, label: &str| -> TimeSeries {
        let protocol = ProtocolConfig {
            vox_enabled,
            ..cfg.protocol
        };
        fig6_curve(cfg, protocol, label)
    };
    (
        variant(true, "VoxPopuli on"),
        variant(false, "VoxPopuli off"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::vote_sampling::tests::quick;

    #[test]
    fn aggregation_rows_show_lying_vulnerability() {
        let rows = run_aggregation_comparison(60, 0.2, &[0.0, 0.1], 150, 50, 3);
        assert_eq!(rows.len(), 2);
        let clean = rows[0];
        let attacked = rows[1];
        assert!((clean.epidemic_estimate - 0.2).abs() < 0.05);
        assert!(
            attacked.epidemic_estimate > 0.6,
            "10% liars should poison the epidemic average: {}",
            attacked.epidemic_estimate
        );
        // BallotBox sampling degrades only proportionally to the liar
        // share.
        assert!(
            (attacked.ballot_estimate - attacked.truth).abs() < 0.25,
            "sampling stays near truth: {}",
            attacked.ballot_estimate
        );
    }

    #[test]
    fn mole_rows_scale_with_real_payment() {
        let rows = run_mole_leverage(&[0, 1024, 4096], 1 << 30, 3);
        assert_eq!(rows[0].per_colluder_kib, 0);
        assert!(rows[1].per_colluder_kib <= 1024);
        assert!(rows[2].per_colluder_kib <= 4096);
        assert!(rows[2].per_colluder_kib >= rows[1].per_colluder_kib);
    }

    #[test]
    fn policy_sweep_produces_all_rows() {
        let cfg = quick(5);
        let rows = run_policy_sweep(&cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.final_accuracy));
        }
    }

    #[test]
    fn ballot_sweep_filters_invalid_combos() {
        let cfg = quick(6);
        let rows = run_ballot_param_sweep(&cfg, &[2, 50], &[10]);
        // (50, 10) is invalid (b_min > b_max) and filtered.
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].b_min, rows[0].b_max), (2, 10));
    }
}
