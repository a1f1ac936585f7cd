//! End-to-end integration: the full protocol stack on synthetic traces.

#[expect(dead_code, reason = "each suite uses only some of the shared fixtures")]
mod common;

use common::assert_clean_audit;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{ProtocolConfig, ScenarioSetup, System, VoteSamplingConfig};
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::TraceGenConfig;

fn quick_protocol() -> ProtocolConfig {
    ProtocolConfig {
        experience_t_mib: 1.0,
        ..ProtocolConfig::default()
    }
}

#[test]
fn population_converges_on_correct_ordering() {
    let (mut system, m) = common::build(24, 36, 11, FaultSchedule::default());
    system.run_until(
        SimTime::from_hours(36),
        SimDuration::from_hours(36),
        |_, _| {},
    );
    let acc = system.ordering_accuracy(&m);
    assert!(acc > 0.6, "population should converge, accuracy {acc}");
    assert_clean_audit(&system);
}

#[test]
fn full_system_run_is_deterministic() {
    let run = || {
        let (mut system, m) = common::build(16, 12, 3, FaultSchedule::default());
        let mut curve = Vec::new();
        system.run_until(
            SimTime::from_hours(12),
            SimDuration::from_hours(2),
            |sys, t| {
                curve.push((t, sys.ordering_accuracy(&m)));
            },
        );
        assert_clean_audit(&system);
        (curve, system.net().ledger().total_kib())
    };
    assert_eq!(run(), run());
}

#[test]
fn experience_requires_contribution() {
    let trace = TraceGenConfig::quick(16, SimDuration::from_hours(12)).generate(5);
    let mut system = System::new(trace, quick_protocol(), ScenarioSetup::default(), 5);
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(12),
        SimDuration::from_hours(12),
        |_, _| {},
    );
    let n = system.trace_peer_count();
    // Experience must follow actual BarterCast contributions: E_i(j) holds
    // exactly when f_{j→i} >= T.
    let mut experienced_pairs = 0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (ni, nj) = (NodeId::from_index(i), NodeId::from_index(j));
            let e = system.experienced(ni, nj);
            let f = system.contribution_mib(ni, nj);
            assert_eq!(e, f >= 1.0, "E_{{{i}}}({j}) inconsistent with f={f}");
            if e {
                experienced_pairs += 1;
            }
        }
    }
    assert!(
        experienced_pairs > 0,
        "after 12h of swarming some experience must exist"
    );
    assert_clean_audit(&system);
}

#[test]
fn cev_matches_manual_computation() {
    let trace = TraceGenConfig::quick(12, SimDuration::from_hours(8)).generate(7);
    let mut system = System::new(trace, quick_protocol(), ScenarioSetup::default(), 7);
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(8),
        SimDuration::from_hours(8),
        |_, _| {},
    );
    let n = system.trace_peer_count();
    let t = 1.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i != j && system.contribution_mib(NodeId::from_index(i), NodeId::from_index(j)) >= t
            {
                count += 1;
            }
        }
    }
    let expected = count as f64 / (n * (n - 1)) as f64;
    assert!((system.cev(t) - expected).abs() < 1e-12);
    assert_clean_audit(&system);
}

#[test]
fn moderations_disseminate_through_full_stack() {
    let (mut system, m) = common::build(20, 24, 13, FaultSchedule::default());
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(24),
        |_, _| {},
    );
    // M1's moderation is approved by voters and must spread widely; the
    // unvoted M2 spreads only via direct contact but should reach someone.
    let c1 = system.modcast().coverage(m[0]);
    let c2 = system.modcast().coverage(m[1]);
    assert!(
        c1 >= c2,
        "approved moderator at least as covered: {c1} vs {c2}"
    );
    assert!(c1 > 5, "M1 coverage too small: {c1}");
    assert!(c2 >= 1);
    assert_clean_audit(&system);
}

#[test]
fn vote_lists_flow_into_ballots_only_via_experience() {
    let cfg = VoteSamplingConfig {
        // Impossibly high threshold: no node can ever be experienced.
        protocol: ProtocolConfig {
            experience_t_mib: 1e12,
            ..ProtocolConfig::default()
        },
        positive_fraction: 0.3,
        negative_fraction: 0.0,
        ..VoteSamplingConfig::quick(20, SimDuration::from_hours(18))
    };
    let (mut system, _) = cfg.system(17, FaultSchedule::default());
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(18),
        SimDuration::from_hours(18),
        |_, _| {},
    );
    for i in 0..system.trace_peer_count() {
        assert!(
            system.votes().ballot(NodeId::from_index(i)).is_empty(),
            "node {i} accepted votes despite an unreachable threshold"
        );
    }
    assert_clean_audit(&system);
}

#[test]
fn newscast_pss_variant_also_converges() {
    let cfg = VoteSamplingConfig {
        protocol: ProtocolConfig {
            use_newscast_pss: true,
            ..quick_protocol()
        },
        positive_fraction: 0.3,
        negative_fraction: 0.3,
        ..VoteSamplingConfig::quick(20, SimDuration::from_hours(36))
    };
    let (mut system, m) = cfg.system(19, FaultSchedule::default());
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(36),
        SimDuration::from_hours(36),
        |_, _| {},
    );
    let acc = system.ordering_accuracy(&m);
    assert!(
        acc > 0.4,
        "gossip PSS should still allow convergence, accuracy {acc}"
    );
    assert_clean_audit(&system);
}
