//! Integration tests of the security claims: who a flash crowd can and
//! cannot poison, and how the system recovers.

#[allow(dead_code)] // each suite uses only some of the shared fixtures
mod common;

use common::assert_clean_audit;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{ProtocolConfig, SpamAttackConfig, System};
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::TraceGenConfig;

/// The Fig 8 cast on 30 peers over 24 h: a core of 8 at `T` = 1 MiB.
fn attack_cfg() -> SpamAttackConfig {
    SpamAttackConfig {
        trace: TraceGenConfig::quick(30, SimDuration::from_hours(24)),
        ..SpamAttackConfig::quick(0)
    }
}

fn attack_system(crowd_size: usize, seed: u64) -> (System, NodeId, Vec<NodeId>) {
    let cfg = attack_cfg();
    let (mut system, spam) = cfg.system(seed, crowd_size, FaultSchedule::default());
    // The pre-seeded core is the first `core_size` arrivals.
    let core = system.trace().arrival_order()[..cfg.core_size].to_vec();
    system.enable_audit();
    (system, spam, core)
}

#[test]
fn experienced_core_is_never_polluted() {
    let (mut system, spam, core) = attack_system(16, 23);
    let mut core_clean = true;
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(2),
        |sys, _| {
            for &c in &core {
                if sys.display_ranking(c).first() == Some(&spam) {
                    core_clean = false;
                }
            }
        },
    );
    assert!(core_clean, "the flash crowd must never poison the core");
    assert_clean_audit(&system);
}

#[test]
fn crowd_votes_never_enter_honest_ballots() {
    let (mut system, _, _) = attack_system(16, 29);
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(24),
        |_, _| {},
    );
    let crowd: Vec<NodeId> = system.crowd().unwrap().members().collect();
    for i in 0..system.trace_peer_count() {
        let ballot = system.votes().ballot(NodeId::from_index(i));
        for (voter, _, _, _) in ballot.iter() {
            assert!(
                !crowd.contains(&voter),
                "crowd voter {voter} reached an honest ballot — zero-contribution \
                 identities must fail the experience function"
            );
        }
    }
    assert_clean_audit(&system);
}

#[test]
fn crowd_members_are_never_experienced() {
    let (mut system, _, _) = attack_system(12, 31);
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(24),
        |_, _| {},
    );
    let crowd: Vec<NodeId> = system.crowd().unwrap().members().collect();
    for i in 0..system.trace_peer_count() {
        for &c in &crowd {
            assert!(
                !system.experienced(NodeId::from_index(i), c),
                "crowd identity {c} appears experienced to node {i}"
            );
        }
    }
    assert_clean_audit(&system);
}

#[test]
fn pollution_eventually_recovers() {
    let (mut system, spam, _) = attack_system(16, 37);
    let mut series = Vec::new();
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(2),
        |sys, t| {
            series.push((t, sys.new_node_pollution(spam)));
        },
    );
    let peak = series.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    let final_v = series.last().unwrap().1;
    assert!(
        final_v <= peak,
        "pollution should not keep growing: peak {peak}, final {final_v}"
    );
    assert!(
        final_v < 0.5,
        "most nodes should have recovered by 24h, final pollution {final_v}"
    );
    assert_clean_audit(&system);
}

#[test]
fn disabling_voxpopuli_blocks_the_attack_entirely() {
    let quick = attack_cfg();
    let cfg = SpamAttackConfig {
        protocol: ProtocolConfig {
            vox_enabled: false,
            ..quick.protocol
        },
        ..quick
    };
    let (mut system, spam) = cfg.system(41, 16, FaultSchedule::default());
    system.enable_audit();
    let mut max_pollution = 0.0_f64;
    system.run_until(
        SimTime::from_hours(24),
        SimDuration::from_hours(2),
        |sys, _| {
            max_pollution = max_pollution.max(sys.new_node_pollution(spam));
        },
    );
    assert_eq!(
        max_pollution, 0.0,
        "without VoxPopuli the crowd has no channel into honest nodes"
    );
    assert_clean_audit(&system);
}
