//! Failure injection: the protocols must degrade gracefully, not break,
//! under lost encounters, gossip-PSS staleness, and network partitions.

#[allow(dead_code)] // each suite uses only some of the shared fixtures
mod common;

use common::assert_clean_audit;
use robust_vote_sampling::faults::{FaultSchedule, PartitionSpec};
use robust_vote_sampling::scenario::{ProtocolConfig, VoteSamplingConfig};
use rvs_sim::{NodeId, SimDuration, SimTime};

fn accuracy_with_loss(loss: f64, seed: u64) -> f64 {
    let quick = VoteSamplingConfig::quick(24, SimDuration::from_hours(36));
    let cfg = VoteSamplingConfig {
        protocol: ProtocolConfig {
            message_loss: loss,
            ..quick.protocol
        },
        ..quick
    };
    let (mut system, m) = cfg.system(seed, FaultSchedule::default());
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(36),
        SimDuration::from_hours(36),
        |_, _| {},
    );
    assert_clean_audit(&system);
    system.ordering_accuracy(&m)
}

#[test]
fn converges_despite_20_percent_message_loss() {
    let acc = accuracy_with_loss(0.2, 51);
    assert!(
        acc > 0.5,
        "gossip protocols must tolerate moderate loss, accuracy {acc}"
    );
}

#[test]
fn heavy_loss_slows_but_does_not_corrupt() {
    // At 70% loss the system is slower but must never rank incorrectly
    // *more* than it ranks correctly late in the run, and never crash.
    let acc = accuracy_with_loss(0.7, 53);
    assert!((0.0..=1.0).contains(&acc));
    // And the same run without loss should do at least as well.
    let clean = accuracy_with_loss(0.0, 53);
    assert!(
        clean >= acc - 0.15,
        "loss should not *help*: clean {clean} vs lossy {acc}"
    );
}

#[test]
fn total_loss_means_no_ballots_at_all() {
    let cfg = VoteSamplingConfig {
        protocol: ProtocolConfig {
            experience_t_mib: 0.0,
            message_loss: 1.0,
            ..ProtocolConfig::default()
        },
        positive_fraction: 0.3,
        negative_fraction: 0.3,
        ..VoteSamplingConfig::quick(16, SimDuration::from_hours(12))
    };
    let (mut system, _) = cfg.system(57, FaultSchedule::default());
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(12),
        SimDuration::from_hours(12),
        |_, _| {},
    );
    for i in 0..system.trace_peer_count() {
        assert!(system
            .votes()
            .ballot(rvs_sim::NodeId::from_index(i))
            .is_empty());
    }
    assert_clean_audit(&system);
}

#[test]
fn loss_injection_is_deterministic() {
    assert_eq!(accuracy_with_loss(0.3, 59), accuracy_with_loss(0.3, 59));
}

#[test]
fn split_brain_diverges_then_reconverges_after_heal() {
    // A 19-hour cut isolating a third of the population from the first
    // hour — before the moderations and votes have spread: rankings on
    // the cut side must fall behind the unpartitioned run while the cut
    // is up, then reconverge after heal — final accuracy within 0.05 of
    // the unpartitioned run, under a clean audit.
    let seed = 71;
    let hours = 36;
    let heal = SimTime::from_hours(20);
    let schedule = FaultSchedule {
        partitions: vec![PartitionSpec {
            name: "split-brain".into(),
            members: (0..8).map(NodeId::from_index).collect(),
            start: SimTime::from_hours(1),
            heal,
        }],
        ..FaultSchedule::default()
    };

    let run = |schedule: FaultSchedule| {
        let (mut system, m) = common::build(24, hours, seed, schedule);
        // Ordering accuracy at the last sample before the heal takes
        // effect. Both runs share a seed and trace, so samples land at
        // identical simulated instants — the mid-cut values compare the
        // two worlds at the same moment.
        let mut mid = 0.0;
        system.run_until(
            SimTime::from_hours(hours),
            SimDuration::from_hours(1),
            |sys, now| {
                if now <= heal {
                    mid = sys.ordering_accuracy(&m);
                }
            },
        );
        assert_clean_audit(&system);
        (mid, system.ordering_accuracy(&m), system)
    };

    let (clean_mid, clean_final, clean_sys) = run(FaultSchedule::default());
    let (part_mid, part_final, part_sys) = run(schedule);

    // The partition genuinely cut traffic (and only in the faulted run)...
    assert_eq!(clean_sys.fault_plane().counters().partitioned, 0);
    let cut = part_sys.fault_plane().counters().partitioned;
    assert!(cut > 0, "partition never dropped a cross-side encounter");
    assert!(
        !part_sys.fault_plane().partitioned(NodeId(0), NodeId(20)),
        "partition must be healed by the end of the run"
    );
    // ...and rankings diverged while it was up: the partitioned run's
    // mid-cut accuracy trails the unpartitioned run's at the same moment.
    assert!(
        part_mid < clean_mid,
        "split-brain should slow convergence: partitioned {part_mid} vs clean {clean_mid}"
    );
    // ...then healed: the gap closes to within 0.05 by the end of the run.
    assert!(
        (clean_final - part_final).abs() <= 0.05,
        "after heal the rankings must reconverge: clean {clean_final} vs partitioned {part_final}"
    );
}

#[test]
fn churn_with_stale_pss_conserves_every_encounter() {
    // Gossip PSS + 30% message loss: views go stale, partners churn
    // offline, sends get dropped. The telemetry must account for every
    // initiated encounter exactly once, and message loss must actually
    // trigger (the loss knob is real, not dead configuration).
    let quick = VoteSamplingConfig::quick(24, SimDuration::from_hours(30));
    let cfg = VoteSamplingConfig {
        protocol: ProtocolConfig {
            message_loss: 0.3,
            use_newscast_pss: true,
            ..quick.protocol
        },
        ..quick
    };
    let (mut system, _) = cfg.system(61, FaultSchedule::default());
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(30),
        SimDuration::from_hours(30),
        |_, _| {},
    );
    assert_clean_audit(&system);

    let snap = system.telemetry_snapshot();
    let e = &snap.encounters;
    assert!(e.attempted > 0, "no encounters were ever attempted");
    assert_eq!(
        e.attempted,
        e.delivered + snap.total_dropped(),
        "conservation: every attempt is delivered or dropped exactly once: {e:?}"
    );
    assert!(
        e.dropped_message_loss > 0,
        "30% loss over 30h must drop at least one encounter"
    );
    assert!(
        snap.pss.exchanges > 0,
        "the gossip PSS must have completed exchanges"
    );
}
