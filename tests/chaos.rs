//! Chaos suite: the full stack under the fault-injection plane.
//!
//! The acceptance scenario combines 30% burst loss, 2× mean-latency
//! jitter, 5% duplication, one 4-hour partition, and 3 crash-restarts.
//! Every run must finish with a clean audit (no double-applied votes, no
//! delivery across an active partition, exact conservation) and still
//! converge; the same seed must replay to byte-identical telemetry.

#[expect(dead_code, reason = "each suite uses only some of the shared fixtures")]
mod common;

use common::{assert_clean_audit, assert_conserved, fingerprint};
use proptest::prelude::*;
use robust_vote_sampling::faults::{
    BurstLoss, CrashSpec, FaultConfig, FaultSchedule, PartitionSpec, RetryConfig,
};
use robust_vote_sampling::guard::GuardConfig;
use robust_vote_sampling::scenario::checkpoint::{arm_byzantine, churn_schedule};
use robust_vote_sampling::scenario::System;
use rvs_sim::{NodeId, SimDuration, SimTime};

/// Fixed seeds the chaos cases sweep.
const SEEDS: [u64; 3] = [101, 202, 303];

/// The acceptance-criteria schedule: 30% burst loss (mean burst 8
/// messages), latency jittering up to 2× the 5 s mean, 5% duplication,
/// one 4-hour partition over a third of the population, 3 crash-restarts,
/// and retry/backoff enabled so degradation is graceful.
fn chaos_schedule() -> FaultSchedule {
    FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            jitter_spread: 1.0,
            loss: 0.0,
            duplicate: 0.05,
            burst: Some(BurstLoss::with_overall_loss(0.3, 8.0)),
            retry: Some(RetryConfig::default()),
        },
        partitions: vec![PartitionSpec {
            name: "split".into(),
            members: (0..8).map(NodeId::from_index).collect(),
            start: SimTime::from_hours(6),
            heal: SimTime::from_hours(10),
        }],
        crashes: vec![
            CrashSpec {
                node: NodeId::from_index(3),
                at: SimTime::from_hours(8),
            },
            CrashSpec {
                node: NodeId::from_index(11),
                at: SimTime::from_hours(15),
            },
            CrashSpec {
                node: NodeId::from_index(17),
                at: SimTime::from_hours(22),
            },
        ],
    }
}

/// Run the fig6 scenario (24 peers) under `schedule` for `hours`, fully
/// audited, once `setup` has configured the system (worker count, guard,
/// adversaries).
fn chaos_run(
    seed: u64,
    hours: u64,
    schedule: FaultSchedule,
    setup: impl FnOnce(&mut System),
) -> (System, f64) {
    let (mut system, m) = common::build(24, hours, seed, schedule);
    setup(&mut system);
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours(hours),
        |_, _| {},
    );
    let acc = system.ordering_accuracy(&m);
    (system, acc)
}

#[test]
fn acceptance_schedule_survives_all_seeds() {
    for seed in SEEDS {
        let (system, acc) = chaos_run(seed, 36, chaos_schedule(), |_| {});
        assert_clean_audit(&system);
        assert!(
            acc > 0.5,
            "seed {seed}: ordering accuracy {acc} <= 0.5 under chaos"
        );

        let snap = system.telemetry_snapshot();
        let f = &snap.faults;
        assert_eq!(f.crash_restarts, 3, "seed {seed}: all crashes must fire");
        assert!(f.delayed > 0, "seed {seed}: latency fault never engaged");
        assert!(f.dropped_burst > 0, "seed {seed}: burst loss never engaged");
        assert!(f.duplicated > 0, "seed {seed}: duplication never engaged");
        assert!(
            f.dedup_suppressed > 0,
            "seed {seed}: no duplicate was ever suppressed — dedup untested"
        );
        assert!(
            f.partitioned > 0,
            "seed {seed}: partition never cut traffic"
        );
        assert!(f.retries > 0, "seed {seed}: retry path never engaged");
        assert!(f.reordered > 0, "seed {seed}: jitter never reordered sends");

        // No guard is armed, so the identity's inbox term must be zero.
        assert_eq!(snap.guard.inbox_dropped, 0, "seed {seed}: inbox drops");
        assert_conserved(&system);
    }
}

#[test]
fn acceptance_schedule_is_thread_count_invariant() {
    // The full acceptance fault soup — burst loss, jitter reordering,
    // duplication, a partition, crash-restarts, retries — at 1 worker vs
    // 4 workers: the same fingerprint, bit-identical accuracy.
    let seed = SEEDS[0];
    let (serial, acc_1) = chaos_run(seed, 36, chaos_schedule(), |s| s.set_threads(1));
    let (sharded, acc_4) = chaos_run(seed, 36, chaos_schedule(), |s| s.set_threads(4));
    assert_clean_audit(&serial);
    assert_clean_audit(&sharded);
    assert_eq!(
        acc_1.to_bits(),
        acc_4.to_bits(),
        "accuracy diverged across thread counts"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&sharded),
        "fingerprint diverged across thread counts under the acceptance schedule"
    );
}

#[test]
fn chaos_replays_byte_identical() {
    for seed in SEEDS {
        let (a, acc_a) = chaos_run(seed, 36, chaos_schedule(), |_| {});
        let (b, acc_b) = chaos_run(seed, 36, chaos_schedule(), |_| {});
        assert_eq!(acc_a, acc_b, "seed {seed}: accuracy diverged on replay");
        assert_eq!(
            a.telemetry_snapshot().counters_only().to_json_compact(),
            b.telemetry_snapshot().counters_only().to_json_compact(),
            "seed {seed}: telemetry diverged on replay"
        );
    }
}

#[test]
fn fault_free_schedule_matches_plain_system_byte_for_byte() {
    // The fault plane must be invisible when inert: same seed, with and
    // without the (empty) schedule, produces identical telemetry.
    let [plain, inert] = [FaultSchedule::default(), FaultSchedule::inert()].map(|schedule| {
        let (mut system, _) = common::build(16, 12, 17, schedule);
        system.run_until(
            SimTime::from_hours(12),
            SimDuration::from_hours(12),
            |_, _| {},
        );
        assert_clean_audit(&system);
        system
    });
    assert_eq!(
        plain.telemetry_snapshot().counters_only().to_json_compact(),
        inert.telemetry_snapshot().counters_only().to_json_compact(),
        "an inert fault plane must not change behaviour"
    );
    assert_eq!(plain.telemetry_snapshot().faults.total(), 0);
}

#[test]
fn schedule_json_drives_the_same_run() {
    // The CLI path: a schedule serialized to JSON and parsed back drives
    // an identical run (what `rvs run --faults FILE` relies on).
    let parsed = FaultSchedule::from_json(&chaos_schedule().to_json()).expect("roundtrip");
    assert_eq!(parsed, chaos_schedule());
    let (a, acc_a) = chaos_run(7, 12, chaos_schedule(), |_| {});
    let (b, acc_b) = chaos_run(7, 12, parsed, |_| {});
    assert_eq!(acc_a, acc_b);
    assert_eq!(
        a.telemetry_snapshot().counters_only().to_json_compact(),
        b.telemetry_snapshot().counters_only().to_json_compact()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seeded schedule: the run completes without panicking, the
    /// auditor stays clean, and a replay is byte-identical.
    #[test]
    fn any_seeded_schedule_is_safe_and_replayable(seed in any::<u64>()) {
        let schedule = FaultSchedule::random(seed, 12, SimDuration::from_hours(6));
        schedule.validate().expect("random schedules validate");
        let (a, acc_a) = chaos_run(seed, 6, schedule.clone(), |_| {});
        assert_clean_audit(&a);
        prop_assert!((0.0..=1.0).contains(&acc_a));
        let (b, acc_b) = chaos_run(seed, 6, schedule, |_| {});
        prop_assert_eq!(acc_a, acc_b);
        prop_assert_eq!(
            a.telemetry_snapshot().counters_only().to_json_compact(),
            b.telemetry_snapshot().counters_only().to_json_compact()
        );
    }
}

/// The acceptance attack run on `threads` workers: >20% of the population
/// floods (5 of 24 peers at 12 extra sends per round) into an inbox capped
/// at 8, the wire mutates 10% of guarded sub-messages, all stacked on top
/// of the full chaos fault soup; `tune` adjusts the armed system last.
fn byzantine_run(
    seed: u64,
    hours: u64,
    threads: usize,
    tune: impl FnOnce(&mut System),
) -> (System, f64) {
    chaos_run(seed, hours, chaos_schedule(), |system| {
        system.set_threads(threads);
        arm_byzantine(system, 5, 12);
        tune(system);
    })
}

#[test]
fn byzantine_schedule_survives_with_typed_attribution() {
    for seed in SEEDS {
        let (system, acc) = byzantine_run(seed, 36, 1, |_| {});
        assert_clean_audit(&system);

        let snap = system.telemetry_snapshot();
        let g = &snap.guard;
        // The adversaries actually fired...
        assert!(g.flooder_sends > 0, "seed {seed}: flooder never sent");
        assert!(
            g.malformer_mutations > 0,
            "seed {seed}: malformer never mutated"
        );
        // ...and every defense layer pushed back with a typed reason.
        assert!(
            g.rejected_rate_limited > 0,
            "seed {seed}: token buckets never engaged"
        );
        assert!(
            g.quarantines_started > 0,
            "seed {seed}: no flooder was ever quarantined"
        );
        assert!(
            g.rejected_quarantined > 0,
            "seed {seed}: quarantine never refused traffic"
        );
        assert!(
            g.quarantines_released > 0,
            "seed {seed}: capped quarantines must eventually release"
        );
        let structural = g.rejected_list_too_long
            + g.rejected_duplicate_entry
            + g.rejected_future_timestamp
            + g.rejected_stale_timestamp
            + g.rejected_bad_signature
            + g.rejected_invalid_node
            + g.rejected_self_reference
            + g.rejected_hearsay_record
            + g.rejected_oversized
            + g.rejected_malformed;
        assert!(
            structural > 0,
            "seed {seed}: wire mutation never tripped a structural gate"
        );
        assert!(g.accepted > 0, "seed {seed}: honest traffic starved");
        assert!(
            g.inbox_dropped > 0,
            "seed {seed}: bounded inbox never engaged under flood"
        );
        assert!(
            system.max_seen_window() <= GuardConfig::default().seen_window as usize,
            "seed {seed}: dedup window exceeded its cap"
        );
        // Conservation, extended with the guard's inbox drops.
        assert_conserved(&system);

        // The honest ranking survives the attack: absolute convergence
        // holds and the attacked run stays within one rank-pair swap of
        // the attack-free baseline under the same guard.
        let guard = *system.guard().config();
        let (_, baseline) = chaos_run(seed, 36, chaos_schedule(), |s| {
            s.set_threads(1);
            s.set_guard_config(guard);
        });
        assert!(
            acc > 0.5,
            "seed {seed}: ordering accuracy {acc} <= 0.5 under attack"
        );
        assert!(
            acc >= baseline - 0.34,
            "seed {seed}: attack degraded accuracy {baseline} -> {acc}"
        );
    }
}

#[test]
fn byzantine_schedule_is_thread_count_invariant() {
    // Flood + wire mutation + the full fault soup at 1 worker vs 4
    // workers: the same fingerprint (including every typed guard
    // counter), bit-identical accuracy.
    let seed = SEEDS[0];
    let (serial, acc_1) = byzantine_run(seed, 36, 1, |_| {});
    let (sharded, acc_4) = byzantine_run(seed, 36, 4, |_| {});
    assert_clean_audit(&serial);
    assert_clean_audit(&sharded);
    assert_eq!(
        acc_1.to_bits(),
        acc_4.to_bits(),
        "accuracy diverged across thread counts under attack"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&sharded),
        "fingerprint diverged across thread counts under the byzantine schedule"
    );
}

#[test]
fn byzantine_armed_guard_is_transparent_to_honest_traffic() {
    // The licence for the single encounter path, kept as a property: a
    // guard that is armed but never has cause to refuse (budgets and
    // inbox no honest peer can exhaust) changes nothing the run observes
    // — so the gate in front of the exchange is the only difference
    // between an armed and a disarmed encounter.
    let roomy = GuardConfig {
        bucket_capacity: 1 << 20,
        bucket_refill: 1 << 20,
        inbox_cap: u32::MAX,
        ..GuardConfig::active()
    };
    let honest_run =
        |seed, schedule, guard| chaos_run(seed, 12, schedule, |s| s.set_guard_config(guard)).0;
    for seed in 1..=3 {
        for schedule in [FaultSchedule::inert(), churn_schedule()] {
            let armed = honest_run(seed, schedule.clone(), roomy);
            let disarmed = honest_run(seed, schedule, GuardConfig::default());
            assert_clean_audit(&armed);
            assert_clean_audit(&disarmed);

            let g = armed.telemetry_snapshot().guard;
            assert!(g.accepted > 0, "seed {seed}: the armed gate saw no traffic");
            assert_eq!(
                g.total(),
                g.accepted,
                "seed {seed}: the armed guard refused or struck honest traffic: {g:?}"
            );

            let modulo_guard = |s: &System| {
                let mut snap = s.telemetry_snapshot().counters_only();
                snap.guard = Default::default();
                snap.to_json_compact()
            };
            assert_eq!(
                modulo_guard(&armed),
                modulo_guard(&disarmed),
                "seed {seed}: arming the guard changed honest telemetry"
            );
            for idx in 0..armed.total_nodes() {
                let peer = NodeId::from_index(idx);
                assert_eq!(
                    armed.display_ranking(peer),
                    disarmed.display_ranking(peer),
                    "seed {seed}: arming the guard changed {peer}'s ranking"
                );
            }
            assert_eq!(armed.in_flight(), disarmed.in_flight());
        }
    }
}

#[test]
fn flooded_dedup_windows_stay_bounded() {
    // Satellite regression: a deliberately tiny dedup window under flood
    // and 5% duplication stays at its cap, keeps suppressing duplicates,
    // and replays byte-identically.
    let seed = SEEDS[1];
    let tiny = |s: &mut System| {
        let guard = GuardConfig {
            seen_window: 32,
            ..*s.guard().config()
        };
        s.set_guard_config(guard);
    };
    let (a, acc_a) = byzantine_run(seed, 12, 1, tiny);
    assert_clean_audit(&a);
    assert!(
        a.max_seen_window() <= 32,
        "dedup window exceeded the configured cap"
    );
    let f = a.telemetry_snapshot().faults;
    assert!(f.duplicated > 0, "duplication fault never engaged");
    assert!(
        f.dedup_suppressed > 0,
        "eviction broke duplicate suppression entirely"
    );
    let (b, acc_b) = byzantine_run(seed, 12, 1, tiny);
    assert_eq!(acc_a, acc_b, "bounded-window run diverged on replay");
    assert_eq!(
        a.telemetry_snapshot().counters_only().to_json_compact(),
        b.telemetry_snapshot().counters_only().to_json_compact()
    );
}
