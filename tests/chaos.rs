//! Chaos suite: the full stack under the fault-injection plane.
//!
//! The acceptance scenario combines 30% burst loss, 2× mean-latency
//! jitter, 5% duplication, one 4-hour partition, and 3 crash-restarts.
//! Every run must finish with a clean audit (no double-applied votes, no
//! delivery across an active partition, exact conservation) and still
//! converge; the same seed must replay to byte-identical telemetry.

use proptest::prelude::*;
use robust_vote_sampling::attacks::{Flooder, Malformer};
use robust_vote_sampling::faults::{
    BurstLoss, CrashSpec, FaultConfig, FaultSchedule, PartitionSpec, RetryConfig,
};
use robust_vote_sampling::guard::GuardConfig;
use robust_vote_sampling::scenario::{System, VoteSamplingConfig};
use rvs_sim::{NodeId, SimDuration, SimTime};

/// Fixed seeds the CI chaos job sweeps.
const SEEDS: [u64; 3] = [101, 202, 303];

/// Assert the run's invariant auditor saw checks and no violations.
fn assert_clean_audit(system: &System) {
    let auditor = system.auditor().expect("audit enabled");
    assert!(auditor.checks() > 0, "auditor performed no checks");
    assert_eq!(
        system.audit_violations(),
        &[] as &[String],
        "invariant violations detected"
    );
}

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

/// Run the fig6 scenario under `schedule` for `hours`, fully audited.
fn chaos_run(seed: u64, hours: u64, schedule: FaultSchedule) -> (System, f64) {
    let (mut system, m) =
        VoteSamplingConfig::quick(24, SimDuration::from_hours(hours)).system(seed, schedule);
    system.enable_audit();
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
        let (system, acc) = chaos_run(seed, 36, chaos_schedule());
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

        // Fault-aware conservation, re-checked from the outside: every
        // attempt delivered, dropped for an attributed reason, or still
        // in flight at the end of the run.
        let e = &snap.encounters;
        assert_eq!(
            e.attempted,
            e.delivered
                + snap.total_dropped()
                + f.dropped_burst
                + f.partitioned
                + f.dropped_expired
                + system.in_flight(),
            "seed {seed}: conservation identity broken: {e:?} / {f:?}"
        );
    }
}

/// `chaos_run`, pinned to an explicit worker count.
fn chaos_run_threads(
    seed: u64,
    hours: u64,
    schedule: FaultSchedule,
    threads: usize,
) -> (System, f64) {
    let (mut system, m) =
        VoteSamplingConfig::quick(24, SimDuration::from_hours(hours)).system(seed, schedule);
    system.set_threads(threads);
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours(hours),
        |_, _| {},
    );
    let acc = system.ordering_accuracy(&m);
    (system, acc)
}

#[test]
fn acceptance_schedule_is_thread_count_invariant() {
    // The full acceptance fault soup — burst loss, jitter reordering,
    // duplication, a partition, crash-restarts, retries — at 1 worker vs
    // 4 workers: byte-identical telemetry, bit-identical accuracy.
    let seed = SEEDS[0];
    let (serial, acc_1) = chaos_run_threads(seed, 36, chaos_schedule(), 1);
    let (sharded, acc_4) = chaos_run_threads(seed, 36, chaos_schedule(), 4);
    assert_clean_audit(&serial);
    assert_clean_audit(&sharded);
    assert_eq!(
        acc_1.to_bits(),
        acc_4.to_bits(),
        "accuracy diverged across thread counts"
    );
    assert_eq!(
        serial
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        sharded
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        "telemetry diverged across thread counts under the acceptance schedule"
    );
    assert_eq!(serial.in_flight(), sharded.in_flight());
}

#[test]
fn chaos_replays_byte_identical() {
    for seed in SEEDS {
        let (a, acc_a) = chaos_run(seed, 36, chaos_schedule());
        let (b, acc_b) = chaos_run(seed, 36, chaos_schedule());
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
    let seed = 17;
    let cfg = VoteSamplingConfig::quick(16, SimDuration::from_hours(12));
    let (mut plain, _) = cfg.system(seed, FaultSchedule::default());
    let (mut inert, _) = cfg.system(seed, FaultSchedule::inert());
    for system in [&mut plain, &mut inert] {
        system.enable_audit();
        system.run_until(
            SimTime::from_hours(12),
            SimDuration::from_hours(12),
            |_, _| {},
        );
        assert_clean_audit(system);
    }
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
    let (a, acc_a) = chaos_run(7, 12, chaos_schedule());
    let (b, acc_b) = chaos_run(7, 12, parsed);
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
        let (a, acc_a) = chaos_run(seed, 6, schedule.clone());
        assert_clean_audit(&a);
        prop_assert!((0.0..=1.0).contains(&acc_a));
        let (b, acc_b) = chaos_run(seed, 6, schedule);
        prop_assert_eq!(acc_a, acc_b);
        prop_assert_eq!(
            a.telemetry_snapshot().counters_only().to_json_compact(),
            b.telemetry_snapshot().counters_only().to_json_compact()
        );
    }
}

/// Guard preset for the byzantine scenario: active defaults with a
/// deliberately small inbox so flood pressure exercises the bounded-inbox
/// drop policy, not just the token buckets.
fn byzantine_guard() -> GuardConfig {
    GuardConfig {
        inbox_cap: 8,
        ..GuardConfig::active()
    }
}

/// The acceptance attack run: >20% of the population floods (5 of 24
/// peers at 12 extra sends per round), the wire mutates 10% of guarded
/// sub-messages, all stacked on top of the full chaos fault soup.
fn byzantine_run(
    seed: u64,
    hours: u64,
    threads: usize,
    attack: bool,
    guard: GuardConfig,
) -> (System, f64) {
    let (mut system, m) = VoteSamplingConfig::quick(24, SimDuration::from_hours(hours))
        .system(seed, chaos_schedule());
    system.set_threads(threads);
    system.set_guard_config(guard);
    if attack {
        system.set_flooder(Flooder::new((19..24).map(NodeId::from_index), 12));
        system.set_malformer(Malformer::new(100));
    }
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours(hours),
        |_, _| {},
    );
    let acc = system.ordering_accuracy(&m);
    (system, acc)
}

#[test]
fn byzantine_schedule_survives_with_typed_attribution() {
    for seed in SEEDS {
        let (system, acc) = byzantine_run(seed, 36, 1, true, byzantine_guard());
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

        // Conservation, extended with the guard's inbox drops: every
        // attempt (honest or flood) delivered, dropped for an attributed
        // reason, or still in flight.
        let e = &snap.encounters;
        let f = &snap.faults;
        assert_eq!(
            e.attempted,
            e.delivered
                + snap.total_dropped()
                + f.dropped_burst
                + f.partitioned
                + f.dropped_expired
                + g.inbox_dropped
                + system.in_flight(),
            "seed {seed}: conservation identity broken under attack: {e:?} / {g:?}"
        );

        // The honest ranking survives the attack: absolute convergence
        // holds and the attacked run stays within one rank-pair swap of
        // the attack-free guarded baseline.
        let (_, baseline) = byzantine_run(seed, 36, 1, false, byzantine_guard());
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
    // workers: byte-identical telemetry (including every typed guard
    // counter), bit-identical accuracy.
    let seed = SEEDS[0];
    let (serial, acc_1) = byzantine_run(seed, 36, 1, true, byzantine_guard());
    let (sharded, acc_4) = byzantine_run(seed, 36, 4, true, byzantine_guard());
    assert_clean_audit(&serial);
    assert_clean_audit(&sharded);
    assert_eq!(
        acc_1.to_bits(),
        acc_4.to_bits(),
        "accuracy diverged across thread counts under attack"
    );
    assert_eq!(
        serial
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        sharded
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        "telemetry diverged across thread counts under the byzantine schedule"
    );
    assert_eq!(serial.in_flight(), sharded.in_flight());
}

/// The fig6 cast, 24 peers × 12 h, audited, under `schedule` and `guard`
/// with no adversary.
fn honest_run(seed: u64, schedule: FaultSchedule, guard: GuardConfig) -> System {
    let (mut system, _) =
        VoteSamplingConfig::quick(24, SimDuration::from_hours(12)).system(seed, schedule);
    system.set_guard_config(guard);
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(12),
        SimDuration::from_hours(12),
        |_, _| {},
    );
    system
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
    let lossy = FaultSchedule {
        config: FaultConfig {
            loss: 0.15,
            retry: Some(RetryConfig::default()),
            ..FaultConfig::default()
        },
        ..FaultSchedule::inert()
    };
    for seed in 1..=3 {
        for schedule in [FaultSchedule::inert(), lossy.clone()] {
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
    let tiny = GuardConfig {
        seen_window: 32,
        ..byzantine_guard()
    };
    let (a, acc_a) = byzantine_run(seed, 12, 1, true, tiny);
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
    let (b, acc_b) = byzantine_run(seed, 12, 1, true, tiny);
    assert_eq!(acc_a, acc_b, "bounded-window run diverged on replay");
    assert_eq!(
        a.telemetry_snapshot().counters_only().to_json_compact(),
        b.telemetry_snapshot().counters_only().to_json_compact()
    );
}
