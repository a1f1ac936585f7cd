//! Differential proof that the round engine is byte-identical at every
//! thread count.
//!
//! Each scenario runs once at 1 thread (the zero-worker inline path) and
//! again at 2, 4, and 8 threads, through the full stack: trace replay,
//! BitTorrent windows sharded per swarm over the pool, the serial gossip
//! round, BarterCast, ModerationCast, vote sampling, and — in the churn
//! and chaos variants — the fault-injection plane with retry/backoff.
//! The runs must agree on a fingerprint that captures every observable
//! the system exposes:
//!
//! * the full telemetry counter snapshot (compact JSON bytes),
//! * every node's displayed moderator ranking and ballot voter count,
//! * the exact `f64::to_bits` pattern of every pairwise subjective
//!   contribution (no epsilon: reputation must match to the last bit),
//! * the ground-truth transfer ledger total and the in-flight count.
//!
//! Any scheduling leak — a shared RNG stream keyed by thread instead of
//! peer, a merge order that depends on completion order, a counter
//! incremented off the canonical path — shows up here as a byte diff.

use robust_vote_sampling::faults::{
    BurstLoss, CrashSpec, FaultConfig, FaultSchedule, PartitionSpec, RetryConfig,
};
use robust_vote_sampling::scenario::experiments::vote_sampling::fig6_setup;
use robust_vote_sampling::scenario::{ProtocolConfig, System};
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::TraceGenConfig;
use std::fmt::Write as _;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Everything observable about a finished run, as comparable text.
fn fingerprint(system: &System) -> String {
    let mut out = String::new();
    out.push_str(
        &system
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
    );
    out.push('\n');
    let n = system.trace_peer_count();
    for i in 0..n {
        let node = NodeId::from_index(i);
        let _ = writeln!(
            out,
            "{node} ranking={:?} voters={}",
            system.display_ranking(node),
            system.votes().ballot(node).unique_voters()
        );
    }
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let c = system.contribution_mib(NodeId::from_index(i), NodeId::from_index(j));
            if c != 0.0 {
                let _ = writeln!(out, "contrib {i}->{j} bits={:016x}", c.to_bits());
            }
        }
    }
    let _ = writeln!(
        out,
        "ledger_kib={} in_flight={}",
        system.net().ledger().total_kib(),
        system.in_flight()
    );
    out
}

/// Run the fig6 scenario under `schedule` with `threads` workers, fully
/// audited, sampling the observer mid-run so window materialization at
/// observer boundaries is exercised too.
fn run(peers: usize, hours: u64, seed: u64, schedule: FaultSchedule, threads: usize) -> String {
    let trace = TraceGenConfig::quick(peers, SimDuration::from_hours(hours)).generate(seed);
    let (setup, m) = fig6_setup(&trace, 0.25, 0.25, seed);
    let protocol = ProtocolConfig {
        experience_t_mib: 1.0,
        ..ProtocolConfig::default()
    };
    let mut system = System::with_faults(trace, protocol, setup, seed, schedule);
    system.set_threads(threads);
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours((hours / 3).max(1)),
        |_, _| {},
    );
    assert_eq!(
        system.audit_violations(),
        &[] as &[String],
        "invariant violations at {threads} threads (seed {seed})"
    );
    let acc = system.ordering_accuracy(&m);
    format!("accuracy={}\n{}", acc.to_bits(), fingerprint(&system))
}

/// Assert the serial twin and every parallel twin produce the same bytes.
fn assert_thread_invariant(
    label: &str,
    peers: usize,
    hours: u64,
    seeds: &[u64],
    mk: fn() -> FaultSchedule,
) {
    for &seed in seeds {
        let serial = run(peers, hours, seed, mk(), 1);
        for threads in THREAD_COUNTS {
            let parallel = run(peers, hours, seed, mk(), threads);
            assert_eq!(
                serial, parallel,
                "{label}: seed {seed} diverged at {threads} threads"
            );
        }
    }
}

/// A mid-strength schedule exercising loss + retry/backoff (backoff
/// resends interleaved with the round sends).
fn churn_schedule() -> FaultSchedule {
    FaultSchedule {
        config: FaultConfig {
            loss: 0.15,
            retry: Some(RetryConfig::default()),
            ..FaultConfig::default()
        },
        partitions: vec![],
        crashes: vec![],
    }
}

/// The chaos-suite acceptance shape, shrunk to differential-test size:
/// latency + jitter (reordering), burst loss, duplication, one partition,
/// two crash-restarts, retry/backoff.
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
            members: (0..6).map(NodeId::from_index).collect(),
            start: SimTime::from_hours(4),
            heal: SimTime::from_hours(8),
        }],
        crashes: vec![
            CrashSpec {
                node: NodeId::from_index(3),
                at: SimTime::from_hours(6),
            },
            CrashSpec {
                node: NodeId::from_index(9),
                at: SimTime::from_hours(12),
            },
        ],
    }
}

#[test]
fn fig6_is_thread_count_invariant() {
    assert_thread_invariant("fig6", 16, 12, &[11, 23, 37], FaultSchedule::default);
}

#[test]
fn churn_with_retry_is_thread_count_invariant() {
    assert_thread_invariant("churn", 14, 15, &[5, 29], churn_schedule);
}

#[test]
fn chaos_is_thread_count_invariant() {
    assert_thread_invariant("chaos", 18, 18, &[101, 202], chaos_schedule);
}

#[test]
fn rvs_threads_env_default_matches_explicit_set() {
    // `set_threads` after construction must land in the same state the
    // RVS_THREADS-derived constructor default would have produced: the
    // pool is interchangeable mid-run, so re-setting to the same count is
    // a no-op and to a different count changes nothing but wall-clock.
    let a = run(12, 8, 7, FaultSchedule::default(), 1);
    let trace = TraceGenConfig::quick(12, SimDuration::from_hours(8)).generate(7);
    let (setup, _) = fig6_setup(&trace, 0.25, 0.25, 7);
    let protocol = ProtocolConfig {
        experience_t_mib: 1.0,
        ..ProtocolConfig::default()
    };
    let mut system = System::new(trace, protocol, setup, 7);
    system.enable_audit();
    // Flip the pool size mid-run: 4 workers for the first half, then back
    // to the inline path for the second. Still byte-identical.
    system.set_threads(4);
    system.run_until(
        SimTime::from_hours(4),
        SimDuration::from_hours(2),
        |_, _| {},
    );
    system.set_threads(1);
    system.run_until(
        SimTime::from_hours(8),
        SimDuration::from_hours(2),
        |_, _| {},
    );
    let b_body = fingerprint(&system);
    let a_body = a
        .split_once('\n')
        .map(|x| x.1)
        .expect("run() prefixes accuracy");
    assert_eq!(a_body, b_body, "mid-run set_threads changed results");
}
