//! Differential proof that the round engine is byte-identical at every
//! thread count.
//!
//! Each scenario runs once at 1 thread (the zero-worker inline path) and
//! again at 2, 4, and 8 threads, through the full stack: trace replay,
//! BitTorrent windows sharded per swarm over the pool — running ahead of
//! the gossip round wherever every message is applied inside its round —
//! the serial gossip round, BarterCast, ModerationCast, vote sampling,
//! and — in the churn, lossy and chaos variants — the fault-injection
//! plane with and without retry/backoff. The runs must agree on a
//! fingerprint that captures every observable the system exposes:
//!
//! * what the observer sees of BitTorrent at every sample — the ledger
//!   total and each swarm's members, online seeders and online leechers
//!   (a window still out on the pool would show as missing swarms),
//! * the full telemetry counter snapshot (compact JSON bytes),
//! * every node's displayed moderator ranking and ballot voter count,
//! * the exact `f64::to_bits` pattern of every pairwise subjective
//!   contribution (no epsilon: reputation must match to the last bit),
//! * the ground-truth transfer ledger total and the in-flight count,
//!
//! plus, for runs cut into `run_until` segments whose ends fall off the
//! tick and gossip grids, the checkpoint bytes after every segment.
//!
//! Any scheduling leak — a shared RNG stream keyed by thread instead of
//! peer, a merge order that depends on completion order, a counter
//! incremented off the canonical path, a window that runs past a sample —
//! shows up here as a byte diff.

#[allow(dead_code)] // each suite uses only some of the shared fixtures
mod common;

use common::fingerprint;
use robust_vote_sampling::bittorrent::network_health;
use robust_vote_sampling::faults::{CrashSpec, FaultConfig, FaultSchedule};
use robust_vote_sampling::scenario::checkpoint::{
    chaos_schedule, churn_schedule, first_divergence,
};
use robust_vote_sampling::scenario::{Checkpoint, System};
use rvs_sim::{NodeId, SimDuration, SimTime};
use std::fmt::Write as _;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// What an observer sees of BitTorrent at `t`, appended to `out`: the
/// ledger total, then members / online seeders / online leechers per swarm.
fn sample_bittorrent(out: &mut String, system: &System, t: SimTime) {
    let net = system.net();
    let _ = write!(out, "{t} kib={}", net.ledger().total_kib());
    for h in network_health(net) {
        let _ = write!(
            out,
            " {}:{}/{}/{}",
            h.swarm, h.members, h.online_seeders, h.online_leechers
        );
    }
    out.push('\n');
}

/// Run the fig6 scenario to `hours`, sampling BitTorrent state every
/// `sample_every` so window materialization at observer boundaries is
/// exercised too, and return the samples followed by the accuracy and
/// the fingerprint.
fn run(
    peers: usize,
    hours: u64,
    seed: u64,
    schedule: FaultSchedule,
    threads: usize,
    sample_every: SimDuration,
) -> String {
    let (mut system, m) = common::build(peers, hours, seed, schedule);
    system.set_threads(threads);
    let mut samples = String::new();
    system.run_until(SimTime::from_hours(hours), sample_every, |s, t| {
        sample_bittorrent(&mut samples, s, t)
    });
    assert_eq!(
        system.audit_violations(),
        &[] as &[String],
        "invariant violations at {threads} threads (seed {seed})"
    );
    let acc = system.ordering_accuracy(&m);
    format!(
        "{samples}accuracy={}\n{}",
        acc.to_bits(),
        fingerprint(&system)
    )
}

/// Assert the serial twin and every parallel twin produce the same bytes.
fn assert_thread_invariant(
    label: &str,
    peers: usize,
    hours: u64,
    seeds: &[u64],
    mk: fn() -> FaultSchedule,
    sample_every: SimDuration,
) {
    for &seed in seeds {
        let serial = run(peers, hours, seed, mk(), 1, sample_every);
        for threads in THREAD_COUNTS {
            let parallel = run(peers, hours, seed, mk(), threads, sample_every);
            assert_eq!(
                serial, parallel,
                "{label}: seed {seed} diverged at {threads} threads"
            );
        }
    }
}

/// The sample cadence the scenario tests have always used.
fn thirds(hours: u64) -> SimDuration {
    SimDuration::from_hours((hours / 3).max(1))
}

/// Heavy loss and some duplication with neither latency nor retry: every
/// message is still applied inside its round, so the BitTorrent window
/// runs ahead here — unlike under the churn and chaos schedules.
fn lossy_schedule() -> FaultSchedule {
    FaultSchedule {
        config: FaultConfig {
            loss: 0.3,
            duplicate: 0.05,
            ..FaultConfig::default()
        },
        partitions: vec![],
        crashes: vec![CrashSpec {
            node: NodeId::from_index(2),
            at: SimTime::from_hours(5),
        }],
    }
}

#[test]
fn fig6_is_thread_count_invariant() {
    let schedule = FaultSchedule::default;
    assert_thread_invariant("fig6", 16, 12, &[11, 23, 37], schedule, thirds(12));
}

#[test]
fn churn_with_retry_is_thread_count_invariant() {
    assert_thread_invariant("churn", 14, 15, &[5, 29], churn_schedule, thirds(15));
}

#[test]
fn lossy_inline_delivery_is_thread_count_invariant() {
    assert_thread_invariant("lossy", 16, 12, &[13, 41], lossy_schedule, thirds(12));
}

#[test]
fn chaos_is_thread_count_invariant() {
    assert_thread_invariant("chaos", 18, 18, &[101, 202], chaos_schedule, thirds(18));
}

/// Samples off the 1-minute gossip grid (and, at 25 s, off the 10 s tick
/// grid) end the window that runs ahead early; each observer call reads
/// every swarm.
#[test]
fn off_grid_observer_cadences_are_thread_count_invariant() {
    for (sample_every, hours) in [
        (SimDuration::from_secs(25), 3),
        (SimDuration::from_secs(7 * 60 + 30), 8),
        (SimDuration::from_mins(61), 12),
    ] {
        let label = format!("fig6 sampled every {sample_every}");
        let schedule = FaultSchedule::default;
        assert_thread_invariant(&label, 14, hours, &[19], schedule, sample_every);
    }
}

/// `run_until` in segments whose ends fall off the tick and gossip grids,
/// sampling every 31 min 7 s: per segment, the observer's samples and the
/// checkpoint written after it.
fn segmented(threads: usize, schedule: FaultSchedule) -> Vec<(String, Checkpoint)> {
    let (mut system, _) = common::build(14, 10, 31, schedule);
    system.set_threads(threads);
    let ends = [
        SimTime::from_secs(25 * 60 + 5),
        SimTime::from_mins(100),
        SimTime::from_secs(3 * 3600 + 12 * 60 + 17),
        SimTime::from_secs(5 * 3600 + 3),
        SimTime::from_secs(8 * 3600 - 1),
        SimTime::from_hours(10),
    ];
    ends.into_iter()
        .map(|end| {
            let mut samples = String::new();
            system.run_until(end, SimDuration::from_secs(31 * 60 + 7), |s, t| {
                sample_bittorrent(&mut samples, s, t)
            });
            (samples, system.checkpoint())
        })
        .collect()
}

#[test]
fn segmented_runs_checkpoint_the_same_bytes_at_every_thread_count() {
    for (label, mk) in [
        ("fig6", FaultSchedule::default as fn() -> FaultSchedule),
        ("lossy", lossy_schedule),
    ] {
        let serial = segmented(1, mk());
        for threads in THREAD_COUNTS {
            let parallel = segmented(threads, mk());
            assert_eq!(serial.len(), parallel.len());
            for (k, ((s_samples, s_ckpt), (p_samples, p_ckpt))) in
                serial.iter().zip(&parallel).enumerate()
            {
                assert_eq!(
                    s_samples, p_samples,
                    "{label}: segment {k} samples diverged at {threads} threads"
                );
                if let Some(report) = first_divergence(s_ckpt, p_ckpt) {
                    panic!(
                        "{label}: segment {k} checkpoint diverged at {threads} threads:\n{report}"
                    );
                }
            }
        }
    }
}

#[test]
fn rvs_threads_env_default_matches_explicit_set() {
    // `set_threads` after construction must land in the same state the
    // RVS_THREADS-derived constructor default would have produced: the
    // pool is interchangeable mid-run, so re-setting to the same count is
    // a no-op and to a different count changes nothing but wall-clock.
    let (mut a, _) = common::build(12, 8, 7, FaultSchedule::default());
    a.set_threads(1);
    a.run_until(SimTime::from_hours(8), thirds(8), |_, _| {});
    assert_eq!(a.audit_violations(), &[] as &[String]);
    let (mut system, _) = common::build(12, 8, 7, FaultSchedule::default());
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
    assert_eq!(
        fingerprint(&a),
        fingerprint(&system),
        "mid-run set_threads changed results"
    );
}
