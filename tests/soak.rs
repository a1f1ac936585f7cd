//! The paper-span soak: 100 peers over the seven days a trace of the paper
//! spans (§VI), under the chaos fault schedule, an armed guard, flooders
//! and a malformer, audited throughout — and checkpointed, decoded and
//! restored at the end of every simulated day. It must end on the bytes
//! and counters of the same run left uninterrupted, with no audit
//! violation and the fault-aware conservation identity intact.
//!
//! Ignored by default for its length; run it with
//! `cargo test --release --test soak -- --ignored`.

#[allow(dead_code)] // each suite uses only some of the shared fixtures
mod common;

use common::{assert_clean_audit, assert_conserved};
use robust_vote_sampling::faults::{
    BurstLoss, CrashSpec, FaultConfig, FaultSchedule, PartitionSpec, RetryConfig,
};
use robust_vote_sampling::scenario::checkpoint::{arm_byzantine, first_divergence};
use robust_vote_sampling::scenario::{Checkpoint, System, VoteSamplingConfig};
use robust_vote_sampling::trace::TraceGenConfig;
use rvs_sim::{NodeId, SimDuration, SimTime};

const PEERS: usize = 100;
const DAYS: u64 = 7;
const SEED: u64 = 7;

/// The chaos schedule scaled to `n` peers and a span of `span_mins`, as
/// the benchmark scales it for its chaos workload: 30 % burst loss, 2×
/// latency jitter, 5 % duplication, retry, a 4-hour partition of a third
/// of the peers from a quarter of the span, and six crash-restarts spread
/// over it.
fn chaos_schedule(n: usize, span_mins: u64) -> FaultSchedule {
    let start = SimTime::ZERO + SimDuration::from_mins(span_mins / 4);
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
            members: (0..n / 3).map(NodeId::from_index).collect(),
            start,
            heal: start + SimDuration::from_hours(4),
        }],
        crashes: (0..6u64)
            .map(|k| CrashSpec {
                node: NodeId::from_index((13 * k as usize + 3) % n),
                at: SimTime::ZERO + SimDuration::from_mins(120 + k * span_mins / 7),
            })
            .collect(),
    }
}

/// The Fig 6 cast on the trace `rvs run --peers 100 --hours 168` replays,
/// under chaos, with the inbox capped at 8, the top fifth of the peers
/// flooding 12 extra sends a round, 100 ‰ of guarded messages mutated,
/// and the auditor on.
fn build() -> System {
    let cfg = VoteSamplingConfig {
        trace: TraceGenConfig::scaled(PEERS, SimDuration::from_days(DAYS)),
        positive_fraction: 0.15,
        negative_fraction: 0.15,
        ..VoteSamplingConfig::paper()
    };
    let (mut system, _) = cfg.system(SEED, chaos_schedule(PEERS, DAYS * 24 * 60));
    let n = system.trace().peer_count();
    arm_byzantine(&mut system, n / 5, 12);
    system.enable_audit();
    system
}

fn run_to(system: &mut System, to: SimTime) {
    system.run_until(to, SimDuration::from_hours(24), |_, _| {});
}

#[test]
#[ignore = "seven simulated days, twice: run with --ignored"]
fn a_week_cut_every_day_ends_as_the_uninterrupted_week() {
    let end = SimTime::from_hours(DAYS * 24);
    let mut whole = build();
    run_to(&mut whole, end);
    assert_clean_audit(&whole);
    assert_conserved(&whole);

    let mut cut = build();
    for day in 1..=DAYS {
        run_to(&mut cut, SimTime::from_hours(day * 24));
        assert_clean_audit(&cut);
        let bytes = cut.checkpoint().into_bytes();
        let ckpt = Checkpoint::from_bytes(bytes).expect("own checkpoint decodes");
        cut = System::restore(&ckpt).expect("own checkpoint restores");
        cut.enable_audit();
    }
    assert_conserved(&cut);
    let (a, b) = (whole.checkpoint(), cut.checkpoint());
    assert_eq!(
        first_divergence(&a, &b),
        None,
        "the week cut daily diverged"
    );
    assert_eq!(
        whole.telemetry_snapshot().counters_only().to_json_compact(),
        cut.telemetry_snapshot().counters_only().to_json_compact()
    );
    let snap = cut.telemetry_snapshot();
    assert_eq!(snap.faults.crash_restarts, 6, "every crash fired");
    assert!(snap.guard.flooder_sends > 0 && snap.guard.malformer_mutations > 0);
}
