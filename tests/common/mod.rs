//! What the integration suites share: the audited Fig 6 cast, the run
//! fingerprint the differential suites compare, the audit and
//! conservation checks the runs end on, and the checkpoint suites'
//! version patch.

use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{System, VoteSamplingConfig};
use rvs_sim::{NodeId, SimDuration};
use std::fmt::Write as _;

/// The Fig 6 cast ([`VoteSamplingConfig::quick`] at `peers` × `hours`)
/// under `schedule`, with the auditor on, and its three moderators.
pub fn build(
    peers: usize,
    hours: u64,
    seed: u64,
    schedule: FaultSchedule,
) -> (System, [NodeId; 3]) {
    let (mut system, m) =
        VoteSamplingConfig::quick(peers, SimDuration::from_hours(hours)).system(seed, schedule);
    system.enable_audit();
    (system, m)
}

/// Everything observable about a finished run, as comparable text: the
/// telemetry counter snapshot as compact JSON, every trace peer's
/// displayed ranking and ballot voter count, the exact `f64::to_bits`
/// pattern of every nonzero pairwise contribution, the ledger total and
/// the in-flight count.
pub fn fingerprint(system: &System) -> String {
    let mut out = system
        .telemetry_snapshot()
        .counters_only()
        .to_json_compact();
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
        for j in (0..n).filter(|&j| j != i) {
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

/// The run's invariant auditor performed checks and found no violation.
/// Every audited run doubles as an invariant check: conservation of
/// encounters, the `B_max` ballot bound, experience gating and VoxPopuli
/// bootstrap honesty are re-checked after every round and encounter.
pub fn assert_clean_audit(system: &System) {
    let when = format!("seed {} at {}", system.seed(), system.now());
    let auditor = system.auditor().expect("audit enabled");
    assert!(auditor.checks() > 0, "{when}: auditor performed no checks");
    assert_eq!(
        system.audit_violations(),
        &[] as &[String],
        "{when}: invariant violations detected"
    );
}

/// Fault-aware conservation, re-checked from the outside: every attempted
/// encounter (honest or flood) was delivered, dropped for a counted
/// reason, refused at a full inbox, or is still in flight.
pub fn assert_conserved(system: &System) {
    let snap = system.telemetry_snapshot();
    let (e, f, g) = (&snap.encounters, &snap.faults, &snap.guard);
    assert_eq!(
        e.attempted,
        e.delivered
            + snap.total_dropped()
            + f.dropped_burst
            + f.partitioned
            + f.dropped_expired
            + g.inbox_dropped
            + system.in_flight(),
        "seed {}: conservation identity broken: {e:?} / {f:?} / {g:?}",
        system.seed()
    );
}

/// `bytes` with the header's version word, which follows the magic, set to
/// `version`. The header carries no checksum, so this is a blob of any
/// version, as far as the version check can tell.
pub fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let (at, word) = (rvs_checkpoint::MAGIC.len(), version.to_le_bytes());
    let mut bytes = bytes.to_vec();
    bytes[at..at + word.len()].copy_from_slice(&word);
    bytes
}
