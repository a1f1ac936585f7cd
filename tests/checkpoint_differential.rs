//! Differential proof that checkpoint/restore is invisible: running to
//! round R, checkpointing, restoring, and continuing is **byte-identical**
//! to never having stopped.
//!
//! Every scenario × seed × resume-point cell compares the same fingerprint
//! the thread-invariance suite uses — the full telemetry counter snapshot
//! as compact JSON, every node's displayed ranking and ballot voter count,
//! the exact `f64::to_bits` pattern of every pairwise contribution, the
//! ledger total and the in-flight count — so any state the checkpoint
//! forgets (an RNG lane, a backoff timer, a dedup window, a BitTorrent
//! window cursor) shows up as a byte diff downstream of the resume point.
//!
//! The resume path deliberately round-trips through bytes
//! (`Checkpoint::from_bytes(checkpoint().into_bytes())`), so the encoding
//! itself — not just the in-memory clone — is what is proven equivalent.
//! The suite runs under both CI thread legs (`RVS_THREADS` 1 and 4), and
//! dedicated cases restore on a *different* thread count than the run that
//! wrote the checkpoint.

#[expect(dead_code, reason = "each suite uses only some of the shared fixtures")]
mod common;

use common::{build, fingerprint};
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::checkpoint::{
    arm_byzantine, chaos_schedule, churn_schedule, first_divergence,
};
use robust_vote_sampling::scenario::{Checkpoint, System};
use rvs_sim::{NodeId, SimDuration, SimTime};

fn advance(system: &mut System, to: SimTime) {
    system.run_until(to, SimDuration::from_hours(1), |_, _| {});
}

fn finish(system: System, m: &[NodeId; 3], label: &str, seed: u64) -> String {
    assert_eq!(
        system.audit_violations(),
        &[] as &[String],
        "{label}: invariant violations (seed {seed})"
    );
    let acc = system.ordering_accuracy(m);
    format!("accuracy={}\n{}", acc.to_bits(), fingerprint(&system))
}

/// The uninterrupted reference run.
fn straight(peers: usize, hours: u64, seed: u64, schedule: FaultSchedule) -> String {
    let (mut system, m) = build(peers, hours, seed, schedule);
    advance(&mut system, SimTime::from_hours(hours));
    finish(system, &m, "straight", seed)
}

/// Checkpoint the system through the full byte encoding and bring it back.
fn roundtrip(system: &System) -> System {
    let bytes = system.checkpoint().into_bytes();
    let ckpt = Checkpoint::from_bytes(bytes).expect("self-produced checkpoint parses");
    let restored = System::restore(&ckpt).expect("self-produced checkpoint restores");
    assert_eq!(restored.now(), system.now());
    assert_eq!(restored.seed(), system.seed());
    restored
}

/// Run to each resume point, checkpoint, restore (through bytes), continue
/// to the end, and demand the straight run's exact fingerprint.
fn assert_resume_equivalence(
    label: &str,
    peers: usize,
    hours: u64,
    seeds: &[u64],
    mk: fn() -> FaultSchedule,
) {
    for &seed in seeds {
        let reference = straight(peers, hours, seed, mk());
        for resume_at in [hours / 3, 2 * hours / 3] {
            let (mut system, m) = build(peers, hours, seed, mk());
            advance(&mut system, SimTime::from_hours(resume_at));
            let mut resumed = roundtrip(&system);
            drop(system);
            resumed.enable_audit();
            advance(&mut resumed, SimTime::from_hours(hours));
            let got = finish(resumed, &m, label, seed);
            assert_eq!(
                reference, got,
                "{label}: seed {seed} resumed at {resume_at}h diverged from straight run"
            );
        }
    }
}

#[test]
fn fig6_resume_is_byte_identical() {
    assert_resume_equivalence("fig6", 16, 12, &[11, 23, 37], FaultSchedule::default);
}

#[test]
fn churn_with_retry_resume_is_byte_identical() {
    assert_resume_equivalence("churn", 14, 15, &[5, 29, 41], churn_schedule);
}

#[test]
fn chaos_resume_is_byte_identical() {
    assert_resume_equivalence("chaos", 18, 18, &[101, 202, 303], chaos_schedule);
}

#[test]
fn double_resume_is_byte_identical() {
    // Stop twice: run → ckpt → resume → ckpt → resume → end. The second
    // checkpoint is taken by a *restored* system, so any volatile the
    // first restore rebuilt wrongly would poison the second blob.
    let (peers, hours, seed) = (16usize, 12u64, 11u64);
    let reference = straight(peers, hours, seed, FaultSchedule::default());
    let (mut system, m) = build(peers, hours, seed, FaultSchedule::default());
    advance(&mut system, SimTime::from_hours(4));
    let mut once = roundtrip(&system);
    once.enable_audit();
    advance(&mut once, SimTime::from_hours(8));
    let mut twice = roundtrip(&once);
    twice.enable_audit();
    advance(&mut twice, SimTime::from_hours(hours));
    let got = finish(twice, &m, "double-resume", seed);
    assert_eq!(reference, got, "double resume diverged from straight run");
}

#[test]
fn a_cut_at_every_hour_is_byte_identical() {
    // Each cut forgets what restore rebuilds instead of persisting — among
    // it every BarterCast stamp and watermark, so after each hour every
    // pair delivers its whole record prefix once more, into graphs that
    // already hold it. Were a record passed over as old news ever one the
    // receiver lacked, the run cut most often would be the one to differ.
    let (peers, hours, seed) = (12usize, 12u64, 17u64);
    let reference = straight(peers, hours, seed, FaultSchedule::default());
    let (mut system, m) = build(peers, hours, seed, FaultSchedule::default());
    for hour in 1..hours {
        advance(&mut system, SimTime::from_hours(hour));
        assert_eq!(system.audit_violations(), &[] as &[String], "hour {hour}");
        system = roundtrip(&system);
        system.enable_audit();
    }
    advance(&mut system, SimTime::from_hours(hours));
    let got = finish(system, &m, "hourly-cut", seed);
    assert_eq!(
        reference, got,
        "a run cut every hour diverged from straight run"
    );
}

#[test]
fn restore_on_different_thread_count_is_byte_identical() {
    // A checkpoint written by a 1-thread run must continue identically on
    // 4 threads, and vice versa: the pool is rebuilt from the environment
    // on restore precisely because thread count is not simulation state.
    let (peers, hours, seed) = (14usize, 15u64, 5u64);
    let reference = straight(peers, hours, seed, churn_schedule());
    for (before, after) in [(1usize, 4usize), (4, 1)] {
        let (mut system, m) = build(peers, hours, seed, churn_schedule());
        system.set_threads(before);
        advance(&mut system, SimTime::from_hours(hours / 2));
        let mut resumed = roundtrip(&system);
        resumed.set_threads(after);
        resumed.enable_audit();
        advance(&mut resumed, SimTime::from_hours(hours));
        let got = finish(resumed, &m, "cross-thread", seed);
        assert_eq!(
            reference, got,
            "checkpoint written at {before} threads diverged when resumed at {after}"
        );
    }
}

#[test]
fn checkpoint_is_deterministic_and_side_effect_free() {
    // Snapshotting twice yields identical bytes, and taking a checkpoint
    // must not perturb the run that continues past it.
    let (peers, hours, seed) = (16usize, 12u64, 23u64);
    let reference = straight(peers, hours, seed, FaultSchedule::default());
    let (mut system, m) = build(peers, hours, seed, FaultSchedule::default());
    advance(&mut system, SimTime::from_hours(6));
    let a = system.checkpoint();
    let b = system.checkpoint();
    assert_eq!(
        first_divergence(&a, &b),
        None,
        "two snapshots of the same state differ"
    );
    advance(&mut system, SimTime::from_hours(hours));
    let got = finish(system, &m, "ckpt-side-effect", seed);
    assert_eq!(reference, got, "taking a checkpoint changed the run");
}

#[test]
fn file_save_load_roundtrip_resumes_identically() {
    let (peers, hours, seed) = (16usize, 12u64, 37u64);
    let reference = straight(peers, hours, seed, FaultSchedule::default());
    let (mut system, m) = build(peers, hours, seed, FaultSchedule::default());
    advance(&mut system, SimTime::from_hours(4));
    #[expect(
        clippy::disallowed_methods,
        reason = "temp_dir placement cannot affect simulation behaviour; the checkpoint bytes \
                  are what is compared"
    )]
    let dir = std::env::temp_dir();
    let path = dir.join(format!("rvs-ckpt-diff-{}-{seed}.ckpt", std::process::id()));
    system.checkpoint().save(&path).expect("save checkpoint");
    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    let mut resumed = System::restore(&loaded).expect("restore from file");
    resumed.enable_audit();
    advance(&mut resumed, SimTime::from_hours(hours));
    let got = finish(resumed, &m, "file-roundtrip", seed);
    assert_eq!(reference, got, "file save/load resume diverged");
}

#[test]
fn chaos_checkpoint_mid_partition_audits_clean_after_resume() {
    // The chaos interaction case: node 3 has crash-restarted (6h), the
    // partition is still cut (4h–8h), deliveries are in flight. A
    // checkpoint taken here must carry the partition state, the crashed
    // node's wiped windows, and the in-flight term of the conservation
    // identity — the re-enabled auditor re-checks that identity after
    // every resumed round and must stay clean to the end.
    let (peers, hours, seed) = (18usize, 18u64, 101u64);
    let (mut system, m) = build(peers, hours, seed, chaos_schedule());
    advance(&mut system, SimTime::from_hours(6));
    let mid = system.checkpoint();
    let info = mid.info().expect("checkpoint summarizes");
    assert_eq!(info.seed, seed);
    assert!(info.now >= SimTime::from_hours(6));
    let mut resumed = System::restore(&mid).expect("mid-partition checkpoint restores");
    resumed.enable_audit();
    advance(&mut resumed, SimTime::from_hours(hours));
    assert!(
        resumed.auditor().expect("audit enabled").checks() > 0,
        "auditor never ran after resume"
    );
    let reference = straight(peers, hours, seed, chaos_schedule());
    let got = finish(resumed, &m, "chaos-mid-partition", seed);
    assert_eq!(reference, got, "mid-partition resume diverged");
}

#[test]
fn byzantine_resume_mid_quarantine_is_byte_identical() {
    // Stop the world while peers sit in active quarantine and strikes /
    // buckets are partially spent, restore through bytes, and demand the
    // straight attacked run's exact fingerprint. The byzantine shape — the
    // guard armed with a small inbox, 4 flooders, 10% wire mutation, on
    // top of the chaos schedule — puts quarantine clocks, strike counters,
    // token buckets, the malformer RNG lane and inbox gauges in the blob;
    // any of it the checkpoint forgets diverges downstream.
    let (peers, hours, seed) = (18usize, 18u64, 202u64);
    let byzantine = || {
        let (mut system, m) = build(peers, hours, seed, chaos_schedule());
        arm_byzantine(&mut system, 4, 12);
        (system, m)
    };
    let reference = {
        let (mut system, m) = byzantine();
        advance(&mut system, SimTime::from_hours(hours));
        finish(system, &m, "byzantine-straight", seed)
    };

    let (mut system, m) = byzantine();
    let mut at = hours / 6;
    advance(&mut system, SimTime::from_hours(at));
    while system.guard().quarantined_count(system.now()) == 0 && at < hours - 2 {
        at += 1;
        advance(&mut system, SimTime::from_hours(at));
    }
    assert!(
        system.guard().quarantined_count(system.now()) > 0,
        "resume point never fell inside an active quarantine"
    );
    assert!(
        system.telemetry_snapshot().guard.quarantines_started > 0,
        "no quarantine ever started before the checkpoint"
    );

    let resumed_at = system.now();
    let mut resumed = roundtrip(&system);
    assert_eq!(
        resumed.guard().quarantined_count(resumed_at),
        system.guard().quarantined_count(resumed_at),
        "restore changed the set of quarantined peers"
    );
    assert_eq!(
        resumed
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        system
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        "restore changed the guard counters"
    );
    drop(system);
    resumed.enable_audit();
    advance(&mut resumed, SimTime::from_hours(hours));
    let got = finish(resumed, &m, "byzantine-mid-quarantine", seed);
    assert_eq!(reference, got, "mid-quarantine resume diverged");
}
