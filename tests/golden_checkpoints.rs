//! Forward-compatibility gate: the committed golden checkpoints under
//! `tests/golden/` were written by an earlier build of this repository,
//! and every future build must keep restoring them byte-for-byte.
//!
//! If an encoding change is intentional, bump `FORMAT_VERSION`, document
//! the new layout in DESIGN.md §12, and regenerate the corpus with
//! `cargo run --bin rvs -- ckpt regen` — the tests below spell out which
//! of those steps was skipped.

#[expect(dead_code, reason = "each suite uses only some of the shared fixtures")]
mod common;

use common::with_version;
use robust_vote_sampling::scenario::checkpoint::{
    first_divergence, golden_checkpoint, golden_coverage_system, golden_file_name, GOLDEN_COVERAGE,
    GOLDEN_COVERAGE_CUT, GOLDEN_HOURS, GOLDEN_SEEDS,
};
use robust_vote_sampling::scenario::{Checkpoint, System};
use rvs_checkpoint::{DecodeError, FORMAT_VERSION};
use rvs_sim::{NodeId, SimDuration, SimTime};
use std::path::{Path, PathBuf};

/// `name` under `tests/golden/`.
fn golden(name: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).join(name)
}

fn golden_path(seed: u64) -> PathBuf {
    golden(&golden_file_name(seed))
}

#[test]
fn golden_corpus_exists() {
    for seed in GOLDEN_SEEDS {
        assert!(
            golden_path(seed).is_file(),
            "missing golden checkpoint {}; run `cargo run --bin rvs -- ckpt regen` and commit it",
            golden_file_name(seed)
        );
    }
}

#[test]
fn golden_checkpoints_restore_and_describe_themselves() {
    for seed in GOLDEN_SEEDS {
        let ckpt = Checkpoint::load(&golden_path(seed))
            .unwrap_or_else(|e| panic!("golden seed {seed} failed to load: {e}"));
        let info = ckpt
            .info()
            .unwrap_or_else(|e| panic!("golden seed {seed} failed to describe itself: {e}"));
        assert_eq!(info.version, FORMAT_VERSION, "seed {seed}");
        assert_eq!(info.seed, seed);
        assert_eq!(info.now, SimTime::from_hours(GOLDEN_HOURS), "seed {seed}");
        let system = System::restore(&ckpt)
            .unwrap_or_else(|e| panic!("golden seed {seed} failed to restore: {e}"));
        assert_eq!(system.seed(), seed);
        assert_eq!(system.now(), SimTime::from_hours(GOLDEN_HOURS));
    }
}

#[test]
fn current_build_reproduces_golden_bytes_exactly() {
    // The strongest drift detector: re-running the fixed-seed golden
    // scenario with today's code must reproduce the committed bytes. Any
    // diff means the encoding or the simulation itself changed — either
    // way, resume compatibility with old checkpoints is broken and the
    // format version must be bumped.
    for seed in GOLDEN_SEEDS {
        let committed = Checkpoint::load(&golden_path(seed))
            .unwrap_or_else(|e| panic!("golden seed {seed} unreadable: {e}"));
        assert_reproduced(
            &format!("golden seed {seed}"),
            &golden_checkpoint(seed),
            &committed,
        );
    }
}

/// `fresh` (A) must equal `committed` (B); when it does not, say which
/// section moved instead of dumping two byte vectors.
fn assert_reproduced(what: &str, fresh: &Checkpoint, committed: &Checkpoint) {
    if let Some(divergence) = first_divergence(fresh, committed) {
        panic!(
            "{what}: current build (A) no longer reproduces the committed checkpoint (B):\n\
             {divergence}\n\
             if the format change is intentional, bump FORMAT_VERSION, update DESIGN.md §12, \
             and regenerate with `cargo run --bin rvs -- ckpt regen`"
        );
    }
}

#[test]
fn coverage_golden_holds_the_state_the_fig6_goldens_lack() {
    // Recorded on the commit *before* `persist_struct!` replaced the
    // hand-written impls: with the macro a field's wire width follows its
    // declared type, and this blob pins the widths of every type the fig6
    // goldens never contain. First show it really contains them.
    let path = golden(GOLDEN_COVERAGE);
    let committed = Checkpoint::load(&path).unwrap_or_else(|e| {
        panic!("{GOLDEN_COVERAGE} unreadable ({e}); run `cargo run --bin rvs -- ckpt regen`")
    });
    let info = committed.info().expect("coverage golden describes itself");
    assert_eq!(info.version, FORMAT_VERSION);
    assert_eq!(info.now, GOLDEN_COVERAGE_CUT);
    assert!(info.total_nodes > info.trace_peers, "no crowd");

    let mut system = System::restore(&committed).expect("coverage golden restores");
    let now = system.now();
    assert!(system.in_flight() > 0, "no delivery in flight");
    assert!(system.crowd().is_some(), "no crowd handle rebuilt");
    assert!(system.adaptive_thresholds().is_some(), "no adaptive state");
    assert!(
        system
            .fault_plane()
            .partitioned(NodeId::from_index(0), NodeId::from_index(10)),
        "no partition"
    );
    assert!(system.guard().quarantined_count(now) > 0, "no quarantine");
    let counters = system.telemetry_snapshot();
    assert!(counters.pss.exchanges > 0, "no Newscast view exchange");
    assert!(counters.guard.flooder_sends > 0, "no flooder");
    assert!(counters.guard.malformer_mutations > 0, "no malformer");
    assert!(counters.faults.retries > 0, "no backoff resend");

    // Restored state re-encodes to the committed bytes, and the current
    // build re-running the scenario reproduces them too.
    assert_reproduced("coverage re-encode", &system.checkpoint(), &committed);
    assert_reproduced(
        "coverage golden",
        &golden_coverage_system().checkpoint(),
        &committed,
    );

    // And it resumes clean under audit through the partition heal (8 h)
    // and the quarantine releases.
    system.enable_audit();
    system.run_until(
        SimTime::from_hours(10),
        SimDuration::from_hours(1),
        |_, _| {},
    );
    assert_eq!(system.audit_violations(), &[] as &[String]);
    assert!(system.auditor().expect("audit enabled").checks() > 0);
}

#[test]
fn coverage_golden_resumes_as_the_uninterrupted_run() {
    // The resume differential for the state only this golden holds — the
    // crowd, the Newscast views, the adaptive thresholds, the pre-seeded
    // core. A field dropped from both halves of a hand-written `Persist`
    // there re-encodes and re-derives byte for byte once the goldens are
    // regenerated; only running on from the restored state tells.
    let path = golden(GOLDEN_COVERAGE);
    let committed = Checkpoint::load(&path).expect("coverage golden loads");
    let end = SimTime::from_hours(18);
    let run_on = |mut system: System| {
        system.run_until(end, SimDuration::from_hours(1), |_, _| {});
        system
    };
    let resumed = run_on(System::restore(&committed).expect("coverage golden restores"));
    let straight = run_on(golden_coverage_system());
    if let Some(divergence) = first_divergence(&resumed.checkpoint(), &straight.checkpoint()) {
        panic!("resumed coverage run (A) diverged from the uninterrupted run (B):\n{divergence}");
    }
    assert_eq!(
        resumed
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact(),
        straight
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact()
    );
}

#[test]
fn golden_checkpoints_resume_cleanly_under_audit() {
    for seed in GOLDEN_SEEDS {
        let ckpt = Checkpoint::load(&golden_path(seed)).expect("golden loads");
        let mut system = System::restore(&ckpt).expect("golden restores");
        system.enable_audit();
        system.run_until(
            SimTime::from_hours(GOLDEN_HOURS + 2),
            SimDuration::from_hours(1),
            |_, _| {},
        );
        assert_eq!(
            system.audit_violations(),
            &[] as &[String],
            "golden seed {seed}: invariant violations after resuming a committed checkpoint"
        );
        assert!(
            system.auditor().expect("audit enabled").checks() > 0,
            "golden seed {seed}: auditor never ran after resume"
        );
    }
}

#[test]
fn legacy_v3_golden_is_refused_not_misread() {
    // A file of a retired format, or of a newer one, must be refused with
    // the typed version error — never decoded into a plausible-looking
    // system — while its frozen identity prefix stays readable, through
    // the library and through `rvs ckpt inspect`. One real format-3 file
    // pins that prefix as an old writer spelt it; every other version is
    // the current golden with its version word patched (DESIGN.md §12 says
    // what each retired format changed).
    let legacy = golden("legacy");
    let files = std::fs::read_dir(&legacy).expect("legacy corpus exists");
    assert_eq!(files.count(), 1, "legacy/ holds the one real legacy file");
    let v3 = std::fs::read(legacy.join("fig6-seed1.v3.ckpt")).expect("the v3 file reads");
    let current = std::fs::read(golden_path(1)).expect("golden seed 1 reads");
    let versions = (4..FORMAT_VERSION).chain([FORMAT_VERSION + 1]);
    let patched = versions.map(|found| (with_version(&current, found), found));
    let name = format!("legacy-{}.ckpt", std::process::id());
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    for (bytes, found) in [(v3, 3)].into_iter().chain(patched) {
        std::fs::write(&path, bytes).expect("the blob writes");
        let ckpt = Checkpoint::load(&path).expect("the blob loads (header + identity prefix)");
        match System::restore(&ckpt) {
            Err(e) => assert_eq!(
                e,
                DecodeError::WrongVersion {
                    found,
                    supported: FORMAT_VERSION
                }
            ),
            Ok(_) => panic!("a format-{found} checkpoint restored under format {FORMAT_VERSION}"),
        }
        let info = ckpt.peek_info().expect("identity prefix is frozen");
        assert_eq!(info.version, found);
        assert_eq!(info.seed, 1);
        assert_eq!(info.now, SimTime::from_hours(GOLDEN_HOURS));
        assert_eq!((info.trace_peers, info.total_nodes), (12, 12));

        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rvs"))
            .args(["ckpt", "inspect"])
            .arg(&path)
            .output()
            .expect("rvs runs");
        assert!(out.status.success(), "inspect must summarize foreign files");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&info.to_string()),
            "inspect output:\n{stdout}"
        );
        assert!(
            stdout.contains("cannot be resumed here"),
            "inspect output:\n{stdout}"
        );
    }
    std::fs::remove_file(&path).expect("the scratch blob removes");
}

#[test]
fn format_version_is_documented_in_design() {
    // DESIGN.md §12 must name the exact current version; CI runs this on
    // every change, so a FORMAT_VERSION bump cannot land without its
    // documentation.
    let design =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
            .expect("DESIGN.md readable");
    let marker = format!("`FORMAT_VERSION` = **{FORMAT_VERSION}**");
    assert!(
        design.contains(&marker),
        "DESIGN.md does not document the current checkpoint format: expected the literal \
         marker \"{marker}\" in §12; update the section alongside any format change"
    );
}
