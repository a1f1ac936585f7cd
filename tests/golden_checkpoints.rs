//! Forward-compatibility gate: the committed golden checkpoints under
//! `tests/golden/` were written by an earlier build of this repository,
//! and every future build must keep restoring them byte-for-byte.
//!
//! If an encoding change is intentional, bump `FORMAT_VERSION`, document
//! the new layout in DESIGN.md §12, and regenerate the corpus with
//! `cargo run --bin rvs -- ckpt regen` — the tests below spell out which
//! of those steps was skipped.

use robust_vote_sampling::scenario::checkpoint::{
    golden_checkpoint, golden_file_name, GOLDEN_HOURS, GOLDEN_SEEDS,
};
use robust_vote_sampling::scenario::{Checkpoint, System};
use rvs_checkpoint::{DecodeError, FORMAT_VERSION};
use rvs_sim::{SimDuration, SimTime};
use std::path::PathBuf;

fn golden_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_file_name(seed))
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
        let committed = std::fs::read(golden_path(seed))
            .unwrap_or_else(|e| panic!("golden seed {seed} unreadable: {e}"));
        let fresh = golden_checkpoint(seed).into_bytes();
        assert_eq!(
            fresh, committed,
            "golden seed {seed}: current build no longer reproduces the committed checkpoint; \
             if the format change is intentional, bump FORMAT_VERSION, update DESIGN.md §12, \
             and regenerate with `cargo run --bin rvs -- ckpt regen`"
        );
    }
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
    // A file written before the `shard` section was cut (format 3) must
    // be refused with the typed version error — never decoded into a
    // plausible-looking system — while its frozen identity prefix stays
    // readable, through the library and through `rvs ckpt inspect`.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/legacy/fig6-seed1.v3.ckpt");
    let ckpt = Checkpoint::load(&path).expect("legacy golden loads (header + identity prefix)");
    match System::restore(&ckpt) {
        Err(e) => assert_eq!(
            e,
            DecodeError::WrongVersion {
                found: 3,
                supported: FORMAT_VERSION
            }
        ),
        Ok(_) => panic!("a format-3 checkpoint restored under format {FORMAT_VERSION}"),
    }
    let info = ckpt.peek_info().expect("identity prefix is frozen");
    assert_eq!(info.version, 3);
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
