//! Tier-1 gate: the workspace must be `rvs-lint`-clean.
//!
//! Runs the same engine as `cargo run -p rvs-lint -- --workspace-root .
//! --deny-findings`, so a determinism, panic-surface, suppression or
//! lint-metadata regression fails `cargo test` directly — no separate CI
//! wiring required for local development. That DESIGN.md names every
//! counter, config field and threading knob is `tests/design_reference.rs`.

use std::path::Path;

/// Every finding in the workspace must carry a written justification.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = rvs_lint::run(root);
    let unjustified: Vec<String> = report
        .unjustified()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        unjustified.is_empty(),
        "rvs-lint found {} unjustified finding(s):\n{}\n\
         Fix the construct or add `// rvs-lint: allow(<rule>) -- <why>`.",
        unjustified.len(),
        unjustified.join("\n")
    );
}

/// The gate actually has teeth: a seeded violation in a protocol crate
/// path is detected by the very engine the test above relies on.
#[test]
fn gate_detects_seeded_violation() {
    let bad = "use std::collections::HashMap;\n\
               pub fn f() -> usize { let m: HashMap<u32, u32> = HashMap::new(); m.len() }\n";
    let findings = rvs_lint::check_source("crates/core/src/seeded.rs", bad);
    assert!(
        findings.iter().any(|f| f.rule == "hash-container"),
        "seeded HashMap must fire hash-container, got: {findings:?}"
    );
}

/// Suppression hygiene has teeth too: a grant that suppresses nothing is
/// itself an unjustified finding, so stale excuses cannot accumulate.
#[test]
fn gate_detects_unused_suppressions() {
    let bad = "// rvs-lint: allow(wall-clock) -- excuse with nothing to excuse\n\
               pub fn fine() {}\n";
    let findings = rvs_lint::check_source("crates/core/src/seeded.rs", bad);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "unused-suppression" && f.justification.is_none()),
        "dead grant must fire unused-suppression, got: {findings:?}"
    );
}

/// The lint's own metadata is checked against this workspace: every
/// exempt path and protocol crate it names exists.
#[test]
fn lint_metadata_is_not_stale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = rvs_lint::rules::stale_metadata(root);
    assert!(findings.is_empty(), "stale lint metadata: {findings:?}");
}

/// And annotations are honoured end to end: the same violation with a
/// justified allow is reported as justified, not clean silence.
#[test]
fn gate_honours_annotations() {
    let ok = "use std::collections::BTreeMap;\n\
              // rvs-lint: allow(hash-container) -- fixture exercising the annotation path\n\
              pub fn f() { let m = std::collections::HashMap::<u32, u32>::new(); m.len(); }\n";
    let findings = rvs_lint::check_source("crates/core/src/seeded.rs", ok);
    assert!(
        !findings.is_empty() && findings.iter().all(|f| f.justification.is_some()),
        "expected the violation to be reported as justified, got: {findings:?}"
    );
}
