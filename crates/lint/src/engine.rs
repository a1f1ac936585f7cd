//! Workspace walker: applies every rule to every lintable source file.

use crate::report::{Finding, Report};
use crate::rules;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) whose `.rs` files are linted. The
/// `compat/` shims are excluded by construction: they mirror external crate
/// APIs and are not protocol code.
const LINT_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// reporting order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // `target/` never appears under the lint roots, but guard anyway.
            if p.file_name().map(|n| n == "target").unwrap_or(false) {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
}

/// The committed negative corpus: files that exist to make rules fire.
/// They are exercised by the fixture-runner test, never by the workspace
/// walk (they would otherwise fail the gate by design).
const FIXTURE_PREFIX: &str = "crates/lint/tests/fixtures/";

/// Every workspace-relative source path the lint examines.
pub fn lintable_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for lr in LINT_ROOTS {
        let mut abs = Vec::new();
        collect_rs(&root.join(lr), &mut abs);
        for p in abs {
            if let Ok(rel) = p.strip_prefix(root) {
                let rel = rel.to_string_lossy().replace('\\', "/");
                if !rel.starts_with(FIXTURE_PREFIX) {
                    files.push(rel);
                }
            }
        }
    }
    files.sort();
    files
}

/// Run the full rule set (token rules plus the metadata cross-check) over
/// the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    for rel in lintable_files(root) {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => findings.extend(rules::check_source(&rel, &src)),
            Err(e) => findings.push(Finding::new(
                "lint-annotation",
                &rel,
                0,
                format!("unreadable source file: {e}"),
            )),
        }
    }
    findings.extend(rules::stale_metadata(root));
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    Report { findings }
}
