//! The committed negative corpus: every file under `tests/fixtures/` is a
//! known-bad source that must make specific rules fire. Each fixture
//! declares its own contract in a header:
//!
//! ```text
//! // fixture-path: crates/core/src/fixture.rs   (path the lint classifies)
//! // expect: rule-a rule-a rule-b               (exact unjustified multiset)
//! ```
//!
//! The runner asserts the *exact* multiset of unjustified findings, so a
//! rule that stops firing (or starts double-firing) on its fixture breaks
//! the build — the lint is itself regression-tested. A final test asserts
//! the corpus covers every per-file rule the engine can emit, and that the
//! workspace walk never lints the corpus.

use rvs_lint::check_source;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// (fixture file name, declared lint path, expected rule multiset, source).
fn corpus() -> Vec<(String, String, Vec<String>, String)> {
    let mut entries = Vec::new();
    let dir = fixtures_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture corpus dir {} unreadable: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "rs").unwrap_or(false))
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&p).unwrap();
        let mut lint_path = None;
        let mut expect = None;
        for line in src.lines() {
            if let Some(rest) = line.strip_prefix("// fixture-path:") {
                lint_path = Some(rest.trim().to_string());
            }
            if let Some(rest) = line.strip_prefix("// expect:") {
                expect = Some(
                    rest.split_whitespace()
                        .map(str::to_string)
                        .collect::<Vec<_>>(),
                );
            }
        }
        let lint_path =
            lint_path.unwrap_or_else(|| panic!("{name}: missing `// fixture-path:` header"));
        let expect = expect.unwrap_or_else(|| panic!("{name}: missing `// expect:` header"));
        assert!(!expect.is_empty(), "{name}: empty expectation");
        entries.push((name, lint_path, expect, src));
    }
    assert!(!entries.is_empty(), "fixture corpus is empty");
    entries
}

fn multiset(rules: impl Iterator<Item = String>) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for r in rules {
        *m.entry(r).or_insert(0) += 1;
    }
    m
}

/// Every fixture produces exactly its declared unjustified findings.
#[test]
fn every_fixture_fires_exactly_as_declared() {
    for (name, lint_path, expect, src) in corpus() {
        let findings = check_source(&lint_path, &src);
        let got = multiset(
            findings
                .iter()
                .filter(|f| f.justification.is_none())
                .map(|f| f.rule.clone()),
        );
        let want = multiset(expect.into_iter());
        assert_eq!(
            got, want,
            "{name} (as {lint_path}): expected multiset differs; findings: {findings:#?}"
        );
    }
}

/// The corpus collectively exercises every per-file rule id the engine can
/// emit: all token rules, suppression hygiene, and annotation validity.
/// Adding a rule without a fixture breaks this test.
#[test]
fn corpus_covers_every_per_file_rule() {
    let covered: std::collections::BTreeSet<String> = corpus()
        .into_iter()
        .flat_map(|(_, _, expect, _)| expect)
        .collect();
    let mut required: Vec<&str> = rvs_lint::TOKEN_RULES.iter().map(|r| r.id).collect();
    required.extend(["unused-suppression", "lint-annotation"]);
    let missing: Vec<&&str> = required.iter().filter(|r| !covered.contains(**r)).collect();
    assert!(
        missing.is_empty(),
        "rules with no firing fixture in tests/fixtures/: {missing:?}"
    );
}

/// The workspace walk must never visit the corpus: these files exist to
/// fail the rules, and would otherwise fail the tier-1 gate by design.
#[test]
fn workspace_walk_excludes_the_corpus() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let files = rvs_lint::lintable_files(&root);
    assert!(
        files.iter().any(|f| f.starts_with("crates/lint/src/")),
        "walk sanity check: lint sources must be visited"
    );
    let leaked: Vec<&String> = files
        .iter()
        .filter(|f| f.starts_with("crates/lint/tests/fixtures/"))
        .collect();
    assert!(leaked.is_empty(), "corpus leaked into the walk: {leaked:?}");
}
