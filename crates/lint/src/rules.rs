//! Rule definitions and the per-file token rule engine.
//!
//! Token rules are declarative: a rule is a set of banned token sequences,
//! a crate scope, and whether it also applies inside `#[cfg(test)]` code
//! and test/bench source trees. The engine matches sequences against the
//! lexer's normalized token stream and applies `// rvs-lint: allow(...)`
//! annotations (which require a written justification after `--`).

use crate::lexer::{self, Annotation};
use crate::report::Finding;
use std::path::Path;

/// Crates holding protocol logic whose runs must be bit-reproducible. The
/// determinism and panic-surface rules are strictest here.
pub const PROTOCOL_CRATES: &[&str] = &[
    "core",
    "modcast",
    "pss",
    "bartercast",
    "sim",
    "bittorrent",
    "faults",
    "checkpoint",
    "guard",
];

/// Which part of the workspace a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the protocol crates ([`PROTOCOL_CRATES`]).
    Protocol,
    /// Every workspace source file the lint walks (compat/ excluded).
    Workspace,
}

/// A declarative token-sequence rule.
#[derive(Debug)]
pub struct TokenRule {
    /// Stable rule id, used in findings and `allow(...)` annotations.
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
    /// Whether the rule also fires inside `#[cfg(test)]` items and files
    /// under `tests/`, `benches/`, or `examples/`.
    pub include_tests: bool,
    /// Banned token sequences (each element matches one normalized token).
    pub patterns: &'static [&'static [&'static str]],
    /// Why the construct is banned and what to use instead.
    pub rationale: &'static str,
    /// Workspace-relative paths where the rule is structurally exempt.
    /// Unlike `allow(...)` annotations (which suppress one occurrence with
    /// a written excuse), an exempt path is the *sanctioned home* of the
    /// construct: the place whose whole purpose is to own it. Keep this
    /// list near-empty — every entry widens the audited surface.
    pub exempt_paths: &'static [&'static str],
}

/// All token rules, in reporting order.
pub const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        id: "hash-container",
        scope: Scope::Workspace,
        include_tests: true,
        patterns: &[&["HashMap"], &["HashSet"]],
        rationale:
            "std hash containers iterate in RandomState order, which breaks bit-reproducible \
                    runs; use BTreeMap/BTreeSet or a sorted+deduped Vec",
        exempt_paths: &[],
    },
    TokenRule {
        id: "wall-clock",
        scope: Scope::Workspace,
        include_tests: true,
        patterns: &[&["Instant", "::", "now"], &["SystemTime"]],
        rationale: "wall-clock reads make runs irreproducible; simulation time must come from \
                    rvs_sim::SimTime and profiling belongs behind telemetry's gated PhaseTimer",
        exempt_paths: &[],
    },
    TokenRule {
        id: "ambient-rng",
        scope: Scope::Workspace,
        include_tests: true,
        patterns: &[
            &["thread_rng"],
            &["ThreadRng"],
            &["from_entropy"],
            &["OsRng"],
            &["getrandom"],
        ],
        rationale: "ambient entropy bypasses the seeded, forked DetRng streams every stochastic \
                    choice must flow through; plumb a DetRng instead",
        exempt_paths: &[],
    },
    TokenRule {
        id: "ambient-env",
        scope: Scope::Workspace,
        include_tests: true,
        patterns: &[&["std", "::", "env"]],
        rationale: "process environment reads make behaviour depend on invocation context; \
                    restrict std::env to annotated CLI entry points",
        exempt_paths: &[],
    },
    TokenRule {
        id: "ambient-thread",
        scope: Scope::Workspace,
        include_tests: true,
        patterns: &[&["std", "::", "thread"]],
        rationale: "the DES core is single-threaded by design; threads are only justified in the \
                    annotated fan-out harness whose determinism is proven by tests",
        exempt_paths: &["crates/sim/src/pool.rs"],
    },
    TokenRule {
        id: "panic-surface",
        scope: Scope::Protocol,
        include_tests: false,
        patterns: &[
            &[".", "unwrap", "(", ")"],
            &[".", "expect", "("],
            &["panic", "!"],
            &["unreachable", "!"],
            &["todo", "!"],
            &["unimplemented", "!"],
        ],
        rationale: "protocol crates gossip adversarial input; a reachable panic is a remote \
                    crash — return Option/Result or handle the case explicitly \
                    (assert!/debug_assert! for documented invariants are permitted)",
        exempt_paths: &[],
    },
];

/// Rule ids that exist only as cross-file checks (valid in annotations).
pub const CROSS_CHECK_RULES: &[&str] = &["stale-metadata"];

/// **stale-metadata**: the lint's own path/crate lists must track the tree.
/// An `exempt_paths` entry or a [`PROTOCOL_CRATES`] member naming something
/// that no longer exists is a silently widened (or silently vanished) audit
/// surface: the exemption outlives the code it excused, and the next file
/// created at that path inherits it unreviewed.
pub fn stale_metadata(root: &Path) -> Vec<Finding> {
    const SELF: &str = "crates/lint/src/rules.rs";
    let mut findings = Vec::new();
    for rule in TOKEN_RULES {
        for entry in rule.exempt_paths {
            if !root.join(entry).is_file() {
                findings.push(Finding::new(
                    "stale-metadata",
                    SELF,
                    0,
                    format!(
                        "rule `{}` exempt_paths entry `{entry}` does not exist on disk — a stale \
                         exemption would be inherited unreviewed by whatever is created there \
                         next; update the list",
                        rule.id
                    ),
                ));
            }
        }
    }
    for krate in PROTOCOL_CRATES {
        if !root.join("crates").join(krate).is_dir() {
            findings.push(Finding::new(
                "stale-metadata",
                SELF,
                0,
                format!(
                    "PROTOCOL_CRATES member `{krate}` has no `crates/{krate}/` directory — the \
                     strictest rule scope silently covers nothing for it; update the list"
                ),
            ));
        }
    }
    findings
}

/// Is `rule` a known rule id (token or cross-check)?
pub fn known_rule(rule: &str) -> bool {
    TOKEN_RULES.iter().any(|r| r.id == rule) || CROSS_CHECK_RULES.contains(&rule)
}

/// How a file is classified before rules run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Whether the file is under `crates/<c>/` for a `c` in
    /// [`PROTOCOL_CRATES`].
    pub protocol: bool,
    /// Whole file is test/bench scope (under `tests/`, `benches/`, or
    /// `examples/`).
    pub test_file: bool,
}

/// Classify a workspace-relative path like `crates/core/src/vote.rs`.
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let protocol = parts.first() == Some(&"crates")
        && parts.get(1).is_some_and(|c| PROTOCOL_CRATES.contains(c));
    let test_file = parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    FileClass {
        protocol,
        test_file,
    }
}

/// One `allow(...)` grant: a single rule from a single annotation, plus a
/// used-flag so suppressions that never suppress anything can themselves be
/// reported (`unused-suppression`).
struct Grant {
    rule: String,
    /// Annotation line. Line-scoped grants cover findings on this line and
    /// the next; file-scoped grants cover the whole file.
    line: u32,
    file_scoped: bool,
    justification: String,
    used: bool,
}

/// Suppression state assembled from a file's annotations.
struct Suppressions {
    grants: Vec<Grant>,
}

impl Suppressions {
    fn collect(rel_path: &str, annotations: &[Annotation], findings: &mut Vec<Finding>) -> Self {
        let mut grants = Vec::new();
        for a in annotations {
            if let Some(err) = &a.error {
                findings.push(Finding::new(
                    "lint-annotation",
                    rel_path,
                    a.line,
                    err.clone(),
                ));
                continue;
            }
            if a.justification.is_none() {
                findings.push(Finding::new(
                    "lint-annotation",
                    rel_path,
                    a.line,
                    "rvs-lint allow annotation is missing its `-- <justification>`; every \
                     exception must say why it is sound"
                        .to_string(),
                ));
                continue;
            }
            let just = a.justification.clone().unwrap_or_default();
            for rule in &a.rules {
                if !known_rule(rule) {
                    findings.push(Finding::new(
                        "lint-annotation",
                        rel_path,
                        a.line,
                        format!("unknown rule `{rule}` in rvs-lint allow annotation"),
                    ));
                    continue;
                }
                grants.push(Grant {
                    rule: rule.clone(),
                    line: a.line,
                    file_scoped: a.file_scoped,
                    justification: just.clone(),
                    used: false,
                });
            }
        }
        Suppressions { grants }
    }

    /// Look up a grant covering a finding of `rule` on `line`, marking it
    /// used. Line-scoped grants (more specific) win over file-scoped ones.
    fn suppress(&mut self, rule: &str, line: u32) -> Option<String> {
        if let Some(g) = self
            .grants
            .iter_mut()
            .find(|g| !g.file_scoped && g.rule == rule && (line == g.line || line == g.line + 1))
        {
            g.used = true;
            return Some(g.justification.clone());
        }
        if let Some(g) = self
            .grants
            .iter_mut()
            .find(|g| g.file_scoped && g.rule == rule)
        {
            g.used = true;
            return Some(g.justification.clone());
        }
        None
    }

    /// Findings for every grant that suppressed nothing. A dead `allow` is
    /// not harmless: it advertises an exception that no longer exists, and
    /// it would silently swallow the next real finding near its line.
    fn unused(&self, rel_path: &str) -> Vec<Finding> {
        self.grants
            .iter()
            .filter(|g| !g.used)
            .map(|g| {
                Finding::new(
                    "unused-suppression",
                    rel_path,
                    g.line,
                    format!(
                        "`allow{}({})` suppresses nothing — remove the stale annotation (it \
                         would hide the next real `{}` finding introduced near this line)",
                        if g.file_scoped { "-file" } else { "" },
                        g.rule,
                        g.rule,
                    ),
                )
            })
            .collect()
    }
}

/// Run every applicable token rule over one file's source text.
///
/// `rel_path` is workspace-relative and determines crate scoping; the
/// returned findings include justified ones (with their justification
/// attached) so reports can show the full exception surface. `allow`
/// grants that suppress nothing become `unused-suppression` findings.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel_path);
    let lexed = lexer::lex(src);
    let in_test = lexer::test_spans(&lexed.toks);
    let mut findings = Vec::new();
    let mut suppressions = Suppressions::collect(rel_path, &lexed.annotations, &mut findings);
    // Findings pushed before this point (malformed annotations) are not
    // themselves suppressible; remember where the suppressible ones start.
    let suppressible_from = findings.len();

    for rule in TOKEN_RULES {
        let in_scope = match rule.scope {
            Scope::Protocol => class.protocol,
            Scope::Workspace => true,
        };
        if !in_scope || (!rule.include_tests && class.test_file) {
            continue;
        }
        if rule.exempt_paths.contains(&rel_path) {
            continue;
        }
        for pattern in rule.patterns {
            let mut i = 0;
            while i + pattern.len() <= lexed.toks.len() {
                let matched = pattern
                    .iter()
                    .enumerate()
                    .all(|(k, want)| lexed.toks[i + k].text == *want);
                if !matched {
                    i += 1;
                    continue;
                }
                if !rule.include_tests && in_test[i] {
                    i += pattern.len();
                    continue;
                }
                let line = lexed.toks[i].line;
                let shown = pattern.join("");
                findings.push(Finding::new(
                    rule.id,
                    rel_path,
                    line,
                    format!("`{shown}` is banned here: {}", rule.rationale),
                ));
                i += pattern.len();
            }
        }
    }

    for f in &mut findings[suppressible_from..] {
        if let Some(just) = suppressions.suppress(&f.rule, f.line) {
            f.justification = Some(just);
        }
    }
    findings.extend(suppressions.unused(rel_path));
    // Scanning goes rule-by-rule; present findings in source order.
    findings.sort_by(|a, b| (a.line, &a.rule, &a.message).cmp(&(b.line, &b.rule, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// rvs-lint: allow(hash-container) -- nothing here uses one\nfn f() {}\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-suppression");
        assert!(f[0].message.contains("allow(hash-container)"));
    }

    #[test]
    fn used_allow_is_not_reported_unused() {
        let src = "// rvs-lint: allow(hash-container) -- exercising the grant\nuse std::collections::HashMap;\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hash-container");
        assert!(f[0].justification.is_some());
    }

    #[test]
    fn file_scoped_allow_marks_used_once_for_many_findings() {
        let src = "// rvs-lint: allow-file(hash-container) -- test fixture\n\
                   fn a() { let _: HashMap<u8, u8>; }\n\
                   fn b() { let _: HashSet<u8>; }\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.justification.is_some()));
    }

    #[test]
    fn stale_metadata_flags_missing_paths() {
        // A root that holds none of the declared paths: every metadata
        // entry must be reported stale.
        let findings = stale_metadata(Path::new("/nonexistent/rvs-lint-stale-metadata"));
        let exempt_count: usize = TOKEN_RULES.iter().map(|r| r.exempt_paths.len()).sum();
        assert_eq!(
            findings.len(),
            exempt_count + PROTOCOL_CRATES.len(),
            "{findings:?}"
        );
        assert!(findings.iter().all(|f| f.rule == "stale-metadata"));
    }

    #[test]
    fn classify_paths() {
        let c = classify("crates/core/src/vote.rs");
        assert!(c.protocol && !c.test_file);
        let t = classify("crates/bartercast/tests/proptests.rs");
        assert!(t.protocol && t.test_file);
        assert!(!classify("crates/metrics/src/lib.rs").protocol);
        assert!(!classify("src/bin/rvs.rs").protocol);
        let e = classify("examples/quickstart.rs");
        assert!(e.test_file);
    }
}
