//! Cross-file rules: telemetry coverage and config/doc drift.
//!
//! These rules do not scan for banned tokens; they parse declarations out
//! of specific files and cross-check them against each other and against
//! DESIGN.md, so a counter or paper parameter can never be added (or
//! renamed) without its aggregation and documentation following along.

use crate::lexer::{self, Tok};
use crate::report::Finding;
use std::path::Path;

/// A struct declaration extracted from a token stream.
#[derive(Debug)]
struct StructDecl {
    name: String,
    line: u32,
    /// (field name, type tokens) — type tokens empty for the field-name-only
    /// structs produced by telemetry's `counter_block!` macro.
    fields: Vec<(String, Vec<String>)>,
    /// Identifiers inside the immediately preceding `#[derive(...)]`.
    derives: Vec<String>,
}

/// Extract every `struct Name { ... }` with its fields and derive list.
/// Tuple structs and macro-definition fragments (`$name`) are skipped.
fn parse_structs(toks: &[Tok]) -> Vec<StructDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "struct" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let name = name_tok.text.clone();
        if !name
            .chars()
            .next()
            .map(char::is_alphabetic)
            .unwrap_or(false)
        {
            i += 2;
            continue;
        }
        // Find the body opener; `;` or `(` first means unit/tuple struct.
        let mut j = i + 2;
        let mut opener = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    opener = Some(j);
                    break;
                }
                ";" | "(" => break,
                _ => j += 1,
            }
        }
        let Some(body) = opener else {
            i = j + 1;
            continue;
        };
        let derives = derives_before(toks, i);
        let (fields, end) = parse_fields(toks, body);
        out.push(StructDecl {
            name,
            line: name_tok.line,
            fields,
            derives,
        });
        i = end;
    }
    out
}

/// Identifiers inside a `#[derive(...)]` attribute directly preceding the
/// tokens at `struct_idx` (possibly with other attributes in between).
fn derives_before(toks: &[Tok], struct_idx: usize) -> Vec<String> {
    // Walk backwards over `pub` and attribute groups, collecting derive
    // contents from any `# [ derive ( ... ) ]` group found.
    let mut derives = Vec::new();
    let mut k = struct_idx;
    while k > 0 {
        let prev = &toks[k - 1].text;
        if prev == "pub" {
            k -= 1;
            continue;
        }
        if prev == "]" {
            // Scan back to the matching `[` and its `#`.
            let mut depth = 0;
            let mut m = k - 1;
            loop {
                match toks[m].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if m == 0 {
                    return derives;
                }
                m -= 1;
            }
            if m == 0 || toks[m - 1].text != "#" {
                return derives;
            }
            if toks.get(m + 1).map(|t| t.text.as_str()) == Some("derive") {
                for t in &toks[m + 2..k - 1] {
                    if t.text
                        .chars()
                        .next()
                        .map(char::is_alphabetic)
                        .unwrap_or(false)
                    {
                        derives.push(t.text.clone());
                    }
                }
            }
            k = m - 1;
            continue;
        }
        break;
    }
    derives
}

/// Parse `pub field: Type,` entries of a struct body whose `{` is at
/// `open`. Returns the fields and the index just past the closing `}`.
fn parse_fields(toks: &[Tok], open: usize) -> (Vec<(String, Vec<String>)>, usize) {
    let mut fields = Vec::new();
    let mut i = open + 1;
    let mut brace = 1i32;
    while i < toks.len() && brace > 0 {
        match toks[i].text.as_str() {
            "}" => {
                brace -= 1;
                i += 1;
            }
            "{" => {
                brace += 1;
                i += 1;
            }
            "#" if toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") => {
                // Skip attributes on fields.
                let mut depth = 0;
                i += 1;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            "pub" if brace == 1 => {
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                let fname = name_tok.text.clone();
                if fname == "("
                    || !fname
                        .chars()
                        .next()
                        .map(|c| c.is_alphabetic() || c == '_')
                        .unwrap_or(false)
                {
                    i += 2;
                    continue;
                }
                let mut ty = Vec::new();
                let mut j = i + 2;
                if toks.get(j).map(|t| t.text.as_str()) == Some(":") {
                    // Consume the type until a `,` or `}` at nesting depth 0.
                    j += 1;
                    let mut angle = 0i32;
                    let mut paren = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "(" | "[" => paren += 1,
                            ")" | "]" => paren -= 1,
                            "," if angle <= 0 && paren <= 0 => break,
                            "}" if angle <= 0 && paren <= 0 => break,
                            _ => {}
                        }
                        ty.push(toks[j].text.clone());
                        j += 1;
                    }
                }
                fields.push((fname, ty));
                i = j;
            }
            _ => i += 1,
        }
    }
    (fields, i)
}

/// Locate the token body of `fn <name>(...) { ... }` and return its token
/// texts.
fn fn_body<'a>(toks: &'a [Tok], name: &str) -> Option<Vec<&'a str>> {
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].text == "fn" && toks[i + 1].text == name {
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" {
                j += 1;
            }
            let mut depth = 0;
            let start = j;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(toks[start..=j].iter().map(|t| t.text.as_str()).collect());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

fn contains_seq(body: &[&str], seq: &[&str]) -> bool {
    body.windows(seq.len()).any(|w| w == seq)
}

fn read(root: &Path, rel: &str, findings: &mut Vec<Finding>) -> Option<String> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(s) => Some(s),
        Err(e) => {
            findings.push(Finding::new(
                "lint-annotation",
                rel,
                0,
                format!("cross-check input missing or unreadable: {e}"),
            ));
            None
        }
    }
}

/// **telemetry-coverage**: every counter field declared via `counter_block!`
/// in `crates/telemetry` must be (a) aggregated as a `Snapshot` field whose
/// type is its counter block, (b) folded in `Snapshot::merge`, (c) part of
/// the JSON surface (`Snapshot` derives Serialize/Deserialize), and (d)
/// documented by name in DESIGN.md's counter reference.
pub fn telemetry_coverage(root: &Path) -> Vec<Finding> {
    const TELEMETRY: &str = "crates/telemetry/src/lib.rs";
    const DESIGN: &str = "DESIGN.md";
    let mut findings = Vec::new();
    let (Some(src), Some(design)) = (
        read(root, TELEMETRY, &mut findings),
        read(root, DESIGN, &mut findings),
    ) else {
        return findings;
    };
    let lexed = lexer::lex(&src);
    let structs = parse_structs(&lexed.toks);

    // Counter blocks: structs whose every field is typeless (the shape the
    // counter_block! macro takes) — skip macro fragments with no fields.
    let counter_blocks: Vec<&StructDecl> = structs
        .iter()
        .filter(|s| !s.fields.is_empty() && s.fields.iter().all(|(_, ty)| ty.is_empty()))
        .collect();
    let Some(snapshot) = structs.iter().find(|s| s.name == "Snapshot") else {
        findings.push(Finding::new(
            "telemetry-coverage",
            TELEMETRY,
            0,
            "could not locate `pub struct Snapshot`",
        ));
        return findings;
    };
    if counter_blocks.is_empty() {
        findings.push(Finding::new(
            "telemetry-coverage",
            TELEMETRY,
            0,
            "found no counter_block! declarations to check",
        ));
        return findings;
    }

    // (c) the JSON surface.
    for need in ["Serialize", "Deserialize"] {
        if !snapshot.derives.iter().any(|d| d == need) {
            findings.push(Finding::new(
                "telemetry-coverage",
                TELEMETRY,
                snapshot.line,
                format!("Snapshot must derive {need} so counters reach the JSON surface"),
            ));
        }
    }

    let merge_body = fn_body(&lexed.toks, "merge");
    for block in &counter_blocks {
        // (a) aggregated in Snapshot.
        let slot = snapshot
            .fields
            .iter()
            .find(|(_, ty)| ty.iter().any(|t| t == &block.name));
        let Some((slot_name, _)) = slot else {
            findings.push(Finding::new(
                "telemetry-coverage",
                TELEMETRY,
                block.line,
                format!(
                    "counter block `{}` is not aggregated: no Snapshot field has this type",
                    block.name
                ),
            ));
            continue;
        };
        // (b) folded in Snapshot::merge.
        match &merge_body {
            Some(body) if contains_seq(body, &["self", ".", slot_name, ".", "merge_from"]) => {}
            Some(_) => findings.push(Finding::new(
                "telemetry-coverage",
                TELEMETRY,
                block.line,
                format!(
                    "Snapshot::merge does not fold `self.{slot_name}.merge_from(...)` for counter \
                     block `{}` — parallel-run aggregation would silently drop it",
                    block.name
                ),
            )),
            None => findings.push(Finding::new(
                "telemetry-coverage",
                TELEMETRY,
                0,
                "could not locate fn merge in crates/telemetry",
            )),
        }
        // (d) every field documented in DESIGN.md.
        for (field, _) in &block.fields {
            if !design.contains(field.as_str()) {
                findings.push(Finding::new(
                    "telemetry-coverage",
                    TELEMETRY,
                    block.line,
                    format!(
                        "counter `{}.{field}` is not mentioned in DESIGN.md — add it to the \
                         telemetry counter reference",
                        block.name
                    ),
                ));
            }
        }
    }
    // phase_nanos is the one non-counter Snapshot field; it must merge too.
    if let Some(body) = &merge_body {
        if !body.contains(&"phase_nanos") {
            findings.push(Finding::new(
                "telemetry-coverage",
                TELEMETRY,
                snapshot.line,
                "Snapshot::merge does not fold phase_nanos",
            ));
        }
    }
    findings
}

/// The config structs whose field names DESIGN.md must track.
const CONFIG_STRUCTS: &[(&str, &str)] = &[
    ("crates/scenario/src/config.rs", "ProtocolConfig"),
    ("crates/bartercast/src/protocol.rs", "BarterCastConfig"),
    ("crates/core/src/protocol.rs", "VoteSamplingConfig"),
    ("crates/faults/src/config.rs", "FaultConfig"),
    ("crates/guard/src/config.rs", "GuardConfig"),
];

/// Paper parameters: (struct, field, symbol DESIGN.md must use).
const PAPER_PARAMS: &[(&str, &str, &str)] = &[
    ("VoteSamplingConfig", "b_min", "B_min"),
    ("VoteSamplingConfig", "b_max", "B_max"),
    ("VoteSamplingConfig", "v_max", "V_max"),
];

/// **config-drift**: every public field of the protocol config structs must
/// be named in DESIGN.md (case-insensitively, so prose may use the paper's
/// `B_max` for the `b_max` field), and the paper's parameter symbols must
/// appear verbatim.
pub fn config_drift(root: &Path) -> Vec<Finding> {
    const DESIGN: &str = "DESIGN.md";
    let mut findings = Vec::new();
    let Some(design) = read(root, DESIGN, &mut findings) else {
        return findings;
    };
    let design_lower = design.to_lowercase();
    for (rel, struct_name) in CONFIG_STRUCTS {
        let Some(src) = read(root, rel, &mut findings) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        let structs = parse_structs(&lexed.toks);
        let Some(decl) = structs.iter().find(|s| s.name == *struct_name) else {
            findings.push(Finding::new(
                "config-drift",
                rel,
                0,
                format!("could not locate `pub struct {struct_name}`"),
            ));
            continue;
        };
        for (field, _) in &decl.fields {
            if !design_lower.contains(&field.to_lowercase()) {
                findings.push(Finding::new(
                    "config-drift",
                    rel,
                    decl.line,
                    format!(
                        "config field `{struct_name}.{field}` is not documented in DESIGN.md — \
                         paper parameters must never silently diverge from their documentation"
                    ),
                ));
            }
        }
        for (s, field, symbol) in PAPER_PARAMS {
            if s != struct_name {
                continue;
            }
            if !decl.fields.iter().any(|(f, _)| f == field) {
                findings.push(Finding::new(
                    "config-drift",
                    rel,
                    decl.line,
                    format!("paper parameter field `{field}` missing from {struct_name}"),
                ));
            }
            if !design.contains(symbol) {
                findings.push(Finding::new(
                    "config-drift",
                    DESIGN,
                    0,
                    format!("paper symbol `{symbol}` is no longer mentioned in DESIGN.md"),
                ));
            }
        }
    }
    findings
}

/// Threading knobs: (knob spelling, source file that must implement it).
/// These are the only sanctioned ways to change the worker count, and the
/// differential harness proves they cannot change results — but only if the
/// documentation keeps naming them so users know they are safe to turn.
const THREADING_KNOBS: &[(&str, &str)] = &[
    ("RVS_THREADS", "crates/sim/src/pool.rs"),
    ("--threads", "src/bin/rvs.rs"),
    ("set_threads", "crates/scenario/src/system.rs"),
];

/// **threading-config**: every threading knob must exist in the source file
/// that owns it and be documented in DESIGN.md's configuration surface.
/// A knob that disappears from code while DESIGN.md still advertises it (or
/// vice versa) is drift of the kind this lint exists to catch.
pub fn threading_config(root: &Path) -> Vec<Finding> {
    const DESIGN: &str = "DESIGN.md";
    let mut findings = Vec::new();
    let Some(design) = read(root, DESIGN, &mut findings) else {
        return findings;
    };
    for (knob, rel) in THREADING_KNOBS {
        let Some(src) = read(root, rel, &mut findings) else {
            continue;
        };
        if !src.contains(knob) {
            findings.push(Finding::new(
                "threading-config",
                rel,
                0,
                format!(
                    "threading knob `{knob}` is no longer implemented in {rel} — update \
                     THREADING_KNOBS (and DESIGN.md) if it moved or was removed"
                ),
            ));
        }
        if !design.contains(knob) {
            findings.push(Finding::new(
                "threading-config",
                DESIGN,
                0,
                format!(
                    "threading knob `{knob}` ({rel}) is not documented in DESIGN.md — every \
                     way to change the worker count must appear in the configuration table"
                ),
            ));
        }
    }
    findings
}

/// **stale-metadata**: the lint's own path/crate lists must track the tree.
/// An `exempt_paths` entry or a [`crate::rules::PROTOCOL_CRATES`] member
/// naming something that no longer exists is a silently widened (or
/// silently vanished) audit surface: the exemption outlives the code it
/// excused, and the next file created at that path inherits it unreviewed.
pub fn stale_metadata(root: &Path) -> Vec<Finding> {
    const SELF: &str = "crates/lint/src/rules.rs";
    let mut findings = Vec::new();
    for rule in crate::rules::TOKEN_RULES {
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
    for krate in crate::rules::PROTOCOL_CRATES {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_metadata_flags_missing_paths() {
        // A root that holds none of the declared paths: every metadata
        // entry must be reported stale.
        let findings = stale_metadata(Path::new("/nonexistent/rvs-lint-stale-metadata"));
        let exempt_count: usize = crate::rules::TOKEN_RULES
            .iter()
            .map(|r| r.exempt_paths.len())
            .sum();
        let expected = exempt_count + crate::rules::PROTOCOL_CRATES.len();
        assert_eq!(findings.len(), expected, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "stale-metadata"));
    }

    #[test]
    fn parses_typed_and_typeless_structs() {
        let src = "
            #[derive(Debug, Serialize)]
            pub struct Snapshot { pub a: Foo, pub m: BTreeMap<String, u64>, }
            pub struct Counters { pub x, pub y, }
        ";
        let lexed = lexer::lex(src);
        let s = parse_structs(&lexed.toks);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "Snapshot");
        assert_eq!(s[0].fields.len(), 2);
        assert_eq!(s[0].fields[0].0, "a");
        assert_eq!(s[0].fields[1].0, "m");
        assert!(s[0].derives.iter().any(|d| d == "Serialize"));
        assert_eq!(s[1].name, "Counters");
        assert!(s[1].fields.iter().all(|(_, ty)| ty.is_empty()));
    }

    #[test]
    fn fn_body_is_located() {
        let src = "impl S { pub fn merge(&mut self, o: &S) { self.a.merge_from(&o.a); } }";
        let lexed = lexer::lex(src);
        let body = fn_body(&lexed.toks, "merge").unwrap();
        assert!(contains_seq(&body, &["self", ".", "a", ".", "merge_from"]));
    }
}
