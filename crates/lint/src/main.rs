//! CLI for `rvs-lint`.
//!
//! ```text
//! cargo run -p rvs-lint -- --workspace-root . [--json] [--deny-findings]
//! ```
//!
//! Prints every finding (justified ones annotated with their written
//! justification). Exit code is 0 unless `--deny-findings` is given and at
//! least one unjustified finding exists.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut deny = false;
    // rvs-lint: allow(ambient-env) -- CLI argument parsing at the binary entry point
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace-root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--workspace-root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--deny-findings" => deny = true,
            "--help" | "-h" => {
                println!(
                    "rvs-lint: static analysis for determinism, panic-surface and suppression \
                     invariants\n\n\
                     USAGE: rvs-lint [--workspace-root PATH] [--json] [--deny-findings]\n\n\
                     Token rules: {}\n\
                     Cross-checks: {}\n\
                     Suppression hygiene: unused-suppression\n\
                     Exceptions: `// rvs-lint: allow(<rule>) -- <justification>` on or above the \
                     line, or `allow-file(...)` anywhere in the file.",
                    rvs_lint::TOKEN_RULES
                        .iter()
                        .map(|r| r.id)
                        .collect::<Vec<_>>()
                        .join(", "),
                    rvs_lint::rules::CROSS_CHECK_RULES.join(", "),
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "{} does not look like the workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = rvs_lint::run(&root);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if deny && report.unjustified_count() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
