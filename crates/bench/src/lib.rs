//! Shared plumbing for the figure/table regeneration binaries.
// rvs-lint: allow-file(wall-clock) -- bench harness: human-facing wall-clock reporting; never part of simulated protocol state
//!
//! Every binary accepts `--quick` to run a scaled-down configuration
//! (minutes → seconds) and prints the same rows/series the paper reports,
//! as aligned text tables. Its command line goes through
//! [`robust_vote_sampling::cli`], the grammar `rvs` uses too: an argument
//! it does not take, or a valued flag with nothing after it, is refused
//! with exit 2, the complaint on the first stderr line, the usage text
//! under it and nothing simulated. Paper-vs-measured comparisons are
//! recorded in `EXPERIMENTS.md`.

use robust_vote_sampling::cli::{self, Args};
use std::time::Instant;

/// This binary's command line, checked against `grammar`; the usage text
/// under a refusal is `bin` followed by the grammar.
pub fn args(bin: &str, grammar: &[&str]) -> Args {
    let usage = format!("USAGE:\n    {bin} [{}]", grammar.join("] ["));
    cli::accept(&cli::argv(), grammar, &usage)
}

/// Write `value` as pretty JSON to `path`, the `--json FILE` a binary was
/// given, for external plotting. A file that cannot be written is a
/// failure at run time: the complaint on stderr and exit 1.
pub fn maybe_write_json<T: serde::Serialize>(path: Option<&str>, value: &T) {
    let Some(path) = path else {
        return;
    };
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| format!("failed to serialize results: {e}"))
        .and_then(|json| {
            std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))
        });
    match written {
        Ok(()) => eprintln!("[raw results written to {path}]"),
        Err(complaint) => {
            eprintln!("{complaint}");
            std::process::exit(1);
        }
    }
}

/// Print a standard experiment header.
pub fn header(id: &str, title: &str, quick: bool) {
    println!("================================================================");
    println!("{id} — {title}");
    if quick {
        println!("mode: --quick (scaled-down; see EXPERIMENTS.md for paper-scale)");
    } else {
        println!("mode: paper-scale");
    }
    println!("================================================================");
}

/// Peak resident set of this process so far, MiB: `VmHWM` from
/// `/proc/self/status`, `None` where there is no such file (off Linux).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Run `f`, timing it, and report the wall-clock at the end.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 41 + 1), 42);
    }

    #[test]
    fn peak_rss_is_read_where_the_kernel_reports_it() {
        let has_status = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(peak_rss_mib().is_some(), has_status);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0 && mib.is_finite(), "{mib}");
        }
    }
}
