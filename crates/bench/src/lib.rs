//! Shared plumbing for the figure/table regeneration binaries.
// rvs-lint: allow-file(ambient-env, wall-clock) -- bench harness: CLI flag parsing and human-facing wall-clock reporting; never part of simulated protocol state
//!
//! Every binary accepts `--quick` to run a scaled-down configuration
//! (minutes → seconds) and prints the same rows/series the paper reports,
//! as aligned text tables; each refuses an argument it does not read.
//! Paper-vs-measured comparisons are recorded in `EXPERIMENTS.md`.

use std::time::Instant;

/// Did the user pass `--quick`?
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following `--json`, if present: a path to dump the
/// experiment's raw series/rows as JSON for external plotting.
pub fn json_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(Into::into);
        }
    }
    None
}

/// Write `value` as pretty JSON to the `--json` path when given.
pub fn maybe_write_json<T: serde::Serialize>(value: &T) {
    if let Some(path) = json_path() {
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write {}: {e}", path.display());
                } else {
                    eprintln!("[raw results written to {}]", path.display());
                }
            }
            Err(e) => eprintln!("failed to serialize results: {e}"),
        }
    }
}

/// Print `msg` to stderr and exit 2: the command line asks for a run the
/// binary cannot make.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The `usize` value following `--<name>`, if present (e.g. `--peers
/// 10000`). Exits with a usage error on a malformed value rather than
/// silently running the wrong experiment.
pub fn flag_usize(name: &str) -> Option<usize> {
    let flag = format!("--{name}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            let raw = args.next().unwrap_or_default();
            match raw.parse() {
                Ok(v) => return Some(v),
                Err(_) => usage_error(&format!("{flag} expects an unsigned integer, got {raw:?}")),
            }
        }
    }
    None
}

/// [`flag_usize`] for a count that must be at least `min`: a smaller value
/// is a usage error, not a run of something else.
pub fn flag_at_least(name: &str, min: usize) -> Option<usize> {
    let v = flag_usize(name)?;
    if v < min {
        usage_error(&format!("--{name} must be at least {min}, got {v}"));
    }
    Some(v)
}

/// The first command-line argument that is neither one of `switches`, one
/// of `valued`, nor the value following a `valued` flag — or a `valued`
/// flag with nothing after it.
fn first_unknown_arg(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    valued: &[&str],
) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            if args.next().is_none() {
                return Some(a);
            }
        } else if !switches.contains(&a.as_str()) {
            return Some(a);
        }
    }
    None
}

/// Exit with a usage error on an argument the binary does not take (a
/// misspelt or removed flag, a stray value) or on a valued flag missing
/// its value, rather than silently running the default experiment.
/// `switches` stand alone; each of `valued` is followed by one value.
pub fn reject_unknown_args(switches: &[&str], valued: &[&str]) {
    let Some(a) = first_unknown_arg(std::env::args().skip(1), switches, valued) else {
        return;
    };
    if valued.contains(&a.as_str()) {
        usage_error(&format!("{a} expects a value"));
    }
    let takes: Vec<String> = switches
        .iter()
        .map(|s| s.to_string())
        .chain(valued.iter().map(|v| format!("{v} VALUE")))
        .collect();
    usage_error(&format!(
        "unknown argument {a:?}; takes: {}",
        takes.join(" ")
    ));
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

    #[test]
    fn unknown_arguments_are_found_and_listed_ones_pass() {
        let unknown = |line: &str| {
            let args = line.split_whitespace().map(String::from);
            first_unknown_arg(args, &["--quick", "--audit"], &["--peers", "--json"])
        };
        assert_eq!(unknown(""), None);
        assert_eq!(unknown("--quick --peers 100 --json out.json --audit"), None);
        // A valued flag swallows exactly one argument, whatever it is.
        assert_eq!(unknown("--json --quick"), None);
        assert_eq!(unknown("--peer 10000"), Some("--peer".into()));
        assert_eq!(unknown("--quick --no-such"), Some("--no-such".into()));
        assert_eq!(unknown("--peers 100 200"), Some("200".into()));
        // A valued flag with nothing after it is named too.
        assert_eq!(unknown("--quick --json"), Some("--json".into()));
        assert_eq!(unknown("--json out.json --peers"), Some("--peers".into()));
        // What the binaries other than `fig6_vote_sampling` take: `--quick`,
        // and `--json` only where a series is written. A misspelt `--quick`
        // must not fall through to the paper-scale run.
        let unknown = |line: &str, valued: &[&str]| {
            let args = line.split_whitespace().map(String::from);
            first_unknown_arg(args, &["--quick"], valued)
        };
        assert_eq!(unknown("--quick", &[]), None);
        assert_eq!(unknown("--quik", &[]), Some("--quik".into()));
        assert_eq!(unknown("--quick --json out.json", &["--json"]), None);
        assert_eq!(
            unknown("--quick --json out.json", &[]),
            Some("--json".into())
        );
        assert_eq!(unknown("--audit", &["--json"]), Some("--audit".into()));
    }
}
