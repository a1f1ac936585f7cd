//! `fig6_vote_sampling` refuses a command line it cannot run — too few
//! peers for the Fig 6 cast, no runs, no hours or a span past the simulated
//! clock, a `--json` without a path — with a one-line complaint, the usage
//! text and exit 2 before any simulation starts, as `rvs run` does; the
//! smallest population it can cast still runs.

use rvs_scenario::experiments::vote_sampling::FIG6_MIN_PEERS;
use rvs_sim::SimTime;
use std::process::{Command, Output};

fn fig6(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig6_vote_sampling"))
        .args(args)
        .output()
        .expect("fig6_vote_sampling runs")
}

/// `args` exit 2 with `complaint` as the first stderr line and the usage
/// text under it, and write nothing on stdout.
fn assert_refused(args: &[&str], complaint: &str) {
    let out = fig6(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran: {out:?}");
    assert_eq!(stderr.lines().next(), Some(complaint), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
}

#[test]
fn populations_below_the_cast_are_refused() {
    for peers in 0..FIG6_MIN_PEERS {
        let complaint = format!("--peers must be at least {FIG6_MIN_PEERS}, got {peers}");
        assert_refused(&["--quick", "--peers", &peers.to_string()], &complaint);
    }
}

#[test]
fn zero_runs_are_refused() {
    assert_refused(
        &["--quick", "--runs", "0"],
        "--runs must be at least 1, got 0",
    );
}

#[test]
fn hours_past_the_clock_are_refused() {
    // One hour more than the clock counts in milliseconds used to wrap
    // into a sub-hour run.
    let max = SimTime::MAX_HOURS;
    let hours = (max + 1).to_string();
    let complaint = format!("--hours must be at most {max}, got {hours}");
    assert_refused(&["--quick", "--runs", "1", "--hours", &hours], &complaint);
    // A run of no hours simulates nothing; it used to exit 0 all the same.
    let complaint = "--hours must be at least 1, got 0";
    assert_refused(&["--quick", "--runs", "1", "--hours", "0"], complaint);
}

#[test]
fn a_trailing_json_without_a_path_is_refused() {
    assert_refused(&["--quick", "--json"], "flag `--json` needs a value");
}

#[test]
fn the_smallest_cast_runs() {
    let peers = FIG6_MIN_PEERS.to_string();
    let out = fig6(&["--quick", "--peers", &peers]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("trace: {peers} peers")),
        "{stdout}"
    );
}

#[test]
fn a_json_file_that_cannot_be_written_fails_the_run() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-dir/fig6.json");
    let out = fig6(&["--quick", "--runs", "1", "--hours", "1", "--json", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr.contains(&format!("failed to write {path}")),
        "{stderr}"
    );
}
