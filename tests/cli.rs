//! `rvs` rejects command-line mistakes instead of running something else:
//! an unknown flag, an unparsable value and a flag missing its value each
//! end in a one-line message plus the usage text on stderr and a non-zero
//! exit, before any simulation starts.

use std::process::Command;

/// Run `rvs` with `args`; it must fail, print nothing on stdout, and say
/// `complaint` on the first stderr line, followed by the usage text.
fn assert_rejected(args: &[&str], complaint: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_rvs"))
        .args(args)
        .output()
        .expect("rvs runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`rvs {args:?}` must exit non-zero");
    assert!(out.stdout.is_empty(), "`rvs {args:?}` ran: {out:?}");
    assert_eq!(stderr.lines().next(), Some(complaint), "stderr:\n{stderr}");
    assert!(stderr.contains("USAGE:"), "stderr:\n{stderr}");
}

#[test]
fn removed_and_unknown_flags_are_rejected() {
    // The flag this build removed, spelled in two pieces so that a grep
    // for it over the tree comes back empty.
    let removed = ["--", "shards"].concat();
    let complaint = format!("unknown flag `{removed}`");
    assert_rejected(&["run", &removed, "4"], &complaint);
    assert_rejected(&["attack", &removed, "4"], &complaint);
    // A flag of another sub-command is just as unknown here.
    assert_rejected(&["trace", "--crowd", "5"], "unknown flag `--crowd`");
    assert_rejected(&["run", "peers", "12"], "unexpected argument `peers`");
    assert_rejected(&["ckpt", "regen", "--out", "x"], "unknown flag `--out`");
}

#[test]
fn unparsable_values_are_rejected() {
    assert_rejected(
        &["run", "--peers", "abc"],
        "invalid value `abc` for --peers",
    );
    assert_rejected(
        &["attack", "--flood", "-1"],
        "invalid value `-1` for --flood",
    );
    assert_rejected(
        &["run", "--loss", "lots"],
        "invalid value `lots` for --loss",
    );
}

#[test]
fn an_hour_count_past_the_clock_is_rejected() {
    // 5,124,095,576,030,432 h is 2⁶⁴ ms and a little more: its milliseconds
    // used to wrap to under an hour, and a run exited 0 after simulating
    // that. One hour past the largest count the clock holds is refused the
    // same way.
    let max = rvs_sim::SimTime::MAX_HOURS;
    let past = (max + 1).to_string();
    for (cmd, hours) in [
        ("trace", "5124095576030432"),
        ("stats", past.as_str()),
        ("run", "5124095576030432"),
        ("attack", "18446744073709551615"),
    ] {
        assert_rejected(
            &[cmd, "--hours", hours],
            &format!("--hours must be at most {max}, got {hours}"),
        );
    }
}

#[test]
fn parsable_but_impossible_values_are_rejected() {
    // Each of these parses, and used to end in a library assertion (or,
    // for the rates, in a silently meaningless run).
    for cmd in ["trace", "stats", "run", "attack"] {
        let floor = if cmd == "run" { 6 } else { 1 };
        assert_rejected(
            &[cmd, "--peers", "0"],
            &format!("--peers must be at least {floor}, got 0"),
        );
    }
    assert_rejected(
        &["run", "--peers", "5"],
        "--peers must be at least 6, got 5",
    );
    assert_rejected(
        &["stats", "--traces", "0"],
        "--traces must be at least 1, got 0",
    );
    assert_rejected(
        &["attack", "--core", "0"],
        "--core must be at least 1, got 0",
    );
    assert_rejected(
        &["attack", "--crowd", "0"],
        "--crowd must be at least 1, got 0",
    );
    // A per-mille rate past 1000 used to be clamped to 1000 in silence.
    assert_rejected(
        &["attack", "--malform", "1001"],
        "--malform must be at most 1000, got 1001",
    );
    for loss in ["1.5", "-1", "NaN"] {
        assert_rejected(
            &["run", "--loss", loss],
            &format!("--loss must be a probability in [0, 1], got {loss}"),
        );
    }
    for cmd in ["run", "attack"] {
        assert_rejected(
            &[cmd, "--t-mib", "NaN"],
            "--t-mib must be a finite number >= 0, got NaN",
        );
        // A worker count past 64 used to be clamped to 64 in silence.
        assert_rejected(
            &[cmd, "--threads", "65"],
            "--threads must be at most 64, got 65",
        );
    }
    // More flooders than trace peers used to make every peer, the core
    // included, a flooder.
    assert_rejected(
        &["attack", "--peers", "12", "--hours", "2", "--flood", "50"],
        "--flood must be at most --peers (12), got 50",
    );
}

#[test]
fn resume_rejects_the_fresh_run_flags_it_would_ignore() {
    for (flag, value) in [
        ("--seed", "3"),
        ("--peers", "12"),
        ("--t-mib", "1"),
        ("--loss", "0.1"),
        ("--faults", "f.json"),
    ] {
        assert_rejected(
            &["run", "--resume", "x.ckpt", flag, value],
            &format!("{flag} cannot be combined with --resume: the checkpoint fixes it"),
        );
    }
}

#[test]
fn a_checkpoint_cadence_that_never_falls_inside_the_run_is_rejected() {
    // The run writes a checkpoint only before `--hours`; these used to
    // exit 0 having written nothing.
    for every in ["2", "5"] {
        assert_rejected(
            &[
                "run",
                "--peers",
                "12",
                "--hours",
                "2",
                "--checkpoint-every",
                every,
            ],
            &format!("--checkpoint-every must be less than the 2 h left to run, got {every}"),
        );
    }
    // After --resume the hours left count from the checkpoint's time, 2 h.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6-seed1.ckpt");
    assert_rejected(
        &[
            "run",
            "--resume",
            golden,
            "--hours",
            "4",
            "--checkpoint-every",
            "2",
        ],
        "--checkpoint-every must be less than the 2 h left to run, got 2",
    );
}

#[test]
fn ckpt_inspect_says_where_the_bytes_are() {
    use robust_vote_sampling::scenario::Checkpoint;
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6-seed1.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_rvs"))
        .args(["ckpt", "inspect", golden])
        .output()
        .expect("rvs runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One indented `name bytes share %` line per section.
    let rows: Vec<(String, usize)> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            (
                fields[0].to_string(),
                fields[1].parse().expect("a byte count"),
            )
        })
        .collect();
    let ckpt = Checkpoint::load(std::path::Path::new(golden)).expect("golden loads");
    let names: Vec<String> = ckpt
        .sections()
        .expect("indexes")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        rows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        names,
        "{stdout}"
    );
    // The 8-byte magic, the 4-byte version and the identity prefix (seed,
    // time, trace peers, total nodes: 8 bytes each) precede the sections.
    let sections: usize = rows.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(sections, ckpt.as_bytes().len() - 8 - 4 - 4 * 8, "{stdout}");
}

#[test]
fn a_trailing_flag_without_value_is_rejected() {
    assert_rejected(
        &["run", "--peers", "12", "--hours", "1", "--telemetry"],
        "flag `--telemetry` needs a value",
    );
}

#[test]
fn a_well_formed_command_still_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_rvs"))
        .args(["run", "--peers", "12", "--hours", "2", "--threads", "2"])
        .output()
        .expect("rvs runs");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("fraction of nodes ranking"));
}

#[test]
fn ckpt_diff_names_the_first_differing_section() {
    use robust_vote_sampling::scenario::{Checkpoint, System};
    use rvs_sim::{SimDuration, SimTime};
    use std::path::Path;

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig6-seed1.ckpt");
    let later = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-diff-one-hour-later.ckpt");
    let mut system = System::restore(&Checkpoint::load(&golden).unwrap()).unwrap();
    system.run_until(
        system.now() + SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        |_, _| {},
    );
    assert_eq!(system.now(), SimTime::from_hours(3));
    system.checkpoint().save(&later).unwrap();

    let diff = |b: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_rvs"))
            .args(["ckpt", "diff"])
            .args([&golden, b])
            .output()
            .expect("rvs runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    assert_eq!(diff(&golden), (true, "identical\n".to_string()));
    // Configuration, cast and trace are the same run's; the BitTorrent
    // substrate is the first section an extra hour changes.
    let (same, report) = diff(&later);
    assert!(!same, "differing files must exit non-zero");
    assert!(report.contains("simulated time : 002:00:00  vs  003:00:00"));
    assert!(report.contains("first differing section: `net`"));

    // A file this build cannot restore has no section index; the report
    // falls back to the header fields and the first differing byte.
    let legacy = golden.with_file_name("legacy/fig6-seed1.v3.ckpt");
    let (same, report) = diff(&legacy);
    assert!(!same);
    let versions = format!("format version : {}  vs  3", rvs_checkpoint::FORMAT_VERSION);
    assert!(report.contains(&versions), "{report}");
    assert!(
        report.contains("first differing byte: offset 8\nB: no section index"),
        "{report}"
    );

    assert_rejected(
        &["ckpt", "diff", "--json", "a", "b"],
        "unknown flag `--json`",
    );
    assert_rejected(&["ckpt", "diff", "a"], "usage: rvs ckpt diff A B");
}

#[test]
fn a_resumed_run_reproduces_the_uninterrupted_accuracy_rows() {
    // The resume path recovers M1–M3 from the checkpoint's trace alone;
    // the rows and the board it prints must be the uninterrupted run's.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let rvs = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rvs"))
            .args(args)
            .output()
            .expect("rvs runs");
        assert!(out.status.success(), "`rvs {args:?}`: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    // `(hours, accuracy)` rows of the table, and the board after them.
    let split = |stdout: &str| {
        let (table, board) = stdout.split_once("moderator board").expect("a board");
        let rows: Vec<(f64, String)> = table
            .lines()
            .filter_map(|line| {
                let (hours, acc) = line.trim().split_once(char::is_whitespace)?;
                Some((hours.parse().ok()?, acc.trim().to_string()))
            })
            .collect();
        (rows, board.to_string())
    };
    let fresh = ["run", "--seed", "7", "--peers", "40", "--hours", "12"];
    let (full, full_board) = split(&rvs(&fresh));
    let dir_arg = dir.to_str().unwrap();
    let cadence = ["--checkpoint-every", "6", "--checkpoint-dir", dir_arg];
    rvs(&[&fresh[..], &cadence[..]].concat());
    let ckpt = dir.join("ckpt-6h.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let (resumed, resumed_board) = split(&rvs(&["run", "--resume", ckpt, "--hours", "12"]));

    let tail: Vec<_> = full.into_iter().filter(|(h, _)| *h >= 6.0).collect();
    assert_eq!(tail.len(), 7, "rows 6 h–12 h");
    assert_eq!(resumed, tail);
    assert_eq!(resumed_board, full_board);
}
