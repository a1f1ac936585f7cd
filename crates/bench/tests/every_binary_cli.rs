//! Each of the twelve figure/table binaries refuses an argument it does not
//! take, and a trailing `--json` with no path where it takes one, the way
//! `rvs` does: exit 2, the complaint on the first stderr line, the usage
//! text under it, nothing on stdout and nothing simulated. A misspelt
//! `--quick` would otherwise run the paper-scale configuration.

use std::process::Command;

/// Every binary, and whether it writes its series to `--json FILE`.
const BINARIES: [(&str, bool); 12] = [
    (env!("CARGO_BIN_EXE_table1_trace_stats"), false),
    (env!("CARGO_BIN_EXE_fig5_experience"), true),
    (env!("CARGO_BIN_EXE_fig6_vote_sampling"), true),
    (env!("CARGO_BIN_EXE_fig8_spam_attack"), true),
    (env!("CARGO_BIN_EXE_ablation_adaptive_t"), false),
    (env!("CARGO_BIN_EXE_ablation_ballot_params"), false),
    (env!("CARGO_BIN_EXE_ablation_policy"), false),
    (env!("CARGO_BIN_EXE_ablation_aggregation"), false),
    (env!("CARGO_BIN_EXE_ablation_mole"), false),
    (env!("CARGO_BIN_EXE_ablation_voxpopuli"), false),
    (env!("CARGO_BIN_EXE_ablation_rank_merge"), false),
    (env!("CARGO_BIN_EXE_ablation_credence"), false),
];

#[test]
fn every_binary_refuses_what_it_does_not_take() {
    for (bin, takes_json) in BINARIES {
        let mut cases = vec![(vec!["--quick", "--no-such"], "unknown flag `--no-such`")];
        if takes_json {
            cases.push((vec!["--quick", "--json"], "flag `--json` needs a value"));
        }
        for (args, complaint) in cases {
            let out = Command::new(bin).args(&args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {out:?}");
            assert_eq!(stderr.lines().next(), Some(complaint), "{bin} {args:?}");
            assert!(stderr.contains("USAGE:"), "{bin} {args:?}: {stderr}");
        }
    }
}
