//! A3 — vote-list selection policy: recency vs random vs the deployed
//! hybrid (paper §V-A cites \[6\]: "combining these policies produced
//! acceptable performance").
//!
//! Two parts:
//!
//! 1. the Figure 6 scenario — which turns out *not* to discriminate: each
//!    voter holds a single vote, so lists never exceed the budget (an
//!    honest negative result worth keeping);
//! 2. a many-moderator poll: 40 voters hold votes on 30 moderators cast
//!    over time, a pollster samples them with a budget of 5 votes per
//!    message — here the policies separate exactly as \[6\] predicts.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_policy [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_core::{select_votes, BallotBox, Vote, VoteEntry, VoteListPolicy};
use rvs_scenario::experiments::ablations::run_policy_sweep;
use rvs_scenario::VoteSamplingConfig;
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime};

/// Part 2: one pollster polling 40 voters who each hold votes on all 30
/// moderators (moderator `m` was voted on at hour `m`, so high ids are the
/// "fresh" ones). Returns (rounds to 90% moderator coverage, coverage of
/// the 5 newest moderators after 10 rounds).
fn poll_coverage(policy: VoteListPolicy, seed: u64) -> (usize, f64) {
    const MODERATORS: u32 = 30;
    const VOTERS: u32 = 40;
    const BUDGET: usize = 5;
    let mut rng = DetRng::new(seed);
    let full_list: Vec<VoteEntry> = (0..MODERATORS)
        .map(|m| VoteEntry {
            moderator: NodeId(1_000 + m),
            vote: Vote::Positive,
            made_at: SimTime::from_hours(m as u64),
        })
        .collect();
    let mut ballot = BallotBox::new(200);
    let mut rounds_to_cover = usize::MAX;
    let mut fresh_at_10 = 0.0;
    for round in 1..=120 {
        let voter = NodeId(rng.below(VOTERS as u64) as u32);
        let msg = select_votes(full_list.clone(), BUDGET, policy, &mut rng);
        ballot.merge(voter, &msg, SimTime::from_hours(100 + round as u64));
        let covered = ballot.moderators().len();
        if rounds_to_cover == usize::MAX && covered * 10 >= MODERATORS as usize * 9 {
            rounds_to_cover = round;
        }
        if round == 10 {
            let fresh = ballot
                .moderators()
                .into_iter()
                .filter(|m| m.0 >= 1_000 + MODERATORS - 5)
                .count();
            fresh_at_10 = fresh as f64 / 5.0;
        }
    }
    (rounds_to_cover, fresh_at_10)
}

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header("A3", "vote-list selection policy comparison", quick);

    println!("\n-- part 1: Figure 6 scenario (single-vote lists) --");
    let mut cfg = if quick {
        VoteSamplingConfig {
            base_seed: 700,
            ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
        }
    } else {
        VoteSamplingConfig::paper()
    };
    cfg.protocol.votes.max_votes_per_msg = 2;
    let rows = timed("simulate", || run_policy_sweep(&cfg));
    println!(
        "{:>20} {:>16} {:>16}",
        "policy", "mean accuracy", "final accuracy"
    );
    for r in &rows {
        println!(
            "{:>20} {:>16.3} {:>16.3}",
            format!("{:?}", r.policy),
            r.mean_accuracy,
            r.final_accuracy
        );
    }
    println!(
        "(identical — with one vote per voter the budget never binds; the\n\
         policy is irrelevant to this paper scenario, which is itself a\n\
         result)"
    );

    println!("\n-- part 2: many-moderator poll (30 moderators, budget 5) --");
    let trials = if quick { 20 } else { 200 };
    println!(
        "{:>20} {:>22} {:>24}",
        "policy", "rounds to 90% coverage", "fresh-5 coverage @10 rounds"
    );
    for policy in [
        VoteListPolicy::Recency,
        VoteListPolicy::Random,
        VoteListPolicy::RecencyAndRandom,
    ] {
        let mut cover_sum = 0.0;
        let mut fresh_sum = 0.0;
        let mut never = 0usize;
        for t in 0..trials {
            let (rounds, fresh) = poll_coverage(policy, t as u64);
            if rounds == usize::MAX {
                never += 1;
            } else {
                cover_sum += rounds as f64;
            }
            fresh_sum += fresh;
        }
        let covered_trials = trials - never;
        let cover = if covered_trials == 0 {
            "never".to_string()
        } else {
            format!("{:.1}", cover_sum / covered_trials as f64)
        };
        let suffix = if never > 0 {
            format!(" ({never}/{trials} never)")
        } else {
            String::new()
        };
        println!(
            "{:>20} {:>22} {:>24.2}{}",
            format!("{policy:?}"),
            cover,
            fresh_sum / trials as f64,
            suffix
        );
    }
    println!(
        "\npure recency never covers the catalogue (it reships the same\n\
         newest votes forever); pure random converges fastest in aggregate\n\
         but delivers any *specific* fresh vote only in expectation; the\n\
         hybrid pays ~2x random's coverage time for a hard guarantee that\n\
         every message carries the newest votes — the freshness/coverage\n\
         compromise [6] selected."
    );
}
