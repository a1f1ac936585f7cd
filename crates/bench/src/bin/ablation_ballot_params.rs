//! A2 — `B_min` / `B_max` sensitivity on the Figure 6 scenario.
//!
//! `B_min` trades bootstrap safety against speed (below it a node trusts
//! VoxPopuli hearsay); `B_max` bounds the sample a pollster keeps.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_ballot_params [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_scenario::experiments::ablations::run_ballot_param_sweep;
use rvs_scenario::VoteSamplingConfig;
use rvs_sim::SimDuration;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header("A2", "ballot parameter sweep (B_min × B_max)", quick);
    let (cfg, b_mins, b_maxes): (_, &[usize], &[usize]) = if quick {
        (
            VoteSamplingConfig {
                base_seed: 800,
                ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
            },
            &[2, 5, 10],
            &[25, 100],
        )
    } else {
        (VoteSamplingConfig::paper(), &[2, 5, 10, 20], &[25, 100])
    };
    let rows = timed("simulate", || run_ballot_param_sweep(&cfg, b_mins, b_maxes));
    println!(
        "\n{:>7} {:>7} {:>16} {:>14}",
        "B_min", "B_max", "final accuracy", "hours>0.5"
    );
    for r in &rows {
        let h = r
            .hours_to_half
            .map(|h| format!("{h:.0}"))
            .unwrap_or_else(|| "never".into());
        println!(
            "{:>7} {:>7} {:>16.3} {:>14}",
            r.b_min, r.b_max, r.final_accuracy, h
        );
    }
    println!(
        "\nexpectation: the paper's B_min=5 / B_max=100 sits on the knee —\n\
         tiny B_min converges a touch faster but trusts near-empty samples;\n\
         large B_min delays the VoxPopuli hand-off."
    );
}
