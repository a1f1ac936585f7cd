//! A6 — VoxPopuli on/off: what the bootstrap protocol buys (and risks).
//!
//! With VoxPopuli disabled, nodes show no ranking until their own ballot
//! box reaches `B_min` unique experienced voters — secure but slow. With
//! it enabled, the sharp Figure 6 rise appears as soon as the first nodes
//! graduate and start answering.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_voxpopuli [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_metrics::TimeSeries;
use rvs_scenario::experiments::ablations::run_voxpopuli_ablation;
use rvs_scenario::VoteSamplingConfig;
use rvs_sim::SimDuration;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header("A6", "VoxPopuli on/off: bootstrap speed", quick);
    let cfg = if quick {
        VoteSamplingConfig {
            base_seed: 600,
            ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
        }
    } else {
        VoteSamplingConfig::paper()
    };
    let (on, off) = timed("simulate", || run_voxpopuli_ablation(&cfg));
    print!("{}", TimeSeries::render_table(&[&on, &off]));
    let area =
        |s: &TimeSeries| s.samples.iter().map(|p| p.value).sum::<f64>() / s.len().max(1) as f64;
    println!(
        "\nmean accuracy over the run — VoxPopuli on: {:.3}, off: {:.3}",
        area(&on),
        area(&off)
    );
    println!(
        "\nVoxPopuli accelerates early convergence (hearsay from graduated\n\
         nodes) at the price of the Figure 8 bootstrap vulnerability; both\n\
         curves meet once most nodes hold B_min ballot samples."
    );
}
