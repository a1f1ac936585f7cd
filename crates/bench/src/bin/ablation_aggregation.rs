//! A4 — why sample instead of aggregating (paper §II / §V-A).
//!
//! "Faster and more accurate epidemic-style aggregation protocols have
//! been proposed but they are highly vulnerable to lying behaviour." This
//! harness quantifies that: epidemic push–pull averaging vs a BallotBox
//! uniform sample, for growing liar minorities.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_aggregation [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_scenario::experiments::ablations::run_aggregation_comparison;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header(
        "A4",
        "epidemic aggregation vs BallotBox sampling under lying",
        quick,
    );
    let (n, rounds, b_max) = if quick {
        (60, 100, 30)
    } else {
        (500, 400, 100)
    };
    let liar_fractions = [0.0, 0.02, 0.05, 0.10, 0.20];
    let rows = timed("simulate", || {
        run_aggregation_comparison(n, 0.2, &liar_fractions, rounds, b_max, 42)
    });
    println!("\npopulation {n}, true support 0.20, {rounds} gossip rounds, B_max={b_max}\n");
    println!(
        "{:>8} {:>8} {:>20} {:>18}",
        "liars", "truth", "epidemic estimate", "ballot estimate"
    );
    for r in &rows {
        println!(
            "{:>8.2} {:>8.2} {:>20.3} {:>18.3}",
            r.liar_fraction, r.truth, r.epidemic_estimate, r.ballot_estimate
        );
    }
    println!(
        "\na fixed-point liar drags the epidemic average towards its lie\n\
         without bound; in the ballot sample a liar is one voter among\n\
         B_max, so the error stays proportional to the liar share."
    );
}
