//! F6 — Figure 6: effectiveness of the vote sampling system over time.
//!
//! Three moderators M1/M2/M3 (first three arrivals); 10% of the population
//! votes `+M1`, 10% votes `−M3`; the plot shows the fraction of nodes whose
//! ranking orders M1 > M2 > M3 — three typical runs plus the 10-run
//! average. Paper shape: flat early, a sharp rise once the first nodes
//! pass `B_min` and VoxPopuli spreads their rankings (≈12 h), then a climb
//! towards 1.0 by day 7.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin fig6_vote_sampling \
//!     [--quick] [--json FILE] [--peers N] [--runs N] [--hours H] [--audit]
//! ```
//!
//! `--peers`/`--runs`/`--hours` rescale the experiment (`--peers N` casts
//! `TraceGenConfig::scaled`, the trace of `rvs run --peers N` and of the
//! benchmark's workloads, in `--quick` mode too); `--audit` runs the
//! invariant auditor and fails loudly on any violation. Fewer than
//! `FIG6_MIN_PEERS` peers, `--runs 0`, `--hours 0` or more than the
//! simulated clock counts, a `--json` without a path and any other
//! argument are refused with exit 2. The last line is the process's
//! `peak RSS: N MiB` (Linux only), which the CI scale smoke — `--quick
//! --peers 10000 --runs 1 --hours 2 --audit` — holds under a bound.

use rvs_bench::{args, header, maybe_write_json, peak_rss_mib, timed};
use rvs_metrics::TimeSeries;
use rvs_scenario::experiments::vote_sampling::FIG6_MIN_PEERS;
use rvs_scenario::{run_vote_sampling, VoteSamplingConfig};
use rvs_sim::SimDuration;
use rvs_trace::TraceGenConfig;

fn main() {
    let args = args(
        env!("CARGO_BIN_NAME"),
        &[
            "--quick",
            "--json FILE",
            "--peers N",
            "--runs N",
            "--hours H",
            "--audit",
        ],
    );
    let quick = args.has("quick");
    let hours = args.hours();
    let peers = args.at_least("peers", FIG6_MIN_PEERS);
    let runs = args.at_least("runs", 1);
    header("F6", "vote-sampling effectiveness over time", quick);
    let mut cfg = if quick {
        VoteSamplingConfig {
            base_seed: 100,
            ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
        }
    } else {
        VoteSamplingConfig::paper()
    };
    if let Some(hours) = hours {
        cfg.trace.duration = SimDuration::from_hours(hours);
        cfg.sample_every = SimDuration::from_hours((hours / 9).max(1));
    }
    if let Some(peers) = peers {
        // The paper's community at N peers, in either mode: founders
        // rescale with the population, as in `rvs run` and the benchmark.
        cfg.trace = TraceGenConfig::scaled(peers, cfg.trace.duration);
    }
    if let Some(runs) = runs {
        cfg.runs = runs;
    }
    if args.has("audit") {
        cfg.audit = true;
        println!("invariant auditor ENABLED (--audit)");
    }
    println!(
        "trace: {} peers × {} runs; B_min={}, B_max={}, V_max={}, K={}, T={} MiB\n",
        cfg.trace.n_peers,
        cfg.runs,
        cfg.protocol.votes.b_min,
        cfg.protocol.votes.b_max,
        cfg.protocol.votes.v_max,
        cfg.protocol.votes.k,
        cfg.protocol.experience_t_mib
    );
    let outcome = timed("simulate", || run_vote_sampling(&cfg));
    maybe_write_json(
        args.value("json"),
        &(&outcome.typical, &outcome.accuracy, &outcome.telemetry),
    );

    // Three typical runs + the average, like the paper's plot.
    let mut cols: Vec<&TimeSeries> = outcome.typical.iter().take(3).collect();
    cols.push(&outcome.accuracy);
    print!("{}", TimeSeries::render_table(&cols));

    let last = outcome.accuracy.last().map(|s| s.value).unwrap_or(0.0);
    let half = outcome
        .accuracy
        .samples
        .iter()
        .find(|s| s.value > 0.5)
        .map(|s| s.time.as_hours_f64());
    println!("\nfinal average accuracy: {last:.3}");
    match half {
        Some(h) => println!("average first exceeds 0.5 at ~{h:.0} h"),
        None => println!("average never exceeded 0.5"),
    }
    println!(
        "\npaper reference: sharp rise near 12 h (VoxPopuli bootstrap once the\n\
         first nodes pass B_min), climbing towards ~1.0 over the 7 days."
    );
    println!(
        "\nprotocol counters (merged over {} runs):\n{}",
        cfg.runs,
        outcome.telemetry.to_json()
    );
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS: {mib:.1} MiB");
    }
}
