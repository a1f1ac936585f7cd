//! Quickstart: assemble the full system on a small synthetic trace, let
//! three moderators publish metadata, have part of the population vote,
//! and watch the network converge on the correct moderator ranking.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use robust_vote_sampling::scenario::{run_vote_sampling, VoteSamplingConfig};
use robust_vote_sampling::sim::SimDuration;

fn main() {
    // A scaled-down Figure 6 scenario: 24 peers, 36 simulated hours,
    // moderators M1/M2/M3 with +votes for M1 and −votes for M3.
    let cfg = VoteSamplingConfig {
        base_seed: 42,
        ..VoteSamplingConfig::quick(24, SimDuration::from_hours(36))
    };
    println!("robust-vote-sampling quickstart");
    println!(
        "  population: {} peers, {} simulated hours, {} runs",
        cfg.trace.n_peers,
        cfg.trace.duration.as_secs() / 3600,
        cfg.runs
    );
    println!(
        "  protocol: B_min={}, B_max={}, V_max={}, K={}, T={} MiB",
        cfg.protocol.votes.b_min,
        cfg.protocol.votes.b_max,
        cfg.protocol.votes.v_max,
        cfg.protocol.votes.k,
        cfg.protocol.experience_t_mib,
    );
    println!();

    let outcome = run_vote_sampling(&cfg);
    let [m1, m2, m3] = outcome.moderators;
    println!("moderators (first run): M1={m1} M2={m2} M3={m3}");
    println!("fraction of nodes ranking M1 > M2 > M3 over time:\n");
    for s in &outcome.accuracy.samples {
        let bar_len = (s.value * 40.0).round() as usize;
        println!(
            "  {:>6.1} h  {:>6.3}  {}",
            s.time.as_hours_f64(),
            s.value,
            "#".repeat(bar_len)
        );
    }
    let final_accuracy = outcome.accuracy.last().expect("samples exist").value;
    println!("\nfinal accuracy: {final_accuracy:.3}");
    assert!(
        final_accuracy > 0.5,
        "expected a majority of nodes to converge"
    );
    println!("the population converged on the correct ordering — quickstart OK");
}
