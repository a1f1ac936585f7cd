//! T1 — regenerate the §VI dataset statistics ("Table 1"):
//! 10 traces × 7 days × 100 unique peers, ≈23,000 events per trace,
//! ~50% of the population online on average, ~25% of peers uploading
//! little.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin table1_trace_stats [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_scenario::experiments::experience::dataset_statistics;
use rvs_sim::SimDuration;
use rvs_trace::TraceGenConfig;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header("T1", "filelist.org dataset statistics (§VI)", quick);
    let (cfg, n_traces) = if quick {
        (TraceGenConfig::quick(30, SimDuration::from_days(1)), 3)
    } else {
        (TraceGenConfig::filelist_like(), 10)
    };
    let (per_trace, mean) = timed("generate+stats", || dataset_statistics(&cfg, n_traces, 1));

    println!(
        "\n{:>6} {:>8} {:>10} {:>9} {:>11} {:>13}",
        "trace", "peers", "events", "online", "free-riders", "rare-online"
    );
    for (i, st) in per_trace.iter().enumerate() {
        println!(
            "{:>6} {:>8} {:>10} {:>9.3} {:>11.3} {:>13}",
            i,
            st.unique_peers,
            st.event_count,
            st.avg_online_fraction,
            st.free_rider_fraction,
            st.rarely_online_peers
        );
    }
    println!("\nmean over {n_traces} traces:");
    println!("{mean}");
    println!("\npaper reference: 100 peers/trace, ~23,000 events/trace,");
    println!("~50% online on average, ~25% of peers uploaded little.");
}
