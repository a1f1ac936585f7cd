//! Trace tooling: generate a filelist-calibrated synthetic trace, print
//! its statistics (the paper's §VI dataset summary), save it to JSON, and
//! load it back — the workflow for swapping in real tracker traces.
//!
//! Run with:
//! ```text
//! cargo run --release --example trace_tools [seed]
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "example binary: seed comes from argv and output goes to the OS temp dir; nothing \
              feeds back into protocol state"
)]

use robust_vote_sampling::trace::{io, TraceGenConfig, TraceStats};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    println!("generating a filelist.org-calibrated trace (seed {seed})…");
    let cfg = TraceGenConfig::filelist_like();
    let trace = cfg.generate(seed);
    trace.validate().expect("generated traces always validate");

    println!("\ndataset statistics (cf. paper §VI):");
    println!("{}", TraceStats::compute(&trace));

    // Round-trip through JSON — the same schema accepts real traces.
    let path = std::env::temp_dir().join(format!("rvs-trace-{seed}.json"));
    io::save(&trace, &path).expect("trace serialises");
    let loaded = io::load(&path).expect("trace loads and validates");
    assert_eq!(trace, loaded, "JSON round-trip must be lossless");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "\nsaved + reloaded losslessly: {} ({bytes} bytes)",
        path.display()
    );

    // Arrival structure: the first three arrivals are the Figure 6
    // moderators; founders seed the swarms.
    let order = trace.arrival_order();
    println!("\nfirst three arrivals (Figure 6 moderators M1, M2, M3):");
    for (k, id) in order.iter().take(3).enumerate() {
        let p = &trace.peers[id.index()];
        println!(
            "  M{} = {id}: arrives {:.2} h, {}, uplink {} KiB/s",
            k + 1,
            p.arrival.as_hours_f64(),
            if p.free_rider {
                "free-rider"
            } else {
                "altruist"
            },
            p.uplink_kibps
        );
    }
    println!("\nswarms:");
    for s in trace.swarms.iter().take(5) {
        println!(
            "  {}: {} MiB ({} pieces), created {:.1} h, seeded by {}",
            s.id,
            s.file_size_mib,
            s.piece_count(),
            s.created.as_hours_f64(),
            s.initial_seeder
        );
    }
    std::fs::remove_file(&path).ok();
}
