//! A5 — the BarterCast mole / front-peer attack (paper §VII).
//!
//! Colluders claim enormous uploads to a mole that genuinely uploaded a
//! little to the victim; the 2-hop maxflow caps each colluder's apparent
//! contribution at the mole's *paid-for* edge.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_mole [--quick]
//! ```

use rvs_bench::{args, header, timed};
use rvs_scenario::experiments::ablations::run_mole_leverage;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header("A5", "mole attack leverage vs genuine payment", quick);
    let colluders = if quick { 3 } else { 10 };
    let real: &[u64] = &[0, 1024, 5 * 1024, 20 * 1024, 100 * 1024];
    let claimed = 1u64 << 30; // each colluder claims 1 TiB-ish of uploads
    let rows = timed("compute", || run_mole_leverage(real, claimed, colluders));
    println!("\ncolluders: {colluders}, claimed per colluder: {claimed} KiB\n");
    println!(
        "{:>14} {:>16} {:>20} {:>16}",
        "mole paid KiB", "claimed KiB", "per-colluder KiB", "total KiB"
    );
    for r in &rows {
        println!(
            "{:>14} {:>16} {:>20} {:>16}",
            r.real_kib, r.claimed_kib, r.per_colluder_kib, r.total_kib
        );
    }
    println!(
        "\nper-colluder leverage equals the mole's genuine upload regardless\n\
         of the claimed volume — faking experience costs real bandwidth,\n\
         which is the paper's cost argument. (Queries are independent\n\
         maxflows, so total leverage is colluders × the mole's edge.)"
    );
}
