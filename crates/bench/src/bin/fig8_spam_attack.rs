//! F8 — Figure 8: flash-crowd spam attack.
//!
//! A fixed experienced core of 30 nodes has converged on honest moderator
//! M1; flash crowds of 30 (1× core) and 60 (2× core) colluding fresh
//! identities promote spam moderator M0 via votes (rejected by the
//! experience function) and fabricated VoxPopuli lists (which reach
//! bootstrapping newcomers). Paper shape: the 2× crowd defeats most new
//! nodes for ≈24 h before they integrate and recover; the 1× crowd only
//! ever poisons a minority; below 1× pollution is ~zero within the first
//! hour.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin fig8_spam_attack [--quick] [--json FILE]
//! ```

use rvs_bench::{args, header, maybe_write_json, timed};
use rvs_metrics::TimeSeries;
use rvs_scenario::{run_spam_attack, SpamAttackConfig};

fn main() {
    let args = args(env!("CARGO_BIN_NAME"), &["--quick", "--json FILE"]);
    let quick = args.has("quick");
    header("F8", "flash-crowd spam attack: new-node pollution", quick);
    let mut cfg = if quick {
        SpamAttackConfig::quick(500)
    } else {
        SpamAttackConfig::paper()
    };
    if !quick {
        // Also probe the paper's "below 1x core: zero pollution" claim.
        cfg.crowd_sizes = vec![15, 30, 60];
    }
    println!(
        "core: {}  crowds: {:?}  runs per size: {}\n",
        cfg.core_size, cfg.crowd_sizes, cfg.runs
    );
    let curves = timed("simulate", || run_spam_attack(&cfg));
    maybe_write_json(args.value("json"), &curves);
    let refs: Vec<&TimeSeries> = curves.iter().collect();
    print!("{}", TimeSeries::render_table(&refs));

    println!();
    for c in &curves {
        let peak = c.samples.iter().map(|s| s.value).fold(0.0_f64, f64::max);
        let final_v = c.last().map(|s| s.value).unwrap_or(0.0);
        let recovered = c
            .samples
            .iter()
            .skip_while(|s| s.value < peak)
            .find(|s| s.value < peak / 2.0)
            .map(|s| s.time.as_hours_f64());
        print!("{:<24} peak {:.3}  final {:.3}", c.label, peak, final_v);
        if let Some(h) = recovered {
            print!("  half-recovered by ~{h:.0} h");
        }
        println!();
    }
    println!(
        "\npaper reference: crowd=2x core defeats most new nodes for ~24 h,\n\
         crowd=1x poisons only a minority, smaller crowds ~zero pollution;\n\
         the experienced core itself is never polluted."
    );
}
