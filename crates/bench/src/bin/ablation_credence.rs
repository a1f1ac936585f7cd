//! A8 — Credence-style correlation rating vs vote sampling (paper §VIII).
//!
//! Credence relates peers through the correlation of their voting
//! histories over co-voted objects; "users who don't vote, or do so only
//! minimally, have no way of distinguishing between honest and malicious
//! voters" — the paper cites ~50% isolated clients. BallotBox, in
//! contrast, serves every peer: a never-voting node still samples other
//! peers' votes. This harness sweeps voting participation and measures
//! the isolated fraction and malicious-voter detection of the correlation
//! scheme.
//!
//! ```text
//! cargo run --release -p rvs-bench --bin ablation_credence [--quick]
//! ```

use rvs_attacks::simulate_credence;
use rvs_bench::{args, header, timed};
use rvs_sim::DetRng;

fn main() {
    let quick = args(env!("CARGO_BIN_NAME"), &["--quick"]).has("quick");
    header(
        "A8",
        "Credence correlation baseline: isolation vs participation",
        quick,
    );
    let (n, objects, votes_per_voter, trials) = if quick {
        (100usize, 60u32, 8usize, 3u64)
    } else {
        (500, 200, 12, 10)
    };
    println!(
        "\npopulation {n}, {objects} objects (30% spam), {votes_per_voter} votes per voter,\n\
         20% of voters malicious (inverse voting), 15% honest error,\n         min overlap 2, {trials} trials\n"
    );
    println!(
        "{:>15} {:>18} {:>22}",
        "participation", "isolated fraction", "malicious detection"
    );
    let rows = timed("simulate", || {
        [0.05, 0.10, 0.25, 0.50, 0.75, 1.00]
            .iter()
            .map(|&p| {
                let mut iso = 0.0;
                let mut det = 0.0;
                for t in 0..trials {
                    let mut rng = DetRng::new(1_000 + t).fork((p * 100.0) as u64);
                    let (_, out) = simulate_credence(
                        n,
                        objects,
                        0.3,
                        p,
                        votes_per_voter,
                        0.2,
                        0.15, // honest voters misjudge 15% of the time
                        2,
                        &mut rng,
                    );
                    iso += out.isolated_fraction;
                    det += out.malicious_detection;
                }
                (p, iso / trials as f64, det / trials as f64)
            })
            .collect::<Vec<_>>()
    });
    for (p, iso, det) in &rows {
        println!("{:>15.2} {:>18.3} {:>22.3}", p, iso, det);
    }
    println!(
        "\npaper context: with the ~0.5% voting rates observed in real file\n\
         sharing communities (≤5 votes per 1000 downloads), a correlation\n\
         scheme leaves essentially everyone isolated; binding votes to\n\
         moderators and polling them directly serves non-voters too, which\n\
         is exactly the paper's §II design argument."
    );
}
