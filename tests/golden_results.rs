//! Format-independent result goldens: `tests/golden/results/*.json` pin
//! what three fixed-seed runs *observe* — telemetry counters, every
//! peer's displayed ranking, the in-flight count — for the plain, the
//! faulty (backoff resends) and the guarded (flooders, malformer) send
//! paths. The checkpoint goldens change bytes whenever the encoding does;
//! these only change when the simulation's results do, which is what a
//! refactor of the round engine must not cause. Regenerate (only for an
//! intended behaviour change) with `cargo run --bin rvs -- ckpt regen`.

use robust_vote_sampling::scenario::checkpoint::{golden_result, GOLDEN_RESULTS};
use std::path::PathBuf;

#[test]
fn current_build_reproduces_result_goldens_on_both_thread_legs() {
    for name in GOLDEN_RESULTS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/results")
            .join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing result golden {}: {e}; run `cargo run --bin rvs -- ckpt regen`",
                path.display()
            )
        });
        for threads in [1, 4] {
            assert_eq!(
                golden_result(name, threads),
                committed,
                "{name} at {threads} threads: results changed"
            );
        }
    }
}
