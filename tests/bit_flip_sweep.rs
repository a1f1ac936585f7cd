//! The bit-flip sweep: bits 0, 3 and 7 of every third byte of the
//! coverage golden (`tests/golden/coverage-seed1.ckpt`, the checkpoint
//! that holds the most kinds of state), one flip at a time. Each damaged
//! blob must be refused with a typed error, or restore, re-encode to a
//! blob that restores, and resume for one simulated hour — without a
//! panic and within a second. A restored count that sets a round's work
//! and has no bound is what makes a resume slow (DESIGN.md §12 lists the
//! bounds).
//!
//! Ignored by default for its length; run it with
//! `cargo test --release --test bit_flip_sweep -- --ignored`.

use robust_vote_sampling::scenario::{Checkpoint, System};
use rvs_sim::SimDuration;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// The longest one case may take: restore, re-encode, an hour's resume.
const LIMIT: Duration = Duration::from_secs(1);

/// What a case came to: `true` when the damaged blob restored and resumed.
fn case(bytes: Vec<u8>) -> bool {
    let Ok(mut system) = Checkpoint::from_bytes(bytes).and_then(|c| System::restore(&c)) else {
        return false;
    };
    let canon = system.checkpoint();
    System::restore(&canon).expect("a restored system re-encodes to a blob that restores");
    let hour = SimDuration::from_hours(1);
    system.run_until(system.now().saturating_add(hour), hour, |_, _| {});
    true
}

#[test]
#[ignore = "some 42,000 restores: run with --ignored"]
fn every_flip_of_the_coverage_golden_is_refused_or_resumes_in_time() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/coverage-seed1.ckpt"
    );
    let golden = std::fs::read(path).expect("the coverage golden");
    let mut restored = 0;
    for pos in (0..golden.len()).step_by(3) {
        for bit in [0, 3, 7] {
            let mut bytes = golden.clone();
            bytes[pos] ^= 1 << bit;
            // The case runs on its own thread so that this one can stop
            // waiting for it: a hung resume fails the sweep instead of
            // hanging it, and a panic ends the case's thread only.
            let (done, outcome) = mpsc::channel();
            #[expect(
                clippy::disallowed_methods,
                reason = "a watchdog for one case of a test: the case runs alone on it, deterministic given its bytes, and only whether it ends in time is read"
            )]
            let _case = thread::spawn(move || done.send(case(bytes)));
            match outcome.recv_timeout(LIMIT) {
                Ok(resumed) => restored += usize::from(resumed),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("flipping bit {bit} of byte {pos}: no end within {LIMIT:?}")
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("flipping bit {bit} of byte {pos}: the case panicked")
                }
            }
        }
    }
    assert!(restored > 0, "no flip restored: the sweep resumed nothing");
}
