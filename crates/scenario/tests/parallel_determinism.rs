//! Thread-count independence: `parallel_runs` must produce byte-identical
//! telemetry no matter how many workers execute the runs. Each run's counter
//! snapshot is serialized to compact JSON and compared byte-for-byte between
//! a single-threaded and a multi-threaded execution of the same workload.

use proptest::prelude::*;
use rvs_faults::FaultSchedule;
use rvs_scenario::experiments::parallel::parallel_runs;
use rvs_scenario::VoteSamplingConfig;
use rvs_sim::{SimDuration, SimTime};

/// One small full-stack run; returns the compact-JSON counter snapshot
/// (phase timings stripped — they are wall-clock, not deterministic).
fn run_snapshot_json(base_seed: u64, run: usize) -> String {
    let seed = base_seed + run as u64;
    let (mut system, _) = VoteSamplingConfig::quick(12, SimDuration::from_hours(8))
        .system(seed, FaultSchedule::default());
    system.run_until(
        SimTime::from_hours(8),
        SimDuration::from_hours(8),
        |_, _| {},
    );
    system
        .telemetry_snapshot()
        .counters_only()
        .to_json_compact()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn snapshots_identical_across_thread_counts(base_seed in 0u64..10_000) {
        let runs = 3;
        let serial = parallel_runs(runs, 1, |r| run_snapshot_json(base_seed, r));
        let threaded = parallel_runs(runs, 4, |r| run_snapshot_json(base_seed, r));
        prop_assert_eq!(&serial, &threaded, "snapshots differ across thread counts");
        // Sanity: the runs actually counted something.
        for json in &serial {
            let snap = rvs_telemetry::Snapshot::from_json(json).unwrap();
            prop_assert!(snap.encounters.attempted > 0);
        }
    }
}
