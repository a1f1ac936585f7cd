//! Property-based tests: every generated trace satisfies the structural
//! invariants, for arbitrary (sane) generator configurations.

use proptest::prelude::*;
use rvs_sim::SimDuration;
use rvs_trace::{TraceGenConfig, TraceStats};

fn arb_config() -> impl Strategy<Value = TraceGenConfig> {
    (
        2usize..40,  // n_peers
        1u64..72,    // duration hours
        0usize..10,  // founder_count (may exceed peers; clamped)
        1usize..6,   // swarms
        0.0f64..4.0, // mean downloads per peer (below 1 means 1)
        1u64..24,    // mean download delay hours
    )
        .prop_map(
            |(n, hours, founders, swarms, downloads, delay)| TraceGenConfig {
                n_peers: n,
                duration: SimDuration::from_hours(hours),
                founder_count: founders,
                n_swarms: swarms,
                mean_downloads_per_peer: downloads,
                mean_download_delay: SimDuration::from_hours(delay),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated traces always validate, and regeneration is bit-identical.
    #[test]
    fn generated_traces_validate_and_repeat(cfg in arb_config(), seed: u64) {
        let t = cfg.generate(seed);
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(&t, &cfg.generate(seed));
        prop_assert_eq!(t.peers.len(), cfg.n_peers);
        prop_assert_eq!(t.swarms.len(), cfg.n_swarms);
    }

    /// Statistics are internally consistent with the trace.
    #[test]
    fn stats_are_consistent(cfg in arb_config(), seed: u64) {
        let t = cfg.generate(seed);
        let st = TraceStats::compute(&t);
        prop_assert_eq!(st.unique_peers, t.peer_count());
        prop_assert_eq!(st.event_count, t.events.len());
        prop_assert!((0.0..=1.0).contains(&st.avg_online_fraction));
        prop_assert!((0.0..=1.0).contains(&st.free_rider_fraction));
        prop_assert!((0.0..=1.0).contains(&st.connectable_fraction));
        prop_assert!(st.rarely_online_peers <= st.unique_peers);
        // Online time cannot exceed the trace span for any peer.
        for d in t.online_time_per_peer() {
            prop_assert!(d.as_millis() <= t.duration.as_millis());
        }
    }

    /// JSON roundtrips preserve every generated trace.
    #[test]
    fn json_roundtrip(cfg in arb_config(), seed: u64) {
        let t = cfg.generate(seed);
        let json = rvs_trace::io::to_json(&t);
        let back = rvs_trace::io::from_json(&json).expect("valid JSON of a valid trace");
        prop_assert_eq!(t, back);
    }

    /// Arrival order is consistent with profile arrival times.
    #[test]
    fn arrival_order_sorted(cfg in arb_config(), seed: u64) {
        let t = cfg.generate(seed);
        let order = t.arrival_order();
        for w in order.windows(2) {
            prop_assert!(
                t.peers[w[0].index()].arrival <= t.peers[w[1].index()].arrival
            );
        }
    }
}
