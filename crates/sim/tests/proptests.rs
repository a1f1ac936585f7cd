//! Property-based tests for the DES foundation.

use proptest::prelude::*;
use rvs_sim::{DetRng, Engine, EventQueue, SimDuration, SimTime};

proptest! {
    /// The queue pops every pushed event exactly once, in (time, insertion)
    /// order.
    #[test]
    fn queue_pops_sorted_and_complete(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t > lt || (t == lt && id > lid),
                    "pop order violated: ({lt:?},{lid}) then ({t:?},{id})");
            }
            last = Some((t, id));
            popped.push(id);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// The engine clock never goes backwards and fires every event below
    /// the horizon.
    #[test]
    fn engine_clock_is_monotone(times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut eng: Engine<u64> = Engine::new();
        for &t in &times {
            eng.schedule_at(SimTime::from_millis(t), t);
        }
        let horizon = SimTime::from_millis(5_000);
        let mut clock = SimTime::ZERO;
        let mut fired = 0usize;
        while let Some((t, v)) = eng.next_before(horizon) {
            prop_assert!(t >= clock);
            prop_assert_eq!(t, SimTime::from_millis(v));
            prop_assert_eq!(eng.now(), t);
            clock = t;
            fired += 1;
        }
        let expected = times.iter().filter(|&&t| t < 5_000).count();
        prop_assert_eq!(fired, expected);
        prop_assert_eq!(eng.now(), horizon);
    }

    /// Time arithmetic: (t + d) - t == d for any base and delta.
    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u32::MAX as u64, delta in 0u64..u32::MAX as u64) {
        let t = SimTime::from_millis(base);
        let d = SimDuration::from_millis(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_add(d).since(t), d);
    }

    /// DetRng::below is always within bounds and different forks are
    /// independent of draw interleaving.
    #[test]
    fn rng_bounds_and_fork_stability(seed: u64, bound in 1u64..1_000, label: u64) {
        let mut r = DetRng::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(bound) < bound);
        }
        // A fork taken before and after draws must produce the same stream
        // only if taken from the same state: fork depends on parent state.
        let parent = DetRng::new(seed);
        let mut f1 = parent.fork(label);
        let mut f2 = parent.fork(label);
        for _ in 0..10 {
            prop_assert_eq!(f1.next_u64_raw(), f2.next_u64_raw());
        }
    }

    /// sample_indices is always a set of in-range, distinct indices of the
    /// requested size.
    #[test]
    fn rng_sample_indices_is_a_sample(seed: u64, n in 0usize..200, k in 0usize..250) {
        let mut r = DetRng::new(seed);
        let s = r.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }
}
