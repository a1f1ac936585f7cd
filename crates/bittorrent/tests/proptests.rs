//! Property-based tests for the swarm simulator: conservation and
//! role/capacity invariants under randomized membership and churn.

use proptest::prelude::*;
use rvs_bittorrent::swarm::{LinkProfile, MemberRole};
use rvs_bittorrent::{Bitfield, SwarmSim, TransferLedger};
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime, SwarmId};
use rvs_trace::SwarmSpec;

#[derive(Debug, Clone)]
enum Op {
    JoinLeecher(u32, bool, u32),
    JoinSeeder(u32, bool, u32),
    Leave(u32),
    SetOnline(u32, bool),
    Tick(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..12, prop::bool::ANY, 32u32..512).prop_map(|(p, c, u)| Op::JoinLeecher(p, c, u)),
        (0u32..12, prop::bool::ANY, 32u32..512).prop_map(|(p, c, u)| Op::JoinSeeder(p, c, u)),
        (0u32..12).prop_map(Op::Leave),
        (0u32..12, prop::bool::ANY).prop_map(|(p, on)| Op::SetOnline(p, on)),
        (1u8..30).prop_map(Op::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary join/leave/churn/tick sequences the swarm never
    /// panics, progress stays within [0, 1], completions only ever promote
    /// to seeder, and total transfer never exceeds what the tick budget
    /// allows.
    #[test]
    fn swarm_survives_arbitrary_operations(ops in prop::collection::vec(arb_op(), 1..80)) {
        let spec = SwarmSpec {
            id: SwarmId(0),
            created: SimTime::ZERO,
            file_size_mib: 8,
            piece_size_kib: 256,
            initial_seeder: NodeId(0),
        };
        let mut sim = SwarmSim::new(spec);
        let mut ledger = TransferLedger::new();
        let mut rng = DetRng::new(7);
        let mut now = SimTime::ZERO;
        let dt = SimDuration::from_secs(10);
        let mut max_rate_kib = 0u64;
        for op in ops {
            match op {
                Op::JoinLeecher(p, connectable, up) => {
                    sim.join(NodeId(p), MemberRole::Leecher, LinkProfile {
                        connectable, uplink_kibps: up, downlink_kibps: up * 4,
                    }, true);
                    max_rate_kib = max_rate_kib.max(up as u64);
                }
                Op::JoinSeeder(p, connectable, up) => {
                    sim.join(NodeId(p), MemberRole::Seeder, LinkProfile {
                        connectable, uplink_kibps: up, downlink_kibps: up * 4,
                    }, true);
                    max_rate_kib = max_rate_kib.max(up as u64);
                }
                Op::Leave(p) => sim.leave(NodeId(p)),
                Op::SetOnline(p, on) => sim.set_online(NodeId(p), on),
                Op::Tick(k) => {
                    for _ in 0..k {
                        let completions = sim.tick(now, dt, &mut ledger, &mut rng);
                        now += dt;
                        for c in completions {
                            prop_assert_eq!(
                                sim.role(c.peer),
                                Some(MemberRole::Seeder),
                                "completion must promote to seeder"
                            );
                            prop_assert_eq!(sim.progress(c.peer), Some(1.0));
                        }
                    }
                }
            }
            for p in 0..12u32 {
                if let Some(prog) = sim.progress(NodeId(p)) {
                    prop_assert!((0.0..=1.0).contains(&prog));
                }
            }
        }
        // Conservation: total ledger volume is bounded by (elapsed time) ×
        // (sum of max uplinks ever seen × members) — a loose but absolute
        // physical cap.
        let elapsed_secs = now.as_secs();
        let cap = elapsed_secs.saturating_mul(max_rate_kib).saturating_mul(12);
        prop_assert!(ledger.total_kib() <= cap.max(1));
    }

    /// A closed seeder+leecher pair transfers exactly the file volume when
    /// run to completion (no creation or loss of bytes).
    #[test]
    fn byte_conservation_pairwise(file_mib in 1u32..16, up in 128u32..1024) {
        let spec = SwarmSpec {
            id: SwarmId(0),
            created: SimTime::ZERO,
            file_size_mib: file_mib,
            piece_size_kib: 256,
            initial_seeder: NodeId(0),
        };
        let mut sim = SwarmSim::new(spec);
        let link = LinkProfile { connectable: true, uplink_kibps: up, downlink_kibps: up * 4 };
        sim.join(NodeId(0), MemberRole::Seeder, link, true);
        sim.join(NodeId(1), MemberRole::Leecher, link, true);
        let mut ledger = TransferLedger::new();
        let mut rng = DetRng::new(1);
        let mut now = SimTime::ZERO;
        let dt = SimDuration::from_secs(10);
        let mut done = false;
        for _ in 0..500_000 {
            if !sim.tick(now, dt, &mut ledger, &mut rng).is_empty() {
                done = true;
                break;
            }
            now += dt;
        }
        prop_assert!(done, "download must finish");
        let moved = ledger.uploaded_kib(NodeId(0), NodeId(1));
        let file_kib = file_mib as u64 * 1024;
        // Within one piece of rounding slack.
        prop_assert!(moved + 256 >= file_kib && moved <= file_kib + 256,
            "moved {moved} KiB vs file {file_kib} KiB");
    }

    /// `interested_in` answers from the two counts and, failing that, from
    /// the words; the definition is a piece the other side holds and this
    /// one lacks. Densities 0 and 8 are the empty and the full bitfield,
    /// `tail` 0 a file that ends on a word boundary.
    #[test]
    fn interest_is_a_missing_piece(
        words in 0u32..4,
        tail in 0u32..64,
        mine_eighths in 0u64..9,
        theirs_eighths in 0u64..9,
        seed in 0u64..1_000_000,
    ) {
        let len = words * 64 + tail;
        let mut rng = DetRng::new(seed);
        let mut fill = |eighths: u64| {
            let mut bf = Bitfield::empty(len);
            for p in 0..len {
                if rng.below(8) < eighths {
                    bf.set(p);
                }
            }
            bf
        };
        let (mine, theirs) = (fill(mine_eighths), fill(theirs_eighths));
        for (a, b) in [(&mine, &theirs), (&theirs, &mine), (&mine, &mine)] {
            prop_assert_eq!(a.interested_in(b), a.missing_from(b).next().is_some());
        }
    }
}
