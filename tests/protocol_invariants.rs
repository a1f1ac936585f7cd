//! Property-based tests of protocol invariants (proptest).

use proptest::prelude::*;
use robust_vote_sampling::core::{
    rank_ballot, rank_ballot_positive, select_votes, BallotBox, TopKList, Vote, VoteEntry,
    VoteListPolicy, VoxCache,
};
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{ProtocolConfig, VoteSamplingConfig};
use rvs_bittorrent::Bitfield;
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime};

fn arb_vote() -> impl Strategy<Value = Vote> {
    prop_oneof![Just(Vote::Positive), Just(Vote::Negative)]
}

fn arb_vote_list(max_mods: u32) -> impl Strategy<Value = Vec<VoteEntry>> {
    prop::collection::btree_map(0..max_mods, (arb_vote(), 0u64..1_000), 0..20).prop_map(|m| {
        m.into_iter()
            .map(|(moderator, (vote, t))| VoteEntry {
                moderator: NodeId(moderator),
                vote,
                made_at: SimTime::from_secs(t),
            })
            .collect()
    })
}

proptest! {
    /// The ballot box never exceeds B_max unique voters, never holds two
    /// votes for the same (voter, moderator), and tallies stay consistent
    /// with the entry count.
    #[test]
    fn ballot_invariants(
        b_max in 1usize..12,
        merges in prop::collection::vec((0u32..20, arb_vote_list(8)), 0..60),
    ) {
        let mut bb = BallotBox::new(b_max);
        for (step, (voter, list)) in merges.into_iter().enumerate() {
            bb.merge(NodeId(voter), &list, SimTime::from_secs(step as u64));
            prop_assert!(bb.unique_voters() <= b_max);
            // One vote per (voter, moderator): entries must be unique.
            let mut keys: Vec<(NodeId, NodeId)> =
                bb.iter().map(|(v, m, _, _)| (v, m)).collect();
            let before = keys.len();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), before);
            // Tallies add up to the stored entry count.
            let total: usize = bb
                .moderators()
                .into_iter()
                .map(|m| {
                    let (p, n) = bb.tally(m);
                    p + n
                })
                .sum();
            prop_assert_eq!(total, bb.len());
            // Dispersion is a valid fraction.
            let d = bb.dispersion();
            prop_assert!((0.0..=0.5).contains(&d));
        }
    }

    /// Re-merging a voter fully replaces its old contribution.
    #[test]
    fn ballot_remerge_replaces(
        first in arb_vote_list(8),
        second in arb_vote_list(8),
    ) {
        let mut bb = BallotBox::new(10);
        bb.merge(NodeId(1), &first, SimTime::from_secs(1));
        bb.merge(NodeId(1), &second, SimTime::from_secs(2));
        if second.is_empty() {
            // An empty list is a no-op merge: the old contribution stays.
            prop_assert_eq!(bb.len(), first.len());
        } else {
            // The ballot now reflects exactly the second list.
            prop_assert_eq!(bb.len(), second.len());
            let mods: std::collections::BTreeSet<NodeId> =
                bb.iter().map(|(_, m, _, _)| m).collect();
            let expect: std::collections::BTreeSet<NodeId> =
                second.iter().map(|e| e.moderator).collect();
            prop_assert_eq!(mods, expect);
        }
    }

    /// Vote selection respects the budget, returns distinct moderators,
    /// and the hybrid policy always includes the newest half.
    #[test]
    fn select_votes_budget(
        entries in arb_vote_list(50),
        max in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = DetRng::new(seed);
        let total = entries.len();
        let out = select_votes(entries.clone(), max, VoteListPolicy::RecencyAndRandom, &mut rng);
        prop_assert_eq!(out.len(), total.min(max));
        let mut mods: Vec<NodeId> = out.iter().map(|e| e.moderator).collect();
        let before = mods.len();
        mods.sort_unstable();
        mods.dedup();
        prop_assert_eq!(mods.len(), before, "no duplicate moderators");
        // Every selected entry came from the input.
        for e in &out {
            prop_assert!(entries.contains(e));
        }
    }

    /// VoxPopuli rank-average merge: output length ≤ K, entries distinct,
    /// and a moderator leading every cached list leads the merge.
    #[test]
    fn vox_merge_properties(
        lists in prop::collection::vec(
            prop::collection::vec(0u32..10, 1..4), 1..8),
        leader in 50u32..55,
    ) {
        let mut cache = VoxCache::new(10, 3);
        for l in &lists {
            let mut ranked = vec![NodeId(leader)];
            ranked.extend(l.iter().map(|&m| NodeId(m)).filter(|&m| m != NodeId(leader)));
            cache.push(TopKList { ranked });
        }
        let merged = cache.merged();
        prop_assert!(merged.len() <= 3);
        let mut seen = merged.ranked.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), merged.len());
        prop_assert_eq!(merged.top(), Some(NodeId(leader)));
    }

    /// Ranking: positive-only output is a prefix-filtered subset of the
    /// full ranking, and both are deterministic.
    #[test]
    fn ranking_consistency(
        votes in prop::collection::vec((0u32..6, 0u32..6, arb_vote()), 0..40),
    ) {
        let mut bb = BallotBox::new(100);
        let mut per_voter: std::collections::BTreeMap<u32, Vec<VoteEntry>> = Default::default();
        for (voter, moderator, vote) in votes {
            per_voter.entry(voter).or_default().push(VoteEntry {
                moderator: NodeId(moderator),
                vote,
                made_at: SimTime::ZERO,
            });
        }
        for (v, mut list) in per_voter {
            // One vote per moderator within a list.
            list.sort_by_key(|e| e.moderator);
            list.dedup_by_key(|e| e.moderator);
            bb.merge(NodeId(v), &list, SimTime::from_secs(v as u64));
        }
        let full = rank_ballot(&bb, 10);
        let positive = rank_ballot_positive(&bb, 10);
        prop_assert_eq!(rank_ballot(&bb, 10), full.clone(), "deterministic");
        for m in &positive.ranked {
            let (p, n) = bb.tally(*m);
            prop_assert!(p as i64 - n as i64 > 0);
            prop_assert!(full.ranked.contains(m));
        }
        // Scores are non-increasing down the full ranking.
        let score = |m: NodeId| {
            let (p, n) = bb.tally(m);
            p as i64 - n as i64
        };
        for w in full.ranked.windows(2) {
            prop_assert!(score(w[0]) >= score(w[1]));
        }
    }

    /// Bitfield set/count/progress invariants under random piece sets.
    #[test]
    fn bitfield_invariants(
        len in 1u32..300,
        pieces in prop::collection::vec(0u32..300, 0..100),
    ) {
        let mut bf = Bitfield::empty(len);
        let mut reference = std::collections::BTreeSet::new();
        for p in pieces {
            let p = p % len;
            let newly = bf.set(p);
            prop_assert_eq!(newly, reference.insert(p));
        }
        prop_assert_eq!(bf.count() as usize, reference.len());
        prop_assert_eq!(bf.ones().count(), reference.len());
        prop_assert_eq!(bf.is_complete(), reference.len() == len as usize);
        let full = Bitfield::full(len);
        let missing: Vec<u32> = bf.missing_from(&full).collect();
        prop_assert_eq!(missing.len() + reference.len(), len as usize);
        for m in missing {
            prop_assert!(!reference.contains(&m));
        }
    }
}

// Whole-system property: for arbitrary small seeds, loss rates, and either
// PSS, a full audited run observes zero invariant violations (conservation,
// ballot bound, experience gating, VoxPopuli honesty). Few cases — each one
// is a complete 12-hour simulation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn audited_full_system_run_is_violation_free(
        seed in 0u64..1_000,
        loss in 0.0f64..0.5,
        newscast in prop::bool::ANY,
    ) {
        let quick = VoteSamplingConfig::quick(16, SimDuration::from_hours(12));
        let cfg = VoteSamplingConfig {
            protocol: ProtocolConfig {
                message_loss: loss,
                use_newscast_pss: newscast,
                ..quick.protocol
            },
            ..quick
        };
        let (mut system, _) = cfg.system(seed, FaultSchedule::default());
        system.enable_audit();
        system.run_until(SimTime::from_hours(12), SimDuration::from_hours(12), |_, _| {});
        let auditor = system.auditor().expect("audit enabled");
        prop_assert!(auditor.checks() > 0, "auditor performed no checks");
        prop_assert_eq!(system.audit_violations(), &[] as &[String]);
    }
}
