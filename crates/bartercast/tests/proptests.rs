//! Property-based tests for subjective graphs and hop-bounded maxflow.

use proptest::prelude::*;
use rvs_bartercast::maxflow::max_flow_bounded;
use rvs_bartercast::{BarterCast, BarterCastConfig, Record, SubjectiveGraph};
use rvs_bittorrent::TransferLedger;
use rvs_sim::NodeId;

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..8, 0u32..8, 1u64..10_000), 0..40)
}

/// Weights for records many graphs share: small ones, zero, and the top
/// of `u32` and of `u64`.
fn arb_shared_kib() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..4,
        Just(u64::from(u32::MAX)),
        Just(u64::MAX - 1),
        Just(u64::MAX),
    ]
}

fn graph_of(edges: &[(u32, u32, u64)]) -> SubjectiveGraph {
    let mut g = SubjectiveGraph::new();
    for &(f, t, w) in edges {
        if f != t {
            g.insert_report(NodeId(f), NodeId(f), NodeId(t), w);
        }
    }
    g
}

proptest! {
    /// Flow is bounded by source out-capacity and sink in-capacity, and is
    /// monotone in the hop budget.
    #[test]
    fn flow_bounds_and_hop_monotonicity(edges in arb_edges(), s in 0u32..8, d in 0u32..8) {
        let g = graph_of(&edges);
        let src = NodeId(s);
        let dst = NodeId(d);
        let out_cap: u64 = g.out_edges(src).iter().map(|&(_, w)| w).sum();
        let in_cap: u64 = g
            .edges()
            .filter(|&(_, t, _)| t == dst)
            .map(|(_, _, w)| w)
            .sum();
        let mut prev = 0u64;
        for hops in 0..5 {
            let f = max_flow_bounded(&g, src, dst, hops);
            prop_assert!(f >= prev, "flow must grow with hop budget");
            prop_assert!(f <= out_cap);
            prop_assert!(f <= in_cap);
            prev = f;
        }
        prop_assert_eq!(max_flow_bounded(&g, src, src, 4), 0);
    }

    /// Adding an edge never decreases any flow (monotonicity in capacity).
    #[test]
    fn flow_monotone_in_edges(
        edges in arb_edges(),
        extra in (0u32..8, 0u32..8, 1u64..10_000),
        s in 0u32..8,
        d in 0u32..8,
    ) {
        let g1 = graph_of(&edges);
        let mut with_extra = edges.clone();
        with_extra.push(extra);
        let g2 = graph_of(&with_extra);
        for hops in [2usize, 3] {
            prop_assert!(
                max_flow_bounded(&g2, NodeId(s), NodeId(d), hops)
                    >= max_flow_bounded(&g1, NodeId(s), NodeId(d), hops)
            );
        }
    }

    /// Honest record exchange only ever adds knowledge, and contribution
    /// estimates never exceed ground truth when everyone is honest.
    #[test]
    fn honest_exchanges_stay_within_ground_truth(
        transfers in prop::collection::vec((0u32..6, 0u32..6, 1u64..5_000), 0..30),
        meetings in prop::collection::vec((0u32..6, 0u32..6), 0..20),
    ) {
        let mut ledger = TransferLedger::new();
        for &(f, t, k) in &transfers {
            ledger.credit(NodeId(f), NodeId(t), k);
        }
        let mut bc = BarterCast::new(6, BarterCastConfig::default());
        for i in 0..6 {
            bc.sync_own_records(NodeId(i), &ledger);
        }
        for &(a, b) in &meetings {
            bc.exchange(NodeId(a), NodeId(b));
        }
        // Subjective edges never exceed the ledger's ground truth.
        for i in 0..6u32 {
            for (f, t, w) in bc.graph(NodeId(i)).edges() {
                prop_assert!(w <= ledger.uploaded_kib(f, t),
                    "node {i} believes {f}->{t} = {w} > truth");
            }
        }
        // Contributions are bounded by the contributor's total uploads.
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i == j { continue; }
                let f = bc.contribution_kib(NodeId(i), NodeId(j));
                prop_assert!(f <= ledger.total_uploaded_kib(NodeId(j)));
            }
        }
    }

    /// One weight per edge is the maximum over the *accepted* reports of
    /// that edge, for any interleaving of reports: either endpoint, third
    /// parties, self-loops, stale and zero values. The model keeps what the
    /// sender claimed and what the receiver claimed in two slots and reads
    /// the larger — the per-reporter pair the graph used to store.
    #[test]
    fn edge_weight_is_the_max_of_accepted_reports(
        reports in prop::collection::vec((0u32..5, 0u32..5, 0u32..5, 0u64..1_000), 0..120),
    ) {
        use std::collections::BTreeMap;
        let mut g = SubjectiveGraph::new();
        let mut model: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
        for &(reporter, from, to, kib) in &reports {
            let endpoint_rule = from != to && (reporter == from || reporter == to);
            prop_assert_eq!(
                g.insert_report(NodeId(reporter), NodeId(from), NodeId(to), kib),
                endpoint_rule,
                "report by {} on {}->{}", reporter, from, to
            );
            if endpoint_rule {
                let (by_from, by_to) = model.entry((from, to)).or_default();
                let slot = if reporter == from { by_from } else { by_to };
                *slot = (*slot).max(kib);
            }
            for a in 0..5u32 {
                for b in 0..5u32 {
                    let (by_from, by_to) = model.get(&(a, b)).copied().unwrap_or_default();
                    prop_assert_eq!(g.edge_kib(NodeId(a), NodeId(b)), by_from.max(by_to));
                }
            }
        }
    }

    /// More meetings never reduce a contribution estimate (knowledge is
    /// monotone for honest populations).
    #[test]
    fn knowledge_is_monotone(
        transfers in prop::collection::vec((0u32..5, 0u32..5, 1u64..5_000), 1..20),
        meetings in prop::collection::vec((0u32..5, 0u32..5), 1..15),
    ) {
        let mut ledger = TransferLedger::new();
        for &(f, t, k) in &transfers {
            ledger.credit(NodeId(f), NodeId(t), k);
        }
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        for i in 0..5 {
            bc.sync_own_records(NodeId(i), &ledger);
        }
        let before = bc.contribution_kib(NodeId(0), NodeId(1));
        for &(a, b) in &meetings {
            bc.exchange(NodeId(a), NodeId(b));
        }
        prop_assert!(bc.contribution_kib(NodeId(0), NodeId(1)) >= before);
    }

    /// A checkpoint writes each distinct record once and every graph as
    /// indices into that table. Records drawn from a short list and handed
    /// to 2–8 nodes by either endpoint — ids past the population included —
    /// land in many graphs at once; whatever they build, persist → restore
    /// → persist is byte-identical and every graph comes back equal, its
    /// zero weights and weights of `u64::MAX` included.
    #[test]
    fn graphs_sharing_records_round_trip(
        n in 2usize..=8,
        records in prop::collection::vec((0u32..9, 0u32..9, arb_shared_kib()), 1..12),
        deliveries in prop::collection::vec((0usize..8, 0usize..12, any::<bool>()), 0..60),
    ) {
        let mut bc = BarterCast::new(n, BarterCastConfig::default());
        for &(receiver, k, by_source) in &deliveries {
            let (from, to, kib) = records[k % records.len()];
            let reporter = if by_source { from } else { to };
            let record = Record { from: NodeId(from), to: NodeId(to), kib };
            bc.inject_report(NodeId::from_index(receiver % n), NodeId(reporter), record);
        }
        let bytes = rvs_checkpoint::to_bytes(&bc);
        let back: BarterCast = rvs_checkpoint::from_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(rvs_checkpoint::to_bytes(&back), bytes);
        prop_assert_eq!(back.first_difference(&bc), None);
        for i in (0..n).map(NodeId::from_index) {
            let (was, is) = (bc.graph(i), back.graph(i));
            prop_assert_eq!(is, was, "graph of {}", i);
            prop_assert!(is.edges().eq(was.edges()), "edges of {}", i);
            for (from, to, _) in records.iter().map(|&(f, t, k)| (NodeId(f), NodeId(t), k)) {
                prop_assert_eq!(is.edge_kib(from, to), was.edge_kib(from, to));
            }
        }
    }
}
