//! Hop-bounded Edmonds–Karp maxflow over a subjective graph.
//!
//! Deployed BarterCast computes the contribution of `j` towards `i` as the
//! maximum flow from `j` to `i` in `i`'s subjective graph, with augmenting
//! paths restricted to a small hop count (2 in Tribler). The hop bound is
//! what blunts false-report attacks: a colluding clique can fabricate
//! arbitrarily heavy edges *among its own members*, but any flow towards an
//! honest evaluator must still cross genuine edges adjacent to honest
//! nodes, and with at most two hops there is little room to route around
//! that constraint.

use crate::graph::SubjectiveGraph;
use rvs_sim::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// Maximum flow from `src` to `dst` using augmenting paths of at most
/// `max_hops` edges. Returns KiB of flow, saturating at `u64::MAX`.
///
/// `max_hops = usize::MAX` degenerates to ordinary Edmonds–Karp. This is
/// the reference the protocol's 2-hop answer
/// ([`BarterCast::contribution_kib`](crate::BarterCast::contribution_kib))
/// is tested against.
pub fn max_flow_bounded(graph: &SubjectiveGraph, src: NodeId, dst: NodeId, max_hops: usize) -> u64 {
    if src == dst || max_hops == 0 {
        return 0;
    }
    // Residual capacities; reverse edges materialise lazily.
    let mut residual: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for (f, t, w) in graph.edges() {
        *residual.entry((f, t)).or_insert(0) += w;
        residual.entry((t, f)).or_insert(0);
        adj.entry(f).or_default().push(t);
        adj.entry(t).or_default().push(f);
    }
    for nbrs in adj.values_mut() {
        nbrs.sort_unstable();
        nbrs.dedup();
    }
    if !adj.contains_key(&src) || !adj.contains_key(&dst) {
        return 0;
    }

    let mut total = 0u64;
    loop {
        // BFS for the shortest augmenting path within the hop budget.
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut depth: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(src);
        depth.insert(src, 0);
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            let d = depth[&u];
            if d == max_hops {
                continue;
            }
            if let Some(nbrs) = adj.get(&u) {
                for &v in nbrs {
                    if depth.contains_key(&v) {
                        continue;
                    }
                    if residual.get(&(u, v)).copied().unwrap_or(0) == 0 {
                        continue;
                    }
                    depth.insert(v, d + 1);
                    parent.insert(v, u);
                    if v == dst {
                        found = true;
                        break;
                    }
                    queue.push_back(v);
                }
            }
            if found {
                break;
            }
        }
        if !found {
            return total;
        }
        // Bottleneck along the path. BFS only enqueued `v` with a parent
        // whose residual was positive, so the lookups cannot miss — but a
        // miss must not be a panic path: an inconsistent parent chain
        // terminates the search with the flow found so far instead.
        let mut bottleneck = u64::MAX;
        let mut v = dst;
        while v != src {
            let Some((&u, cap)) = parent
                .get(&v)
                .and_then(|u| residual.get(&(*u, v)).map(|c| (u, *c)))
            else {
                return total;
            };
            bottleneck = bottleneck.min(cap);
            v = u;
        }
        // Augment.
        let mut v = dst;
        while v != src {
            let Some(&u) = parent.get(&v) else {
                return total;
            };
            if let Some(fwd) = residual.get_mut(&(u, v)) {
                *fwd = fwd.saturating_sub(bottleneck);
            }
            let back = residual.entry((v, u)).or_insert(0);
            *back = back.saturating_add(bottleneck);
            v = u;
        }
        total = total.saturating_add(bottleneck);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(edges: &[(u32, u32, u64)]) -> SubjectiveGraph {
        let mut graph = SubjectiveGraph::new();
        for &(f, t, w) in edges {
            assert!(graph.insert_report(NodeId(f), NodeId(f), NodeId(t), w));
        }
        graph
    }

    #[test]
    fn direct_edge_flows_fully() {
        let graph = g(&[(1, 2, 100)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(2), 2), 100);
    }

    #[test]
    fn no_path_means_zero() {
        let graph = g(&[(1, 2, 100)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(2), NodeId(1), 2), 0);
        assert_eq!(max_flow_bounded(&graph, NodeId(3), NodeId(1), 2), 0);
    }

    #[test]
    fn two_hop_path_is_bottlenecked() {
        // 1 -> 2 -> 3 with capacities 100, 40.
        let graph = g(&[(1, 2, 100), (2, 3, 40)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(3), 2), 40);
    }

    #[test]
    fn hop_limit_excludes_long_paths() {
        // 1 -> 2 -> 3 -> 4: three hops needed.
        let graph = g(&[(1, 2, 100), (2, 3, 100), (3, 4, 100)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(4), 2), 0);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(4), 3), 100);
    }

    #[test]
    fn parallel_paths_add_up() {
        // Two disjoint 2-hop routes from 1 to 4.
        let graph = g(&[(1, 2, 30), (2, 4, 30), (1, 3, 20), (3, 4, 20)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(4), 2), 50);
    }

    #[test]
    fn direct_plus_indirect_combined() {
        let graph = g(&[(1, 4, 10), (1, 2, 25), (2, 4, 25)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(4), 2), 35);
    }

    #[test]
    fn classic_maxflow_with_unbounded_hops() {
        // Diamond with a cross edge; classic max-flow value is 19.
        // s=1, t=6. Edges from CLRS-style example.
        let graph = g(&[
            (1, 2, 10),
            (1, 3, 10),
            (2, 4, 4),
            (2, 5, 8),
            (3, 5, 9),
            (5, 4, 6),
            (4, 6, 10),
            (5, 6, 10),
        ]);
        assert_eq!(
            max_flow_bounded(&graph, NodeId(1), NodeId(6), usize::MAX),
            19
        );
    }

    #[test]
    fn fabricated_clique_cannot_push_flow_without_real_edges() {
        // Colluders 10, 11, 12 report huge transfers among themselves, but
        // none of them ever uploaded to honest node 1. Flow to node 1 is 0.
        let graph = g(&[
            (10, 11, 1_000_000),
            (11, 12, 1_000_000),
            (12, 10, 1_000_000),
        ]);
        for c in [10, 11, 12] {
            assert_eq!(max_flow_bounded(&graph, NodeId(c), NodeId(1), 2), 0);
        }
    }

    #[test]
    fn mole_leverage_is_bounded_by_real_edge() {
        // Mole 2 really uploaded 5 KiB to honest 1. Colluder 3 claims a
        // gigantic upload to the mole. Colluder's 2-hop flow to 1 is capped
        // by the genuine 5 KiB edge.
        let mut graph = g(&[(2, 1, 5)]);
        assert!(graph.insert_report(NodeId(3), NodeId(3), NodeId(2), 1_000_000));
        assert_eq!(max_flow_bounded(&graph, NodeId(3), NodeId(1), 2), 5);
    }

    #[test]
    fn zero_hop_and_self_flow_are_zero() {
        let graph = g(&[(1, 2, 100)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(2), 0), 0);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(1), 2), 0);
    }

    #[test]
    fn closed_form_matches_edmonds_karp_on_random_graphs() {
        use crate::{BarterCast, BarterCastConfig, Record};
        use rvs_sim::DetRng;
        let mut rng = DetRng::new(42);
        for case in 0..200 {
            let n = 2 + rng.index(8) as u32;
            let mut reports = Vec::new();
            let edges = rng.index(20);
            for _ in 0..edges {
                let f = rng.below(n as u64) as u32;
                let t = rng.below(n as u64) as u32;
                // A quarter of the weights sit just below `u64::MAX`, so both
                // implementations are held to the same saturated answer.
                let w = if rng.below(4) == 0 {
                    u64::MAX - rng.below(100)
                } else {
                    1 + rng.below(100)
                };
                if f != t {
                    reports.push(Record {
                        from: NodeId(f),
                        to: NodeId(t),
                        kib: w,
                    });
                }
            }
            let s = NodeId(rng.below(n as u64) as u32);
            let d = NodeId(rng.below(n as u64) as u32);
            // `d`'s graph holds every report, each made by its uploader.
            let mut bc = BarterCast::new(n as usize, BarterCastConfig::default());
            for r in reports {
                assert!(bc.inject_report(d, r.from, r));
            }
            assert_eq!(
                bc.contribution_kib(d, s),
                max_flow_bounded(bc.graph(d), s, d, 2),
                "case {case}: closed form diverges from Edmonds–Karp"
            );
        }
    }

    #[test]
    fn one_hop_is_direct_edge_only() {
        let graph = g(&[(1, 2, 100), (1, 3, 50), (3, 2, 50)]);
        assert_eq!(max_flow_bounded(&graph, NodeId(1), NodeId(2), 1), 100);
    }

    #[test]
    fn reverse_edges_enable_rerouting() {
        // Flow rerouting via residual edges: classic case where a greedy
        // path must be partially undone.
        let graph = g(&[(1, 2, 10), (1, 3, 10), (2, 3, 10), (2, 4, 10), (3, 4, 10)]);
        assert_eq!(
            max_flow_bounded(&graph, NodeId(1), NodeId(4), usize::MAX),
            20
        );
    }
}
