//! Incremental contribution caching.
//!
//! Every experience check `E_i(j)` needs the contribution `f_{j→i}` — a
//! hop-bounded maxflow over `i`'s subjective graph — and the surrounding
//! system asks for the same `(i, j)` pairs over and over: each gossip round
//! re-gates vote lists, each observer sample sweeps the contribution
//! matrix. Most of those queries hit a graph that has not changed since the
//! last identical query, so the flow value is memoized per `(i, j)` pair.
//!
//! Invalidation is *lazy* and driven by the graph's mutation epoch (see
//! [`SubjectiveGraph::epoch`]): a cache never has to be told about writes,
//! it reconciles with the graph at the next read. Reconciliation has three
//! tiers, cheapest first:
//!
//! 1. **Epoch match** — graph untouched since the last read: every entry is
//!    still exact.
//! 2. **Fine-grained replay** (2-hop configurations) — the graph's bounded
//!    change log still covers the gap, and the deployed 2-hop closed form
//!    `f_{j→i} = w(j,i) + Σ_x min(w(j,x), w(x,i))` depends only on edges
//!    *out of* `j` and *into* `i`. Because weights are max-accumulated they
//!    are monotone, so an edge weight that is zero *now* was zero at every
//!    instant the log covers — which licenses two sharp rules for a changed
//!    edge `(a → b)`:
//!    * `b ≠ i`: only `f_{a→i}` can move, and only through the relay term
//!      `min(w(a,b), w(b,i))` — evict entry `a` iff `w(b,i) > 0`;
//!    * `b = i`: evict entry `a` (direct term) plus every cached `j` with
//!      `w(j,a) > 0` (relay through `a`); peers that never uploaded to `a`
//!      keep their entries.
//!
//!    An exchange that installs a few edges evicts a few entries instead of
//!    the whole cache.
//! 3. **Full flush** — the log was truncated, or the hop bound exceeds 2 (a
//!    changed edge anywhere can then appear in some ≤`h`-hop path): drop
//!    every entry for the node.
//!
//! The fine-grained rule is deliberately conservative for hop bounds 0 and
//! 1 (their dependency sets are subsets of the 2-hop one), so tier 2 is
//! sound for every `max_hops ≤ 2`. Correctness of the whole scheme — cached
//! results byte-identical to cache-free recomputation under arbitrary
//! mutation/query interleavings — is enforced by differential proptests
//! (`crates/bartercast/tests/proptests.rs`, `tests/cache_differential.rs`)
//! and by the scenario auditor's sampled coherence invariant.

use crate::graph::SubjectiveGraph;
use rvs_sim::NodeId;
use std::collections::BTreeMap;

/// Memoized contributions towards one evaluator node.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeCache {
    /// Graph epoch the surviving entries were last reconciled against.
    seen_epoch: u64,
    /// `j → f_{j→i}` in KiB, exact as of `seen_epoch`.
    entries: BTreeMap<NodeId, u64>,
}

/// What a [`ContributionCache::lookup`] found.
pub(crate) enum Lookup {
    /// The cached flow value, exact for the graph's current epoch.
    Hit(u64),
    /// No valid entry; the caller must compute and [`ContributionCache::store`].
    Miss,
}

/// Per-node memoization of `f_{j→i}` with epoch-based invalidation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContributionCache {
    nodes: Vec<NodeCache>,
}

impl ContributionCache {
    /// A cache for a population of `n` evaluator nodes.
    pub(crate) fn new(n: usize) -> Self {
        ContributionCache {
            nodes: vec![NodeCache::default(); n],
        }
    }

    /// Number of evaluator nodes.
    pub(crate) fn population(&self) -> usize {
        self.nodes.len()
    }

    /// Reconcile node `i`'s entries with its graph's current epoch,
    /// evicting exactly the entries whose value may have changed.
    pub(crate) fn reconcile(&mut self, i: NodeId, graph: &SubjectiveGraph, max_hops: usize) {
        let cache = &mut self.nodes[i.index()];
        let epoch = graph.epoch();
        if cache.seen_epoch == epoch {
            return;
        }
        match graph
            .changes_since(cache.seen_epoch)
            .filter(|_| max_hops <= 2)
        {
            Some(changes) => {
                for (a, b) in changes {
                    if b == i {
                        // An edge into the evaluator feeds the direct term
                        // of `f_{a→i}` and the relay term `min(w(j,a),
                        // w(a,i))` of every `j` that uploaded to `a`. With
                        // max-accumulated (hence monotone) weights, a `j`
                        // with `w(j,a) = 0` *now* had no such term at any
                        // point the log covers, so it keeps its entry.
                        cache
                            .entries
                            .retain(|&j, _| j != a && graph.edge_kib(j, a) == 0);
                    } else {
                        // Only `f_{a→i}` sees this edge, through the relay
                        // term `min(w(a,b), w(b,i))` — which is identically
                        // zero (before and after, by monotonicity) unless
                        // `b` has uploaded to the evaluator.
                        if graph.edge_kib(b, i) > 0 {
                            cache.entries.remove(&a);
                        }
                    }
                }
            }
            // Log truncated, or hops > 2 (a changed edge can then sit
            // mid-path anywhere): drop everything.
            None => cache.entries.clear(),
        }
        cache.seen_epoch = epoch;
    }

    /// Look up `f_{j→i}`. Only meaningful directly after
    /// [`reconcile`](Self::reconcile) for the same `i`.
    pub(crate) fn lookup(&self, i: NodeId, j: NodeId) -> Lookup {
        match self.nodes[i.index()].entries.get(&j) {
            Some(&kib) => Lookup::Hit(kib),
            None => Lookup::Miss,
        }
    }

    /// Record a freshly computed `f_{j→i}`.
    pub(crate) fn store(&mut self, i: NodeId, j: NodeId, kib: u64) {
        self.nodes[i.index()].entries.insert(j, kib);
    }

    /// The surviving `(j, f_{j→i})` entries for node `i`. Exact only after
    /// a [`reconcile`](Self::reconcile) at the graph's current epoch —
    /// which is what the scenario auditor's coherence sampling relies on.
    pub(crate) fn entries(&self, i: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.nodes[i.index()]
            .entries
            .iter()
            .map(|(&j, &kib)| (j, kib))
    }

    /// Number of cached entries for node `i` (diagnostics).
    pub(crate) fn len(&self, i: NodeId) -> usize {
        self.nodes[i.index()].entries.len()
    }
}

rvs_checkpoint::persist_struct!(NodeCache {
    seen_epoch,
    entries
});

// Persisted verbatim so cache hit/miss behaviour — and therefore the
// maxflow-evaluation counters — resumes byte-identically.
rvs_checkpoint::persist_struct!(ContributionCache { nodes });

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32, u64)]) -> SubjectiveGraph {
        let mut g = SubjectiveGraph::new();
        for &(f, t, w) in edges {
            assert!(g.insert_report(NodeId(f), NodeId(f), NodeId(t), w));
        }
        g
    }

    #[test]
    fn unchanged_epoch_keeps_entries() {
        let g = graph(&[(2, 1, 100)]);
        let mut c = ContributionCache::new(4);
        c.reconcile(NodeId(1), &g, 2);
        c.store(NodeId(1), NodeId(2), 100);
        c.reconcile(NodeId(1), &g, 2);
        assert!(matches!(c.lookup(NodeId(1), NodeId(2)), Lookup::Hit(100)));
    }

    #[test]
    fn edge_into_evaluator_evicts_direct_and_relaying_sources() {
        // 2 has uploaded to 4, 3 has not; then a new edge 4 → 1 arrives.
        let mut g = graph(&[(2, 1, 100), (2, 4, 30), (3, 1, 10)]);
        let mut c = ContributionCache::new(6);
        c.reconcile(NodeId(1), &g, 2);
        c.store(NodeId(1), NodeId(2), 130);
        c.store(NodeId(1), NodeId(3), 10);
        c.store(NodeId(1), NodeId(4), 0);
        g.insert_report(NodeId(4), NodeId(4), NodeId(1), 50);
        c.reconcile(NodeId(1), &g, 2);
        // 4 itself (direct term) and 2 (relay via 4) are stale; 3 never
        // uploaded to 4, so its flow cannot have moved.
        assert!(matches!(c.lookup(NodeId(1), NodeId(4)), Lookup::Miss));
        assert!(matches!(c.lookup(NodeId(1), NodeId(2)), Lookup::Miss));
        assert!(matches!(c.lookup(NodeId(1), NodeId(3)), Lookup::Hit(10)));
    }

    #[test]
    fn unrelated_edge_evicts_only_its_source() {
        let mut g = graph(&[(2, 1, 100), (3, 1, 10)]);
        let mut c = ContributionCache::new(6);
        c.reconcile(NodeId(1), &g, 2);
        c.store(NodeId(1), NodeId(2), 100);
        c.store(NodeId(1), NodeId(3), 10);
        c.store(NodeId(1), NodeId(5), 0);
        // 5 → 3 does not touch node 1 directly, but 3 relays to 1:
        // only j = 5 is affected.
        g.insert_report(NodeId(5), NodeId(5), NodeId(3), 77);
        c.reconcile(NodeId(1), &g, 2);
        assert!(matches!(c.lookup(NodeId(1), NodeId(2)), Lookup::Hit(100)));
        assert!(matches!(c.lookup(NodeId(1), NodeId(3)), Lookup::Hit(10)));
        assert!(matches!(c.lookup(NodeId(1), NodeId(5)), Lookup::Miss));
    }

    #[test]
    fn edge_to_non_relaying_peer_evicts_nothing() {
        let mut g = graph(&[(2, 1, 100)]);
        let mut c = ContributionCache::new(6);
        c.reconcile(NodeId(1), &g, 2);
        c.store(NodeId(1), NodeId(2), 100);
        c.store(NodeId(1), NodeId(5), 0);
        // 5 → 4 where 4 never uploaded to 1: no ≤2-hop path to the
        // evaluator gained capacity, every entry stays exact.
        g.insert_report(NodeId(5), NodeId(5), NodeId(4), 77);
        c.reconcile(NodeId(1), &g, 2);
        assert!(matches!(c.lookup(NodeId(1), NodeId(2)), Lookup::Hit(100)));
        assert!(matches!(c.lookup(NodeId(1), NodeId(5)), Lookup::Hit(0)));
    }

    #[test]
    fn three_hop_config_always_flushes_on_change() {
        let mut g = graph(&[(2, 1, 100)]);
        let mut c = ContributionCache::new(8);
        c.reconcile(NodeId(1), &g, 3);
        c.store(NodeId(1), NodeId(2), 100);
        g.insert_report(NodeId(6), NodeId(6), NodeId(7), 1);
        c.reconcile(NodeId(1), &g, 3);
        assert_eq!(c.len(NodeId(1)), 0);
    }

    #[test]
    fn truncated_log_flushes() {
        let mut g = graph(&[(2, 1, 100)]);
        let mut c = ContributionCache::new(4);
        c.reconcile(NodeId(1), &g, 2);
        c.store(NodeId(1), NodeId(2), 100);
        // Blow well past the change-log capacity with edges that would
        // individually be harmless to pair (1, 2).
        for k in 0..600u64 {
            g.insert_report(NodeId(3), NodeId(3), NodeId(2), k + 1);
        }
        c.reconcile(NodeId(1), &g, 2);
        assert_eq!(c.len(NodeId(1)), 0);
    }
}
