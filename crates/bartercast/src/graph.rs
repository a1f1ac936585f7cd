//! Subjective transfer graphs.
//!
//! Every node maintains its own picture of "who uploaded how much to whom",
//! assembled from (a) its own direct transfers and (b) records gossiped by
//! peers it encountered. A BarterCast record describes only the reporter's
//! *own* transfers, so edge `(a → b)` is accepted only from reporter `a` or
//! `b`; the edge weight is the maximum over the accepted reports (counters
//! are cumulative, so for honest reporters max == newest).

use rvs_sim::NodeId;
use std::collections::BTreeMap;

/// One node's subjective view of the transfer network.
///
/// Two graphs that agree on every edge weight are equal regardless of how
/// many redundant or stale reports each one absorbed along the way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectiveGraph {
    edges: BTreeMap<(NodeId, NodeId), u64>,
}

impl SubjectiveGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a report from `reporter` that `from` uploaded `kib` KiB to
    /// `to`. Returns `false` (rejecting the report) unless the reporter is
    /// one of the edge's endpoints — the protocol's first line of defence
    /// against fabricated third-party edges.
    ///
    /// Cumulative counters only grow, so a report smaller than the stored
    /// one is ignored (stale gossip).
    pub fn insert_report(&mut self, reporter: NodeId, from: NodeId, to: NodeId, kib: u64) -> bool {
        self.upsert(reporter, from, to, kib).is_some()
    }

    /// [`insert_report`](Self::insert_report), telling the caller what it
    /// did to the edge: `None` for a rejected report, else the weight
    /// before and after.
    pub(crate) fn upsert(
        &mut self,
        reporter: NodeId,
        from: NodeId,
        to: NodeId,
        kib: u64,
    ) -> Option<(u64, u64)> {
        if (reporter != from && reporter != to) || from == to {
            return None;
        }
        let w = self.edges.entry((from, to)).or_default();
        let old = *w;
        *w = old.max(kib);
        Some((old, *w))
    }

    /// Effective weight of edge `(from → to)` in KiB.
    pub fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0)
    }

    /// All edges with nonzero weight, deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.edges
            .iter()
            .filter(|(_, &w)| w > 0)
            .map(|(&(f, t), &w)| (f, t, w))
    }

    /// Outgoing neighbours of `node` with edge weights.
    pub fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.out_edges_iter(node).collect()
    }

    /// [`out_edges`](Self::out_edges) without the `Vec`.
    pub(crate) fn out_edges_iter(&self, node: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.edges
            .range((node, NodeId(0))..=(node, NodeId(u32::MAX)))
            .filter(|(_, &w)| w > 0)
            .map(|(&(_, t), &w)| (t, w))
    }

    /// Number of distinct nonzero edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().filter(|&&w| w > 0).count()
    }

    /// All node ids mentioned by any edge (sorted, deduplicated).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .edges
            .iter()
            .filter(|(_, &w)| w > 0)
            .flat_map(|(&(f, t), _)| [f, t])
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

rvs_checkpoint::persist_struct!(SubjectiveGraph { edges });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_reports_accepted() {
        let mut g = SubjectiveGraph::new();
        assert!(g.insert_report(NodeId(1), NodeId(1), NodeId(2), 100));
        assert!(g.insert_report(NodeId(2), NodeId(1), NodeId(2), 90));
        assert_eq!(g.edge_kib(NodeId(1), NodeId(2)), 100);
    }

    #[test]
    fn third_party_reports_rejected() {
        let mut g = SubjectiveGraph::new();
        assert!(!g.insert_report(NodeId(9), NodeId(1), NodeId(2), 1_000_000));
        assert_eq!(g.edge_kib(NodeId(1), NodeId(2)), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = SubjectiveGraph::new();
        assert!(!g.insert_report(NodeId(1), NodeId(1), NodeId(1), 5));
    }

    #[test]
    fn cumulative_counters_never_shrink() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 500);
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 300); // stale
        assert_eq!(g.edge_kib(NodeId(1), NodeId(2)), 500);
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 800);
        assert_eq!(g.edge_kib(NodeId(1), NodeId(2)), 800);
    }

    #[test]
    fn direction_matters() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        assert_eq!(g.edge_kib(NodeId(2), NodeId(1)), 0);
    }

    #[test]
    fn out_edges_sorted_by_target() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(5), NodeId(5), NodeId(9), 10);
        g.insert_report(NodeId(5), NodeId(5), NodeId(2), 20);
        g.insert_report(NodeId(5), NodeId(5), NodeId(7), 30);
        let out = g.out_edges(NodeId(5));
        assert_eq!(out, vec![(NodeId(2), 20), (NodeId(7), 30), (NodeId(9), 10)]);
    }

    #[test]
    fn equality_ignores_bookkeeping() {
        let mut a = SubjectiveGraph::new();
        a.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        let mut b = SubjectiveGraph::new();
        // Stale and redundant reports leave graphs equal.
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 40);
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 90);
        b.insert_report(NodeId(2), NodeId(1), NodeId(2), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn nodes_enumerates_endpoints() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(3), NodeId(3), NodeId(1), 10);
        g.insert_report(NodeId(3), NodeId(4), NodeId(3), 10);
        assert_eq!(g.nodes(), vec![NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(g.edge_count(), 2);
    }
}
