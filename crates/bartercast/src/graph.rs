//! Subjective transfer graphs.
//!
//! Every node maintains its own picture of "who uploaded how much to whom",
//! assembled from (a) its own direct transfers and (b) records gossiped by
//! peers it encountered. A BarterCast record describes only the reporter's
//! *own* transfers, so edge `(a → b)` is accepted only from reporter `a` or
//! `b`; both reports are stored and the edge weight is their maximum
//! (counters are cumulative, so for honest reporters max == newest).

use rvs_sim::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// How many recently changed edges a graph remembers for fine-grained cache
/// invalidation. A consumer that falls further behind than this must treat
/// the whole graph as changed (see [`SubjectiveGraph::changes_since`]).
const CHANGE_LOG_CAP: usize = 256;

/// Per-edge pair of reports: what the sender claimed and what the receiver
/// claimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeReports {
    /// KiB claimed by the edge's source (`from` reported its own upload).
    by_from: u64,
    /// KiB claimed by the edge's destination (`to` reported its download).
    by_to: u64,
}

impl EdgeReports {
    fn weight(&self) -> u64 {
        self.by_from.max(self.by_to)
    }
}

rvs_checkpoint::persist_struct!(EdgeReports { by_from, by_to });

/// One node's subjective view of the transfer network.
///
/// The graph also carries a **mutation epoch**: a counter bumped every time
/// an installed report changes some edge's *effective* weight (reports that
/// are rejected or stale leave the epoch untouched). Together with a bounded
/// log of recently changed edges this lets contribution caches invalidate
/// lazily and precisely instead of recomputing on every query.
#[derive(Debug, Clone, Default)]
pub struct SubjectiveGraph {
    edges: BTreeMap<(NodeId, NodeId), EdgeReports>,
    /// Count of effective-weight changes since creation.
    epoch: u64,
    /// Endpoints of the last `CHANGE_LOG_CAP` weight changes, oldest first;
    /// entry `k` (from the back) corresponds to epoch `epoch - k`.
    changed: VecDeque<(NodeId, NodeId)>,
}

/// Equality is defined over graph *content* only: two graphs that agree on
/// every edge weight are equal regardless of how many redundant or stale
/// reports each one absorbed along the way (epoch and change log are
/// bookkeeping, not knowledge).
impl PartialEq for SubjectiveGraph {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges
    }
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
        if reporter != from && reporter != to {
            return false;
        }
        if from == to {
            return false;
        }
        let e = self.edges.entry((from, to)).or_default();
        let before = e.weight();
        if reporter == from {
            e.by_from = e.by_from.max(kib);
        } else {
            e.by_to = e.by_to.max(kib);
        }
        if e.weight() != before {
            self.epoch += 1;
            if self.changed.len() == CHANGE_LOG_CAP {
                self.changed.pop_front();
            }
            self.changed.push_back((from, to));
        }
        true
    }

    /// The mutation epoch: how many times an effective edge weight has
    /// changed since this graph was created. Rejected and stale reports do
    /// not advance it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The edges whose effective weight changed after epoch `since`
    /// (exclusive), oldest first — or `None` when the bounded change log no
    /// longer reaches back that far, in which case the caller must assume
    /// *anything* may have changed.
    pub fn changes_since(&self, since: u64) -> Option<impl Iterator<Item = (NodeId, NodeId)> + '_> {
        let behind = self.epoch.saturating_sub(since);
        if behind > self.changed.len() as u64 {
            return None;
        }
        let skip = self.changed.len() - behind as usize;
        Some(self.changed.iter().skip(skip).copied())
    }

    /// Effective weight of edge `(from → to)` in KiB.
    pub fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.edges.get(&(from, to)).map(|e| e.weight()).unwrap_or(0)
    }

    /// All edges with nonzero weight, deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.edges
            .iter()
            .filter(|(_, e)| e.weight() > 0)
            .map(|(&(f, t), e)| (f, t, e.weight()))
    }

    /// Outgoing neighbours of `node` with edge weights.
    pub fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.edges
            .range((node, NodeId(0))..=(node, NodeId(u32::MAX)))
            .filter(|(_, e)| e.weight() > 0)
            .map(|(&(_, t), e)| (t, e.weight()))
            .collect()
    }

    /// Number of distinct nonzero edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().filter(|e| e.weight() > 0).count()
    }

    /// All node ids mentioned by any edge (sorted, deduplicated).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .edges
            .iter()
            .filter(|(_, e)| e.weight() > 0)
            .flat_map(|(&(f, t), _)| [f, t])
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

// The epoch and the bounded change log (oldest first) are persisted
// verbatim so contribution-cache invalidation resumes where it left off.
rvs_checkpoint::persist_struct!(SubjectiveGraph {
    edges,
    epoch,
    changed
});

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
    fn epoch_tracks_effective_weight_changes_only() {
        let mut g = SubjectiveGraph::new();
        assert_eq!(g.epoch(), 0);
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        assert_eq!(g.epoch(), 1);
        // Stale (smaller) report: accepted but changes nothing.
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 50);
        assert_eq!(g.epoch(), 1);
        // Counter-report below the stored max: weight unchanged.
        g.insert_report(NodeId(2), NodeId(1), NodeId(2), 80);
        assert_eq!(g.epoch(), 1);
        // Counter-report above the stored max: weight changes.
        g.insert_report(NodeId(2), NodeId(1), NodeId(2), 120);
        assert_eq!(g.epoch(), 2);
        // Rejected third-party report: nothing changes.
        g.insert_report(NodeId(9), NodeId(3), NodeId(4), 7);
        assert_eq!(g.epoch(), 2);
    }

    #[test]
    fn changes_since_lists_changed_edges_in_order() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(1), NodeId(1), NodeId(2), 10);
        g.insert_report(NodeId(3), NodeId(3), NodeId(4), 10);
        let all = g.changes_since(0).map(|it| it.collect::<Vec<_>>());
        assert_eq!(
            all,
            Some(vec![(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))])
        );
        let tail = g.changes_since(1).map(|it| it.collect::<Vec<_>>());
        assert_eq!(tail, Some(vec![(NodeId(3), NodeId(4))]));
        assert_eq!(g.changes_since(2).map(Iterator::count), Some(0));
    }

    #[test]
    fn change_log_overflow_reports_unknown() {
        let mut g = SubjectiveGraph::new();
        for k in 0..(CHANGE_LOG_CAP as u64 + 10) {
            g.insert_report(NodeId(1), NodeId(1), NodeId(2), k + 1);
        }
        assert_eq!(g.epoch(), CHANGE_LOG_CAP as u64 + 10);
        // Epoch 5 is beyond the bounded log: the graph cannot say.
        assert!(g.changes_since(5).is_none());
        // Recent epochs are still covered.
        assert_eq!(g.changes_since(g.epoch() - 3).map(Iterator::count), Some(3));
    }

    #[test]
    fn equality_ignores_bookkeeping() {
        let mut a = SubjectiveGraph::new();
        a.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        let mut b = SubjectiveGraph::new();
        // Same final content via more (stale) installs: different epoch.
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 40);
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 100);
        b.insert_report(NodeId(1), NodeId(1), NodeId(2), 90);
        assert_ne!(a.epoch(), b.epoch());
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
