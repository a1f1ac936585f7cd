//! Subjective transfer graphs.
//!
//! Every node maintains its own picture of "who uploaded how much to whom",
//! assembled from (a) its own direct transfers and (b) records gossiped by
//! peers it encountered. A BarterCast record describes only the reporter's
//! *own* transfers, so edge `(a → b)` is accepted only from reporter `a` or
//! `b`; the edge weight is the maximum over the accepted reports (counters
//! are cumulative, so for honest reporters max == newest).

use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::NodeId;

/// One source's out-edges, ascending by target.
type Row = Vec<(NodeId, u64)>;

/// One node's subjective view of the transfer network.
///
/// Two graphs that agree on every edge weight are equal regardless of how
/// many redundant or stale reports each one absorbed along the way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectiveGraph {
    /// Ascending by source, no row empty. A zero weight stays where a
    /// report created it (it is persisted), and reads as no edge.
    rows: Vec<(NodeId, Row)>,
}

/// `Vec::insert` that grows a full vector by a quarter instead of doubling
/// it. A graph is hundreds of rows, most of a handful of entries, that only
/// ever grow: doubling held capacity for 2,773 entries to store 1,988 and
/// cost 10 % of peak RSS at 1,000 peers (EXPERIMENTS.md, "Subjective graph:
/// rows, and contribution as a merge").
pub(crate) fn insert_snug<T>(v: &mut Vec<T>, at: usize, item: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(1 + v.len() / 4);
    }
    v.insert(at, item);
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
        let at = match self.rows.binary_search_by_key(&from, |&(source, _)| source) {
            Ok(at) => at,
            Err(at) => {
                insert_snug(&mut self.rows, at, (from, Row::new()));
                at
            }
        };
        let row = &mut self.rows[at].1;
        match row.binary_search_by_key(&to, |&(target, _)| target) {
            Ok(at) => {
                let old = row[at].1;
                row[at].1 = old.max(kib);
                Some((old, row[at].1))
            }
            Err(at) => {
                insert_snug(row, at, (to, kib));
                Some((0, kib))
            }
        }
    }

    /// The stored out-edges of `from`, zero weights included, ascending by
    /// target.
    pub(crate) fn row(&self, from: NodeId) -> &[(NodeId, u64)] {
        match self.rows.binary_search_by_key(&from, |&(source, _)| source) {
            Ok(at) => &self.rows[at].1,
            Err(_) => &[],
        }
    }

    /// Effective weight of edge `(from → to)` in KiB.
    pub fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        let row = self.row(from);
        match row.binary_search_by_key(&to, |&(target, _)| target) {
            Ok(at) => row[at].1,
            Err(_) => 0,
        }
    }

    /// All edges with nonzero weight, deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.stored().filter(|&(_, _, w)| w > 0)
    }

    /// Every stored entry, ascending by `(from, to)`: the persisted order.
    fn stored(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.rows
            .iter()
            .flat_map(|(from, row)| row.iter().map(move |&(to, w)| (*from, to, w)))
    }

    /// Outgoing neighbours of `node` with edge weights.
    pub fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.out_edges_iter(node).collect()
    }

    /// [`out_edges`](Self::out_edges) without the `Vec`.
    pub(crate) fn out_edges_iter(&self, node: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.row(node).iter().copied().filter(|&(_, w)| w > 0)
    }

    /// Number of distinct nonzero edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// All node ids mentioned by any edge (sorted, deduplicated).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.edges().flat_map(|(f, t, _)| [f, t]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Stable binary encoding, the one a `BTreeMap<(NodeId, NodeId), u64>` has:
/// the entry count, then `(from, to, kib)` ascending. Written by hand
/// because the rows are not that map; a checkpoint is outside input, so
/// restore refuses what no sequence of reports can store — entries out of
/// order or repeated (the rows are binary-searched) and self-loops.
impl Persist for SubjectiveGraph {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.rows.iter().map(|(_, row)| row.len()).sum());
        for entry in self.stored() {
            entry.persist(enc);
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let corrupt = |what: &str| Err(DecodeError::Corrupt(format!("SubjectiveGraph: {what}")));
        let len = dec.seq_len()?;
        let mut rows: Vec<(NodeId, Row)> = Vec::new();
        let mut last = None;
        for _ in 0..len {
            let (from, to, kib) = <(NodeId, NodeId, u64)>::restore(dec)?;
            if last >= Some((from, to)) {
                return corrupt("edges must ascend");
            }
            if from == to {
                return corrupt("self-loop");
            }
            last = Some((from, to));
            match rows.last_mut() {
                Some((source, row)) if *source == from => row.push((to, kib)),
                _ => rows.push((from, vec![(to, kib)])),
            }
        }
        // Pushing doubled the capacities; hand back what `insert_snug`
        // would not have taken.
        rows.iter_mut().for_each(|(_, row)| row.shrink_to_fit());
        rows.shrink_to_fit();
        Ok(SubjectiveGraph { rows })
    }
}

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
