//! The subjective graph as it was before the rows: one
//! `BTreeMap<(NodeId, NodeId), u64>`, every read a point lookup or a range
//! scan. Kept as the oracle the rows are held to, bytes included.

use rvs_sim::NodeId;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MapGraph {
    edges: BTreeMap<(NodeId, NodeId), u64>,
}

impl MapGraph {
    pub(crate) fn insert_report(
        &mut self,
        reporter: NodeId,
        from: NodeId,
        to: NodeId,
        kib: u64,
    ) -> bool {
        if (reporter != from && reporter != to) || from == to {
            return false;
        }
        let w = self.edges.entry((from, to)).or_default();
        *w = (*w).max(kib);
        true
    }

    pub(crate) fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0)
    }

    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.edges
            .iter()
            .filter(|(_, &w)| w > 0)
            .map(|(&(f, t), &w)| (f, t, w))
    }

    pub(crate) fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.edges
            .range((node, NodeId(0))..=(node, NodeId(u32::MAX)))
            .filter(|(_, &w)| w > 0)
            .map(|(&(_, t), &w)| (t, w))
            .collect()
    }
}

rvs_checkpoint::persist_struct!(MapGraph { edges });
