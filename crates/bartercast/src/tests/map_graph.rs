//! The subjective graph as it was before the rows: one
//! `BTreeMap<(NodeId, NodeId), u64>`, every read a point lookup or a range
//! scan. Kept as the oracle the rows are held to, bytes included.

use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
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

/// The rows' layout (DESIGN.md §12) transcribed naively, sharing no code
/// with `SubjectiveGraph`'s: group the map's entries by source, then write
/// the row count and, per row, the source's gap, the length, and per entry
/// the target's gap and KiB — a gap being `id − previous − 1`, from a
/// previous of −1.
impl Persist for MapGraph {
    fn persist(&self, enc: &mut Encoder) {
        let mut rows: Vec<(i64, Vec<(i64, u64)>)> = Vec::new();
        for (&(from, to), &kib) in &self.edges {
            let (from, to) = (i64::from(from.0), i64::from(to.0));
            match rows.last_mut() {
                Some((source, row)) if *source == from => row.push((to, kib)),
                _ => rows.push((from, vec![(to, kib)])),
            }
        }
        enc.varint(rows.len() as u64);
        let mut previous = -1;
        for (from, row) in rows {
            enc.varint((from - previous - 1) as u64);
            enc.varint(row.len() as u64);
            let mut previous_to = -1;
            for (to, kib) in row {
                enc.varint((to - previous_to - 1) as u64);
                enc.varint(kib);
                previous_to = to;
            }
            previous = from;
        }
    }

    /// Reads only what the rows wrote: no check of any kind.
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut edges = BTreeMap::new();
        let mut from = -1;
        for _ in 0..dec.varint()? {
            from += dec.varint()? as i64 + 1;
            let mut to = -1;
            for _ in 0..dec.varint()? {
                to += dec.varint()? as i64 + 1;
                let key = (NodeId(from as u32), NodeId(to as u32));
                edges.insert(key, dec.varint()?);
            }
        }
        Ok(MapGraph { edges })
    }
}
