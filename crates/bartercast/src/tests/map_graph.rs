//! The subjective graph as it was before the rows: one
//! `BTreeMap<(NodeId, NodeId), u64>`, every read a point lookup or a range
//! scan. Kept as the oracle the rows are held to, the checkpoint's bytes
//! included.

use crate::BarterCastConfig;
use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

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

/// A `BarterCast` checkpoint (DESIGN.md §12, format 9) transcribed
/// naively from the maps, sharing no code with the encoder: the config;
/// every distinct record of every map, gathered in one set, written as
/// runs by source and by target — a gap is `id − previous − 1`, from a
/// previous of −1, and a later value `kib − previous − 1`; the map count
/// and, per map, its record count and each record's position in the set
/// as a gap; then the two counters.
pub(crate) fn cast_bytes(cfg: &BarterCastConfig, maps: &[MapGraph], counters: [u64; 2]) -> Vec<u8> {
    let records: BTreeSet<(NodeId, NodeId, u64)> = maps
        .iter()
        .flat_map(|map| map.edges.iter().map(|(&(f, t), &w)| (f, t, w)))
        .collect();
    let mut by_source: BTreeMap<i64, BTreeMap<i64, Vec<u64>>> = BTreeMap::new();
    for &(from, to, kib) in &records {
        let row = by_source.entry(i64::from(from.0)).or_default();
        row.entry(i64::from(to.0)).or_default().push(kib);
    }
    let mut enc = Encoder::new();
    cfg.persist(&mut enc);
    enc.varint(by_source.len() as u64);
    let mut previous = -1;
    for (from, row) in by_source {
        enc.varint((from - previous - 1) as u64);
        enc.varint(row.len() as u64);
        let mut previous_to = -1;
        for (to, values) in row {
            enc.varint((to - previous_to - 1) as u64);
            enc.varint(values.len() as u64);
            for (k, &kib) in values.iter().enumerate() {
                enc.varint(if k == 0 { kib } else { kib - values[k - 1] - 1 });
            }
            previous_to = to;
        }
        previous = from;
    }
    enc.varint(maps.len() as u64);
    for map in maps {
        enc.varint(map.edges.len() as u64);
        let mut previous = -1;
        for (&(f, t), &w) in &map.edges {
            let at = records.range(..(f, t, w)).count() as i64;
            enc.varint((at - previous - 1) as u64);
            previous = at;
        }
    }
    for counter in counters {
        enc.u64(counter);
    }
    enc.into_bytes()
}

/// The maps of a `BarterCast` checkpoint: reads only what
/// [`cast_bytes`]'s layout wrote, with no check of any kind.
pub(crate) fn maps_of(bytes: &[u8]) -> Result<Vec<MapGraph>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    BarterCastConfig::restore(&mut dec)?;
    let mut records = Vec::new();
    let mut from = -1;
    for _ in 0..dec.varint()? {
        from += dec.varint()? as i64 + 1;
        let mut to = -1;
        for _ in 0..dec.varint()? {
            to += dec.varint()? as i64 + 1;
            let mut kib = 0;
            for k in 0..dec.varint()? {
                let v = dec.varint()?;
                kib = if k == 0 { v } else { kib + v + 1 };
                records.push((NodeId(from as u32), NodeId(to as u32), kib));
            }
        }
    }
    let mut maps = Vec::new();
    for _ in 0..dec.varint()? {
        let mut edges = BTreeMap::new();
        let mut at = -1;
        for _ in 0..dec.varint()? {
            at += dec.varint()? as i64 + 1;
            let (from, to, kib) = records[at as usize];
            edges.insert((from, to), kib);
        }
        maps.push(MapGraph { edges });
    }
    Ok(maps)
}
