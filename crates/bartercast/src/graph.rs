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

/// One stored entry: the edge's far end and its weight. Packed to 12 bytes,
/// where a `(NodeId, u64)` pads to 16 — the graphs are most of the memory a
/// run holds (EXPERIMENTS.md, "Subjective graph: 12-byte edges"). No field
/// may be borrowed: read and write them by value (`e.kib`, `row[at].kib =
/// w`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub(crate) struct Edge {
    /// The target in a row; the source in an owner's in-column.
    pub(crate) to: NodeId,
    /// Cumulative KiB.
    pub(crate) kib: u64,
}

const _: () = assert!(size_of::<Edge>() == 12 && align_of::<Edge>() == 4);

/// One node's subjective view of the transfer network.
///
/// Two graphs that agree on every edge weight are equal regardless of how
/// many redundant or stale reports each one absorbed along the way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectiveGraph {
    /// The sources that have a row, ascending: a dense column to search.
    sources: Vec<NodeId>,
    /// `rows[k]` is the out-edges of `sources[k]`, ascending by target, and
    /// never empty. A zero weight stays where a report created it (it is
    /// persisted), and reads as no edge.
    rows: Vec<Vec<Edge>>,
}

/// `Vec::insert` that grows a full vector by a quarter instead of doubling
/// it. A graph is hundreds of rows, most of a handful of entries, that only
/// ever grow: at 1,000 peers a graph stores 1,989 entries in 288 rows, a
/// quarter's growth holds room for 2,162 and doubling would hold 2,975 —
/// 9 MiB more of 12-byte entries over the population (EXPERIMENTS.md,
/// "Subjective graph: 12-byte edges").
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
        let at = match self.sources.binary_search(&from) {
            Ok(at) => at,
            Err(at) => {
                insert_snug(&mut self.sources, at, from);
                insert_snug(&mut self.rows, at, Vec::new());
                at
            }
        };
        let row = &mut self.rows[at];
        match row.binary_search_by_key(&to, |e| e.to) {
            Ok(at) => {
                let old = row[at].kib;
                let new = old.max(kib);
                row[at].kib = new;
                Some((old, new))
            }
            Err(at) => {
                insert_snug(row, at, Edge { to, kib });
                Some((0, kib))
            }
        }
    }

    /// The stored out-edges of `from`, zero weights included, ascending by
    /// target.
    pub(crate) fn row(&self, from: NodeId) -> &[Edge] {
        match self.sources.binary_search(&from) {
            Ok(at) => &self.rows[at],
            Err(_) => &[],
        }
    }

    /// Effective weight of edge `(from → to)` in KiB.
    pub fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        let row = self.row(from);
        match row.binary_search_by_key(&to, |e| e.to) {
            Ok(at) => row[at].kib,
            Err(_) => 0,
        }
    }

    /// All edges with nonzero weight, ascending by `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.sources
            .iter()
            .zip(&self.rows)
            .flat_map(|(&from, row)| row.iter().map(move |e| (from, e.to, e.kib)))
            .filter(|&(_, _, w)| w > 0)
    }

    /// Outgoing neighbours of `node` with edge weights.
    pub fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.out_edges_iter(node).collect()
    }

    /// [`out_edges`](Self::out_edges) without the `Vec`.
    pub(crate) fn out_edges_iter(&self, node: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.row(node)
            .iter()
            .map(|e| (e.to, e.kib))
            .filter(|&(_, w)| w > 0)
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

/// The graph as rows, every number a [varint](Encoder::varint): the row
/// count, then per row the source's gap, the row length, and per entry the
/// target's gap and the KiB weight. A gap is `id − previous − 1` (the first
/// of a run counts from −1), so strictly ascending ids are all a gap can
/// spell. About 4 bytes an entry where `(from, to, kib)` took 16
/// (EXPERIMENTS.md, "Checkpoint: graphs as varint rows"). A checkpoint is
/// outside input, so restore refuses what no sequence of reports can store
/// — an empty row, an id past `u32`, a self-loop — and any count the bytes
/// left cannot hold, before it allocates.
impl Persist for SubjectiveGraph {
    fn persist(&self, enc: &mut Encoder) {
        enc.varint(self.rows.len() as u64);
        let mut next_from = 0;
        for (&from, row) in self.sources.iter().zip(&self.rows) {
            put_gap(enc, &mut next_from, from);
            enc.varint(row.len() as u64);
            let mut next_to = 0;
            for e in row {
                put_gap(enc, &mut next_to, e.to);
                enc.varint(e.kib);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.varint()?;
        if count > dec.remaining() as u64 {
            return Err(corrupt(format!(
                "{count} rows claimed with {} bytes left",
                dec.remaining()
            )));
        }
        let mut sources = Vec::with_capacity(count as usize);
        let mut rows = Vec::with_capacity(count as usize);
        let mut next_from = 0;
        for _ in 0..count {
            let from = get_gap(dec, &mut next_from, "source")?;
            // An entry is two varints, at least a byte each.
            let len = dec.varint()?;
            if len == 0 {
                return Err(corrupt("empty row".into()));
            }
            if len > (dec.remaining() / 2) as u64 {
                return Err(corrupt(format!(
                    "row of {len} entries claimed with {} bytes left",
                    dec.remaining()
                )));
            }
            let mut row = Vec::with_capacity(len as usize);
            let mut next_to = 0;
            for _ in 0..len {
                let to = get_gap(dec, &mut next_to, "target")?;
                if to == from {
                    return Err(corrupt("self-loop".into()));
                }
                row.push(Edge {
                    to,
                    kib: dec.varint()?,
                });
            }
            sources.push(from);
            rows.push(row);
        }
        Ok(SubjectiveGraph { sources, rows })
    }
}

fn corrupt(what: String) -> DecodeError {
    DecodeError::Corrupt(format!("SubjectiveGraph: {what}"))
}

/// Write `id` as its gap past `next`, the least id an ascending run still
/// allows, and move `next` past it.
fn put_gap(enc: &mut Encoder, next: &mut u64, id: NodeId) {
    enc.varint(u64::from(id.0) - *next);
    *next = u64::from(id.0) + 1;
}

/// Read what [`put_gap`] wrote; `what` names the id in the refusal of one
/// past `u32`.
fn get_gap(dec: &mut Decoder<'_>, next: &mut u64, what: &str) -> Result<NodeId, DecodeError> {
    let id = next
        .checked_add(dec.varint()?)
        .and_then(|id| u32::try_from(id).ok())
        .ok_or_else(|| corrupt(format!("{what} id overflows u32")))?;
    *next = u64::from(id) + 1;
    Ok(NodeId(id))
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

    /// Weights whose two 32-bit halves matter on their own.
    const STRADDLING: [u64; 5] = [u32::MAX as u64, 1 << 32, (1 << 32) + 1, 1 << 40, u64::MAX];

    #[test]
    fn weights_that_straddle_2_32_are_kept_whole() {
        let mut g = SubjectiveGraph::new();
        for (k, &kib) in STRADDLING.iter().enumerate() {
            let to = NodeId(k as u32 + 2);
            assert_eq!(g.upsert(NodeId(1), NodeId(1), to, kib), Some((0, kib)));
            // A larger low half, a smaller whole: stale.
            let stale = kib.saturating_sub(1 << 32) | u32::MAX as u64;
            if stale < kib {
                assert_eq!(g.upsert(NodeId(1), NodeId(1), to, stale), Some((kib, kib)));
            }
        }
        // `u32::MAX` grows across the boundary by one.
        assert_eq!(
            g.upsert(NodeId(1), NodeId(1), NodeId(2), 1 << 32),
            Some((u32::MAX as u64, 1 << 32))
        );
        let want: Vec<(NodeId, u64)> = [1 << 32, 1 << 32, (1 << 32) + 1, 1 << 40, u64::MAX]
            .into_iter()
            .enumerate()
            .map(|(k, kib)| (NodeId(k as u32 + 2), kib))
            .collect();
        let back: SubjectiveGraph =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&g)).expect("roundtrip");
        for g in [&g, &back] {
            assert_eq!(g.out_edges(NodeId(1)), want);
            for &(to, kib) in &want {
                assert_eq!(g.edge_kib(NodeId(1), to), kib);
            }
        }
        assert_eq!(back, g);
    }

    #[test]
    fn contribution_over_straddling_weights_sums_whole_and_saturates() {
        use crate::{BarterCast, BarterCastConfig, Record};
        // 3 → 1 directly and through 2, each path at a weight past 2³²;
        // then a direct edge that takes the sum past `u64::MAX`.
        for (direct, want) in [
            (1u64 << 40, (1 << 40) + (1 << 32) + 1),
            (u64::MAX - 1, u64::MAX),
        ] {
            let mut bc = BarterCast::new(4, BarterCastConfig::default());
            let reports = [
                (3, 3, 1, direct),
                (3, 3, 2, (1 << 32) + 1),
                (2, 2, 1, 1 << 33),
            ];
            for (reporter, from, to, kib) in reports {
                let record = Record {
                    from: NodeId(from),
                    to: NodeId(to),
                    kib,
                };
                assert!(bc.inject_report(NodeId(1), NodeId(reporter), record));
            }
            assert_eq!(bc.contribution_kib(NodeId(1), NodeId(3)), want);
        }
    }

    #[test]
    fn a_restored_graph_holds_no_spare_capacity() {
        let mut g = SubjectiveGraph::new();
        for from in 0..9 {
            for to in 0..from {
                g.insert_report(NodeId(from), NodeId(from), NodeId(to), 1);
            }
        }
        let back: SubjectiveGraph =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&g)).expect("roundtrip");
        assert_eq!(back, g);
        assert_eq!(back.sources.len(), 8);
        assert_eq!(back.sources.capacity(), back.sources.len());
        assert_eq!(back.rows.capacity(), back.rows.len());
        for row in &back.rows {
            assert_eq!(row.capacity(), row.len());
        }
    }
}
