//! Subjective transfer graphs.
//!
//! Every node maintains its own picture of "who uploaded how much to whom",
//! assembled from (a) its own direct transfers and (b) records gossiped by
//! peers it encountered. A BarterCast record describes only the reporter's
//! *own* transfers, so edge `(a → b)` is accepted only from reporter `a` or
//! `b`; the edge weight is the maximum over the accepted reports (counters
//! are cumulative, so for honest reporters max == newest).

use rvs_sim::NodeId;

mod table;

pub(crate) use table::{persist_graphs, restore_graphs};

/// One stored entry: the edge's far end and its weight, 8 bytes. A weight
/// of `u32::MAX` KiB (4 TiB) or more is stored as [`WIDE`] and kept whole in
/// its graph's `wide` column, so a weight is read through
/// [`SubjectiveGraph::out_kib`] or [`SubjectiveGraph::in_kib`], never off
/// `kib` (EXPERIMENTS.md, "Subjective graph: 8-byte edges, short rows in
/// the slot").
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge {
    /// The target in a row; the source in an owner's in-column.
    pub(crate) to: NodeId,
    /// Cumulative KiB, or [`WIDE`].
    pub(crate) kib: u32,
}

/// The stored weight of an entry whose KiB is `u32::MAX` or more.
pub(crate) const WIDE: u32 = u32::MAX;

/// `kib` as an entry stores it.
pub(crate) fn narrow(kib: u64) -> u32 {
    u32::try_from(kib).unwrap_or(WIDE)
}

/// A row's entries, ascending by target and never empty: one or two held
/// in the slot, more on the heap. The slot is the 24 bytes of the `Vec`
/// alone, and two rows in five at 1,000 peers and nine in ten at 10,000
/// hold one or two entries, which then allocate nothing (EXPERIMENTS.md,
/// "Subjective graph: 8-byte edges, short rows in the slot").
#[derive(Debug, Clone, PartialEq)]
enum Row {
    One(Edge),
    Two([Edge; 2]),
    /// Three entries or more.
    Many(Vec<Edge>),
}

const _: () = assert!(size_of::<Edge>() == 8 && size_of::<Row>() == 24);

impl Row {
    /// A row of `entries`, allocated at its length when it needs the heap.
    fn of(entries: &[Edge]) -> Row {
        match *entries {
            [e] => Row::One(e),
            [a, b] => Row::Two([a, b]),
            _ => Row::Many(entries.to_vec()),
        }
    }

    fn entries(&self) -> &[Edge] {
        match self {
            Row::One(e) => std::slice::from_ref(e),
            Row::Two(pair) => pair,
            Row::Many(v) => v,
        }
    }

    fn entries_mut(&mut self) -> &mut [Edge] {
        match self {
            Row::One(e) => std::slice::from_mut(e),
            Row::Two(pair) => pair,
            Row::Many(v) => v,
        }
    }

    /// Insert `e` at `at`, moving a full slot's entries to the heap.
    fn insert(&mut self, at: usize, e: Edge) {
        match self {
            Row::One(a) => {
                let a = *a;
                *self = Row::Two(if at == 0 { [e, a] } else { [a, e] });
            }
            Row::Two(pair) => {
                // Three, the capacity `insert_snug` grows a `Vec` to here.
                let mut v = Vec::with_capacity(3);
                v.extend_from_slice(pair);
                v.insert(at, e);
                *self = Row::Many(v);
            }
            Row::Many(v) => insert_snug(v, at, e),
        }
    }
}

/// One node's subjective view of the transfer network.
///
/// Two graphs that agree on every edge weight are equal regardless of how
/// many redundant or stale reports each one absorbed along the way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectiveGraph {
    /// The sources that have a row, ascending: a dense column to search.
    sources: Vec<NodeId>,
    /// `rows[k]` is the out-edges of `sources[k]`. A zero weight stays
    /// where a report created it (it is persisted), and reads as no edge.
    rows: Vec<Row>,
    /// The whole weight of every entry stored as [`WIDE`], as `(from, to,
    /// kib)` ascending by `(from, to)`. Empty unless a report reached
    /// `u32::MAX` KiB.
    wide: Vec<(NodeId, NodeId, u64)>,
}

/// `Vec::insert` that grows a full vector by a quarter instead of doubling
/// it. A graph is hundreds of rows that only ever grow: at 1,000 peers a
/// graph has 172 rows of three entries or more, holding 1,824 entries; a
/// quarter's growth holds room for 1,998 and doubling would hold 2,512 —
/// 3.9 MiB more of 8-byte entries over the population (EXPERIMENTS.md,
/// "Subjective graph: 8-byte edges, short rows in the slot").
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
        let entry = Edge {
            to,
            kib: narrow(kib),
        };
        let old = match self.sources.binary_search(&from) {
            Ok(at) => match self.rows[at].entries().binary_search_by_key(&to, |e| e.to) {
                Ok(k) => {
                    let stored = self.rows[at].entries()[k];
                    let old = self.out_kib(from, stored);
                    if kib <= old {
                        return Some((old, old));
                    }
                    self.rows[at].entries_mut()[k] = entry;
                    old
                }
                Err(k) => {
                    self.rows[at].insert(k, entry);
                    0
                }
            },
            Err(at) => {
                insert_snug(&mut self.sources, at, from);
                insert_snug(&mut self.rows, at, Row::One(entry));
                0
            }
        };
        if entry.kib == WIDE {
            match self.wide_at(from, to) {
                Ok(at) => self.wide[at].2 = kib,
                Err(at) => self.wide.insert(at, (from, to, kib)),
            }
        }
        Some((old, kib))
    }

    /// Where `(from, to)` is, or would go, in the `wide` column.
    fn wide_at(&self, from: NodeId, to: NodeId) -> Result<usize, usize> {
        self.wide
            .binary_search_by_key(&(from, to), |&(from, to, _)| (from, to))
    }

    /// The weight of entry `e` of `from`'s row.
    pub(crate) fn out_kib(&self, from: NodeId, e: Edge) -> u64 {
        self.kib(from, e.to, e.kib)
    }

    /// The weight of entry `e` of `owner`'s in-column, where `e.to` is the
    /// edge's source.
    pub(crate) fn in_kib(&self, owner: NodeId, e: Edge) -> u64 {
        self.kib(e.to, owner, e.kib)
    }

    /// The weight of `from → to` stored as `stored`.
    fn kib(&self, from: NodeId, to: NodeId, stored: u32) -> u64 {
        if stored != WIDE {
            return u64::from(stored);
        }
        // Every entry stored as `WIDE` has its weight in the column.
        self.wide_at(from, to)
            .map_or(u64::from(WIDE), |at| self.wide[at].2)
    }

    /// The stored out-edges of `from`, zero weights included, ascending by
    /// target; weights through [`out_kib`](Self::out_kib).
    pub(crate) fn row(&self, from: NodeId) -> &[Edge] {
        match self.sources.binary_search(&from) {
            Ok(at) => self.rows[at].entries(),
            Err(_) => &[],
        }
    }

    /// Effective weight of edge `(from → to)` in KiB.
    pub fn edge_kib(&self, from: NodeId, to: NodeId) -> u64 {
        let row = self.row(from);
        match row.binary_search_by_key(&to, |e| e.to) {
            Ok(at) => self.out_kib(from, row[at]),
            Err(_) => 0,
        }
    }

    /// Every stored entry, zero weights included, ascending by `(from, to)`.
    fn stored(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.sources
            .iter()
            .zip(&self.rows)
            .flat_map(move |(&from, row)| {
                row.entries()
                    .iter()
                    .map(move |&e| (from, e.to, self.out_kib(from, e)))
            })
    }

    /// All edges with nonzero weight, ascending by `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.stored().filter(|&(_, _, w)| w > 0)
    }

    /// The first stored edge, in `(from, to)` order, on which `self` and
    /// `other` disagree, with its weight on either side (`None` where that
    /// side stores no entry for it); `None` when the graphs are equal.
    pub(crate) fn first_difference(
        &self,
        other: &SubjectiveGraph,
    ) -> Option<(NodeId, NodeId, Option<u64>, Option<u64>)> {
        let (mut a, mut b) = (self.stored().peekable(), other.stored().peekable());
        loop {
            let edge = |e: Option<&(NodeId, NodeId, u64)>| e.map(|&(from, to, _)| (from, to));
            let (ea, eb) = (edge(a.peek()), edge(b.peek()));
            let (from, to) = match (ea, eb) {
                (None, None) => return None,
                (Some(ea), Some(eb)) => ea.min(eb),
                (Some(e), None) | (None, Some(e)) => e,
            };
            let wa = a.next_if(|&(f, t, _)| (f, t) == (from, to)).map(|e| e.2);
            let wb = b.next_if(|&(f, t, _)| (f, t) == (from, to)).map(|e| e.2);
            if wa != wb {
                return Some((from, to, wa, wb));
            }
        }
    }

    /// Outgoing neighbours of `node` with edge weights.
    pub fn out_edges(&self, node: NodeId) -> Vec<(NodeId, u64)> {
        self.row(node)
            .iter()
            .map(|&e| (e.to, self.out_kib(node, e)))
            .filter(|&(_, w)| w > 0)
            .collect()
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
        let back = roundtrip(&g);
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
        let back = roundtrip(&g);
        assert_eq!(back, g);
        assert_eq!(back.sources.len(), 8);
        assert_eq!(back.sources.capacity(), back.sources.len());
        assert_eq!(back.rows.capacity(), back.rows.len());
        for row in &back.rows {
            if let Row::Many(v) = row {
                assert_eq!(v.capacity(), v.len());
            }
        }
    }

    /// The variant and the targets of `from`'s row.
    fn shape(g: &SubjectiveGraph, from: u32) -> (&'static str, Vec<u32>) {
        let at = g.sources.binary_search(&NodeId(from)).expect("a row");
        let row = &g.rows[at];
        let variant = match row {
            Row::One(_) => "One",
            Row::Two(_) => "Two",
            Row::Many(_) => "Many",
        };
        (variant, row.entries().iter().map(|e| e.to.0).collect())
    }

    /// `g` written as the one graph of a population and read back.
    fn roundtrip(g: &SubjectiveGraph) -> SubjectiveGraph {
        let encode = |g: &SubjectiveGraph| {
            let mut enc = rvs_checkpoint::Encoder::new();
            persist_graphs(std::slice::from_ref(g), &mut enc);
            enc.into_bytes()
        };
        let bytes = encode(g);
        let mut dec = rvs_checkpoint::Decoder::new(&bytes);
        let mut back = restore_graphs(&mut dec).expect("roundtrip");
        assert_eq!(dec.remaining(), 0);
        let back = back.pop().expect("one graph");
        assert_eq!(encode(&back), bytes, "equal bytes");
        assert_eq!(&back, g);
        back
    }

    #[test]
    fn one_and_two_entry_rows_stay_in_the_slot() {
        let mut g = SubjectiveGraph::new();
        g.insert_report(NodeId(1), NodeId(1), NodeId(5), 10);
        // Raising a weight, a stale report and a zero leave the shape.
        g.insert_report(NodeId(1), NodeId(1), NodeId(5), 20);
        g.insert_report(NodeId(5), NodeId(1), NodeId(5), 3);
        g.insert_report(NodeId(2), NodeId(2), NodeId(7), 0);
        g.insert_report(NodeId(2), NodeId(2), NodeId(3), 4);
        for g in [&g, &roundtrip(&g)] {
            assert_eq!(shape(g, 1), ("One", vec![5]));
            assert_eq!(shape(g, 2), ("Two", vec![3, 7]));
            assert_eq!(g.edge_kib(NodeId(1), NodeId(5)), 20);
        }
        g.insert_report(NodeId(2), NodeId(2), NodeId(9), 1);
        assert_eq!(shape(&roundtrip(&g), 2), ("Many", vec![3, 7, 9]));
    }

    #[test]
    fn promotion_keeps_targets_ascending() {
        // Three more targets into a row holding 4, each going to the front,
        // the middle or the back of the row as it stands.
        for (first, second, third) in [(2, 1, 0), (2, 6, 3), (4, 6, 8), (6, 2, 4)] {
            let mut g = SubjectiveGraph::new();
            g.insert_report(NodeId(9), NodeId(9), NodeId(4), 5);
            for to in [first, second, third] {
                g.insert_report(NodeId(9), NodeId(9), NodeId(to), u64::from(to) + 1);
            }
            let mut want: Vec<u32> = vec![4, first, second, third];
            want.sort_unstable();
            want.dedup();
            let (variant, targets) = shape(&g, 9);
            assert_eq!(targets, want, "{first}, {second}, {third}");
            assert_eq!(variant, if want.len() > 2 { "Many" } else { "Two" });
            for e in g.row(NodeId(9)) {
                assert_eq!(g.out_kib(NodeId(9), *e), u64::from(e.to.0) + 1);
            }
            roundtrip(&g);
        }
        // One into Two, either side.
        for (to, want) in [(3, vec![3, 4]), (5, vec![4, 5])] {
            let mut g = SubjectiveGraph::new();
            g.insert_report(NodeId(9), NodeId(9), NodeId(4), 1);
            g.insert_report(NodeId(9), NodeId(9), NodeId(to), 1);
            assert_eq!(shape(&g, 9), ("Two", want));
        }
    }

    #[test]
    fn a_weight_growing_past_u32_moves_into_the_wide_column() {
        let (a, b) = (NodeId(1), NodeId(2));
        let mut g = SubjectiveGraph::new();
        let top = u64::from(u32::MAX);
        assert_eq!(g.upsert(a, a, b, top - 1), Some((0, top - 1)));
        assert_eq!(g.row(a)[0].kib, u32::MAX - 1);
        assert!(g.wide.is_empty());
        assert_eq!(g.upsert(a, a, b, top), Some((top - 1, top)));
        assert_eq!(g.row(a)[0].kib, WIDE);
        assert_eq!(g.wide, [(a, b, top)]);
        assert_eq!(g.upsert(b, a, b, 1 << 32), Some((top, 1 << 32)));
        assert_eq!(g.wide, [(a, b, 1 << 32)]);
        for g in [&g, &roundtrip(&g)] {
            assert_eq!(g.edge_kib(a, b), 1 << 32);
            assert_eq!(g.edges().collect::<Vec<_>>(), [(a, b, 1 << 32)]);
            assert_eq!(g.out_edges(a), [(b, 1 << 32)]);
        }
    }

    #[test]
    fn a_stale_report_below_a_wide_weight_changes_nothing() {
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let mut g = SubjectiveGraph::new();
        g.upsert(a, a, c, 1 << 40);
        g.upsert(a, a, b, 5);
        let before = g.clone();
        for stale in [0, 7, u64::from(u32::MAX) - 1, u64::from(u32::MAX), 1 << 33] {
            assert_eq!(g.upsert(c, a, c, stale), Some((1 << 40, 1 << 40)));
        }
        assert_eq!(g, before);
        assert_eq!(g.wide, [(a, c, 1 << 40)]);
        // Wide weights of other rows, before and after in the column.
        g.upsert(NodeId(0), NodeId(0), c, u64::MAX);
        g.upsert(c, c, a, 1 << 41);
        assert_eq!(g.edge_kib(a, c), 1 << 40);
        assert_eq!(g.edge_kib(NodeId(0), c), u64::MAX);
        assert_eq!(g.edge_kib(c, a), 1 << 41);
        assert_eq!(g.wide.len(), 3);
        roundtrip(&g);
    }

    #[test]
    fn two_hop_flow_and_behind_read_wide_in_column_entries() {
        use crate::maxflow::max_flow_bounded;
        use crate::protocol::tests::REPORTS;
        use crate::{BarterCast, BarterCastConfig};
        use rvs_bittorrent::TransferLedger;
        // Node 1's in-column holds 2 → 1 and 4 → 1 past `u32::MAX`; 3's
        // row reaches 1 directly and through both.
        let mut l = TransferLedger::new();
        for (from, to, kib) in [(2, 1, 1 << 40), (4, 1, 1 << 33), (1, 5, 1 << 34)] {
            l.credit(NodeId(from), NodeId(to), kib);
        }
        let mut bc = BarterCast::new(6, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        for (to, kib) in [(1, 1 << 32), (2, 1 << 41), (4, 1 << 32)] {
            let record = crate::Record {
                from: NodeId(3),
                to: NodeId(to),
                kib,
            };
            assert!(bc.inject_report(NodeId(1), NodeId(3), record));
        }
        let g = bc.graph(NodeId(1));
        assert_eq!(g.wide.len(), 6);
        let want = (1 << 32) + (1 << 40) + (1 << 32);
        assert_eq!(max_flow_bounded(g, NodeId(3), NodeId(1), 2), want);
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(3)), want);
        // Restored, the node syncs again: every ledger row is held whole.
        let mut back: BarterCast =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&bc)).expect("roundtrip");
        let before = REPORTS.get();
        back.sync_own_records(NodeId(1), &l);
        assert_eq!(REPORTS.get(), before, "no row raises an edge");
        assert_eq!(back.contribution_kib(NodeId(1), NodeId(3)), want);
    }
}
