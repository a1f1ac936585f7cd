//! The BarterCast record-exchange protocol.
//!
//! Each node keeps a [`SubjectiveGraph`]. Honest nodes learn their *own*
//! direct transfer totals from their BitTorrent client (modelled by syncing
//! from the global [`TransferLedger`] ground truth) and, when two peers
//! meet through the PSS, they exchange their own direct records — never
//! hearsay — which the receiver installs into its graph. Contribution
//! estimates are 2-hop maxflows over the receiver's graph, the bound
//! deployed Tribler uses.

use crate::graph::{insert_snug, narrow, persist_graphs, restore_graphs, Edge, SubjectiveGraph};
use rvs_bittorrent::TransferLedger;
use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::NodeId;
use rvs_telemetry::{BarterCounters, SharedCounter};
use std::cmp::Reverse;

/// Tuning for BarterCast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarterCastConfig {
    /// Maximum records sent per exchange (largest-first, as deployed).
    pub max_records_per_exchange: usize,
}

impl Default for BarterCastConfig {
    fn default() -> Self {
        BarterCastConfig {
            max_records_per_exchange: 50,
        }
    }
}

rvs_checkpoint::persist_struct!(BarterCastConfig {
    max_records_per_exchange
});

/// One direct-transfer record: "`from` uploaded `kib` KiB to `to`", as
/// reported by one of the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Uploader.
    pub from: NodeId,
    /// Downloader.
    pub to: NodeId,
    /// Cumulative KiB.
    pub kib: u64,
}

// Records are a wire message, not persistent state: this encoding exists
// for the wire-fuzz corpus, which decodes adversarial bytes through it.
rvs_checkpoint::persist_struct!(Record { from, to, kib });

/// A record in send order: largest first, ties by edge.
type SendKey = (Reverse<u64>, NodeId, NodeId);

fn send_key(from: NodeId, to: NodeId, kib: u64) -> SendKey {
    (Reverse(kib), from, to)
}

/// What a node has to say about itself, kept beside its graph so that
/// neither sending, syncing nor a contribution query scans the graph — and
/// what it has already been told, so that a repeat encounter installs only
/// news.
#[derive(Debug, Clone, Default)]
struct OwnRecords {
    /// The node's nonzero incident edges in its graph, sorted.
    sent: Vec<SendKey>,
    /// Changes to the send prefix (the first `max_records_per_exchange`
    /// entries of `sent`) so far. Saturates.
    clock: u32,
    /// Per entry of the send prefix, `clock` when it took its present
    /// weight; moved with the entry. An entry pushed out of the prefix
    /// comes back only by growing, which restamps it.
    stamps: Vec<u32>,
    /// Per reporter this node has heard a whole send prefix from, that
    /// reporter's `clock` at the time; ascending by reporter. Never having
    /// heard is an absent entry.
    heard: Vec<(NodeId, u32)>,
    /// The node's in-column — its graph's nonzero edges `x → node` as
    /// `Edge { to: x, kib }`, ascending by `x`, weights read through
    /// [`SubjectiveGraph::in_kib`]: the graph's rows are by source, so this
    /// is the one column a 2-hop flow towards the node joins against.
    inbound: Vec<Edge>,
    /// The ledger's `peer_totals` for the node at its last sync, `None`
    /// until the first one.
    synced: Option<(u64, u64)>,
}

impl OwnRecords {
    /// The index of `owner` over `graph`, by the scan it replaces, having
    /// said nothing yet and heard nothing yet.
    fn of(graph: &SubjectiveGraph, owner: NodeId, budget: usize) -> Self {
        let mut sent: Vec<SendKey> = graph
            .edges()
            .filter(|&(from, to, _)| from == owner || to == owner)
            .map(|(from, to, kib)| send_key(from, to, kib))
            .collect();
        sent.sort_unstable();
        let inbound = graph
            .edges()
            .filter(|&(_, to, _)| to == owner)
            .map(|(from, _, kib)| Edge {
                to: from,
                kib: narrow(kib),
            })
            .collect();
        OwnRecords {
            // `budget` comes out of a checkpoint: never allocate by it.
            stamps: vec![0; sent.len().min(budget)],
            sent,
            inbound,
            ..OwnRecords::default()
        }
    }

    /// An edge incident to `owner` went from weight `old` to the larger
    /// `new`; the send prefix is `budget` entries.
    fn reweigh(
        &mut self,
        owner: NodeId,
        from: NodeId,
        to: NodeId,
        old: u64,
        new: u64,
        budget: usize,
    ) {
        let key = send_key(from, to, new);
        let was = self.sent.binary_search(&send_key(from, to, old)).ok();
        // Weights grow: the new place is at or before the old one.
        let ahead = &self.sent[..was.unwrap_or(self.sent.len())];
        let at = ahead.binary_search(&key).unwrap_or_else(|at| at);
        match was {
            Some(was) => {
                self.sent[at..=was].rotate_right(1);
                self.sent[at] = key;
            }
            None => self.sent.insert(at, key),
        }
        if at < budget {
            self.clock = self.clock.saturating_add(1);
            match was {
                Some(was) if was < budget => self.stamps[at..=was].rotate_right(1),
                _ => {
                    self.stamps.insert(at, 0);
                    self.stamps.truncate(budget);
                }
            }
            self.stamps[at] = self.clock;
        }
        if to == owner {
            let entry = Edge {
                to: from,
                kib: narrow(new),
            };
            match self.inbound.binary_search_by_key(&from, |e| e.to) {
                Ok(at) => self.inbound[at] = entry,
                Err(at) => insert_snug(&mut self.inbound, at, entry),
            }
        }
    }

    /// Whether `record` is entry `k` of the send prefix as it stands, and
    /// if so the entry's stamp.
    fn said_at(&self, k: usize, record: &Record) -> Option<u32> {
        let stamp = *self.stamps.get(k)?;
        (self.sent[k] == send_key(record.from, record.to, record.kib)).then_some(stamp)
    }
}

/// The rows of a ledger row-set (ascending by counterparty) that would
/// raise an edge of `known` (ascending too, absent = 0, each entry's
/// weight `weight(entry)`): one merge.
fn behind<'a>(
    ledger: impl Iterator<Item = (NodeId, u64)> + 'a,
    known: &'a [Edge],
    weight: impl Fn(Edge) -> u64 + 'a,
) -> impl Iterator<Item = (NodeId, u64)> + 'a {
    let mut known = known.iter().peekable();
    ledger.filter(move |&(peer, kib)| {
        while known.next_if(|e| e.to < peer).is_some() {}
        !matches!(known.peek(), Some(&&e) if e.to == peer && weight(e) >= kib)
    })
}

/// `Σ_x min(w(j, x), w(x, i))` plus `w(j, i)`, saturating: the 2-hop
/// maxflow `j → i` in closed form, since every path of at most two hops is
/// edge-disjoint from every other (the direct edge, and `j → x → i` for
/// distinct `x`). One merge of `j`'s out-row in `i`'s graph (which holds
/// the direct edge at `x == i`) with `i`'s in-column; the hop-bounded
/// Edmonds–Karp of [`max_flow_bounded`] is the reference it is tested
/// against.
///
/// [`max_flow_bounded`]: crate::maxflow::max_flow_bounded
fn two_hop_flow(graph: &SubjectiveGraph, i: NodeId, j: NodeId, into_i: &[Edge]) -> u64 {
    let mut into_i = into_i.iter().peekable();
    let mut flow = 0u64;
    for &out in graph.row(j) {
        let x = out.to;
        if x == i {
            flow = flow.saturating_add(graph.out_kib(j, out));
            continue;
        }
        while into_i.next_if(|e| e.to < x).is_some() {}
        if let Some(&&into) = into_i.peek() {
            if into.to == x {
                let w = graph.out_kib(j, out).min(graph.in_kib(i, into));
                flow = flow.saturating_add(w);
            }
        }
    }
    flow
}

/// Network-wide BarterCast state: one subjective graph per node.
#[derive(Debug, Clone)]
pub struct BarterCast {
    cfg: BarterCastConfig,
    graphs: Vec<SubjectiveGraph>,
    /// Per node, derived from its graph (and, for `synced`, from the ledger
    /// it last saw): every graph mutation goes through [`BarterCast::report`].
    own: Vec<OwnRecords>,
    // Shared (relaxed-atomic) counters: `contribution_kib` takes `&self`
    // and sits on the experience function's hot path.
    exchanges: SharedCounter,
    maxflow_evaluations: SharedCounter,
}

impl BarterCast {
    /// BarterCast over a population of `n` nodes.
    pub fn new(n: usize, cfg: BarterCastConfig) -> Self {
        BarterCast {
            cfg,
            graphs: vec![SubjectiveGraph::new(); n],
            own: vec![OwnRecords::default(); n],
            exchanges: SharedCounter::default(),
            maxflow_evaluations: SharedCounter::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> BarterCastConfig {
        self.cfg
    }

    /// True when there is exactly one graph per node of an `n`-node
    /// population — what a restored instance must satisfy before it is
    /// indexed by node id.
    pub fn has_population(&self, n: usize) -> bool {
        self.graphs.len() == n
    }

    /// Population-wide record-exchange and maxflow counters.
    pub fn counters(&self) -> BarterCounters {
        BarterCounters {
            exchanges: self.exchanges.get(),
            maxflow_evaluations: self.maxflow_evaluations.get(),
        }
    }

    /// Node `i`'s subjective graph.
    pub fn graph(&self, i: NodeId) -> &SubjectiveGraph {
        &self.graphs[i.index()]
    }

    /// The one place a graph changes: `reporter` tells `receiver` that
    /// `from` uploaded `kib` KiB to `to`. Returns whether the graph's
    /// endpoint rule accepted the report.
    fn report(
        &mut self,
        receiver: NodeId,
        reporter: NodeId,
        from: NodeId,
        to: NodeId,
        kib: u64,
    ) -> bool {
        #[cfg(test)]
        tests::REPORTS.with(|n| n.set(n.get() + 1));
        let Some((old, new)) = self.graphs[receiver.index()].upsert(reporter, from, to, kib) else {
            return false;
        };
        if old != new && (from == receiver || to == receiver) {
            let budget = self.cfg.max_records_per_exchange;
            self.own[receiver.index()].reweigh(receiver, from, to, old, new, budget);
        }
        true
    }

    /// Refresh node `i`'s knowledge of its own direct transfers from the
    /// simulation's ground-truth ledger (its BitTorrent client's local
    /// statistics — always truthful for honest nodes).
    ///
    /// `ledger` is one ledger that only grows between calls. Its credits
    /// are strictly positive, so when its totals for `i` are what the last
    /// sync saw, no row of `i` has changed and there is nothing to do.
    /// Otherwise the ledger's two rows for `i` are merged against `i`'s
    /// out-row and in-column, and only a row that raises an edge is
    /// reported (a handful of the dozens a busy node has).
    pub fn sync_own_records(&mut self, i: NodeId, ledger: &TransferLedger) {
        let totals = ledger.peer_totals(i);
        let own = &self.own[i.index()];
        if own.synced == Some(totals) {
            return;
        }
        let graph = &self.graphs[i.index()];
        let (out_kib, in_kib) = (|e| graph.out_kib(i, e), |e| graph.in_kib(i, e));
        let uploads: Vec<_> = behind(ledger.uploads_from(i), graph.row(i), out_kib).collect();
        let downloads: Vec<_> = behind(ledger.uploads_to(i), &own.inbound, in_kib).collect();
        for (to, kib) in uploads {
            self.report(i, i, i, to, kib);
        }
        for (from, kib) in downloads {
            self.report(i, i, from, i, kib);
        }
        self.own[i.index()].synced = Some(totals);
    }

    /// Node `i`'s own direct records (edges incident to `i`), largest
    /// first, truncated to the per-exchange budget.
    pub fn own_records(&self, i: NodeId) -> Vec<Record> {
        self.own[i.index()]
            .sent
            .iter()
            .take(self.cfg.max_records_per_exchange)
            .map(|&(Reverse(kib), from, to)| Record { from, to, kib })
            .collect()
    }

    /// Count one record-exchange encounter. The scenario engine calls
    /// this when it drives the two delivery halves itself instead of
    /// going through [`BarterCast::exchange`].
    pub fn mark_exchange(&self) {
        self.exchanges.incr();
    }

    /// Install `reporter`'s records into `receiver`'s subjective graph
    /// (the receive half of an exchange). Reporter validity is enforced
    /// by the graph: only edges incident to `reporter` are accepted.
    ///
    /// A record that is the entry of `reporter`'s send prefix at its own
    /// position, unchanged since `receiver` last heard a whole prefix from
    /// `reporter`, is one `receiver` already holds and is passed over: the
    /// entry has not moved towards the front since (weights only grow, so
    /// whatever was ahead of it still is), hence it was inside the prefix
    /// heard then, and a graph keeps the maximum, so reporting it again
    /// would change nothing. Anything else — a first meeting, a new weight,
    /// a message altered, cut short or made up on the way — is reported.
    pub fn deliver_records(&mut self, receiver: NodeId, reporter: NodeId, recs: &[Record]) {
        // `reporter` is the caller's word: one outside the population has
        // no prefix to compare with, and a node tells itself nothing.
        if receiver == reporter || reporter.index() >= self.own.len() {
            for r in recs {
                self.report(receiver, reporter, r.from, r.to, r.kib);
            }
            return;
        }
        // Nothing to pass over next time, so no watermark to look up or
        // to keep: where most meetings are first ones (a thousand peers
        // and up) most messages are empty, and the lookup is a cold one.
        if recs.is_empty() {
            return;
        }
        let heard = &self.own[receiver.index()].heard;
        let mark = heard.binary_search_by_key(&reporter, |&(x, _)| x);
        let heard = mark.ok().map(|at| heard[at].1);
        let mut whole = recs.len() == self.own[reporter.index()].stamps.len();
        for (k, r) in recs.iter().enumerate() {
            let stamp = self.own[reporter.index()].said_at(k, r);
            whole &= stamp.is_some();
            // A saturated stamp no longer orders changes: always news.
            if stamp.is_some_and(|stamp| stamp < u32::MAX && Some(stamp) <= heard) {
                continue;
            }
            self.report(receiver, reporter, r.from, r.to, r.kib);
        }
        if whole {
            let clock = self.own[reporter.index()].clock;
            let heard = &mut self.own[receiver.index()].heard;
            match mark {
                Ok(at) => heard[at].1 = clock,
                Err(at) => insert_snug(heard, at, (reporter, clock)),
            }
        }
    }

    /// A PSS encounter between `i` and `j`: both send their own records and
    /// install the other's. Reporter validity is enforced by the graphs.
    pub fn exchange(&mut self, i: NodeId, j: NodeId) {
        if i == j {
            return;
        }
        self.exchanges.incr();
        let from_i = self.own_records(i);
        let from_j = self.own_records(j);
        self.deliver_records(i, j, &from_j);
        self.deliver_records(j, i, &from_i);
    }

    /// Attack hook: deliver an arbitrary (possibly fabricated) record from
    /// `reporter` to `receiver`. The receiver still applies the
    /// endpoint-validity rule, so fabrication is limited to edges incident
    /// to the reporter.
    pub fn inject_report(&mut self, receiver: NodeId, reporter: NodeId, record: Record) -> bool {
        self.report(receiver, reporter, record.from, record.to, record.kib)
    }

    /// Contribution of `j` towards `i` in KiB: 2-hop maxflow `j → i` over
    /// `i`'s subjective graph (the paper's `f_{j→i}`), computed on every
    /// query as one merge of two sorted rows; [`max_flow_bounded`] is its
    /// reference. A node contributes nothing towards itself.
    ///
    /// [`max_flow_bounded`]: crate::maxflow::max_flow_bounded
    pub fn contribution_kib(&self, i: NodeId, j: NodeId) -> u64 {
        self.maxflow_evaluations.incr();
        if i == j {
            return 0;
        }
        two_hop_flow(&self.graphs[i.index()], i, j, &self.own[i.index()].inbound)
    }

    /// Contribution in MiB (the unit the paper's threshold `T` uses).
    pub fn contribution_mib(&self, i: NodeId, j: NodeId) -> f64 {
        self.contribution_kib(i, j) as f64 / 1024.0
    }

    /// What differs first between `self` and `other`, in the order a
    /// checkpoint writes it: the configuration, the population, the first
    /// node whose graph differs — with that graph's first differing edge
    /// and both weights, `absent` for a side that stores no entry for it —
    /// or a counter. `None` when all of that is equal. `rvs ckpt diff`
    /// prints it, since an offset inside the record table says nothing of
    /// whose graph moved.
    pub fn first_difference(&self, other: &BarterCast) -> Option<String> {
        if self.cfg != other.cfg {
            return Some(format!("config: {:?}  vs  {:?}", self.cfg, other.cfg));
        }
        if self.graphs.len() != other.graphs.len() {
            let (a, b) = (self.graphs.len(), other.graphs.len());
            return Some(format!("population: {a} graphs  vs  {b}"));
        }
        let graphs = self.graphs.iter().zip(&other.graphs).enumerate();
        for (i, (a, b)) in graphs {
            if let Some((from, to, wa, wb)) = a.first_difference(b) {
                let kib = |w: Option<u64>| w.map_or("absent".to_string(), |w| format!("{w} KiB"));
                let (wa, wb) = (kib(wa), kib(wb));
                return Some(format!(
                    "graph of node {i}: edge {from} -> {to}: {wa}  vs  {wb}"
                ));
            }
        }
        let (a, b) = (self.counters(), other.counters());
        if a.exchanges != b.exchanges {
            let (a, b) = (a.exchanges, b.exchanges);
            return Some(format!("counter exchanges: {a}  vs  {b}"));
        }
        if a.maxflow_evaluations != b.maxflow_evaluations {
            let (a, b) = (a.maxflow_evaluations, b.maxflow_evaluations);
            return Some(format!("counter maxflow_evaluations: {a}  vs  {b}"));
        }
        None
    }
}

/// Stable binary encoding: config, the graphs — each distinct record once
/// in a table, every graph as indices into it (`persist_graphs`) — and
/// the two counters. `own` is not written: `restore` rebuilds it from the
/// graphs (DESIGN §12).
impl Persist for BarterCast {
    fn persist(&self, enc: &mut Encoder) {
        self.cfg.persist(enc);
        persist_graphs(&self.graphs, enc);
        self.exchanges.persist(enc);
        self.maxflow_evaluations.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let cfg = BarterCastConfig::restore(dec)?;
        let graphs = restore_graphs(dec)?;
        let own = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| OwnRecords::of(g, NodeId::from_index(i), cfg.max_records_per_exchange))
            .collect();
        Ok(BarterCast {
            cfg,
            graphs,
            own,
            exchanges: SharedCounter::restore(dec)?,
            maxflow_evaluations: SharedCounter::restore(dec)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`BarterCast::report`] on this thread.
        pub(crate) static REPORTS: Cell<u64> = const { Cell::new(0) };
    }

    /// How many times `f` calls [`BarterCast::report`].
    fn reports(f: impl FnOnce()) -> u64 {
        let before = REPORTS.get();
        f();
        REPORTS.get() - before
    }

    /// What `receiver` has on record as heard from `reporter`.
    fn heard(bc: &BarterCast, receiver: u32, reporter: u32) -> Option<u32> {
        let heard = &bc.own[receiver as usize].heard;
        let at = heard.binary_search_by_key(&NodeId(reporter), |&(x, _)| x);
        at.ok().map(|at| heard[at].1)
    }

    fn ledger(edges: &[(u32, u32, u64)]) -> TransferLedger {
        let mut l = TransferLedger::new();
        for &(f, t, k) in edges {
            l.credit(NodeId(f), NodeId(t), k);
        }
        l
    }

    #[test]
    fn own_sync_only_installs_incident_edges() {
        let l = ledger(&[(1, 2, 100), (3, 4, 999)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.graph(NodeId(1)).edge_kib(NodeId(1), NodeId(2)), 100);
        assert_eq!(bc.graph(NodeId(1)).edge_kib(NodeId(3), NodeId(4)), 0);
    }

    #[test]
    fn direct_contribution_via_own_records() {
        // j=2 uploaded 10 MiB to i=1; i sees it directly after sync.
        let l = ledger(&[(2, 1, 10 * 1024)]);
        let mut bc = BarterCast::new(3, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        assert!((bc.contribution_mib(NodeId(1), NodeId(2)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exchange_spreads_records_both_ways() {
        let l = ledger(&[(2, 3, 2048), (4, 1, 512)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        bc.sync_own_records(NodeId(2), &l);
        bc.sync_own_records(NodeId(1), &l);
        bc.exchange(NodeId(1), NodeId(2));
        // 1 learned about 2→3; 2 learned about 4→1.
        assert_eq!(bc.graph(NodeId(1)).edge_kib(NodeId(2), NodeId(3)), 2048);
        assert_eq!(bc.graph(NodeId(2)).edge_kib(NodeId(4), NodeId(1)), 512);
    }

    #[test]
    fn two_hop_contribution_through_intermediary() {
        // j=3 uploaded to 2; 2 uploaded to i=1. After i syncs and meets 2,
        // f_{3→1} = min(3→2, 2→1).
        let l = ledger(&[(3, 2, 4096), (2, 1, 1024)]);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        bc.sync_own_records(NodeId(2), &l);
        bc.exchange(NodeId(1), NodeId(2));
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(3)), 1024);
    }

    #[test]
    fn exchange_budget_truncates_largest_first() {
        let cfg = BarterCastConfig {
            max_records_per_exchange: 2,
        };
        let mut edges = Vec::new();
        for t in 2..10 {
            edges.push((1u32, t as u32, t as u64 * 100));
        }
        let l = ledger(&edges);
        let mut bc = BarterCast::new(10, cfg);
        bc.sync_own_records(NodeId(1), &l);
        let recs = bc.own_records(NodeId(1));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kib, 900);
        assert_eq!(recs[1].kib, 800);
    }

    #[test]
    fn injected_third_party_lie_is_rejected() {
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        let lie = Record {
            from: NodeId(2),
            to: NodeId(3),
            kib: u64::MAX,
        };
        assert!(!bc.inject_report(NodeId(1), NodeId(4), lie));
        assert_eq!(bc.graph(NodeId(1)).edge_count(), 0);
    }

    #[test]
    fn injected_endpoint_lie_has_bounded_leverage() {
        // Honest: 2 uploaded 5 MiB to 1. Colluder 3 lies that it uploaded
        // 1 TiB to 2. 3's contribution towards 1 is capped at 5 MiB.
        let l = ledger(&[(2, 1, 5 * 1024)]);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        let lie = Record {
            from: NodeId(3),
            to: NodeId(2),
            kib: 1 << 40,
        };
        assert!(bc.inject_report(NodeId(1), NodeId(3), lie));
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(3)), 5 * 1024);
    }

    #[test]
    fn unknown_peer_contributes_zero() {
        let bc = BarterCast::new(3, BarterCastConfig::default());
        assert_eq!(bc.contribution_kib(NodeId(0), NodeId(2)), 0);
    }

    #[test]
    fn self_exchange_is_noop() {
        let mut bc = BarterCast::new(2, BarterCastConfig::default());
        bc.exchange(NodeId(1), NodeId(1));
        assert_eq!(bc.graph(NodeId(1)).edge_count(), 0);
    }

    #[test]
    fn graph_mutation_invalidates_affected_pair() {
        let mut l = ledger(&[(2, 1, 1024)]);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(2)), 1024);
        // New upload lands: the next query must see it.
        l.credit(NodeId(2), NodeId(1), 1024);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(2)), 2048);
    }

    #[test]
    fn sync_is_skipped_exactly_when_the_ledger_has_nothing_new_for_the_node() {
        let mut l = ledger(&[(2, 1, 1024), (3, 4, 10)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        let before = bc.graph(NodeId(1)).clone();
        // A credit to an unrelated pair leaves node 1's totals alone.
        l.credit(NodeId(3), NodeId(4), 500);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.graph(NodeId(1)), &before);
        assert_eq!(bc.own[1].synced, Some(l.peer_totals(NodeId(1))));
        // A credit touching node 1 — as uploader or as downloader — is seen.
        l.credit(NodeId(1), NodeId(4), 7);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.graph(NodeId(1)).edge_kib(NodeId(1), NodeId(4)), 7);
        l.credit(NodeId(2), NodeId(1), 1);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.graph(NodeId(1)).edge_kib(NodeId(2), NodeId(1)), 1025);
        assert_eq!(bc.own_records(NodeId(1))[0].kib, 1025);
    }

    #[test]
    fn a_sync_that_changes_nothing_reports_nothing() {
        let mut l = ledger(&[(2, 1, 1024), (1, 3, 9), (4, 1, 5), (1, 4, 70)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        // Edges the ledger never held, claimed by their other endpoint: the
        // merge has to step over them, two at a time.
        for (reporter, from, to) in [(0, 1, 0), (2, 1, 2), (0, 0, 1), (3, 3, 1)] {
            let rec = Record {
                from: NodeId(from),
                to: NodeId(to),
                kib: 11,
            };
            assert!(bc.inject_report(NodeId(1), NodeId(reporter), rec));
        }
        // Restore forgets the sync mark, so the next sync is not skipped —
        // and finds every row of the ledger already in the graph.
        let mut back: BarterCast =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&bc)).expect("roundtrip");
        let before = REPORTS.get();
        back.sync_own_records(NodeId(1), &l);
        assert_eq!(REPORTS.get(), before, "no row raises an edge");
        assert_eq!(back.own[1].synced, Some(l.peer_totals(NodeId(1))));
        // One credit: one row is behind, one report.
        l.credit(NodeId(4), NodeId(1), 1);
        back.sync_own_records(NodeId(1), &l);
        assert_eq!(REPORTS.get(), before + 1);
        assert_eq!(back.graph(NodeId(1)).edge_kib(NodeId(4), NodeId(1)), 6);
    }

    #[test]
    fn skipping_rows_already_held_never_loses_a_missing_row() {
        // Node 1's ledger rows towards 0, 2, 3, 4, 5 and from 0, 2, 4.
        let l = ledger(&[
            (1, 0, 10),
            (1, 2, 20),
            (1, 3, 30),
            (1, 4, 40),
            (1, 5, 50),
            (0, 1, 7),
            (2, 1, 8),
            (4, 1, 9),
        ]);
        let mut bc = BarterCast::new(6, BarterCastConfig::default());
        // Counterparties got there first: 2 and 4 told node 1 of its uploads
        // to them (one at the ledger's weight, one above it), 2 of its
        // download from 2, and 3 claimed a zero — a stored entry that is
        // still behind the ledger.
        for (reporter, from, to, kib) in [(2, 1, 2, 20), (4, 1, 4, 99), (2, 2, 1, 8), (3, 1, 3, 0)]
        {
            let rec = Record {
                from: NodeId(from),
                to: NodeId(to),
                kib,
            };
            assert!(bc.inject_report(NodeId(1), NodeId(reporter), rec));
        }
        let before = REPORTS.get();
        bc.sync_own_records(NodeId(1), &l);
        // 1→0, 1→3, 1→5, 0→1 and 4→1 were behind; 1→2, 1→4 and 2→1 were not.
        assert_eq!(REPORTS.get(), before + 5);
        let g = bc.graph(NodeId(1));
        for (to, kib) in [(0, 10), (2, 20), (3, 30), (4, 99), (5, 50)] {
            assert_eq!(g.edge_kib(NodeId(1), NodeId(to)), kib, "1 -> {to}");
        }
        for (from, kib) in [(0, 7), (2, 8), (4, 9)] {
            assert_eq!(g.edge_kib(NodeId(from), NodeId(1)), kib, "{from} -> 1");
        }
        let column = [(0, 7), (2, 8), (4, 9)].map(|(x, kib)| Edge { to: NodeId(x), kib });
        assert_eq!(bc.own[1].inbound, column);
    }

    #[test]
    fn restore_rebuilds_the_index_and_forgets_the_sync_mark() {
        let l = ledger(&[(2, 1, 1024), (1, 3, 9), (3, 4, 10)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        for i in 0..5 {
            bc.sync_own_records(NodeId(i), &l);
        }
        bc.exchange(NodeId(1), NodeId(3));
        assert!(bc.own[1].clock > 0 && heard(&bc, 3, 1).is_some());
        let mut back: BarterCast =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&bc)).expect("roundtrip");
        for i in 0..5 {
            assert_eq!(back.own[i].sent, bc.own[i].sent, "node {i}");
            assert_eq!(back.own[i].inbound, bc.own[i].inbound, "node {i}");
            assert_eq!(back.own[i].synced, None);
            // Nothing said, nothing heard.
            assert_eq!(back.own[i].clock, 0);
            assert_eq!(back.own[i].stamps, vec![0; bc.own[i].sent.len()]);
            assert!(back.own[i].heard.is_empty());
        }
        // The forced resync changes nothing the uninterrupted run has.
        back.sync_own_records(NodeId(1), &l);
        assert_eq!(back.graph(NodeId(1)), bc.graph(NodeId(1)));
        assert_eq!(back.own[1].synced, bc.own[1].synced);
        // Nor does the forced redelivery: the pair that had met reports its
        // whole prefixes once more, into graphs that already hold them.
        let said = (bc.own_records(NodeId(1)).len() + bc.own_records(NodeId(3)).len()) as u64;
        assert_eq!(reports(|| back.exchange(NodeId(1), NodeId(3))), said);
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(3))), 0);
        assert_eq!(
            rvs_checkpoint::to_bytes(&back),
            rvs_checkpoint::to_bytes(&bc)
        );
        assert_eq!(reports(|| back.exchange(NodeId(1), NodeId(3))), 0);
    }

    /// Nodes 0..5, synced to `1 → 2` 100, `1 → 3` 90, `4 → 1` 80, where 2
    /// has heard 1 out once.
    fn acquainted() -> (BarterCast, TransferLedger) {
        let l = ledger(&[(1, 2, 100), (1, 3, 90), (4, 1, 80)]);
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        for i in 0..5 {
            bc.sync_own_records(NodeId(i), &l);
        }
        bc.exchange(NodeId(1), NodeId(2));
        (bc, l)
    }

    #[test]
    fn a_repeat_exchange_reports_only_what_changed_since() {
        let (mut bc, mut l) = acquainted();
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(2))), 0);
        // One credit on an edge of 1's that 2 is no party to: one record of
        // 1's half is news, none of 2's.
        l.credit(NodeId(1), NodeId(3), 5);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(2))), 1);
        assert_eq!(bc.graph(NodeId(2)).edge_kib(NodeId(1), NodeId(3)), 95);
        assert_eq!(reports(|| bc.exchange(NodeId(2), NodeId(1))), 0);
        // A third node has heard none of it.
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(0))), 3);
        // … and has nothing to say: an empty message leaves no watermark.
        assert!(bc.own_records(NodeId(0)).is_empty());
        assert_eq!(heard(&bc, 0, 1), Some(bc.own[1].clock));
        assert_eq!(heard(&bc, 1, 0), None);
    }

    #[test]
    fn a_message_touched_in_transit_is_reported_and_moves_no_watermark() {
        const HEARSAY: Record = Record {
            from: NodeId(3),
            to: NodeId(4),
            kib: 7,
        };
        // The mutation, and how many of its records are reported on top of
        // the one that is news.
        type Touch = fn(&mut Vec<Record>);
        let touches: [(Touch, u64); 4] = [
            (|m| m[0].kib *= 10, 1),
            (|m| m.push(m[0]), 1),
            (|m| m.push(HEARSAY), 1),
            (|m| m.truncate(m.len() - 1), 0),
        ];
        for (touch, extra) in touches {
            let (mut bc, mut l) = acquainted();
            let mark = heard(&bc, 2, 1);
            l.credit(NodeId(1), NodeId(3), 5);
            bc.sync_own_records(NodeId(1), &l);
            let mut message = bc.own_records(NodeId(1));
            assert_eq!(message[1].kib, 95, "the news is the second record");
            touch(&mut message);
            let reported = reports(|| bc.deliver_records(NodeId(2), NodeId(1), &message));
            assert_eq!(reported, 1 + extra);
            assert_eq!(heard(&bc, 2, 1), mark);
            // The honest message still carries the news as news.
            let message = bc.own_records(NodeId(1));
            assert_eq!(
                reports(|| bc.deliver_records(NodeId(2), NodeId(1), &message)),
                1
            );
            assert_eq!(heard(&bc, 2, 1), Some(bc.own[1].clock));
            assert_eq!(bc.graph(NodeId(2)).edge_kib(NodeId(1), NodeId(3)), 95);
            assert_eq!(
                reports(|| bc.deliver_records(NodeId(2), NodeId(1), &message)),
                0
            );
        }
    }

    #[test]
    fn a_first_message_cut_short_leaves_the_rest_to_be_delivered() {
        let (mut bc, _) = acquainted();
        let message = bc.own_records(NodeId(1));
        let cut = &message[..2];
        assert_eq!(reports(|| bc.deliver_records(NodeId(0), NodeId(1), cut)), 2);
        assert_eq!(heard(&bc, 0, 1), None);
        assert_eq!(
            reports(|| bc.deliver_records(NodeId(0), NodeId(1), &message)),
            3
        );
        assert_eq!(bc.graph(NodeId(0)).edge_kib(NodeId(4), NodeId(1)), 80);
    }

    #[test]
    fn an_entry_pushed_out_of_the_prefix_and_grown_back_in_is_delivered_again() {
        for budget in [1usize, 2] {
            let cfg = BarterCastConfig {
                max_records_per_exchange: budget,
            };
            // Under budget 2 one heavy edge holds the first place throughout.
            let heavy: &[(u32, u32, u64)] = if budget == 2 { &[(5, 1, 9000)] } else { &[] };
            let mut l = ledger(heavy);
            l.credit(NodeId(1), NodeId(2), 100);
            l.credit(NodeId(1), NodeId(4), 50);
            let mut bc = BarterCast::new(6, cfg);
            let tell = |bc: &mut BarterCast, l: &TransferLedger| {
                bc.sync_own_records(NodeId(1), l);
                let message = bc.own_records(NodeId(1));
                assert_eq!(message.len(), budget);
                reports(|| bc.deliver_records(NodeId(3), NodeId(1), &message))
            };
            assert_eq!(tell(&mut bc, &l), budget as u64);
            assert_eq!(tell(&mut bc, &l), 0);
            // `1 → 4` overtakes `1 → 2`, which leaves the prefix …
            l.credit(NodeId(1), NodeId(4), 100);
            assert_eq!(tell(&mut bc, &l), 1);
            assert_eq!(bc.own[1].stamps.len(), budget);
            // … and grows back in: it carries a weight 3 has not seen.
            l.credit(NodeId(1), NodeId(2), 100);
            assert_eq!(tell(&mut bc, &l), 1, "budget {budget}");
            let g = bc.graph(NodeId(3));
            assert_eq!(g.edge_kib(NodeId(1), NodeId(2)), 200);
            assert_eq!(g.edge_kib(NodeId(1), NodeId(4)), 150);
            // `1 → 4` was pushed out in turn and has not changed since 3
            // heard it: were it sent again, it would not be news.
            assert_eq!(tell(&mut bc, &l), 0);
        }
    }

    #[test]
    fn a_node_talking_to_itself_or_a_stranger_reporting_is_installed_plainly() {
        let (mut bc, _) = acquainted();
        let message = bc.own_records(NodeId(1));
        for _ in 0..2 {
            // Its own prefix, to itself: every record reported, every time.
            assert_eq!(
                reports(|| bc.deliver_records(NodeId(1), NodeId(1), &message)),
                3
            );
            // A reporter no node of the population: reported (and refused by
            // the endpoint rule), not looked up.
            for stranger in [5, 99, u32::MAX] {
                let delivered =
                    reports(|| bc.deliver_records(NodeId(2), NodeId(stranger), &message));
                assert_eq!(delivered, 3);
            }
        }
        assert_eq!(bc.own[1].heard, [(NodeId(2), bc.own[1].heard[0].1)]);
        assert_eq!(bc.own[2].heard.len(), 1, "only node 1");
    }

    #[test]
    fn a_saturated_clock_delivers() {
        let (mut bc, mut l) = acquainted();
        bc.own[1].clock = u32::MAX - 1;
        l.credit(NodeId(1), NodeId(3), 5);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.own[1].clock, u32::MAX);
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(2))), 1);
        assert_eq!(heard(&bc, 2, 1), Some(u32::MAX));
        // The clock can no longer tell this change from a later one, so
        // the entries stamped with it are news every time …
        l.credit(NodeId(4), NodeId(1), 1);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.own[1].clock, u32::MAX);
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(2))), 2);
        assert_eq!(bc.graph(NodeId(2)).edge_kib(NodeId(4), NodeId(1)), 81);
        // … and the one stamped before it is still old news.
        assert_eq!(reports(|| bc.exchange(NodeId(1), NodeId(2))), 2);
    }

    #[test]
    fn first_difference_names_what_differs_first() {
        let (bc, _) = acquainted();
        assert_eq!(bc.first_difference(&bc.clone()), None);
        let record = |from, to, kib| Record {
            from: NodeId(from),
            to: NodeId(to),
            kib,
        };
        // One report more: an edge one side lacks, then a weight raised.
        let mut more = bc.clone();
        assert!(more.inject_report(NodeId(3), NodeId(4), record(4, 0, 6)));
        let want = "graph of node 3: edge n4 -> n0: absent  vs  6 KiB";
        assert_eq!(bc.first_difference(&more).as_deref(), Some(want));
        let want = "graph of node 3: edge n4 -> n0: 6 KiB  vs  absent";
        assert_eq!(more.first_difference(&bc).as_deref(), Some(want));
        let mut raised = bc.clone();
        assert!(raised.inject_report(NodeId(2), NodeId(1), record(1, 2, 150)));
        let want = "graph of node 2: edge n1 -> n2: 100 KiB  vs  150 KiB";
        assert_eq!(bc.first_difference(&raised).as_deref(), Some(want));
        // Graphs before counters, as a checkpoint writes them.
        more.mark_exchange();
        let first = bc.first_difference(&more).expect("differs");
        assert!(first.starts_with("graph of node 3"), "{first}");
        let mut counted = bc.clone();
        counted.mark_exchange();
        let (n, m) = (bc.counters().exchanges, counted.counters().exchanges);
        let want = format!("counter exchanges: {n}  vs  {m}");
        assert_eq!(bc.first_difference(&counted), Some(want));
        counted = bc.clone();
        counted.contribution_kib(NodeId(1), NodeId(2));
        let first = bc.first_difference(&counted).expect("differs");
        assert!(
            first.starts_with("counter maxflow_evaluations: "),
            "{first}"
        );
        // The configuration and the population come before any graph.
        let cfg = BarterCastConfig {
            max_records_per_exchange: 7,
        };
        let other = BarterCast::new(5, cfg);
        let first = bc.first_difference(&other).expect("differs");
        assert!(
            first.starts_with("config: ") && first.contains("max_records_per_exchange: 7"),
            "{first}"
        );
        let other = BarterCast::new(6, BarterCastConfig::default());
        let want = "population: 5 graphs  vs  6";
        assert_eq!(bc.first_difference(&other).as_deref(), Some(want));
    }

    #[test]
    fn flow_saturates_instead_of_overflowing() {
        // 3 → 1 directly at `u64::MAX`, plus 10 KiB via 2: the answer is
        // "at least `u64::MAX`", on the closed form and on the reference.
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        for (reporter, from, to, kib) in [(3, 3, 1, u64::MAX), (3, 3, 2, 10), (2, 2, 1, 10)] {
            let record = Record {
                from: NodeId(from),
                to: NodeId(to),
                kib,
            };
            assert!(bc.inject_report(NodeId(1), NodeId(reporter), record));
        }
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(3)), u64::MAX);
        let three_hops = crate::maxflow::max_flow_bounded(&bc.graphs[1], NodeId(3), NodeId(1), 3);
        assert_eq!(three_hops, u64::MAX);
    }
}
