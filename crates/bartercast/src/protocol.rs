//! The BarterCast record-exchange protocol.
//!
//! Each node keeps a [`SubjectiveGraph`]. Honest nodes learn their *own*
//! direct transfer totals from their BitTorrent client (modelled by syncing
//! from the global [`TransferLedger`] ground truth) and, when two peers
//! meet through the PSS, they exchange their own direct records — never
//! hearsay — which the receiver installs into its graph. Contribution
//! estimates are hop-bounded maxflows over the receiver's graph.

use crate::cache::{ContributionCache, Lookup};
use crate::graph::SubjectiveGraph;
use crate::maxflow::max_flow_bounded;
use rvs_bittorrent::TransferLedger;
use rvs_sim::{DetRng, NodeId};
use rvs_telemetry::{BarterCounters, SharedCounter};
use std::cell::RefCell;

/// Tuning for BarterCast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarterCastConfig {
    /// Maximum records sent per exchange (largest-first, as deployed).
    pub max_records_per_exchange: usize,
    /// Hop bound for contribution maxflow (deployed Tribler uses 2).
    pub max_hops: usize,
    /// Memoize contribution queries per `(i, j)` pair with epoch-based
    /// invalidation (see [`crate::cache`]). Results are proven identical
    /// with and without the cache; switching it off exists for the
    /// differential tests and for measuring the cache's effect.
    pub cache_contributions: bool,
}

impl Default for BarterCastConfig {
    fn default() -> Self {
        BarterCastConfig {
            max_records_per_exchange: 50,
            max_hops: 2,
            cache_contributions: true,
        }
    }
}

impl BarterCastConfig {
    /// This configuration with contribution caching disabled — the
    /// reference twin the differential tests compare against.
    pub fn without_cache(self) -> Self {
        BarterCastConfig {
            cache_contributions: false,
            ..self
        }
    }
}

rvs_checkpoint::persist_struct!(BarterCastConfig {
    max_records_per_exchange,
    max_hops,
    cache_contributions
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

/// Network-wide BarterCast state: one subjective graph per node.
#[derive(Debug, Clone)]
pub struct BarterCast {
    cfg: BarterCastConfig,
    graphs: Vec<SubjectiveGraph>,
    // Memoized contributions, reconciled lazily against graph epochs.
    // `RefCell` because `contribution_kib` takes `&self` (it sits under
    // read-only accessors all the way up the stack) yet a hit still has to
    // be recorded; queries never re-enter the cache, so the short borrows
    // in `query_cached` can't conflict.
    cache: RefCell<ContributionCache>,
    // Shared (relaxed-atomic) counters: `contribution_kib` takes `&self`
    // and sits on the experience function's hot path.
    exchanges: SharedCounter,
    maxflow_evaluations: SharedCounter,
    cache_hits: SharedCounter,
    cache_misses: SharedCounter,
}

impl BarterCast {
    /// BarterCast over a population of `n` nodes.
    pub fn new(n: usize, cfg: BarterCastConfig) -> Self {
        BarterCast {
            cfg,
            graphs: vec![SubjectiveGraph::new(); n],
            cache: RefCell::new(ContributionCache::new(n)),
            exchanges: SharedCounter::default(),
            maxflow_evaluations: SharedCounter::default(),
            cache_hits: SharedCounter::default(),
            cache_misses: SharedCounter::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> BarterCastConfig {
        self.cfg
    }

    /// True when every per-node table (graphs, contribution cache) has
    /// exactly `n` entries — what a restored instance must satisfy before
    /// it is indexed by node id.
    pub fn has_population(&self, n: usize) -> bool {
        self.graphs.len() == n && self.cache.borrow().population() == n
    }

    /// Population-wide record-exchange, maxflow, and cache counters.
    pub fn counters(&self) -> BarterCounters {
        BarterCounters {
            exchanges: self.exchanges.get(),
            maxflow_evaluations: self.maxflow_evaluations.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
        }
    }

    /// Node `i`'s subjective graph.
    pub fn graph(&self, i: NodeId) -> &SubjectiveGraph {
        &self.graphs[i.index()]
    }

    /// Refresh node `i`'s knowledge of its own direct transfers from the
    /// simulation's ground-truth ledger (its BitTorrent client's local
    /// statistics — always truthful for honest nodes).
    pub fn sync_own_records(&mut self, i: NodeId, ledger: &TransferLedger) {
        let g = &mut self.graphs[i.index()];
        for (to, kib) in ledger.uploads_from(i) {
            g.insert_report(i, i, to, kib);
        }
        for (from, kib) in ledger.uploads_to(i) {
            g.insert_report(i, from, i, kib);
        }
    }

    /// Node `i`'s own direct records (edges incident to `i`), largest
    /// first, truncated to the per-exchange budget.
    pub fn own_records(&self, i: NodeId) -> Vec<Record> {
        let g = &self.graphs[i.index()];
        let mut recs: Vec<Record> = g
            .edges()
            .filter(|&(f, t, _)| f == i || t == i)
            .map(|(from, to, kib)| Record { from, to, kib })
            .collect();
        recs.sort_by_key(|r| (std::cmp::Reverse(r.kib), r.from, r.to));
        recs.truncate(self.cfg.max_records_per_exchange);
        recs
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
    pub fn deliver_records(&mut self, receiver: NodeId, reporter: NodeId, recs: &[Record]) {
        for r in recs {
            self.graphs[receiver.index()].insert_report(reporter, r.from, r.to, r.kib);
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
        self.graphs[receiver.index()].insert_report(reporter, record.from, record.to, record.kib)
    }

    /// Contribution of `j` towards `i` in KiB: hop-bounded maxflow `j → i`
    /// over `i`'s subjective graph (the paper's `f_{j→i}`). Served from the
    /// incremental cache when enabled; the differential tests prove both
    /// paths byte-identical.
    pub fn contribution_kib(&self, i: NodeId, j: NodeId) -> u64 {
        if !self.cfg.cache_contributions {
            self.maxflow_evaluations.incr();
            return max_flow_bounded(&self.graphs[i.index()], j, i, self.cfg.max_hops);
        }
        let mut cache = self.cache.borrow_mut();
        let graph = &self.graphs[i.index()];
        cache.reconcile(i, graph, self.cfg.max_hops);
        self.query_cached(&mut cache, graph, i, j)
    }

    /// Contribution in MiB (the unit the paper's threshold `T` uses).
    pub fn contribution_mib(&self, i: NodeId, j: NodeId) -> f64 {
        self.contribution_kib(i, j) as f64 / 1024.0
    }

    /// Batched contributions `f_{j→i}` for one evaluator `i` and many
    /// peers, in KiB. Reconciles `i`'s cache once instead of per query —
    /// the shape the round-level gating sweeps and the Figure 5 contribution
    /// matrix use.
    pub fn contributions_kib(&self, i: NodeId, peers: &[NodeId]) -> Vec<u64> {
        if !self.cfg.cache_contributions {
            return peers
                .iter()
                .map(|&j| {
                    self.maxflow_evaluations.incr();
                    max_flow_bounded(&self.graphs[i.index()], j, i, self.cfg.max_hops)
                })
                .collect();
        }
        let mut cache = self.cache.borrow_mut();
        let graph = &self.graphs[i.index()];
        cache.reconcile(i, graph, self.cfg.max_hops);
        peers
            .iter()
            .map(|&j| self.query_cached(&mut cache, graph, i, j))
            .collect()
    }

    /// Batched [`Self::contribution_mib`].
    pub fn contributions_mib(&self, i: NodeId, peers: &[NodeId]) -> Vec<f64> {
        self.contributions_kib(i, peers)
            .into_iter()
            .map(|kib| kib as f64 / 1024.0)
            .collect()
    }

    /// One cache-aware query against an already reconciled node cache.
    fn query_cached(
        &self,
        cache: &mut ContributionCache,
        graph: &SubjectiveGraph,
        i: NodeId,
        j: NodeId,
    ) -> u64 {
        match cache.lookup(i, j) {
            Lookup::Hit(kib) => {
                self.cache_hits.incr();
                kib
            }
            Lookup::Miss => {
                self.cache_misses.incr();
                self.maxflow_evaluations.incr();
                let kib = max_flow_bounded(graph, j, i, self.cfg.max_hops);
                cache.store(i, j, kib);
                kib
            }
        }
    }

    /// `f_{j→i}` recomputed directly from the graph, bypassing cache and
    /// counters. This is the oracle the runtime auditor and the
    /// differential tests compare cached answers against.
    pub fn contribution_kib_uncached(&self, i: NodeId, j: NodeId) -> u64 {
        max_flow_bounded(&self.graphs[i.index()], j, i, self.cfg.max_hops)
    }

    /// Number of live cache entries for evaluator `i` (diagnostics only).
    pub fn cached_entry_count(&self, i: NodeId) -> usize {
        self.cache.borrow().len(i)
    }

    /// Sampled cache-coherence audit for evaluator `i`: reconcile its
    /// cache, draw up to `sample` surviving entries at random, recompute
    /// each from scratch, and describe every mismatch. An empty result
    /// means the sampled entries are exact; the scenario [`Auditor`] calls
    /// this every gossip round and asserts emptiness.
    ///
    /// [`Auditor`]: https://docs.rs/rvs-scenario
    pub fn audit_cache_coherence(&self, i: NodeId, sample: usize, rng: &mut DetRng) -> Vec<String> {
        if !self.cfg.cache_contributions || sample == 0 {
            return Vec::new();
        }
        let entries: Vec<(NodeId, u64)> = {
            let mut cache = self.cache.borrow_mut();
            cache.reconcile(i, &self.graphs[i.index()], self.cfg.max_hops);
            cache.entries(i).collect()
        };
        if entries.is_empty() {
            return Vec::new();
        }
        let picks = rng.sample_indices(entries.len(), sample);
        let mut violations = Vec::new();
        for idx in picks {
            let (j, cached) = entries[idx];
            let fresh = self.contribution_kib_uncached(i, j);
            if cached != fresh {
                violations.push(format!(
                    "stale contribution cache: f_{{{j}->{i}}} cached {cached} KiB, \
                     recomputed {fresh} KiB"
                ));
            }
        }
        violations
    }
}

rvs_checkpoint::persist_struct!(BarterCast {
    cfg,
    graphs,
    cache,
    exchanges,
    maxflow_evaluations,
    cache_hits,
    cache_misses
});

#[cfg(test)]
mod tests {
    use super::*;

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
            ..BarterCastConfig::default()
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
    fn repeated_queries_hit_the_cache() {
        let l = ledger(&[(2, 1, 10 * 1024)]);
        let mut bc = BarterCast::new(3, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        let first = bc.contribution_kib(NodeId(1), NodeId(2));
        let again = bc.contribution_kib(NodeId(1), NodeId(2));
        assert_eq!(first, again);
        let c = bc.counters();
        assert_eq!(
            c.maxflow_evaluations, 1,
            "second query must be served cached"
        );
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 1);
    }

    #[test]
    fn graph_mutation_invalidates_affected_pair() {
        let mut l = ledger(&[(2, 1, 1024)]);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(2)), 1024);
        // New upload lands: the cached value must not survive.
        l.credit(NodeId(2), NodeId(1), 1024);
        bc.sync_own_records(NodeId(1), &l);
        assert_eq!(bc.contribution_kib(NodeId(1), NodeId(2)), 2048);
    }

    #[test]
    fn cache_disabled_twin_counts_every_evaluation() {
        let l = ledger(&[(2, 1, 512)]);
        let mut bc = BarterCast::new(3, BarterCastConfig::default().without_cache());
        bc.sync_own_records(NodeId(1), &l);
        for _ in 0..5 {
            assert_eq!(bc.contribution_kib(NodeId(1), NodeId(2)), 512);
        }
        let c = bc.counters();
        assert_eq!(c.maxflow_evaluations, 5);
        assert_eq!(c.cache_hits + c.cache_misses, 0);
    }

    #[test]
    fn batch_matches_single_queries() {
        let l = ledger(&[(2, 1, 100), (3, 1, 200), (3, 2, 50)]);
        let mut bc = BarterCast::new(4, BarterCastConfig::default());
        for i in 0..4 {
            bc.sync_own_records(NodeId(i), &l);
        }
        bc.exchange(NodeId(1), NodeId(2));
        bc.exchange(NodeId(1), NodeId(3));
        let peers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let batch = bc.contributions_kib(NodeId(1), &peers);
        for (k, &j) in peers.iter().enumerate() {
            assert_eq!(batch[k], bc.contribution_kib(NodeId(1), j));
            assert_eq!(batch[k], bc.contribution_kib_uncached(NodeId(1), j));
        }
    }

    #[test]
    fn coherence_audit_is_clean_under_churn() {
        use rvs_sim::DetRng;
        let mut rng = DetRng::new(7);
        let mut l = TransferLedger::new();
        let mut bc = BarterCast::new(6, BarterCastConfig::default());
        for round in 0..50u64 {
            l.credit(
                NodeId(rng.below(6) as u32),
                NodeId(rng.below(6) as u32 % 5),
                1 + rng.below(500),
            );
            let a = NodeId(rng.below(6) as u32);
            let b = NodeId(rng.below(6) as u32);
            bc.sync_own_records(a, &l);
            bc.sync_own_records(b, &l);
            bc.exchange(a, b);
            let i = NodeId(rng.below(6) as u32);
            let j = NodeId(rng.below(6) as u32);
            bc.contribution_kib(i, j);
            let violations = bc.audit_cache_coherence(i, 4, &mut rng);
            assert!(violations.is_empty(), "round {round}: {violations:?}");
        }
    }
}
