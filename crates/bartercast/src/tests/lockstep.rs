//! The rows, the in-column, the two merges and the delivery that passes
//! over old news, held in lock-step to what they replaced: a map-based
//! graph per node, a sync that reports every ledger row every time, an
//! `own_records` that scans, a delivery that installs every record every
//! time, and a contribution that is `max_flow_bounded` — after every step
//! of any interleaving of the calls that change a graph.

use super::map_graph::{cast_bytes, maps_of, MapGraph};
use crate::maxflow::max_flow_bounded;
use crate::protocol::tests::REPORTS;
use crate::{BarterCast, BarterCastConfig, Record};
use proptest::prelude::*;
use rvs_bittorrent::TransferLedger;
use rvs_checkpoint::{from_bytes, to_bytes};
use rvs_sim::NodeId;
use std::collections::BTreeSet;

/// Population of every run.
const N: u32 = 5;
/// Ids a message can name: two of them are no node of the population.
const IDS: u32 = N + 2;

/// One step of a BarterCast's life.
#[derive(Debug, Clone)]
enum Step {
    /// The ledger grows (a self-credit or zero is ignored by the ledger).
    Credit(u32, u32, u64),
    Sync(u32),
    Exchange(u32, u32),
    /// `(receiver, reporter)`, a reporter that need not be in the population
    /// and records that need not be the reporter's.
    Deliver(u32, u32, Vec<(u32, u32, u64)>),
    /// `(receiver, reporter)`: the reporter's own records, twice in a row.
    Repeat(u32, u32),
    /// `(receiver, reporter, from, to, kib)`: third-party, self-loop, stale,
    /// zero and saturated reports all occur.
    Inject(u32, u32, u32, u32, u64),
    /// `(owner, peer, outgoing, kib)`: the counterparty of one of `owner`'s
    /// own edges tells `owner` a weight the ledger never held.
    Inflate(u32, u32, bool, u64),
    /// Checkpoint, drop, restore.
    Restore,
}

/// Small weights, the largest weight an entry holds itself, and weights
/// whose two 32-bit halves differ in ways a stored weight cut to one half
/// would lose.
fn arb_kib() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..40,
        1u64..40,
        Just(u32::MAX as u64 - 1),
        Just(u32::MAX as u64),
        Just(1 << 32),
        Just((1 << 32) + 1),
        Just(1 << 40),
        Just(u64::MAX),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..N, 0..N, 0u64..30).prop_map(|(f, t, k)| Step::Credit(f, t, k)),
        (0..N, 0..N, 0u64..30).prop_map(|(f, t, k)| Step::Credit(f, t, k)),
        (0..N).prop_map(Step::Sync),
        (0..N).prop_map(Step::Sync),
        (0..N, 0..N).prop_map(|(i, j)| Step::Exchange(i, j)),
        (
            0..N,
            0..IDS,
            prop::collection::vec((0..IDS, 0..IDS, arb_kib()), 0..6)
        )
            .prop_map(|(to, by, recs)| Step::Deliver(to, by, recs)),
        (0..N, 0..N).prop_map(|(to, by)| Step::Repeat(to, by)),
        (0..N, 0..N, 0..N, 0..N, arb_kib())
            .prop_map(|(to, by, f, t, k)| Step::Inject(to, by, f, t, k)),
        (0..N, 0..N, any::<bool>(), 20u64..200)
            .prop_map(|(owner, peer, out, k)| Step::Inflate(owner, peer, out, k)),
        Just(Step::Restore),
    ]
}

/// The map-based BarterCast: no index, no in-column, no skipped work.
struct Model {
    budget: usize,
    graphs: Vec<MapGraph>,
}

/// Both sides of the lock-step, and which ordered pairs `(receiver,
/// reporter)` may have a watermark: those handed a whole prefix since the
/// last restore.
struct Pair {
    bc: BarterCast,
    model: Model,
    met: BTreeSet<(NodeId, NodeId)>,
}

impl Pair {
    /// Deliver to both sides; the number of records that went through
    /// `report`. A pair that cannot have a watermark — never met, a node
    /// and itself, a reporter outside the population — must report all.
    fn deliver(
        &mut self,
        receiver: NodeId,
        reporter: NodeId,
        recs: &[Record],
    ) -> Result<u64, TestCaseError> {
        let whole = reporter.0 < N && recs == self.bc.own_records(reporter);
        let before = REPORTS.get();
        self.bc.deliver_records(receiver, reporter, recs);
        let reported = REPORTS.get() - before;
        self.model.deliver(receiver, reporter, recs);
        if receiver == reporter || !self.met.contains(&(receiver, reporter)) {
            prop_assert_eq!(reported, recs.len() as u64, "{} <- {}", receiver, reporter);
        }
        if whole {
            self.met.insert((receiver, reporter));
        }
        Ok(reported)
    }
}

impl Model {
    fn deliver(&mut self, receiver: NodeId, reporter: NodeId, recs: &[Record]) {
        for r in recs {
            self.graphs[receiver.index()].insert_report(reporter, r.from, r.to, r.kib);
        }
    }

    fn sync(&mut self, i: NodeId, ledger: &TransferLedger) {
        for (to, kib) in ledger.uploads_from(i) {
            self.graphs[i.index()].insert_report(i, i, to, kib);
        }
        for (from, kib) in ledger.uploads_to(i) {
            self.graphs[i.index()].insert_report(i, from, i, kib);
        }
    }

    /// `own_records` as it was computed before the index: scan the node's
    /// graph for its incident edges, sort by the send key, truncate.
    fn own_records(&self, i: NodeId) -> Vec<Record> {
        let mut recs: Vec<Record> = self.graphs[i.index()]
            .edges()
            .filter(|&(f, t, _)| f == i || t == i)
            .map(|(from, to, kib)| Record { from, to, kib })
            .collect();
        recs.sort_by_key(|r| (std::cmp::Reverse(r.kib), r.from, r.to));
        recs.truncate(self.budget);
        recs
    }
}

fn record((from, to, kib): (u32, u32, u64)) -> Record {
    Record {
        from: NodeId(from),
        to: NodeId(to),
        kib,
    }
}

proptest! {
    #[test]
    fn rows_and_merges_are_the_map_and_the_maxflow(
        steps in prop::collection::vec(arb_step(), 1..60),
    ) {
        for budget in [1usize, 2, 50] {
            let cfg = BarterCastConfig { max_records_per_exchange: budget };
            let mut pair = Pair {
                bc: BarterCast::new(N as usize, cfg),
                model: Model { budget, graphs: vec![MapGraph::default(); N as usize] },
                met: BTreeSet::new(),
            };
            let mut ledger = TransferLedger::new();
            for step in &steps {
                match step.clone() {
                    Step::Credit(f, t, k) => ledger.credit(NodeId(f), NodeId(t), k),
                    Step::Sync(i) => {
                        let i = NodeId(i);
                        pair.bc.sync_own_records(i, &ledger);
                        pair.model.sync(i, &ledger);
                        // A skipped sync or a skipped row never leaves the
                        // graph short of the ledger.
                        for (to, kib) in ledger.uploads_from(i) {
                            prop_assert!(pair.bc.graph(i).edge_kib(i, to) >= kib);
                        }
                        for (from, kib) in ledger.uploads_to(i) {
                            prop_assert!(pair.bc.graph(i).edge_kib(from, i) >= kib);
                        }
                    }
                    Step::Exchange(i, j) => {
                        let (i, j) = (NodeId(i), NodeId(j));
                        let (from_i, from_j) = (pair.model.own_records(i), pair.model.own_records(j));
                        let first = |to, by, recs: &[Record]| {
                            if pair.met.contains(&(to, by)) { 0 } else { recs.len() as u64 }
                        };
                        let at_least = first(i, j, &from_j) + first(j, i, &from_i);
                        let before = REPORTS.get();
                        pair.bc.exchange(i, j);
                        let reported = REPORTS.get() - before;
                        if i != j {
                            prop_assert!(reported >= at_least, "{} < {}", reported, at_least);
                            pair.model.deliver(i, j, &from_j);
                            pair.model.deliver(j, i, &from_i);
                            pair.met.extend([(i, j), (j, i)]);
                        }
                    }
                    Step::Deliver(to, by, recs) => {
                        let recs: Vec<Record> = recs.into_iter().map(record).collect();
                        pair.deliver(NodeId(to), NodeId(by), &recs)?;
                    }
                    Step::Repeat(to, by) => {
                        // The repeat is where a wrong skip would show; a
                        // right one reports nothing the second time.
                        let (to, by) = (NodeId(to), NodeId(by));
                        let recs = pair.bc.own_records(by);
                        pair.deliver(to, by, &recs)?;
                        prop_assert_eq!(&pair.bc.own_records(by), &recs);
                        let again = pair.deliver(to, by, &recs)?;
                        prop_assert_eq!(again, if to == by { recs.len() as u64 } else { 0 });
                    }
                    Step::Inject(to, by, f, t, kib) => {
                        let rec = record((f, t, kib));
                        let accepted = pair.bc.inject_report(NodeId(to), NodeId(by), rec);
                        let expected = pair.model.graphs[to as usize]
                            .insert_report(NodeId(by), rec.from, rec.to, kib);
                        prop_assert_eq!(accepted, expected);
                    }
                    Step::Inflate(owner, peer, outgoing, kib) => {
                        let (from, to) = if outgoing { (owner, peer) } else { (peer, owner) };
                        let kib = ledger.uploaded_kib(NodeId(from), NodeId(to)).saturating_add(kib);
                        pair.deliver(NodeId(owner), NodeId(peer), &[record((from, to, kib))])?;
                    }
                    Step::Restore => {
                        pair.bc = from_bytes(&to_bytes(&pair.bc))
                            .map_err(|e| TestCaseError::fail(e.to_string()))?;
                        // The maps read what the rows wrote.
                        pair.model.graphs = maps_of(&to_bytes(&pair.bc))
                            .map_err(|e| TestCaseError::fail(e.to_string()))?;
                        // Every watermark is forgotten: the next delivery of
                        // each pair goes through `report` in full.
                        pair.met.clear();
                    }
                }
                let (bc, model) = (&pair.bc, &pair.model);
                let counters = [bc.counters().exchanges, bc.counters().maxflow_evaluations];
                let naive = cast_bytes(&cfg, &model.graphs, counters);
                prop_assert_eq!(to_bytes(bc), naive, "bytes under budget {} after {:?}", budget, step);
                for i in (0..N).map(NodeId) {
                    let (rows, map) = (bc.graph(i), &model.graphs[i.index()]);
                    let at = format!("node {i} under budget {budget} after {step:?}");
                    prop_assert!(rows.edges().eq(map.edges()), "edges of {}", at);
                    prop_assert_eq!(bc.own_records(i), model.own_records(i), "records of {}", at);
                    for j in (0..IDS).map(NodeId) {
                        prop_assert_eq!(rows.out_edges(j), map.out_edges(j), "row {} of {}", j, at);
                        for x in (0..IDS).map(NodeId) {
                            prop_assert_eq!(rows.edge_kib(j, x), map.edge_kib(j, x));
                        }
                        let flow = bc.contribution_kib(i, j);
                        prop_assert_eq!(flow, max_flow_bounded(rows, j, i, 2), "{} -> {}", j, at);
                    }
                }
            }
        }
    }
}
