//! The ledger as it was written before it became per-peer rows: three
//! `BTreeMap`s, every credit four `entry` calls, every per-peer query a range
//! scan. It is the reference the rows are held to, step for step, down to
//! the checkpoint bytes, which it writes from its forward map.

use super::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct MapLedger {
    kib: BTreeMap<(NodeId, NodeId), u64>,
    /// Mirror keyed `(to, from)`.
    incoming: BTreeMap<(NodeId, NodeId), u64>,
    total_kib: u64,
    /// `(uploaded, downloaded)` KiB per peer.
    totals: BTreeMap<NodeId, (u64, u64)>,
}

impl MapLedger {
    fn credit(&mut self, from: NodeId, to: NodeId, kib: u64) {
        if kib == 0 || from == to {
            return;
        }
        *self.kib.entry((from, to)).or_insert(0) += kib;
        *self.incoming.entry((to, from)).or_insert(0) += kib;
        self.total_kib += kib;
        self.totals.entry(from).or_default().0 += kib;
        self.totals.entry(to).or_default().1 += kib;
    }

    fn uploaded_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.kib.get(&(from, to)).copied().unwrap_or(0)
    }

    fn peer_totals(&self, peer: NodeId) -> (u64, u64) {
        self.totals.get(&peer).copied().unwrap_or_default()
    }

    fn iter(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.kib.iter().map(|(&(f, t), &v)| (f, t, v)).collect()
    }

    fn uploads_to(&self, to: NodeId) -> Vec<(NodeId, u64)> {
        self.incoming
            .range((to, NodeId(0))..=(to, NodeId(u32::MAX)))
            .map(|(&(_, f), &v)| (f, v))
            .collect()
    }

    fn uploads_from(&self, from: NodeId) -> Vec<(NodeId, u64)> {
        self.kib
            .range((from, NodeId(0))..=(from, NodeId(u32::MAX)))
            .map(|(&(_, t), &v)| (t, v))
            .collect()
    }

    /// The checkpoint bytes written from the forward map: the uploader
    /// count, then per uploader its id gap and row length, then per entry
    /// the downloader's id gap and the KiB, all varints.
    fn to_bytes(&self) -> Vec<u8> {
        let mut rows: BTreeMap<NodeId, Vec<(NodeId, u64)>> = BTreeMap::new();
        for (&(from, to), &kib) in &self.kib {
            rows.entry(from).or_default().push((to, kib));
        }
        let mut enc = Encoder::new();
        enc.varint(rows.len() as u64);
        let mut next_from = 0;
        for (from, row) in rows {
            enc.gap(&mut next_from, u64::from(from.0));
            enc.varint(row.len() as u64);
            let mut next_to = 0;
            for (to, kib) in row {
                enc.gap(&mut next_to, u64::from(to.0));
                enc.varint(kib);
            }
        }
        enc.into_bytes()
    }
}

/// Peers of every run; ids sit far apart so nothing can pass for an index.
const PEERS: [u32; 6] = [0, 1, 7, 8, 4_000_000, u32::MAX];

fn arb_peer() -> impl Strategy<Value = NodeId> {
    (0..PEERS.len()).prop_map(|at| NodeId(PEERS[at]))
}

/// Zero, everyday and `u64`-large amounts; a hundred of the largest still
/// sum inside a `u64`.
fn arb_kib() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..2_000,
        1u64..2_000,
        (u64::MAX / 256)..(u64::MAX / 128)
    ]
}

fn arb_credit() -> impl Strategy<Value = (NodeId, NodeId, u64)> {
    (arb_peer(), arb_peer(), arb_kib())
}

#[derive(Debug, Clone)]
enum Step {
    Credit(NodeId, NodeId, u64),
    /// Checkpoint the rows and carry on from the restored ledger.
    Roundtrip,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let credit = || arb_credit().prop_map(|(f, t, k)| Step::Credit(f, t, k));
    prop_oneof![
        credit(),
        credit(),
        credit(),
        credit(),
        Just(Step::Roundtrip)
    ]
}

proptest! {
    /// After every step of any sequence of credits — zero, self, large and
    /// repeated pairs included — the rows answer every query as the maps do
    /// and persist to the maps' bytes, which restore to the same ledger.
    #[test]
    fn rows_are_the_maps(steps in prop::collection::vec(arb_step(), 1..100)) {
        let mut rows = TransferLedger::new();
        let mut maps = MapLedger::default();
        for step in steps {
            match step {
                Step::Credit(from, to, kib) => {
                    rows.credit(from, to, kib);
                    maps.credit(from, to, kib);
                }
                Step::Roundtrip => {
                    let bytes = rvs_checkpoint::to_bytes(&rows);
                    let back: TransferLedger =
                        rvs_checkpoint::from_bytes(&bytes).expect("own checkpoint");
                    prop_assert_eq!(&back, &rows);
                    rows = back;
                }
            }
            prop_assert_eq!(rows.iter().collect::<Vec<_>>(), maps.iter());
            prop_assert_eq!(rows.edge_count(), maps.kib.len());
            prop_assert_eq!(rows.total_kib(), maps.total_kib);
            for peer in PEERS.map(NodeId) {
                prop_assert_eq!(rows.peer_totals(peer), maps.peer_totals(peer));
                prop_assert_eq!(
                    rows.uploads_from(peer).collect::<Vec<_>>(),
                    maps.uploads_from(peer)
                );
                prop_assert_eq!(
                    rows.uploads_to(peer).collect::<Vec<_>>(),
                    maps.uploads_to(peer)
                );
                for other in PEERS.map(NodeId) {
                    prop_assert_eq!(
                        rows.uploaded_kib(peer, other),
                        maps.uploaded_kib(peer, other)
                    );
                }
            }
            prop_assert_eq!(rvs_checkpoint::to_bytes(&rows), maps.to_bytes());
        }
    }

    /// A window's list folded into a ledger — sorted, each pair summed and
    /// credited once — is the same credits applied one by one, in arrival
    /// order and in reverse, whatever the ledger held before.
    #[test]
    fn a_folded_window_is_its_credits_one_by_one(
        before in prop::collection::vec(arb_credit(), 0..20),
        window in prop::collection::vec(arb_credit(), 0..60),
    ) {
        let mut held = TransferLedger::new();
        for &(from, to, kib) in &before {
            held.credit(from, to, kib);
        }
        let (mut folded, mut forward, mut backward) = (held.clone(), held.clone(), held);
        folded.credit_window(&mut window.clone());
        for &(from, to, kib) in &window {
            forward.credit(from, to, kib);
        }
        for &(from, to, kib) in window.iter().rev() {
            backward.credit(from, to, kib);
        }
        prop_assert_eq!(&folded, &forward);
        prop_assert_eq!(&folded, &backward);
    }
}
