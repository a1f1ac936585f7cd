//! Transfer accounting: who uploaded how much to whom.
//!
//! Every piece transferred in any swarm is credited here at KiB
//! granularity. The ledger is the ground truth that peers' own BarterCast
//! records are drawn from, and what the experience function's contribution
//! estimates approximate.

use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::NodeId;
use std::collections::BTreeMap;

/// Cumulative upload totals per ordered peer pair `(from, to)`.
///
/// Backed by a `BTreeMap` so iteration order — and therefore every
/// downstream computation — is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferLedger {
    kib: BTreeMap<(NodeId, NodeId), u64>,
    /// Mirror keyed `(to, from)` so per-downloader queries are range scans.
    incoming: BTreeMap<(NodeId, NodeId), u64>,
    total_kib: u64,
    /// `(uploaded, downloaded)` KiB per peer: the row sums of `kib` and of
    /// `incoming`. Peers without a transfer have no entry.
    totals: BTreeMap<NodeId, (u64, u64)>,
}

impl TransferLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credit `kib` KiB uploaded from `from` to `to`.
    pub fn credit(&mut self, from: NodeId, to: NodeId, kib: u64) {
        if kib == 0 || from == to {
            return;
        }
        *self.kib.entry((from, to)).or_insert(0) += kib;
        *self.incoming.entry((to, from)).or_insert(0) += kib;
        self.total_kib += kib;
        self.totals.entry(from).or_default().0 += kib;
        self.totals.entry(to).or_default().1 += kib;
    }

    /// Fold another ledger's credits into this one. Credits are plain
    /// integer sums, so the merge is associative and commutative — the
    /// parallel window driver relies on this to combine per-swarm delta
    /// ledgers into the global ledger in canonical swarm order.
    pub fn merge_from(&mut self, other: &TransferLedger) {
        for (&(from, to), &kib) in &other.kib {
            *self.kib.entry((from, to)).or_insert(0) += kib;
        }
        for (&(to, from), &kib) in &other.incoming {
            *self.incoming.entry((to, from)).or_insert(0) += kib;
        }
        self.total_kib += other.total_kib;
        for (&peer, &(up, down)) in &other.totals {
            let mine = self.totals.entry(peer).or_default();
            mine.0 += up;
            mine.1 += down;
        }
    }

    /// KiB uploaded from `from` to `to`.
    pub fn uploaded_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.kib.get(&(from, to)).copied().unwrap_or(0)
    }

    /// MiB uploaded from `from` to `to`.
    pub fn uploaded_mib(&self, from: NodeId, to: NodeId) -> f64 {
        self.uploaded_kib(from, to) as f64 / 1024.0
    }

    /// `(uploaded, downloaded)` KiB totals of `peer` over all partners.
    /// Credits are strictly positive, so while a ledger only grows, equal
    /// totals at two points in time mean no row of `peer` changed between
    /// them.
    pub fn peer_totals(&self, peer: NodeId) -> (u64, u64) {
        self.totals.get(&peer).copied().unwrap_or_default()
    }

    /// Total KiB `peer` has uploaded to anyone.
    pub fn total_uploaded_kib(&self, peer: NodeId) -> u64 {
        self.peer_totals(peer).0
    }

    /// Total KiB `peer` has downloaded from anyone.
    pub fn total_downloaded_kib(&self, peer: NodeId) -> u64 {
        self.peer_totals(peer).1
    }

    /// Sharing ratio (uploaded / downloaded); `None` when nothing was
    /// downloaded yet.
    pub fn sharing_ratio(&self, peer: NodeId) -> Option<f64> {
        let down = self.total_downloaded_kib(peer);
        if down == 0 {
            None
        } else {
            Some(self.total_uploaded_kib(peer) as f64 / down as f64)
        }
    }

    /// Iterate over all `(from, to, kib)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.kib.iter().map(|(&(f, t), &v)| (f, t, v))
    }

    /// Directed edges into `to`: `(from, kib)` pairs ascending by `from`
    /// (range scan on the reverse index).
    pub fn uploads_to(&self, to: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.incoming
            .range((to, NodeId(0))..=(to, NodeId(u32::MAX)))
            .map(|(&(_, f), &v)| (f, v))
    }

    /// Directed edges out of `from`: `(to, kib)` pairs ascending by `to`
    /// (range scan).
    pub fn uploads_from(&self, from: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.kib
            .range((from, NodeId(0))..=(from, NodeId(u32::MAX)))
            .map(|(&(_, t), &v)| (t, v))
    }

    /// Number of distinct ordered pairs with nonzero transfer.
    pub fn edge_count(&self) -> usize {
        self.kib.len()
    }

    /// Total KiB transferred across all pairs.
    pub fn total_kib(&self) -> u64 {
        self.total_kib
    }
}

/// Stable binary encoding: the forward map, its transpose, the grand
/// total. The last two are functions of the first and a checkpoint is
/// outside input, so restore checks both against `kib` before the per-peer
/// totals are summed from it.
// rvs-lint: allow(persist-coverage) -- `totals` is derived: the row and column sums of the persisted `kib`, summed again at the end of `restore` from the map it has just checked
impl Persist for TransferLedger {
    fn persist(&self, enc: &mut Encoder) {
        self.kib.persist(enc);
        self.incoming.persist(enc);
        self.total_kib.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let corrupt = |what: &str| Err(DecodeError::Corrupt(format!("TransferLedger: {what}")));
        let kib: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::restore(dec)?;
        let incoming: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::restore(dec)?;
        let total_kib = u64::restore(dec)?;
        let transposed = incoming.len() == kib.len()
            && kib
                .iter()
                .all(|(&(from, to), v)| incoming.get(&(to, from)) == Some(v));
        if !transposed {
            return corrupt("`incoming` is not the transpose of `kib`");
        }
        let sum = kib.values().try_fold(0u64, |acc, &v| acc.checked_add(v));
        if sum != Some(total_kib) {
            return corrupt("`total_kib` is not the sum of `kib`");
        }
        // No per-peer sum can overflow: each is at most `total_kib`.
        let mut totals: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        for (&(from, to), &v) in &kib {
            totals.entry(from).or_default().0 += v;
            totals.entry(to).or_default().1 += v;
        }
        Ok(TransferLedger {
            kib,
            incoming,
            total_kib,
            totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 100);
        l.credit(NodeId(1), NodeId(2), 50);
        assert_eq!(l.uploaded_kib(NodeId(1), NodeId(2)), 150);
        assert_eq!(l.uploaded_kib(NodeId(2), NodeId(1)), 0);
        assert_eq!(l.total_kib(), 150);
    }

    #[test]
    fn zero_and_self_credits_ignored() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 0);
        l.credit(NodeId(3), NodeId(3), 500);
        assert_eq!(l.edge_count(), 0);
        assert_eq!(l.total_kib(), 0);
    }

    #[test]
    fn totals_and_ratio() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 1024);
        l.credit(NodeId(1), NodeId(3), 1024);
        l.credit(NodeId(2), NodeId(1), 512);
        assert_eq!(l.total_uploaded_kib(NodeId(1)), 2048);
        assert_eq!(l.total_downloaded_kib(NodeId(1)), 512);
        assert_eq!(l.sharing_ratio(NodeId(1)), Some(4.0));
        // Node 3 downloaded but never uploaded: ratio zero.
        assert_eq!(l.sharing_ratio(NodeId(3)), Some(0.0));
        // Node 9 has no transfers at all: ratio undefined.
        assert_eq!(l.sharing_ratio(NodeId(9)), None);
        assert!((l.uploaded_mib(NodeId(1), NodeId(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uploads_to_lists_in_edges() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(5), NodeId(1), 10);
        l.credit(NodeId(7), NodeId(1), 20);
        l.credit(NodeId(5), NodeId(2), 99);
        let mut ins: Vec<_> = l.uploads_to(NodeId(1)).collect();
        ins.sort();
        assert_eq!(ins, vec![(NodeId(5), 10), (NodeId(7), 20)]);
    }

    #[test]
    fn uploads_from_lists_out_edges() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(5), NodeId(1), 10);
        l.credit(NodeId(5), NodeId(3), 30);
        l.credit(NodeId(6), NodeId(1), 99);
        assert_eq!(
            l.uploads_from(NodeId(5)).collect::<Vec<_>>(),
            vec![(NodeId(1), 10), (NodeId(3), 30)]
        );
        assert!(l.uploads_from(NodeId(9)).next().is_none());
    }

    #[test]
    fn forward_and_reverse_indices_agree() {
        let mut l = TransferLedger::new();
        for i in 0..20u32 {
            l.credit(NodeId(i % 5), NodeId((i + 1) % 7), (i as u64 + 1) * 10);
        }
        for (f, t, v) in l.iter() {
            assert!(l.uploads_to(t).any(|row| row == (f, v)));
            assert!(l.uploads_from(f).any(|row| row == (t, v)));
        }
    }

    #[test]
    fn iteration_is_deterministic_and_sorted() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(9), NodeId(1), 1);
        l.credit(NodeId(2), NodeId(8), 1);
        l.credit(NodeId(2), NodeId(3), 1);
        let pairs: Vec<(NodeId, NodeId)> = l.iter().map(|(f, t, _)| (f, t)).collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn merge_from_equals_interleaved_credits() {
        // Credits split across delta ledgers and merged must equal the
        // same credits applied directly, in any order.
        let credits = [
            (NodeId(0), NodeId(1), 10u64),
            (NodeId(1), NodeId(0), 20),
            (NodeId(2), NodeId(1), 5),
            (NodeId(0), NodeId(1), 7),
        ];
        let mut direct = TransferLedger::new();
        for &(f, t, k) in &credits {
            direct.credit(f, t, k);
        }
        let mut a = TransferLedger::new();
        let mut b = TransferLedger::new();
        for (i, &(f, t, k)) in credits.iter().enumerate() {
            if i % 2 == 0 {
                a.credit(f, t, k);
            } else {
                b.credit(f, t, k);
            }
        }
        let mut merged = TransferLedger::new();
        merged.merge_from(&b);
        merged.merge_from(&a);
        assert_eq!(merged, direct);
        assert_eq!(merged.total_kib(), direct.total_kib());
    }

    #[test]
    fn per_peer_totals_follow_credits_and_merges() {
        let mut a = TransferLedger::new();
        a.credit(NodeId(1), NodeId(2), 10);
        a.credit(NodeId(3), NodeId(1), 4);
        let mut b = TransferLedger::new();
        b.credit(NodeId(1), NodeId(2), 5);
        b.credit(NodeId(2), NodeId(3), 1);
        a.merge_from(&b);
        assert_eq!(a.peer_totals(NodeId(1)), (15, 4));
        assert_eq!(a.peer_totals(NodeId(2)), (1, 15));
        assert_eq!(a.peer_totals(NodeId(3)), (4, 1));
        assert_eq!(a.peer_totals(NodeId(9)), (0, 0));
        let back: TransferLedger =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&a)).expect("roundtrip");
        assert_eq!(back, a);
    }

    #[test]
    fn restore_checks_the_derived_maps_against_the_forward_one() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 10);
        l.credit(NodeId(3), NodeId(1), 4);
        let corrupt = |l: &TransferLedger| match rvs_checkpoint::from_bytes::<TransferLedger>(
            &rvs_checkpoint::to_bytes(l),
        ) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        let mut altered = l.clone();
        *altered
            .incoming
            .get_mut(&(NodeId(2), NodeId(1)))
            .expect("row") += 1;
        assert!(corrupt(&altered).contains("transpose"));
        let mut extra = l.clone();
        extra.incoming.insert((NodeId(7), NodeId(8)), 1);
        assert!(corrupt(&extra).contains("transpose"));
        let mut total = l.clone();
        total.total_kib -= 1;
        assert!(corrupt(&total).contains("sum"));
        // Rows whose sum does not fit are not a total either.
        let mut huge = TransferLedger::new();
        huge.credit(NodeId(1), NodeId(2), u64::MAX);
        huge.kib.insert((NodeId(2), NodeId(1)), 2);
        huge.incoming.insert((NodeId(1), NodeId(2)), 2);
        huge.total_kib = 1;
        assert!(corrupt(&huge).contains("sum"));
    }
}
