//! Transfer accounting: who uploaded how much to whom.
//!
//! Every piece transferred in any swarm is credited here at KiB
//! granularity. The ledger is the ground truth that peers' own BarterCast
//! records are drawn from, and what the experience function's contribution
//! estimates approximate.

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
    }

    /// KiB uploaded from `from` to `to`.
    pub fn uploaded_kib(&self, from: NodeId, to: NodeId) -> u64 {
        self.kib.get(&(from, to)).copied().unwrap_or(0)
    }

    /// MiB uploaded from `from` to `to`.
    pub fn uploaded_mib(&self, from: NodeId, to: NodeId) -> f64 {
        self.uploaded_kib(from, to) as f64 / 1024.0
    }

    /// Total KiB `peer` has uploaded to anyone.
    pub fn total_uploaded_kib(&self, peer: NodeId) -> u64 {
        self.kib
            .iter()
            .filter(|((f, _), _)| *f == peer)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Total KiB `peer` has downloaded from anyone.
    pub fn total_downloaded_kib(&self, peer: NodeId) -> u64 {
        self.incoming
            .range((peer, NodeId(0))..=(peer, NodeId(u32::MAX)))
            .map(|(_, &v)| v)
            .sum()
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

    /// Directed edges into `to`: `(from, kib)` pairs (range scan on the
    /// reverse index).
    pub fn uploads_to(&self, to: NodeId) -> Vec<(NodeId, u64)> {
        self.incoming
            .range((to, NodeId(0))..=(to, NodeId(u32::MAX)))
            .map(|(&(_, f), &v)| (f, v))
            .collect()
    }

    /// Directed edges out of `from`: `(to, kib)` pairs (range scan).
    pub fn uploads_from(&self, from: NodeId) -> Vec<(NodeId, u64)> {
        self.kib
            .range((from, NodeId(0))..=(from, NodeId(u32::MAX)))
            .map(|(&(_, t), &v)| (t, v))
            .collect()
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

// The reverse index is derivable, but rebuilding it on restore would cost
// a full scan for no robustness gain; the differential tests cover the
// agreement of the two maps.
rvs_checkpoint::persist_struct!(TransferLedger {
    kib,
    incoming,
    total_kib
});

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
        let mut ins = l.uploads_to(NodeId(1));
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
            l.uploads_from(NodeId(5)),
            vec![(NodeId(1), 10), (NodeId(3), 30)]
        );
        assert!(l.uploads_from(NodeId(9)).is_empty());
    }

    #[test]
    fn forward_and_reverse_indices_agree() {
        let mut l = TransferLedger::new();
        for i in 0..20u32 {
            l.credit(NodeId(i % 5), NodeId((i + 1) % 7), (i as u64 + 1) * 10);
        }
        for (f, t, v) in l.iter() {
            assert!(l.uploads_to(t).contains(&(f, v)));
            assert!(l.uploads_from(f).contains(&(t, v)));
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
}
