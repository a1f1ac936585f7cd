//! Transfer accounting: who uploaded how much to whom.
//!
//! Every piece transferred in any swarm is credited here at KiB
//! granularity. The ledger is the ground truth that peers' own BarterCast
//! records are drawn from, and what the experience function's contribution
//! estimates approximate.

use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::NodeId;

/// Where a swarm tick books the whole KiB a connection moved: the ledger
/// itself, or a window's list that [`TransferLedger::credit_window`] folds
/// into the ledger afterwards.
pub trait CreditSink {
    /// Book `kib` KiB uploaded from `from` to `to`.
    fn credit(&mut self, from: NodeId, to: NodeId, kib: u64);
}

impl CreditSink for TransferLedger {
    fn credit(&mut self, from: NodeId, to: NodeId, kib: u64) {
        TransferLedger::credit(self, from, to, kib);
    }
}

impl CreditSink for Vec<(NodeId, NodeId, u64)> {
    fn credit(&mut self, from: NodeId, to: NodeId, kib: u64) {
        self.push((from, to, kib));
    }
}

/// One peer's counterparties and the KiB moved with each, ascending by
/// counterparty, no entry zero.
type Row = Vec<(NodeId, u64)>;

/// What the ledger holds about one peer that took part in a transfer.
#[derive(Debug, Clone, PartialEq)]
struct Account {
    peer: NodeId,
    /// The sums of `out` and of `inc`.
    uploaded: u64,
    downloaded: u64,
    /// `(to, kib)`: what `peer` uploaded to each downloader.
    out: Row,
    /// `(from, kib)`: what `peer` downloaded from each uploader — the
    /// transpose of the other accounts' `out`.
    inc: Row,
}

/// Add `kib` to `row`'s entry for `peer`, which is created when absent.
fn add(row: &mut Row, peer: NodeId, kib: u64) {
    match row.binary_search_by_key(&peer, |&(p, _)| p) {
        Ok(at) => row[at].1 += kib,
        Err(at) => row.insert(at, (peer, kib)),
    }
}

/// `row`'s entry for `peer`, if it has one.
fn entry(row: &[(NodeId, u64)], peer: NodeId) -> Option<u64> {
    let at = row.binary_search_by_key(&peer, |&(p, _)| p).ok()?;
    Some(row[at].1)
}

/// Cumulative upload totals per ordered peer pair `(from, to)`.
///
/// One account per peer, ascending by id, each holding the peer's two rows
/// in ascending order, so iteration order — and therefore every downstream
/// computation — is deterministic. Accounts are found by binary search, not
/// by index: an id may come out of a checkpoint and must not size anything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferLedger {
    /// Ascending by peer; peers without a transfer have no account.
    accounts: Vec<Account>,
    total_kib: u64,
}

impl TransferLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn account(&self, peer: NodeId) -> Option<&Account> {
        let at = self.accounts.binary_search_by_key(&peer, |a| a.peer).ok()?;
        Some(&self.accounts[at])
    }

    fn account_mut(&mut self, peer: NodeId) -> &mut Account {
        let at = match self.accounts.binary_search_by_key(&peer, |a| a.peer) {
            Ok(at) => at,
            Err(at) => {
                let fresh = Account {
                    peer,
                    uploaded: 0,
                    downloaded: 0,
                    out: Row::new(),
                    inc: Row::new(),
                };
                self.accounts.insert(at, fresh);
                at
            }
        };
        &mut self.accounts[at]
    }

    /// Credit `kib` KiB uploaded from `from` to `to`.
    pub fn credit(&mut self, from: NodeId, to: NodeId, kib: u64) {
        if kib == 0 || from == to {
            return;
        }
        let uploader = self.account_mut(from);
        uploader.uploaded += kib;
        add(&mut uploader.out, to, kib);
        let downloader = self.account_mut(to);
        downloader.downloaded += kib;
        add(&mut downloader.inc, from, kib);
        self.total_kib += kib;
    }

    /// Credit a window's list of `(from, to, kib)` bookings: sorted by pair,
    /// each pair's bookings summed and credited once. Credits are plain
    /// integer sums, so the result is the one the bookings give applied one
    /// by one in any order — the parallel window driver relies on this to
    /// fold per-swarm lists into the global ledger in canonical swarm order.
    pub fn credit_window(&mut self, credits: &mut [(NodeId, NodeId, u64)]) {
        credits.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut sorted = credits.iter().copied().peekable();
        while let Some((from, to, mut kib)) = sorted.next() {
            while let Some((_, _, more)) = sorted.next_if(|&(f, t, _)| (f, t) == (from, to)) {
                kib += more;
            }
            self.credit(from, to, kib);
        }
    }

    /// KiB uploaded from `from` to `to`.
    pub fn uploaded_kib(&self, from: NodeId, to: NodeId) -> u64 {
        let uploader = self.account(from);
        uploader.and_then(|a| entry(&a.out, to)).unwrap_or(0)
    }

    /// `(uploaded, downloaded)` KiB totals of `peer` over all partners.
    /// Credits are strictly positive, so while a ledger only grows, equal
    /// totals at two points in time mean no row of `peer` changed between
    /// them.
    pub fn peer_totals(&self, peer: NodeId) -> (u64, u64) {
        self.account(peer)
            .map_or((0, 0), |a| (a.uploaded, a.downloaded))
    }

    /// Total KiB `peer` has uploaded to anyone.
    pub fn total_uploaded_kib(&self, peer: NodeId) -> u64 {
        self.peer_totals(peer).0
    }

    /// Total KiB `peer` has downloaded from anyone.
    pub fn total_downloaded_kib(&self, peer: NodeId) -> u64 {
        self.peer_totals(peer).1
    }

    /// Iterate over all `(from, to, kib)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.accounts
            .iter()
            .flat_map(|a| a.out.iter().map(move |&(to, kib)| (a.peer, to, kib)))
    }

    /// Directed edges into `to`: `(from, kib)` pairs ascending by `from`.
    pub fn uploads_to(&self, to: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let row = self.account(to).map_or(&[][..], |a| &a.inc);
        row.iter().copied()
    }

    /// Directed edges out of `from`: `(to, kib)` pairs ascending by `to`.
    pub fn uploads_from(&self, from: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let row = self.account(from).map_or(&[][..], |a| &a.out);
        row.iter().copied()
    }

    /// Number of distinct ordered pairs with nonzero transfer.
    pub fn edge_count(&self) -> usize {
        self.accounts.iter().map(|a| a.out.len()).sum()
    }

    /// Total KiB transferred across all pairs.
    pub fn total_kib(&self) -> u64 {
        self.total_kib
    }
}

fn corrupt<T>(what: &str) -> Result<T, DecodeError> {
    Err(DecodeError::Corrupt(format!("TransferLedger: {what}")))
}

/// The forward rows only, every number a [varint](Encoder::varint): the
/// count of peers that uploaded, then per uploader its id's
/// [gap](Encoder::gap) and its row length, then per downloader the id's
/// gap and the KiB. Gaps make both kinds of id strictly ascend, so the
/// rows are canonical by construction. The transposed rows, each account's
/// totals and the grand total are functions of these and are rebuilt. A
/// checkpoint is outside input, so restore refuses what no sequence of
/// credits books — an empty row, a zero entry, a self-edge, a sum past
/// `u64` — and any count the bytes left cannot hold, before it allocates.
impl Persist for TransferLedger {
    fn persist(&self, enc: &mut Encoder) {
        let uploaders = || self.accounts.iter().filter(|a| !a.out.is_empty());
        enc.varint(uploaders().count() as u64);
        let mut next_from = 0;
        for a in uploaders() {
            enc.gap(&mut next_from, u64::from(a.peer.0));
            enc.varint(a.out.len() as u64);
            let mut next_to = 0;
            for &(to, kib) in &a.out {
                enc.gap(&mut next_to, u64::from(to.0));
                enc.varint(kib);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.varint()?;
        if count > dec.remaining() as u64 {
            return corrupt(&format!(
                "{count} rows claimed with {} bytes left",
                dec.remaining()
            ));
        }
        let mut out: Vec<(NodeId, Row)> = Vec::with_capacity(count as usize);
        let mut total_kib = 0u64;
        let mut next_from = 0;
        for _ in 0..count {
            let from = NodeId(dec.gap_u32(&mut next_from, "TransferLedger: uploader")?);
            // An entry is two varints, at least a byte each.
            let len = dec.varint()?;
            if len == 0 {
                return corrupt("empty row");
            }
            if len > (dec.remaining() / 2) as u64 {
                return corrupt(&format!(
                    "row of {len} entries claimed with {} bytes left",
                    dec.remaining()
                ));
            }
            let mut row = Row::with_capacity(len as usize);
            let mut next_to = 0;
            for _ in 0..len {
                let to = NodeId(dec.gap_u32(&mut next_to, "TransferLedger: downloader")?);
                if to == from {
                    return corrupt("self-edge");
                }
                let kib = dec.varint()?;
                if kib == 0 {
                    return corrupt("zero entry");
                }
                match total_kib.checked_add(kib) {
                    Some(sum) => total_kib = sum,
                    None => return corrupt("the KiB sum overflows u64"),
                }
                row.push((to, kib));
            }
            out.push((from, row));
        }
        // The transpose: every entry keyed by downloader, then uploader.
        let mut transposed: Vec<(NodeId, NodeId, u64)> = out
            .iter()
            .flat_map(|(from, row)| row.iter().map(|&(to, kib)| (to, *from, kib)))
            .collect();
        transposed.sort_unstable_by_key(|&(to, from, _)| (to, from));
        let mut inc: Vec<(NodeId, Row)> = Vec::new();
        for (to, from, kib) in transposed {
            match inc.last_mut() {
                Some((p, row)) if *p == to => row.push((from, kib)),
                _ => inc.push((to, vec![(from, kib)])),
            }
        }
        // One account per peer of either side, in one ascending merge. No
        // per-peer sum can overflow: each is at most the total.
        let mut accounts = Vec::new();
        let (mut out, mut inc) = (out.into_iter().peekable(), inc.into_iter().peekable());
        let head = |row: Option<&(NodeId, Row)>| row.map(|&(peer, _)| peer);
        while let Some(peer) = head(out.peek()).into_iter().chain(head(inc.peek())).min() {
            let out = out.next_if(|&(p, _)| p == peer).map_or(Row::new(), |r| r.1);
            let inc = inc.next_if(|&(p, _)| p == peer).map_or(Row::new(), |r| r.1);
            accounts.push(Account {
                peer,
                uploaded: out.iter().map(|&(_, kib)| kib).sum(),
                downloaded: inc.iter().map(|&(_, kib)| kib).sum(),
                out,
                inc,
            });
        }
        Ok(TransferLedger {
            accounts,
            total_kib,
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
    fn totals() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 1024);
        l.credit(NodeId(1), NodeId(3), 1024);
        l.credit(NodeId(2), NodeId(1), 512);
        assert_eq!(l.total_uploaded_kib(NodeId(1)), 2048);
        assert_eq!(l.total_downloaded_kib(NodeId(1)), 512);
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
    fn per_peer_totals_follow_credits_and_windows() {
        let mut a = TransferLedger::new();
        a.credit(NodeId(1), NodeId(2), 10);
        a.credit(NodeId(3), NodeId(1), 4);
        a.credit_window(&mut [
            (NodeId(2), NodeId(3), 1),
            (NodeId(1), NodeId(2), 3),
            (NodeId(1), NodeId(2), 2),
        ]);
        assert_eq!(a.peer_totals(NodeId(1)), (15, 4));
        assert_eq!(a.peer_totals(NodeId(2)), (1, 15));
        assert_eq!(a.peer_totals(NodeId(3)), (4, 1));
        assert_eq!(a.peer_totals(NodeId(9)), (0, 0));
        let back: TransferLedger =
            rvs_checkpoint::from_bytes(&rvs_checkpoint::to_bytes(&a)).expect("roundtrip");
        assert_eq!(back, a);
    }

    #[test]
    fn only_the_forward_rows_are_written_and_the_rest_is_rebuilt() {
        let mut l = TransferLedger::new();
        l.credit(NodeId(1), NodeId(2), 10);
        l.credit(NodeId(3), NodeId(1), 4);
        l.credit(NodeId(3), NodeId(2), 7);
        let bytes = rvs_checkpoint::to_bytes(&l);
        // Two uploaders: 1 → {2: 10}, then 3 (gap 1) → {1: 4, 2 (gap 0): 7}.
        assert_eq!(bytes, [2, 1, 1, 2, 10, 1, 2, 1, 4, 0, 7]);
        let back: TransferLedger = rvs_checkpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, l);
        assert_eq!(back.total_kib(), 21);
        assert_eq!(back.peer_totals(NodeId(2)), (0, 17));
        assert_eq!(
            back.uploads_to(NodeId(2)).collect::<Vec<_>>(),
            [(NodeId(1), 10), (NodeId(3), 7)]
        );
    }

    /// Restore of `varints`, written one after another as the rows would be.
    fn ledger_of(varints: &[u64]) -> Result<TransferLedger, DecodeError> {
        let mut enc = Encoder::new();
        varints.iter().for_each(|&v| enc.varint(v));
        rvs_checkpoint::from_bytes(&enc.into_bytes())
    }

    #[test]
    fn restore_refuses_what_credit_never_books() {
        let refused = |varints: &[u64]| match ledger_of(varints) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // One row: uploader gap, row length, then (downloader gap, KiB).
        assert_eq!(refused(&[1, 1, 1, 2, 0]), "TransferLedger: zero entry");
        assert_eq!(refused(&[1, 4, 1, 4, 9]), "TransferLedger: self-edge");
        assert_eq!(refused(&[1, 1, 0]), "TransferLedger: empty row");
        assert_eq!(
            refused(&[1, 1, 2, 2, u64::MAX, 0, 1]),
            "TransferLedger: the KiB sum overflows u64"
        );
        assert_eq!(
            refused(&[1, 1 << 32, 1, 0, 5]),
            "TransferLedger: uploader id overflows u32"
        );
        assert_eq!(
            refused(&[1, 1, 1, 1 << 32, 5]),
            "TransferLedger: downloader id overflows u32"
        );
        assert_eq!(
            refused(&[1, 1, 2, 2, 5, u64::MAX, 5]),
            "TransferLedger: downloader id overflows u32"
        );
        // Counts the bytes left cannot hold, refused before any allocation.
        assert!(refused(&[1 << 40]).starts_with("TransferLedger: 1099511627776 rows claimed"));
        assert!(refused(&[1, 1, 1 << 40]).starts_with("TransferLedger: row of 1099511627776"));
        // A far-away id is an id, not a size.
        let far = ledger_of(&[1, 1, 1, u64::from(u32::MAX), 5]).expect("an honest row");
        assert_eq!(far.uploaded_kib(NodeId(1), NodeId(u32::MAX)), 5);
    }

    mod oracle;
}
