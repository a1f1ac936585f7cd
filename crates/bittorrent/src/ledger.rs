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

    /// MiB uploaded from `from` to `to`.
    pub fn uploaded_mib(&self, from: NodeId, to: NodeId) -> f64 {
        self.uploaded_kib(from, to) as f64 / 1024.0
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
        self.accounts
            .iter()
            .flat_map(|a| a.out.iter().map(move |&(to, kib)| (a.peer, to, kib)))
    }

    /// The transpose of [`iter`](Self::iter): `(to, from, kib)`, ascending.
    fn iter_incoming(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.accounts
            .iter()
            .flat_map(|a| a.inc.iter().map(move |&(from, kib)| (a.peer, from, kib)))
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

/// One persisted pair map read back as rows: a length, then
/// `((peer, other), kib)` entries that must strictly ascend (a map let the
/// last of two equal keys win), with no zero and no self entry (`credit`
/// books neither). Returns the entry count beside the rows.
fn restore_rows(dec: &mut Decoder<'_>) -> Result<(usize, Vec<(NodeId, Row)>), DecodeError> {
    let len = dec.seq_len()?;
    let mut rows: Vec<(NodeId, Row)> = Vec::new();
    let mut last = None;
    for _ in 0..len {
        let ((peer, other), kib) = <((NodeId, NodeId), u64)>::restore(dec)?;
        if last >= Some((peer, other)) {
            return corrupt("entries must ascend");
        }
        if peer == other {
            return corrupt("self-edge");
        }
        if kib == 0 {
            return corrupt("zero entry");
        }
        last = Some((peer, other));
        match rows.last_mut() {
            Some((p, row)) if *p == peer => row.push((other, kib)),
            _ => rows.push((peer, vec![(other, kib)])),
        }
    }
    Ok((len, rows))
}

/// Stable binary encoding, the bytes of the two pair maps the ledger used
/// to be: the forward entries `((from, to), kib)` behind their count, the
/// transposed entries `((to, from), kib)` behind theirs, the grand total.
/// The last two are functions of the first and a checkpoint is outside
/// input, so restore checks both against the forward entries before it
/// sums the per-peer totals from them.
impl Persist for TransferLedger {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.edge_count());
        for (from, to, kib) in self.iter() {
            ((from, to), kib).persist(enc);
        }
        enc.usize(self.accounts.iter().map(|a| a.inc.len()).sum());
        for (to, from, kib) in self.iter_incoming() {
            ((to, from), kib).persist(enc);
        }
        self.total_kib.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let (edges, out) = restore_rows(dec)?;
        let (transposed, inc) = restore_rows(dec)?;
        let total = u64::restore(dec)?;
        // Equally many entries, no key twice, and every transposed entry
        // found forward with its value: a bijection.
        let forward = |from: NodeId, to: NodeId| {
            let at = out.binary_search_by_key(&from, |&(p, _)| p).ok()?;
            entry(&out[at].1, to)
        };
        let is_transpose = transposed == edges
            && inc.iter().all(|(to, row)| {
                row.iter()
                    .all(|&(from, kib)| forward(from, *to) == Some(kib))
            });
        if !is_transpose {
            return corrupt("`incoming` is not the transpose of `kib`");
        }
        let sum = out
            .iter()
            .flat_map(|(_, row)| row)
            .try_fold(0u64, |acc, &(_, kib)| acc.checked_add(kib));
        if sum != Some(total) {
            return corrupt("`total_kib` is not the sum of `kib`");
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
            total_kib: total,
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
        altered.account_mut(NodeId(2)).inc[0].1 += 1;
        assert!(corrupt(&altered).contains("transpose"));
        let mut extra = l.clone();
        extra.account_mut(NodeId(7)).inc.push((NodeId(8), 1));
        assert!(corrupt(&extra).contains("transpose"));
        let mut total = l.clone();
        total.total_kib -= 1;
        assert!(corrupt(&total).contains("sum"));
        // Rows whose sum does not fit are not a total either.
        let mut huge = TransferLedger::new();
        huge.credit(NodeId(1), NodeId(2), u64::MAX);
        huge.account_mut(NodeId(2)).out.push((NodeId(1), 2));
        huge.account_mut(NodeId(1)).inc.push((NodeId(2), 2));
        huge.total_kib = 1;
        assert!(corrupt(&huge).contains("sum"));
    }

    #[test]
    fn restore_refuses_what_credit_never_books() {
        // The forward map alone, as bytes: a length and `((from, to), kib)`.
        let ledger_of = |forward: &[((u32, u32), u64)]| {
            let mut enc = Encoder::new();
            forward.to_vec().persist(&mut enc);
            rvs_checkpoint::from_bytes::<TransferLedger>(&enc.into_bytes())
        };
        let refused = |forward: &[((u32, u32), u64)]| match ledger_of(forward) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert!(refused(&[((1, 2), 5), ((1, 2), 6)]).contains("ascend"));
        assert!(refused(&[((1, 3), 5), ((1, 2), 6)]).contains("ascend"));
        assert!(refused(&[((2, 1), 5), ((1, 2), 6)]).contains("ascend"));
        assert!(refused(&[((1, 2), 0)]).contains("zero entry"));
        assert!(refused(&[((4, 4), 9)]).contains("self-edge"));
        // A far-away id is an id, not a size: the bytes simply run out at
        // the second map.
        assert!(matches!(
            ledger_of(&[((1, u32::MAX), 5)]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    mod oracle;
}
