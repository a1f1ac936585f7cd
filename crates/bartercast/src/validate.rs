//! Hostile-input gate for inbound BarterCast record lists.
//!
//! A record list is the wire message of a BarterCast exchange: the
//! sender's claimed direct-transfer totals. The graph layer already
//! refuses edges not incident to the reporter; this gate rejects the
//! whole message *before* any edge is installed — with an attributable
//! reason — when it is structurally hostile. Total and pure: never
//! panics, first violation (in a fixed check order) wins.

use crate::protocol::Record;
use rvs_guard::RejectReason;
use rvs_sim::NodeId;

/// Validate an inbound record list from `reporter`: at most `max_len`
/// records, endpoints inside the population (`max_id`, exclusive), no
/// self-loops, every record incident to the reporter (first-hand only —
/// BarterCast never forwards hearsay), claimed KiB within `max_kib`,
/// and each directed edge reported at most once.
pub fn validate_records(
    recs: &[Record],
    reporter: NodeId,
    max_len: usize,
    max_id: usize,
    max_kib: u64,
) -> Result<(), RejectReason> {
    if recs.len() > max_len {
        return Err(RejectReason::ListTooLong);
    }
    // The edges seen so far, sorted: at most `max_len` of them.
    let mut seen: Vec<(NodeId, NodeId)> = Vec::with_capacity(recs.len());
    for r in recs {
        if r.from.index() >= max_id || r.to.index() >= max_id {
            return Err(RejectReason::InvalidNode);
        }
        if r.from == r.to {
            return Err(RejectReason::SelfReference);
        }
        if r.from != reporter && r.to != reporter {
            return Err(RejectReason::HearsayRecord);
        }
        if r.kib > max_kib {
            return Err(RejectReason::Oversized);
        }
        match seen.binary_search(&(r.from, r.to)) {
            Ok(_) => return Err(RejectReason::DuplicateEntry),
            Err(at) => seen.insert(at, (r.from, r.to)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: NodeId = NodeId(3);

    fn rec(from: u32, to: u32, kib: u64) -> Record {
        Record {
            from: NodeId(from),
            to: NodeId(to),
            kib,
        }
    }

    fn check(recs: &[Record]) -> Result<(), RejectReason> {
        validate_records(recs, R, 50, 10, 1 << 20)
    }

    #[test]
    fn honest_records_are_accepted() {
        // Both directions incident to the reporter, distinct edges.
        let recs = [rec(3, 1, 100), rec(2, 3, 50), rec(3, 2, 7)];
        assert_eq!(check(&recs), Ok(()));
        assert_eq!(check(&[]), Ok(()));
    }

    #[test]
    fn overlong_list_is_rejected() {
        let recs: Vec<Record> = (0..51).map(|_| rec(3, 1, 1)).collect();
        assert_eq!(check(&recs), Err(RejectReason::ListTooLong));
    }

    #[test]
    fn out_of_population_endpoint_is_rejected() {
        assert_eq!(check(&[rec(3, 10, 1)]), Err(RejectReason::InvalidNode));
        assert_eq!(check(&[rec(10, 3, 1)]), Err(RejectReason::InvalidNode));
    }

    #[test]
    fn self_loop_is_rejected() {
        assert_eq!(check(&[rec(3, 3, 1)]), Err(RejectReason::SelfReference));
    }

    #[test]
    fn hearsay_is_rejected() {
        assert_eq!(check(&[rec(1, 2, 1)]), Err(RejectReason::HearsayRecord));
    }

    #[test]
    fn inflated_kib_is_rejected() {
        assert_eq!(
            check(&[rec(3, 1, (1 << 20) + 1)]),
            Err(RejectReason::Oversized)
        );
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        assert_eq!(
            check(&[rec(3, 1, 5), rec(3, 1, 9)]),
            Err(RejectReason::DuplicateEntry)
        );
    }
}
