//! The rejection taxonomy and message-class axes of the guard plane.
//!
//! Every inbound wire message is *totally classified*: it is either
//! accepted or mapped to exactly one [`RejectReason`]. The taxonomy is
//! deliberately flat and closed — telemetry keeps one counter per reason,
//! so an operator can read a [`rvs_telemetry::Snapshot`] and account for
//! every message a hostile peer sent.

/// The protocol surface a message arrived on. Token buckets are kept per
/// `(peer, class)` pair so a flood on one surface cannot starve another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// BallotBox vote lists (`core`).
    VoteList,
    /// VoxPopuli top-K responses (`core`).
    TopK,
    /// ModerationCast moderation lists (`modcast`).
    Moderations,
    /// BarterCast transfer records (`bartercast`).
    BarterRecords,
}

impl MessageClass {
    /// Number of message classes (token-bucket array width).
    pub const COUNT: usize = 4;

    /// Every class, in bucket order.
    pub const ALL: [MessageClass; MessageClass::COUNT] = [
        MessageClass::VoteList,
        MessageClass::TopK,
        MessageClass::Moderations,
        MessageClass::BarterRecords,
    ];

    /// Dense index of this class into per-peer bucket arrays.
    pub fn index(self) -> usize {
        match self {
            MessageClass::VoteList => 0,
            MessageClass::TopK => 1,
            MessageClass::Moderations => 2,
            MessageClass::BarterRecords => 3,
        }
    }

    /// Stable lowercase name (telemetry/CLI output).
    pub fn as_str(self) -> &'static str {
        match self {
            MessageClass::VoteList => "vote_list",
            MessageClass::TopK => "topk",
            MessageClass::Moderations => "moderations",
            MessageClass::BarterRecords => "barter_records",
        }
    }
}

/// Why an inbound message was refused. One counter per variant lives in
/// [`rvs_telemetry::GuardCounters`]; the mapping is exercised by the
/// wire-fuzz harness, which asserts total classification (never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// List exceeds its wire bound (vote list > `max_votes_per_msg`,
    /// moderation list > `max_list`, top-K > `k`, view > `view_size`).
    ListTooLong,
    /// The same key (moderator, moderation id, edge, peer) appears twice
    /// in one message — duplicate-entry stuffing.
    DuplicateEntry,
    /// A timestamp lies further in the future than the allowed skew.
    FutureTimestamp,
    /// A timestamp fell out of the configured replay window.
    StaleTimestamp,
    /// A signature check failed against the claimed signer.
    BadSignature,
    /// A node/moderator id outside the known population (plus slack for
    /// external moderators).
    InvalidNode,
    /// A record whose two endpoints are the same node (self-barter).
    SelfReference,
    /// A BarterCast record not incident to the peer reporting it —
    /// second-hand hearsay forwarded as first-hand.
    HearsayRecord,
    /// A numeric field inflated past its sanity bound (e.g. claimed KiB
    /// transferred).
    Oversized,
    /// The bytes did not decode as the claimed message at all.
    Malformed,
    /// The sender's token bucket for this message class was empty.
    RateLimited,
    /// The sender is currently quarantined.
    Quarantined,
    /// The receiver's bounded inbox was full (fixed drop-newest policy).
    InboxOverflow,
}

impl RejectReason {
    /// Stable lowercase name (matches the telemetry counter suffix).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::ListTooLong => "list_too_long",
            RejectReason::DuplicateEntry => "duplicate_entry",
            RejectReason::FutureTimestamp => "future_timestamp",
            RejectReason::StaleTimestamp => "stale_timestamp",
            RejectReason::BadSignature => "bad_signature",
            RejectReason::InvalidNode => "invalid_node",
            RejectReason::SelfReference => "self_reference",
            RejectReason::HearsayRecord => "hearsay_record",
            RejectReason::Oversized => "oversized",
            RejectReason::Malformed => "malformed",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::Quarantined => "quarantined",
            RejectReason::InboxOverflow => "inbox_overflow",
        }
    }

    /// Does this rejection count as an *offense* by the sender (a strike
    /// toward quarantine)? Being quarantined or hitting a full inbox is a
    /// consequence of receiver state, not new evidence of misbehaviour.
    pub fn is_offense(self) -> bool {
        !matches!(
            self,
            RejectReason::Quarantined | RejectReason::InboxOverflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, c) in MessageClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(MessageClass::ALL.len(), MessageClass::COUNT);
    }

    #[test]
    fn offense_classification() {
        assert!(RejectReason::BadSignature.is_offense());
        assert!(RejectReason::RateLimited.is_offense());
        assert!(!RejectReason::Quarantined.is_offense());
        assert!(!RejectReason::InboxOverflow.is_offense());
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<&str> = [
            RejectReason::ListTooLong,
            RejectReason::DuplicateEntry,
            RejectReason::FutureTimestamp,
            RejectReason::StaleTimestamp,
            RejectReason::BadSignature,
            RejectReason::InvalidNode,
            RejectReason::SelfReference,
            RejectReason::HearsayRecord,
            RejectReason::Oversized,
            RejectReason::Malformed,
            RejectReason::RateLimited,
            RejectReason::Quarantined,
            RejectReason::InboxOverflow,
        ]
        .iter()
        .map(|r| r.as_str())
        .collect();
        assert_eq!(names.len(), 13);
    }
}
