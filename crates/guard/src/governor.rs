//! The per-peer rate/budget governor: token buckets, strike accounting,
//! and capped-doubling quarantine.
//!
//! One [`PeerGuard`] exists per population member; the [`Governor`] owns
//! the vector plus the guard-plane counters. All mutation happens on the
//! serial send/encounter path of the round engine — the governor is
//! never touched from pool workers — so its state evolution is
//! independent of thread count by construction.
//!
//! Determinism contract: the governor draws no randomness, reads no wall
//! clock, and iterates peers in index order. Its full state is
//! `Persist`-covered (checkpoints restore quarantines mid-sentence);
//! `crash_reset` wipes a single peer's record, modelling guard state as
//! volatile — a rebooted node starts with a clean slate.

use crate::config::GuardConfig;
use crate::reason::{MessageClass, RejectReason};
use rvs_sim::{NodeId, SimTime};
use rvs_telemetry::GuardCounters;

/// Per-peer guard state: one token bucket per message class, the strike
/// count, and any active quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerGuard {
    /// Remaining tokens per message class (indexed by
    /// [`MessageClass::index`]).
    tokens: [u32; MessageClass::COUNT],
    /// Offense strikes accumulated since the last decay/quarantine.
    strikes: u32,
    /// When the active quarantine ends, if one is active.
    quarantine_until: Option<SimTime>,
    /// How many times this peer has been quarantined (drives the capped
    /// doubling of successive quarantine durations). Survives release so
    /// repeat offenders sit out longer; wiped only by crash-reset.
    quarantine_level: u32,
}

impl PeerGuard {
    /// A fresh record: full buckets, no strikes, no quarantine.
    fn fresh(cfg: &GuardConfig) -> Self {
        PeerGuard {
            tokens: [cfg.bucket_capacity; MessageClass::COUNT],
            strikes: 0,
            quarantine_until: None,
            quarantine_level: 0,
        }
    }

    /// Is this peer quarantined at `now`?
    pub fn is_quarantined(&self, now: SimTime) -> bool {
        match self.quarantine_until {
            Some(until) => now < until,
            None => false,
        }
    }

    /// Remaining tokens for `class`.
    pub fn tokens(&self, class: MessageClass) -> u32 {
        self.tokens[class.index()]
    }

    /// Current strike count.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// Times this peer has entered quarantine.
    pub fn quarantine_level(&self) -> u32 {
        self.quarantine_level
    }
}

rvs_checkpoint::persist_struct!(PeerGuard {
    tokens,
    strikes,
    quarantine_until,
    quarantine_level
});

/// The population-wide rate/budget governor.
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: GuardConfig,
    peers: Vec<PeerGuard>,
    counters: GuardCounters,
}

impl Governor {
    /// A governor over `n` peers, every record fresh.
    pub fn new(n: usize, cfg: GuardConfig) -> Self {
        Governor {
            peers: vec![PeerGuard::fresh(&cfg); n],
            cfg,
            counters: GuardCounters::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Replace the configuration and re-arm every peer record (buckets
    /// refilled to the new capacity, strikes and quarantines cleared).
    /// Call before the run starts, never mid-round.
    pub fn set_config(&mut self, cfg: GuardConfig) {
        self.cfg = cfg;
        for p in &mut self.peers {
            *p = PeerGuard::fresh(&self.cfg);
        }
    }

    /// Is the plane armed?
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True for an empty population.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Guard-plane counters (rejections by reason, quarantine gauges).
    pub fn counters(&self) -> &GuardCounters {
        &self.counters
    }

    /// Mutable counters, for the engine's inbox/attack accounting.
    pub fn counters_mut(&mut self) -> &mut GuardCounters {
        &mut self.counters
    }

    /// Per-peer record (read-only; tests and audits).
    pub fn peer(&self, peer: NodeId) -> &PeerGuard {
        &self.peers[peer.index()]
    }

    /// Start-of-round housekeeping: refill token buckets (saturating at
    /// capacity), decay strikes, and release quarantines that have
    /// served their time. Returns the peers released *this* round, in
    /// index order — the engine re-validates their previously accepted
    /// state on release. No-op (empty vec) while the plane is disabled.
    pub fn on_round(&mut self, now: SimTime) -> Vec<NodeId> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let mut released = Vec::new();
        for (idx, p) in self.peers.iter_mut().enumerate() {
            if let Some(until) = p.quarantine_until {
                if now < until {
                    self.counters.quarantine_rounds += 1;
                    continue;
                }
                // Served: clean slate except the level, which drives the
                // doubling of the next quarantine.
                p.quarantine_until = None;
                p.strikes = 0;
                p.tokens = [self.cfg.bucket_capacity; MessageClass::COUNT];
                self.counters.quarantines_released += 1;
                released.push(NodeId::from_index(idx));
                continue;
            }
            for t in &mut p.tokens {
                *t = t
                    .saturating_add(self.cfg.bucket_refill)
                    .min(self.cfg.bucket_capacity);
            }
            p.strikes = p.strikes.saturating_sub(self.cfg.strike_decay);
        }
        released
    }

    /// Is `peer` quarantined at `now`? Always false while disabled.
    pub fn is_quarantined(&self, peer: NodeId, now: SimTime) -> bool {
        self.cfg.enabled && self.peers[peer.index()].is_quarantined(now)
    }

    /// Peers currently quarantined (the `quarantined_now` gauge).
    pub fn quarantined_count(&self, now: SimTime) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        self.peers.iter().filter(|p| p.is_quarantined(now)).count() as u64
    }

    /// Admission control for one message from `sender` on `class`:
    /// quarantine check, then token spend. `Ok(())` admits the message
    /// to validation; the caller records acceptance or rejection
    /// afterwards. Always admits while disabled.
    pub fn admit(
        &mut self,
        sender: NodeId,
        class: MessageClass,
        now: SimTime,
    ) -> Result<(), RejectReason> {
        if !self.cfg.enabled {
            return Ok(());
        }
        let p = &mut self.peers[sender.index()];
        if p.is_quarantined(now) {
            return Err(RejectReason::Quarantined);
        }
        let t = &mut p.tokens[class.index()];
        if *t == 0 {
            return Err(RejectReason::RateLimited);
        }
        *t -= 1;
        Ok(())
    }

    /// Count one accepted message.
    pub fn note_accepted(&mut self) {
        self.counters.accepted += 1;
    }

    /// Attribute one rejection of a message from `sender` to `reason`:
    /// bump the per-reason counter and, for offenses, take a strike
    /// (which may trip quarantine). No-op while disabled — the engine
    /// never rejects when the plane is down.
    pub fn note_rejection(&mut self, sender: NodeId, reason: RejectReason, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        let c = &mut self.counters;
        match reason {
            RejectReason::ListTooLong => c.rejected_list_too_long += 1,
            RejectReason::DuplicateEntry => c.rejected_duplicate_entry += 1,
            RejectReason::FutureTimestamp => c.rejected_future_timestamp += 1,
            RejectReason::StaleTimestamp => c.rejected_stale_timestamp += 1,
            RejectReason::BadSignature => c.rejected_bad_signature += 1,
            RejectReason::InvalidNode => c.rejected_invalid_node += 1,
            RejectReason::SelfReference => c.rejected_self_reference += 1,
            RejectReason::HearsayRecord => c.rejected_hearsay_record += 1,
            RejectReason::Oversized => c.rejected_oversized += 1,
            RejectReason::Malformed => c.rejected_malformed += 1,
            RejectReason::RateLimited => c.rejected_rate_limited += 1,
            RejectReason::Quarantined => c.rejected_quarantined += 1,
            RejectReason::InboxOverflow => c.inbox_dropped += 1,
        }
        if reason.is_offense() {
            self.strike(sender, now);
        }
    }

    /// One strike against `sender`; at the threshold the peer enters
    /// quarantine for `quarantine_duration(level)` and the level rises.
    fn strike(&mut self, sender: NodeId, now: SimTime) {
        self.counters.strikes += 1;
        let threshold = self.cfg.strike_threshold;
        let p = &mut self.peers[sender.index()];
        p.strikes = p.strikes.saturating_add(1);
        if p.strikes >= threshold {
            let dur = self.cfg.quarantine_duration(p.quarantine_level);
            p.quarantine_until = Some(now.saturating_add(dur));
            p.quarantine_level = p.quarantine_level.saturating_add(1);
            p.strikes = 0;
            self.counters.quarantines_started += 1;
        }
    }

    /// Crash-restart semantics: guard state is volatile, so a rebooted
    /// `peer` gets a completely fresh record (level included).
    pub fn crash_reset(&mut self, peer: NodeId) {
        self.peers[peer.index()] = PeerGuard::fresh(&self.cfg);
    }
}

rvs_checkpoint::persist_struct!(Governor {
    cfg,
    peers,
    counters
});

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_checkpoint::{Decoder, Encoder, Persist};
    use rvs_sim::SimDuration;

    fn armed(n: usize) -> Governor {
        Governor::new(n, GuardConfig::active())
    }

    #[test]
    fn disabled_governor_admits_everything() {
        let mut g = Governor::new(2, GuardConfig::default());
        for _ in 0..1000 {
            assert_eq!(
                g.admit(NodeId(0), MessageClass::VoteList, SimTime::ZERO),
                Ok(())
            );
        }
        assert!(!g.is_quarantined(NodeId(0), SimTime::ZERO));
        assert!(g.on_round(SimTime::ZERO).is_empty());
        g.note_rejection(NodeId(0), RejectReason::BadSignature, SimTime::ZERO);
        assert_eq!(g.counters().total(), 0);
    }

    #[test]
    fn bucket_drains_and_refills_to_capacity() {
        let mut g = armed(1);
        let cap = g.config().bucket_capacity;
        let now = SimTime::ZERO;
        for _ in 0..cap {
            assert_eq!(g.admit(NodeId(0), MessageClass::VoteList, now), Ok(()));
        }
        assert_eq!(
            g.admit(NodeId(0), MessageClass::VoteList, now),
            Err(RejectReason::RateLimited)
        );
        // Other classes keep their own budget.
        assert_eq!(g.admit(NodeId(0), MessageClass::TopK, now), Ok(()));
        // One round refills `bucket_refill`, many rounds saturate at cap.
        g.on_round(now);
        assert_eq!(
            g.peer(NodeId(0)).tokens(MessageClass::VoteList),
            g.config().bucket_refill
        );
        for _ in 0..10 {
            g.on_round(now);
        }
        assert_eq!(g.peer(NodeId(0)).tokens(MessageClass::VoteList), cap);
    }

    #[test]
    fn strikes_trip_quarantine_and_double() {
        let mut g = armed(2);
        let now = SimTime::from_hours(1);
        let threshold = g.config().strike_threshold;
        for _ in 0..threshold {
            g.note_rejection(NodeId(1), RejectReason::BadSignature, now);
        }
        assert!(g.is_quarantined(NodeId(1), now));
        assert_eq!(g.counters().quarantines_started, 1);
        assert_eq!(g.quarantined_count(now), 1);
        assert!(!g.is_quarantined(NodeId(0), now));
        // Still quarantined just before the base duration elapses...
        let base = g.config().quarantine_base;
        let almost = now.saturating_add(base - SimDuration::from_millis(1));
        assert!(g.is_quarantined(NodeId(1), almost));
        assert!(g.on_round(almost).is_empty());
        // ...and released exactly at it, with full buckets.
        let due = now.saturating_add(base);
        assert_eq!(g.on_round(due), vec![NodeId(1)]);
        assert_eq!(g.counters().quarantines_released, 1);
        assert!(!g.is_quarantined(NodeId(1), due));
        assert_eq!(
            g.peer(NodeId(1)).tokens(MessageClass::BarterRecords),
            g.config().bucket_capacity
        );
        // A repeat offense quarantines for twice as long.
        for _ in 0..threshold {
            g.note_rejection(NodeId(1), RejectReason::ListTooLong, due);
        }
        let almost_doubled =
            due.saturating_add(base.saturating_mul(2) - SimDuration::from_millis(1));
        assert!(g.is_quarantined(NodeId(1), almost_doubled));
        let doubled = due.saturating_add(base.saturating_mul(2));
        assert!(!g.on_round(doubled).is_empty());
    }

    #[test]
    fn strike_decay_forgives_honest_peers() {
        let mut g = armed(1);
        let now = SimTime::ZERO;
        // One offense per round never reaches the threshold of 8 while
        // decay removes 2 per round.
        for _ in 0..50 {
            g.note_rejection(NodeId(0), RejectReason::DuplicateEntry, now);
            g.on_round(now);
        }
        assert!(!g.is_quarantined(NodeId(0), now));
        assert_eq!(g.counters().quarantines_started, 0);
    }

    #[test]
    fn non_offense_rejections_never_strike() {
        let mut g = armed(1);
        let now = SimTime::ZERO;
        for _ in 0..100 {
            g.note_rejection(NodeId(0), RejectReason::Quarantined, now);
            g.note_rejection(NodeId(0), RejectReason::InboxOverflow, now);
        }
        assert_eq!(g.counters().strikes, 0);
        assert!(!g.is_quarantined(NodeId(0), now));
        assert_eq!(g.counters().rejected_quarantined, 100);
        assert_eq!(g.counters().inbox_dropped, 100);
    }

    #[test]
    fn quarantined_sender_is_refused_admission() {
        let mut g = armed(1);
        let now = SimTime::ZERO;
        for _ in 0..g.config().strike_threshold {
            g.note_rejection(NodeId(0), RejectReason::Oversized, now);
        }
        assert_eq!(
            g.admit(NodeId(0), MessageClass::Moderations, now),
            Err(RejectReason::Quarantined)
        );
    }

    #[test]
    fn crash_reset_wipes_the_record() {
        let mut g = armed(2);
        let now = SimTime::ZERO;
        for _ in 0..g.config().strike_threshold {
            g.note_rejection(NodeId(1), RejectReason::HearsayRecord, now);
        }
        assert!(g.is_quarantined(NodeId(1), now));
        g.crash_reset(NodeId(1));
        assert!(!g.is_quarantined(NodeId(1), now));
        assert_eq!(g.peer(NodeId(1)).quarantine_level(), 0);
        assert_eq!(g.peer(NodeId(1)).strikes(), 0);
    }

    #[test]
    fn persist_roundtrip_mid_quarantine() {
        let mut g = armed(3);
        let now = SimTime::from_mins(7);
        g.admit(NodeId(0), MessageClass::VoteList, now).unwrap();
        for _ in 0..g.config().strike_threshold {
            g.note_rejection(NodeId(2), RejectReason::FutureTimestamp, now);
        }
        g.note_accepted();
        let mut enc = Encoder::new();
        g.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Governor::restore(&mut dec).unwrap();
        assert_eq!(dec.remaining(), 0);
        assert_eq!(back.counters(), g.counters());
        assert_eq!(back.peer(NodeId(0)), g.peer(NodeId(0)));
        assert_eq!(back.peer(NodeId(2)), g.peer(NodeId(2)));
        assert!(back.is_quarantined(NodeId(2), now));
        // Re-encoding the restored governor is byte-identical.
        let mut enc2 = Encoder::new();
        back.persist(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        assert!(Governor::restore(&mut dec).is_err());
    }
}
