//! Deterministic tuning for the guard plane.
//!
//! Every knob is an integer or a [`SimDuration`] — the guard draws no
//! randomness and does no floating-point arithmetic, so two runs with the
//! same config and seed are byte-identical regardless of thread count.
//! The default config is *inert* (`enabled == false`): the governor
//! admits everything and existing scenarios replay byte-for-byte. Only
//! the `seen_window` bound is always in force — it caps receiver dedup
//! state whether or not the rest of the guard is armed, and its default
//! matches the engine's historical hard-coded window.

use rvs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Guard-plane configuration: validation windows, per-class token
/// buckets, bounded inboxes, and quarantine thresholds.
///
/// JSON-loadable for `rvs run --guard FILE.json`; a config file names
/// every knob (start from the JSON of [`GuardConfig::active`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct GuardConfig {
    /// Master switch. `false` (default) means the governor admits every
    /// message and takes no strikes — the plane is invisible except for
    /// the always-on `seen_window` bound.
    pub enabled: bool,
    /// Token-bucket capacity per `(peer, message class)` — the burst a
    /// peer may send on one surface before refills matter.
    pub bucket_capacity: u32,
    /// Tokens refilled per gossip round per `(peer, class)` bucket,
    /// saturating at `bucket_capacity`. LOCKSS-style rate limiting: the
    /// sustained per-round budget of any single peer.
    pub bucket_refill: u32,
    /// Bounded-inbox cap: in-flight deliveries a receiver will queue.
    /// Excess sends are dropped newest-first (a fixed, deterministic
    /// policy) and counted as `inbox_dropped`.
    pub inbox_cap: u32,
    /// Strikes (offense rejections) that trigger quarantine.
    pub strike_threshold: u32,
    /// Strikes forgiven per gossip round — honest peers whose occasional
    /// message is damaged in flight decay back to zero instead of
    /// accumulating toward quarantine.
    pub strike_decay: u32,
    /// First quarantine duration; doubles on each repeat offense.
    pub quarantine_base: SimDuration,
    /// Ceiling on the doubling quarantine duration.
    pub quarantine_cap: SimDuration,
    /// How far in the future a message timestamp may lie before it is
    /// rejected as `FutureTimestamp`. The simulation has no clock skew,
    /// so zero is exact for honest traffic.
    pub max_timestamp_skew: SimDuration,
    /// Replay window: a vote made more than this long ago is rejected as
    /// `StaleTimestamp`. Zero disables the check (honest vote lists
    /// legitimately carry old votes).
    pub replay_window: SimDuration,
    /// Sanity bound on a single BarterCast record's claimed KiB.
    pub max_record_kib: u64,
    /// Node/moderator ids up to `population + id_slack` are accepted —
    /// external moderators (crowd spam targets) live just past the trace
    /// population, and the slack keeps them addressable.
    pub id_slack: u32,
    /// Cap on the per-receiver seen-message-id dedup window (deterministic
    /// oldest-first eviction). Always in force; the default matches the
    /// engine's historical hard-coded window of 512.
    pub seen_window: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: false,
            bucket_capacity: 8,
            bucket_refill: 4,
            inbox_cap: 64,
            strike_threshold: 8,
            strike_decay: 2,
            quarantine_base: SimDuration::from_mins(30),
            quarantine_cap: SimDuration::from_hours(4),
            max_timestamp_skew: SimDuration::ZERO,
            replay_window: SimDuration::ZERO,
            max_record_kib: 1 << 40,
            id_slack: 16,
            seen_window: 512,
        }
    }
}

impl GuardConfig {
    /// The armed preset used by `rvs run --guard on` and the byzantine
    /// chaos scenarios: defaults with the master switch thrown.
    pub fn active() -> Self {
        GuardConfig {
            enabled: true,
            ..GuardConfig::default()
        }
    }

    /// True when the governor changes nothing observable: the master
    /// switch is off. (The `seen_window` bound still applies — at its
    /// default it reproduces the engine's historical behaviour exactly.)
    pub fn is_inert(&self) -> bool {
        !self.enabled
    }

    /// Quarantine duration for a peer offending for the
    /// `level`-th time (0-based): `base · 2^level`, capped.
    pub fn quarantine_duration(&self, level: u32) -> SimDuration {
        let doublings = level.min(16);
        let dur = self.quarantine_base.saturating_mul(1u64 << doublings);
        if dur > self.quarantine_cap {
            self.quarantine_cap
        } else {
            dur
        }
    }
}

rvs_checkpoint::persist_struct!(GuardConfig {
    enabled,
    bucket_capacity,
    bucket_refill,
    inbox_cap,
    strike_threshold,
    strike_decay,
    quarantine_base,
    quarantine_cap,
    max_timestamp_skew,
    replay_window,
    max_record_kib,
    id_slack,
    seen_window
});

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_checkpoint::{Decoder, Encoder, Persist};

    #[test]
    fn default_is_inert_active_is_not() {
        assert!(GuardConfig::default().is_inert());
        assert!(!GuardConfig::active().is_inert());
        assert_eq!(GuardConfig::default().seen_window, 512);
    }

    #[test]
    fn quarantine_doubles_then_caps() {
        let cfg = GuardConfig::default();
        assert_eq!(cfg.quarantine_duration(0), SimDuration::from_mins(30));
        assert_eq!(cfg.quarantine_duration(1), SimDuration::from_hours(1));
        assert_eq!(cfg.quarantine_duration(2), SimDuration::from_hours(2));
        assert_eq!(cfg.quarantine_duration(3), SimDuration::from_hours(4));
        // Past the cap, and far past any sane level, it stays pinned.
        assert_eq!(cfg.quarantine_duration(4), SimDuration::from_hours(4));
        assert_eq!(cfg.quarantine_duration(u32::MAX), cfg.quarantine_cap);
    }

    #[test]
    fn json_roundtrip() {
        let cfg = GuardConfig::active();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GuardConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // A config file missing a knob is a typed error, not a guess.
        assert!(serde_json::from_str::<GuardConfig>(r#"{"enabled": true}"#).is_err());
    }

    #[test]
    fn persist_roundtrip() {
        let cfg = GuardConfig {
            enabled: true,
            bucket_capacity: 7,
            bucket_refill: 3,
            inbox_cap: 9,
            strike_threshold: 5,
            strike_decay: 1,
            quarantine_base: SimDuration::from_secs(90),
            quarantine_cap: SimDuration::from_hours(2),
            max_timestamp_skew: SimDuration::from_secs(5),
            replay_window: SimDuration::from_days(7),
            max_record_kib: 12345,
            id_slack: 4,
            seen_window: 64,
        };
        let mut enc = Encoder::new();
        cfg.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = GuardConfig::restore(&mut dec).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(dec.remaining(), 0);
    }
}
