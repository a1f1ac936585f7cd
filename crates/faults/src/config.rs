//! Link-level fault parameters.

use rvs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the fault plane's per-message fate model. The default is
/// fully inert: zero latency, no loss, no duplication, no retry machinery —
/// a system built with it behaves exactly like one with no fault plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultConfig {
    /// Mean one-way delivery latency in milliseconds. `0` delivers
    /// synchronously (the legacy inline path).
    pub base_latency_ms: u64,
    /// Latency jitter spread in `[0, 1]`: each delivery draws a latency
    /// uniform in `base · [1 − spread, 1 + spread]`. With `spread = 1.0`
    /// latencies range up to 2× the mean — enough for messages sent in one
    /// gossip round to overtake each other.
    pub jitter_spread: f64,
    /// Independent (Bernoulli) loss probability per send. The legacy
    /// `ProtocolConfig::message_loss` knob routes here.
    pub loss: f64,
    /// Probability that a delivered message spawns one duplicate copy
    /// (with its own latency draw). Receivers must dedup by message id.
    pub duplicate: f64,
    /// Gilbert–Elliott burst loss, when modelled.
    pub burst: Option<BurstLoss>,
    /// Retry/backoff machinery, when enabled. `None` (default) keeps the
    /// protocols retry-free, exactly as before this plane existed.
    pub retry: Option<RetryConfig>,
}

impl FaultConfig {
    /// True when every fault feature is off and no latency is modelled.
    pub fn is_inert(&self) -> bool {
        self.base_latency_ms == 0
            && self.loss == 0.0
            && self.duplicate == 0.0
            && self.burst.is_none()
            && self.retry.is_none()
    }
}

/// Gilbert–Elliott two-state burst-loss channel: transitions happen once
/// per send decision, so burst lengths are measured in messages, matching
/// how gossip traffic experiences an outage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstLoss {
    /// P(good → bad) per send decision.
    pub p_enter_bad: f64,
    /// P(bad → good) per send decision.
    pub p_exit_bad: f64,
    /// Loss probability while the channel is in the good state.
    pub loss_good: f64,
    /// Loss probability while the channel is in the bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// A channel whose long-run loss fraction is approximately `overall`
    /// (bad state loses everything, good state nothing), with mean burst
    /// length `burst_len` messages.
    pub fn with_overall_loss(overall: f64, burst_len: f64) -> BurstLoss {
        let overall = overall.clamp(0.0, 0.95);
        let burst_len = burst_len.max(1.0);
        let p_exit_bad = 1.0 / burst_len;
        // Stationary P(bad) = p_enter / (p_enter + p_exit) = overall.
        let p_enter_bad = if overall >= 1.0 {
            1.0
        } else {
            p_exit_bad * overall / (1.0 - overall)
        };
        BurstLoss {
            p_enter_bad: p_enter_bad.clamp(0.0, 1.0),
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Long-run fraction of send decisions spent in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_enter_bad / denom
        }
    }
}

/// Retry/backoff parameters, shared by encounter resends and VoxPopuli
/// bootstrap requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Maximum send attempts per logical message (initial send included).
    /// Exceeding it abandons the message and counts a `backoff_gaveups`.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per subsequent attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on any backoff delay (and the cooldown applied after a
    /// give-up, so a bootstrapping node is never wedged forever).
    pub backoff_cap: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            backoff_base: SimDuration::from_secs(30),
            backoff_cap: SimDuration::from_mins(8),
        }
    }
}

impl RetryConfig {
    /// Capped exponential delay before attempt number `attempt` (attempts
    /// count from 1 = initial send; the first retry is attempt 2).
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(2).min(32);
        let ms = self
            .backoff_base
            .as_millis()
            .saturating_mul(1u64 << doublings);
        SimDuration::from_millis(ms.min(self.backoff_cap.as_millis()))
    }
}

rvs_checkpoint::persist_struct!(FaultConfig {
    base_latency_ms,
    jitter_spread,
    loss,
    duplicate,
    burst,
    retry
});

rvs_checkpoint::persist_struct!(BurstLoss {
    p_enter_bad,
    p_exit_bad,
    loss_good,
    loss_bad
});

rvs_checkpoint::persist_struct!(RetryConfig {
    max_attempts,
    backoff_base,
    backoff_cap
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        assert!(FaultConfig::default().is_inert());
        let lossy = FaultConfig {
            loss: 0.1,
            ..FaultConfig::default()
        };
        assert!(!lossy.is_inert());
    }

    #[test]
    fn burst_stationary_matches_requested_overall_loss() {
        let b = BurstLoss::with_overall_loss(0.3, 8.0);
        assert!((b.stationary_bad() - 0.3).abs() < 1e-9);
        assert_eq!(b.loss_bad, 1.0);
        assert_eq!(b.loss_good, 0.0);
    }

    #[test]
    fn backoff_delays_double_then_cap() {
        let rc = RetryConfig {
            max_attempts: 6,
            backoff_base: SimDuration::from_secs(30),
            backoff_cap: SimDuration::from_secs(100),
        };
        assert_eq!(rc.backoff_delay(2), SimDuration::from_secs(30));
        assert_eq!(rc.backoff_delay(3), SimDuration::from_secs(60));
        // 120 s exceeds the cap.
        assert_eq!(rc.backoff_delay(4), SimDuration::from_secs(100));
        assert_eq!(rc.backoff_delay(60), SimDuration::from_secs(100));
    }

    #[test]
    fn config_json_roundtrips() {
        let cfg = FaultConfig {
            base_latency_ms: 500,
            jitter_spread: 1.0,
            loss: 0.05,
            duplicate: 0.05,
            burst: Some(BurstLoss::with_overall_loss(0.3, 10.0)),
            retry: Some(RetryConfig::default()),
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: FaultConfig = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, cfg);
    }
}
