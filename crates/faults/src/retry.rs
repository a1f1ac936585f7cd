//! Capped exponential backoff state for protocol-level retries.

use crate::config::RetryConfig;
use rvs_sim::SimTime;

/// What a failed attempt means for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffDecision {
    /// Retry is allowed once `Backoff::ready` next returns true.
    Retry,
    /// The attempt budget is exhausted; the message (or bootstrap round) is
    /// abandoned and the backoff resets with a cooldown of `backoff_cap` so
    /// the caller can try again later rather than wedging forever.
    GaveUp,
}

/// Per-actor backoff state: how many attempts the current round has used
/// and the earliest time the next attempt may go out.
///
/// Attempts count from 1 (the initial send); `on_failure` after attempt
/// `max_attempts` reports [`BackoffDecision::GaveUp`] and starts a fresh
/// round after a cap-length cooldown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backoff {
    attempts: u32,
    next_allowed: SimTime,
}

impl Backoff {
    /// Fresh state: an attempt is allowed immediately.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// True when the next attempt may be sent at `now`.
    pub fn ready(&self, now: SimTime) -> bool {
        now >= self.next_allowed
    }

    /// Attempts used in the current round (0 = none yet).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Record that an attempt went out at `now`; the next one is gated by
    /// the capped exponential delay for the following attempt number.
    pub fn on_attempt(&mut self, now: SimTime, cfg: &RetryConfig) {
        self.attempts = self.attempts.saturating_add(1);
        self.next_allowed = now.saturating_add(cfg.backoff_delay(self.attempts + 1));
    }

    /// Record that the current round succeeded: state resets so the next
    /// round (if ever needed) starts immediately.
    pub fn on_success(&mut self) {
        *self = Backoff::default();
    }

    /// Record that the in-flight attempt failed. Returns whether the caller
    /// should keep retrying (after the already-scheduled delay) or has
    /// exhausted the round; in the latter case the state resets with a
    /// cap-length cooldown from `now`.
    pub fn on_failure(&mut self, now: SimTime, cfg: &RetryConfig) -> BackoffDecision {
        if self.attempts >= cfg.max_attempts {
            self.attempts = 0;
            self.next_allowed = now.saturating_add(cfg.backoff_cap);
            BackoffDecision::GaveUp
        } else {
            BackoffDecision::Retry
        }
    }
}

rvs_checkpoint::persist_struct!(Backoff {
    attempts,
    next_allowed
});

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::SimDuration;

    fn cfg() -> RetryConfig {
        RetryConfig {
            max_attempts: 3,
            backoff_base: SimDuration::from_secs(30),
            backoff_cap: SimDuration::from_mins(8),
        }
    }

    #[test]
    fn ready_immediately_then_gated_by_growing_delay() {
        let cfg = cfg();
        let mut b = Backoff::new();
        let t0 = SimTime::from_secs(100);
        assert!(b.ready(t0));
        b.on_attempt(t0, &cfg);
        // Attempt 2 is gated by backoff_delay(2) = 30 s.
        assert!(!b.ready(t0.saturating_add(SimDuration::from_secs(29))));
        let t1 = t0.saturating_add(SimDuration::from_secs(30));
        assert!(b.ready(t1));
        b.on_attempt(t1, &cfg);
        // Attempt 3 is gated by backoff_delay(3) = 60 s.
        assert!(!b.ready(t1.saturating_add(SimDuration::from_secs(59))));
        assert!(b.ready(t1.saturating_add(SimDuration::from_secs(60))));
    }

    #[test]
    fn gives_up_after_budget_and_cools_down() {
        let cfg = cfg();
        let mut b = Backoff::new();
        let mut now = SimTime::from_secs(0);
        for _ in 0..cfg.max_attempts {
            b.on_attempt(now, &cfg);
            now = now.saturating_add(SimDuration::from_mins(10));
        }
        assert_eq!(b.on_failure(now, &cfg), BackoffDecision::GaveUp);
        // Cooldown: not ready until a full cap elapses.
        assert!(!b.ready(now.saturating_add(SimDuration::from_mins(7))));
        assert!(b.ready(now.saturating_add(SimDuration::from_mins(8))));
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    fn failure_before_budget_keeps_retrying_and_success_resets() {
        let cfg = cfg();
        let mut b = Backoff::new();
        let now = SimTime::from_secs(50);
        b.on_attempt(now, &cfg);
        assert_eq!(b.on_failure(now, &cfg), BackoffDecision::Retry);
        assert_eq!(b.attempts(), 1);
        b.on_success();
        assert_eq!(b, Backoff::new());
        assert!(b.ready(now));
    }
}
