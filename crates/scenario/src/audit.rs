//! Runtime invariant auditing.
//!
//! An [`Auditor`] rides along inside [`crate::System`] (opt-in via
//! [`crate::System::enable_audit`]) and re-checks, after every encounter
//! and every gossip round, the invariants the protocol stack promises:
//!
//! * **Conservation** — every gossip initiation is accounted for exactly
//!   once: `attempted == delivered + dropped_no_sample +
//!   dropped_offline_target + dropped_self_target + dropped_message_loss +
//!   dropped_burst + partitioned + dropped_expired + inbox_dropped +
//!   in-flight`, the last five terms the fault plane's and the guard's
//!   (all zero with an inert plane and an unarmed guard).
//! * **Ballot bound** — no ballot box ever samples more than `B_max`
//!   unique voters.
//! * **Experience gating** — a sender that fails the receiver's experience
//!   function never *adds* votes to that receiver's ballot (under
//!   revalidation its earlier votes must be shed entirely).
//! * **VoxPopuli honesty** — a node that is itself bootstrapping never
//!   serves a top-K response.
//!
//! Violations are collected as human-readable strings rather than panicking
//! in place, so a failing run can report every breach at once; the
//! integration tests assert that the list stays empty.

/// Collects invariant violations observed while a [`crate::System`] runs.
#[derive(Debug, Default)]
pub struct Auditor {
    violations: Vec<String>,
    checks: u64,
}

/// Cap on stored violation messages — a systemic breach would otherwise
/// allocate without bound over a long run. The count keeps incrementing.
const MAX_RECORDED: usize = 64;

impl Auditor {
    /// A fresh auditor with no observations.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Every violation message recorded so far (capped at 64 entries).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total number of individual invariant checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// True when no invariant has been breached.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record one check; `msg` is only rendered when the check fails.
    pub(crate) fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.violations.len() < MAX_RECORDED {
            self.violations.push(msg());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_checks_record_nothing() {
        let mut a = Auditor::new();
        a.check(true, || unreachable!("message must not be rendered"));
        assert!(a.is_clean());
        assert_eq!(a.checks(), 1);
    }

    #[test]
    fn failing_checks_are_reported() {
        let mut a = Auditor::new();
        a.check(false, || "boom".to_string());
        assert!(!a.is_clean());
        assert_eq!(a.violations(), ["boom".to_string()]);
    }

    #[test]
    fn recorded_violations_are_capped() {
        let mut a = Auditor::new();
        for k in 0..1000 {
            a.check(false, || format!("v{k}"));
        }
        assert_eq!(a.violations().len(), MAX_RECORDED);
        assert_eq!(a.checks(), 1000);
    }
}
