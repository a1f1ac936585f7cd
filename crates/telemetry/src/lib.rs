//! Runtime telemetry for the vote-sampling stack.
//!
//! Every protocol layer owns a small block of plain `u64` counters (one cache
//! line or less), incremented unconditionally on its hot path — an add is
//! cheaper than a well-predicted branch, so there is no "compiled out" mode
//! for counters. The only genuinely expensive instrument, wall-clock phase
//! timing ([`PhaseTimer`]), is gated behind the global [`set_enabled`] flag
//! because `Instant::now()` is a syscall-ish vDSO call that would show up in
//! tight loops.
//!
//! [`Snapshot`] aggregates every layer's counters plus phase timings into one
//! mergeable, JSON-exportable value. Merging is field-wise saturating
//! addition, which makes it associative and commutative with
//! `Snapshot::default()` as identity — the property the multi-threaded
//! experiment harness relies on (aggregate of per-run snapshots is
//! independent of thread scheduling), verified by proptests in this crate.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global enable flag (gates timers only; counters are always on)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable the expensive parts of telemetry (phase timers).
/// Counter increments are unconditional — they cost a single add.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Counter blocks, one per protocol layer, and the snapshot that holds them
// ---------------------------------------------------------------------------

/// Declares every counter block and, from the same list, [`Snapshot`]: one
/// slot per block in list order, then `phase_nanos`. A block cannot exist
/// without its slot or its fold in `Snapshot::merge`, and `merge`
/// destructures its operand with no `..`, so a field added to `Snapshot`
/// does not compile until `merge` takes it (an unused binding is a warning,
/// which CI's clippy denies).
macro_rules! counters {
    ($(
        $(#[$slot_doc:meta])*
        $slot:ident:
        $(#[$doc:meta])*
        pub struct $name:ident { $( $(#[$fdoc:meta])* pub $field:ident, )+ }
    )+) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
            pub struct $name {
                $( $(#[$fdoc])* pub $field: u64, )+
            }

            impl $name {
                /// Field-wise saturating add of `other` into `self`.
                pub fn merge_from(&mut self, other: &Self) {
                    $( self.$field = self.$field.saturating_add(other.$field); )+
                }

                /// Sum of all fields (useful for "anything happened?" checks).
                pub fn total(&self) -> u64 {
                    0u64 $( .saturating_add(self.$field) )+
                }
            }

            // Every counter, in declaration order: adding, removing or
            // reordering fields is a checkpoint format change.
            rvs_checkpoint::persist_struct!($name { $($field),+ });
        )+

        /// A point-in-time aggregate of every layer's counters plus phase timings.
        ///
        /// `merge` is field-wise saturating addition (and key-wise addition for
        /// `phases`), so it is associative and commutative, with
        /// `Snapshot::default()` as the identity — snapshots from parallel runs can
        /// be folded in any order with identical results. Phase durations are stored
        /// as integer nanoseconds for exactly that reason: floating-point addition
        /// is not associative.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Snapshot {
            $( $(#[$slot_doc])* pub $slot: $name, )+
            /// Wall-clock time per named phase, in nanoseconds.
            pub phase_nanos: BTreeMap<String, u64>,
        }

        impl Snapshot {
            /// Fold `other` into `self` (field-wise saturating addition).
            pub fn merge(&mut self, other: &Snapshot) {
                let Snapshot { $($slot,)+ phase_nanos } = other;
                $( self.$slot.merge_from($slot); )+
                for (phase, nanos) in phase_nanos {
                    let total = self.phase_nanos.entry(phase.clone()).or_insert(0);
                    *total = total.saturating_add(*nanos);
                }
            }
        }
    };
}

counters! {
    /// Encounter-layer counters.
    encounters:
    /// Encounter bookkeeping, owned by `scenario::System`. `attempted` is
    /// conserved across this block, [`FaultCounters`] and [`GuardCounters`]:
    /// every attempt is delivered, dropped for one of the four reasons here
    /// or as `dropped_burst`, `partitioned`, `dropped_expired` or
    /// `inbox_dropped`, or is still in flight. DESIGN.md states the
    /// identity (§4, "Runtime invariant auditing"); the audit at the end of
    /// `gossip_round` (`rvs-scenario`, `system/round.rs`) checks it.
    pub struct EncounterCounters {
        /// Gossip initiations by online nodes (one per node per round).
        pub attempted,
        /// Encounters that actually executed the full exchange.
        pub delivered,
        /// Initiator's peer sampler returned no candidate.
        pub dropped_no_sample,
        /// Sampled partner was offline (stale PSS view).
        pub dropped_offline_target,
        /// Sampled partner was the initiator itself.
        pub dropped_self_target,
        /// Encounter lost to the configured message-loss rate.
        pub dropped_message_loss,
    }

    /// ModerationCast counters.
    moderation:
    /// ModerationCast traffic, owned by `modcast::ModerationCast`.
    pub struct ModerationCounters {
        /// Moderations sent out during exchanges (push direction).
        pub pushed,
        /// Moderations received during exchanges (pull direction).
        pub pulled,
        /// Received moderations discarded by the local approval gate.
        pub rejected_by_gate,
        /// Signature checks performed on received moderations.
        pub signature_verifies,
        /// Signature checks that failed (forged/corrupt moderations).
        pub signature_failures,
    }

    /// Vote-sampling counters.
    votes:
    /// Vote-list handling and ballot-box maintenance, owned by
    /// `core::VoteSampling`.
    pub struct VoteCounters {
        /// Vote lists accepted from experienced peers and merged.
        pub lists_accepted,
        /// Vote lists refused because the sender looked inexperienced.
        pub lists_rejected_inexperienced,
        /// Individual votes written into ballot boxes.
        pub votes_merged,
        /// Ballot-box entries evicted to respect `B_max`.
        pub ballot_evictions,
    }

    /// VoxPopuli counters.
    voxpopuli:
    /// VoxPopuli bootstrap traffic, owned by `core::VoteSampling`.
    pub struct VoxPopuliCounters {
        /// Top-k requests issued by bootstrapping nodes.
        pub requests,
        /// Non-empty top-k responses served.
        pub responses,
        /// Requests declined because the responder was itself bootstrapping.
        pub declines_bootstrapping,
    }

    /// BarterCast counters.
    barter:
    /// BarterCast / experience-function work, owned by
    /// `bartercast::BarterCast`.
    pub struct BarterCounters {
        /// Record-exchange encounters executed.
        pub exchanges,
        /// Bounded max-flow evaluations (the experience function's hot
        /// path): one per contribution query.
        pub maxflow_evaluations,
    }

    /// Peer-sampling-service counters.
    pss:
    /// Peer-sampling-service activity, owned by `pss::NewscastPss`.
    pub struct PssCounters {
        /// View exchanges completed between two online nodes.
        pub exchanges,
        /// Gossip attempts that hit an offline partner (stale view entry).
        pub failed_contacts,
    }

    /// Fault-injection-plane counters.
    faults:
    /// Fault-injection plane activity, owned by `faults::FaultPlane` (and,
    /// for the retry/crash counters, incremented by `scenario::System`).
    pub struct FaultCounters {
        /// Deliveries scheduled with a non-zero latency.
        pub delayed,
        /// Deliveries that fired after a later-sent message (id inversion).
        pub reordered,
        /// Duplicate copies spawned by the duplication fault.
        pub duplicated,
        /// Deliveries suppressed by receiver-side message-id dedup.
        pub dedup_suppressed,
        /// Sends lost while the Gilbert–Elliott channel was in (or just
        /// entered) the bad state.
        pub dropped_burst,
        /// Sends or in-flight deliveries cut by an active partition.
        pub partitioned,
        /// In-flight deliveries abandoned because an endpoint went offline.
        pub dropped_expired,
        /// Retry attempts issued (encounter resends + VoxPopuli bootstrap).
        pub retries,
        /// Retry rounds abandoned after exhausting the attempt budget.
        pub backoff_gaveups,
        /// Crash-restart faults applied (volatile protocol state wiped).
        pub crash_restarts,
    }

    /// Byzantine guard-plane counters.
    guard:
    /// Byzantine guard-plane activity, owned by `guard::Governor` (with
    /// the inbox and attack counters incremented by `scenario::System`).
    /// One `rejected_*` counter per `RejectReason` variant: every refused
    /// message is attributed to exactly one of them.
    pub struct GuardCounters {
        /// Messages that passed admission and validation.
        pub accepted,
        /// Rejections: list exceeded its wire-length bound.
        pub rejected_list_too_long,
        /// Rejections: duplicate-entry stuffing inside one message.
        pub rejected_duplicate_entry,
        /// Rejections: timestamp beyond the allowed future skew.
        pub rejected_future_timestamp,
        /// Rejections: timestamp outside the replay window.
        pub rejected_stale_timestamp,
        /// Rejections: signature check failed against the claimed signer.
        pub rejected_bad_signature,
        /// Rejections: node/moderator id outside the population (+ slack).
        pub rejected_invalid_node,
        /// Rejections: record with identical endpoints (self-barter).
        pub rejected_self_reference,
        /// Rejections: BarterCast record not incident to its reporter.
        pub rejected_hearsay_record,
        /// Rejections: numeric field past its sanity bound.
        pub rejected_oversized,
        /// Rejections: bytes that did not decode as the claimed message.
        pub rejected_malformed,
        /// Rejections: sender's per-class token bucket was empty.
        pub rejected_rate_limited,
        /// Rejections: sender was quarantined.
        pub rejected_quarantined,
        /// Primary deliveries dropped at a full bounded inbox (this term
        /// joins the encounter conservation identity).
        pub inbox_dropped,
        /// Duplicate deliveries dropped at a full bounded inbox (outside
        /// the conservation identity, like all duplicates).
        pub inbox_dropped_dup,
        /// Offense strikes taken across all peers.
        pub strikes,
        /// Quarantines entered.
        pub quarantines_started,
        /// Quarantines served and released.
        pub quarantines_released,
        /// Peer-rounds spent in quarantine (a time-integral gauge).
        pub quarantine_rounds,
        /// Released peers whose accepted votes were re-validated.
        pub release_revalidations,
        /// Ballot entries forgotten during release re-validation.
        pub release_forgets,
        /// Extra gossip initiations injected by `Flooder` adversaries.
        pub flooder_sends,
        /// Wire messages mutated by the `Malformer` adversary.
        pub malformer_mutations,
    }
}

// ---------------------------------------------------------------------------
// Shared atomic counter for `&self` hot paths
// ---------------------------------------------------------------------------

/// A relaxed atomic counter for instrumenting methods that take `&self`
/// (e.g. `BarterCast::contribution_kib`). Relaxed ordering is fine: the
/// value is only read when assembling snapshots.
#[derive(Debug, Default)]
pub struct SharedCounter(AtomicU64);

impl SharedCounter {
    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for SharedCounter {
    fn clone(&self) -> Self {
        SharedCounter(AtomicU64::new(self.get()))
    }
}

/// Stable binary encoding: the current value (a relaxed load — checkpoints
/// are only taken between rounds, when no other thread is incrementing).
impl rvs_checkpoint::Persist for SharedCounter {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.u64(self.get());
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        Ok(SharedCounter(AtomicU64::new(dec.u64()?)))
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

impl Snapshot {
    /// `a.merged(b)` without mutating either operand.
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// A copy with `phase_nanos` cleared. Counters are deterministic given
    /// a seed; wall-clock phases are not. Experiments that compare or
    /// byte-diff snapshots across runs use this projection.
    pub fn counters_only(&self) -> Snapshot {
        let mut out = self.clone();
        out.phase_nanos.clear();
        out
    }

    /// The four drops the encounter block attributes. The conservation
    /// identity also counts the fault plane's `dropped_burst`,
    /// `partitioned` and `dropped_expired`, the guard's `inbox_dropped` and
    /// the deliveries in flight: DESIGN.md §4, "Runtime invariant
    /// auditing", and the audit at the end of `gossip_round`
    /// (`rvs-scenario`, `system/round.rs`).
    pub fn total_dropped(&self) -> u64 {
        let e = &self.encounters;
        e.dropped_no_sample
            + e.dropped_offline_target
            + e.dropped_self_target
            + e.dropped_message_loss
    }

    /// Pretty JSON rendering of the snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Compact JSON rendering (stable field order; byte-comparable).
    pub fn to_json_compact(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parse a snapshot back from JSON.
    pub fn from_json(s: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(s)
    }
}

// ---------------------------------------------------------------------------
// Phase timer
// ---------------------------------------------------------------------------

/// Accumulating wall-clock timer for named phases.
///
/// `start`/`stop` are no-ops while telemetry is disabled ([`set_enabled`]),
/// so profiling can be left threaded through hot code at zero cost.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    accum: BTreeMap<String, u64>,
    current: Option<(String, Instant)>,
}

impl PhaseTimer {
    /// A timer with no banked phases and nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin timing `phase`, ending any phase currently in flight.
    pub fn start(&mut self, phase: &str) {
        if !enabled() {
            return;
        }
        self.stop();
        // rvs-lint: allow(wall-clock) -- phase timers are perf instrumentation, gated behind set_enabled and excluded from deterministic comparisons via counters_only
        self.current = Some((phase.to_string(), Instant::now()));
    }

    /// Stop the phase in flight (if any) and bank its elapsed time.
    pub fn stop(&mut self) {
        if let Some((phase, began)) = self.current.take() {
            let nanos = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let slot = self.accum.entry(phase).or_insert(0);
            *slot = slot.saturating_add(nanos);
        }
    }

    /// Time a closure under `phase` and return its result.
    pub fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        // rvs-lint: allow(wall-clock) -- perf instrumentation only; never feeds protocol state or deterministic output
        let began = Instant::now();
        let out = f();
        let nanos = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = self.accum.entry(phase.to_string()).or_insert(0);
        *slot = slot.saturating_add(nanos);
        out
    }

    /// Banked phase durations so far (does not include a phase in flight).
    pub fn phases(&self) -> &BTreeMap<String, u64> {
        &self.accum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(seed: u64) -> Snapshot {
        let mut s = Snapshot::default();
        s.encounters.attempted = seed;
        s.encounters.delivered = seed / 2;
        s.votes.votes_merged = seed * 3;
        s.phase_nanos.insert("gossip".to_string(), seed * 7);
        s
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_snapshot(10);
        a.merge(&sample_snapshot(5));
        assert_eq!(a.encounters.attempted, 15);
        assert_eq!(a.votes.votes_merged, 45);
        assert_eq!(a.phase_nanos["gossip"], 105);
    }

    #[test]
    fn identity_is_default() {
        let a = sample_snapshot(42);
        assert_eq!(a.merged(&Snapshot::default()), a);
        assert_eq!(Snapshot::default().merged(&a), a);
    }

    #[test]
    fn chunked_merge_is_shard_invariant() {
        // Per-run and per-chunk counter deltas are folded with merge_from;
        // field-wise saturating addition is associative + commutative, so
        // any chunking of the same deltas must produce the same totals.
        let deltas: Vec<EncounterCounters> = (1..=12)
            .map(|i| EncounterCounters {
                attempted: i,
                delivered: i / 2,
                dropped_message_loss: i % 3,
                ..Default::default()
            })
            .collect();
        let fold = |chunk_size: usize| {
            let mut total = EncounterCounters::default();
            for chunk in deltas.chunks(chunk_size) {
                let mut shard = EncounterCounters::default();
                for d in chunk {
                    shard.merge_from(d);
                }
                total.merge_from(&shard);
            }
            total
        };
        let serial = fold(1);
        for chunk_size in [2, 3, 4, 5, 12] {
            assert_eq!(
                fold(chunk_size),
                serial,
                "chunk size {chunk_size} changed counter totals"
            );
        }
        assert_eq!(serial.attempted, (1..=12).sum::<u64>());
    }

    #[test]
    fn json_roundtrip() {
        let a = sample_snapshot(9);
        let back = Snapshot::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let back2 = Snapshot::from_json(&a.to_json_compact()).unwrap();
        assert_eq!(back2, a);
    }

    #[test]
    fn shared_counter_counts() {
        let c = SharedCounter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.clone().get(), 5);
    }

    #[test]
    fn phase_timer_respects_enable_flag() {
        // Note: tests in this crate run in one process; restore the flag.
        set_enabled(false);
        let mut t = PhaseTimer::new();
        t.start("x");
        t.stop();
        assert!(t.phases().is_empty());
        set_enabled(true);
        let y = t.time("y", || 21 * 2);
        assert_eq!(y, 42);
        assert!(t.phases().contains_key("y"));
    }
}
