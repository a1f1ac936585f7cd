//! The message plane: every send routed through the fault plane, the
//! scheduled deliveries, resends, partitions and crash-restarts it queues,
//! and the per-node dedup windows, backoff and inbox gauges only it writes.

use super::System;
use rvs_checkpoint::DecodeError;
use rvs_faults::{Backoff, SendOutcome};
use rvs_guard::RejectReason;
use rvs_sim::{Engine, NodeId, SimDuration};
use std::collections::VecDeque;

/// Events routed through the fault-plane delivery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FaultEvent {
    /// A scheduled message delivery: the primary copy or a duplicate
    /// spawned by the duplication fault (same `id`, `primary = false`).
    Deliver {
        id: u64,
        from: NodeId,
        to: NodeId,
        attempt: u32,
        primary: bool,
    },
    /// A backoff wake-up: re-attempt a failed encounter send.
    Resend {
        from: NodeId,
        to: NodeId,
        attempt: u32,
    },
    /// Activate (cut) the partition registered at this index.
    PartitionStart(usize),
    /// Deactivate (heal) the partition registered at this index.
    PartitionHeal(usize),
    /// Crash-restart a node, wiping its volatile protocol state.
    Crash(NodeId),
}

rvs_checkpoint::persist_enum!(FaultEvent {
    Deliver { id, from, to, attempt, primary } = 0,
    Resend { from, to, attempt } = 1,
    PartitionStart(idx) = 2,
    PartitionHeal(idx) = 3,
    Crash(node) = 4,
});

/// The primary deliveries `events` holds: the in-flight term of the
/// encounter conservation identity. (Duplicate copies are outside it.)
pub(super) fn primaries(events: &Engine<FaultEvent>) -> u64 {
    let primary = |ev: &&FaultEvent| matches!(ev, FaultEvent::Deliver { primary: true, .. });
    events.pending_events().filter(primary).count() as u64
}

/// The inbox gauges a restored fault queue implies — per node, the queued
/// copies addressed to it (every schedule takes a slot, every arrival
/// frees one) — or `Corrupt` for an event naming a node past the `nodes`.
pub(super) fn inbox_gauges(
    events: &Engine<FaultEvent>,
    nodes: usize,
) -> Result<Vec<u32>, DecodeError> {
    let mut gauges = vec![0u32; nodes];
    for ev in events.pending_events() {
        let (from, to) = match *ev {
            FaultEvent::Deliver { from, to, .. } | FaultEvent::Resend { from, to, .. } => {
                (from, to)
            }
            FaultEvent::Crash(node) => (node, node),
            FaultEvent::PartitionStart(_) | FaultEvent::PartitionHeal(_) => continue,
        };
        if from.index().max(to.index()) >= nodes {
            return Err(DecodeError::Corrupt(format!(
                "queued fault event {ev:?} names a node outside the {nodes} nodes"
            )));
        }
        if let FaultEvent::Deliver { .. } = ev {
            gauges[to.index()] += 1;
        }
    }
    Ok(gauges)
}

/// Write the per-node dedup windows: a node count, then per node a
/// [varint](rvs_checkpoint::Encoder::varint) length and the ids as
/// [gaps](rvs_checkpoint::Encoder::gap), so every window restores strictly
/// ascending — what its bisection needs — by construction.
pub(super) fn persist_dedup_windows(windows: &[VecDeque<u64>], enc: &mut rvs_checkpoint::Encoder) {
    enc.usize(windows.len());
    for window in windows {
        enc.varint(window.len() as u64);
        let mut next = 0;
        window.iter().for_each(|&id| enc.gap(&mut next, id));
    }
}

/// Read what [`persist_dedup_windows`] wrote. A length the bytes left
/// cannot hold is refused before it allocates.
pub(super) fn restore_dedup_windows(
    dec: &mut rvs_checkpoint::Decoder<'_>,
) -> Result<Vec<VecDeque<u64>>, rvs_checkpoint::DecodeError> {
    use rvs_checkpoint::DecodeError::Corrupt;
    let nodes = dec.seq_len()?;
    let mut windows = Vec::with_capacity(nodes);
    for node in 0..nodes {
        let in_window = |what: String| Corrupt(format!("dedup window of node {node}: {what}"));
        // An id is at least one byte.
        let len = dec.varint()?;
        if len > dec.remaining() as u64 {
            return Err(in_window(format!(
                "{len} ids claimed with {} bytes left",
                dec.remaining()
            )));
        }
        let mut window = VecDeque::with_capacity(len as usize);
        let mut next = 0;
        for _ in 0..len {
            window.push_back(dec.gap(&mut next).map_err(|e| match e {
                Corrupt(what) => in_window(what),
                other => other,
            })?);
        }
        windows.push(window);
    }
    Ok(windows)
}

impl System {
    /// Route one send from `i` to `j` through the fault plane, which
    /// decides loss/latency/duplication on the sender's own lane: drops
    /// feed the retry path, deliveries assign the (serial, monotone)
    /// message id and either run the exchange inline or schedule it. The
    /// caller has already counted `attempted` and verified both endpoints
    /// online.
    pub(super) fn dispatch(&mut self, i: NodeId, j: NodeId, attempt: u32) {
        match self.faults.decide(i, j) {
            SendOutcome::DropIndependent => {
                // Independent loss keeps its historical home in the
                // encounter block (`message_loss` attribution).
                self.enc.dropped_message_loss += 1;
                self.maybe_retry(i, j, attempt);
            }
            // The plane attributed these drops where it decided them.
            SendOutcome::DropBurst | SendOutcome::DropPartitioned => {
                self.maybe_retry(i, j, attempt);
            }
            SendOutcome::Deliver {
                delay,
                duplicate_delay,
            } => {
                let id = self.next_msg_id;
                self.next_msg_id += 1;
                let deliver = |primary| FaultEvent::Deliver {
                    id,
                    from: i,
                    to: j,
                    attempt,
                    primary,
                };
                if let Some(extra) = duplicate_delay {
                    if !self.schedule_delivery(extra, deliver(false)) {
                        // Duplicates are outside the conservation identity,
                        // so a shed one gets its own counter.
                        self.guard.counters_mut().inbox_dropped_dup += 1;
                    }
                }
                if delay.is_zero() {
                    // Zero-latency fast path: the legacy synchronous
                    // exchange, applied inside the sending gossip round.
                    self.apply_message(id, i, j);
                    self.enc.delivered += 1;
                } else if !self.schedule_delivery(delay, deliver(true)) {
                    // The primary copy is shed before scheduling: the
                    // attempt resolves as an attributed drop (the
                    // `inbox_dropped` term of the conservation identity)
                    // and feeds the retry path like any other loss.
                    self.guard
                        .note_rejection(j, RejectReason::InboxOverflow, self.now);
                    self.maybe_retry(i, j, attempt);
                }
            }
        }
    }

    /// Queue `copy`, a [`FaultEvent::Deliver`], to fire after `delay`,
    /// taking a slot of its receiver's inbox — unless the armed guard finds
    /// the inbox full: the fixed drop policy sheds the newest arrival.
    /// Returns whether the copy was queued.
    fn schedule_delivery(&mut self, delay: SimDuration, copy: FaultEvent) -> bool {
        let FaultEvent::Deliver { to, .. } = copy else {
            unreachable!("only deliveries take an inbox slot")
        };
        if self.guard.enabled() && self.inbox_load[to.index()] >= self.guard.config().inbox_cap {
            return false;
        }
        self.inbox_load[to.index()] += 1;
        self.fault_events
            .schedule_at(self.now.saturating_add(delay), copy);
        true
    }

    pub(super) fn handle_fault_event(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::Deliver {
                id,
                from,
                to,
                attempt,
                primary,
            } => self.handle_delivery(id, from, to, attempt, primary),
            FaultEvent::Resend { from, to, attempt } => self.handle_resend(from, to, attempt),
            FaultEvent::PartitionStart(idx) => self.faults.set_partition_active(idx, true),
            FaultEvent::PartitionHeal(idx) => self.faults.set_partition_active(idx, false),
            FaultEvent::Crash(node) => self.crash_restart(node),
        }
    }

    /// A scheduled copy (primary or duplicate) of message `id` arrives.
    fn handle_delivery(&mut self, id: u64, from: NodeId, to: NodeId, attempt: u32, primary: bool) {
        // Every scheduled copy occupied an inbox slot; arriving frees it.
        self.inbox_load[to.index()] -= 1;
        // Receiver-side dedup: if any copy of this id already applied, the
        // exchange must not run twice. A suppressed *primary* still counts
        // as delivered — its duplicate carried the logical message through.
        if self.has_seen(from, id) || self.has_seen(to, id) {
            self.faults.counters_mut().dedup_suppressed += 1;
            if primary {
                self.enc.delivered += 1;
            }
            return;
        }
        // A partition may have been cut while the message was in flight.
        if self.faults.partitioned(from, to) {
            if primary {
                self.faults.counters_mut().partitioned += 1;
                self.maybe_retry(from, to, attempt);
            }
            return;
        }
        // An endpoint may have churned offline while the message was in
        // flight; the encounter needs both sides up.
        if !self.is_online(from) || !self.is_online(to) {
            if primary {
                self.faults.counters_mut().dropped_expired += 1;
                self.maybe_retry(from, to, attempt);
            }
            return;
        }
        if self.audit.is_some() {
            let double_apply = self.has_seen(from, id) || self.has_seen(to, id);
            let crosses_cut = self.faults.partitioned(from, to);
            let now = self.now;
            if let Some(aud) = self.audit.as_mut() {
                aud.check(!double_apply, || {
                    format!("message {id} ({from}->{to}) would apply twice at {now}")
                });
                aud.check(!crosses_cut, || {
                    format!("delivery {id} ({from}->{to}) crosses an active partition at {now}")
                });
            }
        }
        self.apply_message(id, from, to);
        if primary {
            self.enc.delivered += 1;
        }
    }

    /// Apply message `id`'s exchange: record it in both dedup windows,
    /// track send-order inversions, and run the protocol encounter.
    fn apply_message(&mut self, id: u64, from: NodeId, to: NodeId) {
        // The encounter reads the transfer ledger, so pending BitTorrent
        // ticks must materialize first: otherwise the exchange would see
        // state "as of the last window cut", and outcomes would depend on
        // where `run_until` stop/sample boundaries happened to fall —
        // breaking the resume-transparency the checkpoint differential
        // tests prove.
        self.materialize_bt(self.now);
        if id < self.max_fired_msg {
            self.faults.counters_mut().reordered += 1;
        } else {
            self.max_fired_msg = id;
        }
        self.mark_seen(from, id);
        self.mark_seen(to, id);
        // Quarantined peers are cut off at the application gate: they
        // neither push nor pull until released. The message still counts
        // as delivered (the network did its job); the refusal is
        // attributed to the quarantine counter.
        if self.guard.enabled() {
            let q_from = self.guard.is_quarantined(from, self.now);
            let q_to = self.guard.is_quarantined(to, self.now);
            if q_from || q_to {
                let culprit = if q_from { from } else { to };
                self.guard
                    .note_rejection(culprit, RejectReason::Quarantined, self.now);
                return;
            }
        }
        self.encounter(from, to);
    }

    fn has_seen(&self, node: NodeId, id: u64) -> bool {
        self.seen_msgs[node.index()].binary_search(&id).is_ok()
    }

    /// Record `id` in `node`'s dedup window, evicting the smallest id
    /// beyond the configured cap. Ids are monotone, so evicting the
    /// smallest keeps the most recent ids — the only ones a late-arriving
    /// duplicate can realistically carry. The cap is
    /// [`GuardConfig::seen_window`] (in force even while the rest of the
    /// plane is disabled; the default reproduces the historical bound).
    fn mark_seen(&mut self, node: NodeId, id: u64) {
        let cap = (self.guard.config().seen_window as usize).max(1);
        let window = &mut self.seen_msgs[node.index()];
        // Ids come in send order, but for the odd late one: in place, once.
        let at = match window.back() {
            Some(&last) if id <= last => window.binary_search(&id).err(),
            _ => Some(window.len()),
        };
        if let Some(at) = at {
            // Evict first, so a full window never grows its buffer. An id
            // older than all of a full window's is evicted at once.
            if window.len() < cap {
                window.insert(at, id);
            } else if at > 0 {
                window.pop_front();
                window.insert(at - 1, id);
            }
        }
        while window.len() > cap {
            window.pop_front();
        }
    }

    /// After a failed attempt, schedule a backoff resend when the schedule
    /// enables retry; otherwise the loss stands, exactly as before.
    fn maybe_retry(&mut self, from: NodeId, to: NodeId, failed_attempt: u32) {
        let Some(rc) = self.faults.config().retry else {
            return;
        };
        if failed_attempt >= rc.max_attempts {
            self.faults.counters_mut().backoff_gaveups += 1;
            return;
        }
        self.faults.counters_mut().retries += 1;
        let delay = rc.backoff_delay(failed_attempt + 1);
        self.fault_events.schedule_at(
            self.now.saturating_add(delay),
            FaultEvent::Resend {
                from,
                to,
                attempt: failed_attempt + 1,
            },
        );
    }

    /// A backoff timer fired: re-attempt the encounter, rotating to a
    /// fresh responder when the sampler offers one (the failed target may
    /// be dead or unreachable behind a partition).
    fn handle_resend(&mut self, from: NodeId, to: NodeId, attempt: u32) {
        if !self.is_online(from) {
            // The sender churned away; the retry dissolves without an
            // attempt (nothing was sent, so conservation is untouched).
            return;
        }
        self.enc.attempted += 1;
        // Resends draw from the sender's own send lane — the same stream
        // its round sends use.
        let target = match self.pss.sample_from(from, &mut self.send_rng[from.index()]) {
            Some(t) if t != from && t != to => t,
            _ => to,
        };
        if !self.is_online(target) {
            self.enc.dropped_offline_target += 1;
            self.maybe_retry(from, target, attempt);
            return;
        }
        self.dispatch(from, target, attempt);
    }

    /// Crash-restart `node`: volatile protocol state (ballot box,
    /// VoxPopuli cache, dedup window, backoff state) is wiped; persistent
    /// state (BarterCast graph, signed moderations in the local database,
    /// PSS view) survives, as Tribler persists those across sessions.
    fn crash_restart(&mut self, node: NodeId) {
        self.vs.crash_reset(node);
        self.seen_msgs[node.index()].clear();
        self.vox_backoff[node.index()] = Backoff::new();
        self.vox_decliners[node.index()].clear();
        // Guard state is volatile by design: a rebooted peer returns with
        // fresh budgets and no strikes or quarantine history.
        self.guard.crash_reset(node);
        self.faults.counters_mut().crash_restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::fig6_cast;
    use crate::SpamAttackConfig;
    use rvs_checkpoint::{Encoder, Persist};
    use rvs_faults::{FaultConfig, FaultSchedule, RetryConfig};
    use rvs_guard::{Governor, GuardConfig};
    use rvs_sim::SimTime;
    use rvs_trace::TraceGenConfig;
    use std::collections::BTreeSet;

    #[test]
    fn a_crash_wipes_the_volatile_state_and_keeps_the_persistent() {
        // The Fig 8 cast on 12 peers under loss, retry and an armed guard:
        // an hour in, some node holds every kind of volatile state.
        let schedule = FaultSchedule {
            config: FaultConfig {
                loss: 0.3,
                retry: Some(RetryConfig::default()),
                ..FaultConfig::default()
            },
            ..FaultSchedule::default()
        };
        let cast = SpamAttackConfig {
            trace: TraceGenConfig::quick(12, SimDuration::from_hours(12)),
            core_size: 4,
            ..SpamAttackConfig::quick(1)
        };
        let (mut system, _) = cast.system(1, 4, schedule);
        system.set_guard_config(GuardConfig::active());
        let hour = SimDuration::from_hours(1);
        system.run_until(SimTime::ZERO + hour, hour, |_, _| {});
        let fresh = Governor::new(1, *system.guard.config());
        let fresh = fresh.peer(NodeId(0)).clone();
        // Ballot box, VoxPopuli cache, dedup window, backoff, decliners,
        // guard record: each one as a reboot leaves it?
        let wiped = |system: &System, i: NodeId| {
            [
                system.vs.ballot(i).is_empty(),
                system.vs.vox_cache(i).is_empty(),
                system.seen_msgs[i.index()].is_empty(),
                system.vox_backoff[i.index()] == Backoff::new(),
                system.vox_decliners[i.index()].is_empty(),
                *system.guard.peer(i) == fresh,
            ]
        };
        let mut nodes = (0..system.n_total).map(NodeId::from_index);
        let i = nodes.find(|&i| wiped(&system, i) == [false; 6]);
        let i = i.expect("a node holding every kind of volatile state");
        // What Tribler keeps across sessions.
        let persistent = |system: &System| {
            let mut enc = Encoder::new();
            system.bc.persist(&mut enc);
            system.mc.persist(&mut enc);
            system.pss.persist(&mut enc);
            enc.into_bytes()
        };
        let kept = persistent(&system);
        system.crash_restart(i);
        assert_eq!(wiped(&system, i), [true; 6]);
        assert!(
            persistent(&system) == kept,
            "the crash of {i} touched BarterCast, ModerationCast or the PSS"
        );
        assert_eq!(system.faults.counters().crash_restarts, 1);
    }

    #[test]
    fn a_dedup_window_is_the_set_it_replaced() {
        let (mut system, _) = fig6_cast().system(1, FaultSchedule::default());
        let node = NodeId(2);
        let mut model = BTreeSet::new();
        let mut mark = |system: &mut System, id: u64, cap: u32| {
            system.set_guard_config(GuardConfig {
                seen_window: cap,
                ..GuardConfig::default()
            });
            system.mark_seen(node, id);
            model.insert(id);
            while model.len() > cap as usize {
                model.pop_first();
            }
            let window: Vec<u64> = system.dedup_window(node).collect();
            assert!(window.iter().eq(&model), "{id} under cap {cap}: {window:?}");
            for probe in 0..30 {
                assert_eq!(system.has_seen(node, probe), model.contains(&probe));
            }
        };
        // In order, late into the middle and the front, a repeat, one
        // older than a full window, then the cap cut from 5 to 2.
        for id in [3, 5, 9, 4, 1, 9, 12, 2, 13, 14, 0, 8, 20] {
            mark(&mut system, id, 5);
        }
        for id in [7, 21, 22] {
            mark(&mut system, id, 2);
        }
    }
}
