//! The round driver: the clock, trace replay, the BitTorrent windows
//! (run ahead on the pool when delivery is inline), crowd churn and the
//! gossip round that initiates every online peer's send.

use super::encounter::votes_from;
use super::System;
use rvs_modcast::LocalVote;
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::TraceEventKind;

impl System {
    /// Advance the simulation to `end`, invoking `observer` every
    /// `sample_every` of simulated time (and once at the end).
    ///
    /// With two or more threads and every message applied inside its
    /// round, the BitTorrent window up to the next gossip round runs on
    /// the pool while this round's encounters run; it never runs past the
    /// first tick the observer or `end` needs, so every observer call and
    /// the return see the net whole.
    pub fn run_until(
        &mut self,
        end: SimTime,
        sample_every: SimDuration,
        mut observer: impl FnMut(&System, SimTime),
    ) {
        let mut next_sample = self.now;
        while self.now < end {
            self.bt_horizon = Some(next_sample.min(end));
            self.step();
            self.bt_horizon = None;
            if self.now >= next_sample {
                // Materialize pending BitTorrent ticks so the observer sees
                // transfers up to the current tick, exactly as the serial
                // engine always did. Sample cadence is thread-independent,
                // so this cannot perturb thread-count invariance.
                self.materialize_bt(self.now);
                assert!(self.bt_ahead.is_none(), "observer would see swarms out");
                observer(self, self.now);
                next_sample = self.now + sample_every;
            }
        }
        self.materialize_bt(self.now);
        assert!(self.bt_ahead.is_none(), "observer would see swarms out");
        observer(self, end);
    }

    /// One simulation tick: pending fault-plane events, trace events,
    /// BitTorrent transfers, crowd churn, and (when due) a protocol gossip
    /// round. Called directly, a step never leaves a BitTorrent window
    /// running ahead.
    pub fn step(&mut self) {
        // Fault-plane events that came due since the previous tick
        // (deliveries, resends, partition cuts/heals, crashes). Delivery
        // times are quantized to the tick boundary: an event scheduled at
        // `t` fires at the first tick with `now > t`, in (time, seq) order.
        while let Some((_, ev)) = self.fault_events.next_before(self.now) {
            self.handle_fault_event(ev);
        }
        // Trace events at or before the current tick. Only the churn side
        // (online flags, PSS membership) applies immediately; the
        // swarm-level mutations are replayed tick-accurately inside the
        // next BitTorrent window, which runs the same `time <= tick` rule.
        while self.next_event < self.trace.events.len()
            && self.trace.events[self.next_event].time <= self.now
        {
            let ev = self.trace.events[self.next_event];
            self.next_event += 1;
            self.net.note_event(&ev);
            match ev.kind {
                TraceEventKind::Online => self.join_pss(ev.peer),
                TraceEventKind::Offline => self.pss.set_offline(ev.peer),
                TraceEventKind::StartDownload { .. } => {}
            }
        }
        self.update_crowd();
        if self.now >= self.next_gossip {
            // Materialize BitTorrent ticks up to and including this one,
            // so the gossip round reads a ledger exact as of `now` — the
            // same state the per-tick serial engine produced.
            self.materialize_bt(self.now + self.cfg.net.tick);
            self.next_gossip = self.now + self.cfg.gossip_every;
            self.launch_bt_ahead();
            self.timer.start("gossip");
            self.gossip_round();
            self.timer.stop();
        }
        self.now += self.cfg.net.tick;
    }

    /// Materialize every pending BitTorrent tick in
    /// `[bt_window_start, end_exclusive)` as one parallel window — or fold
    /// in the window that ran ahead, which ends exactly there — then
    /// re-capture the online snapshot and event cursor for the next one.
    pub(super) fn materialize_bt(&mut self, end_exclusive: SimTime) {
        if self.bt_window_start >= end_exclusive {
            return;
        }
        self.timer.start("bittorrent");
        self.bt_window_start = match self.bt_ahead.take() {
            Some(window) => {
                assert!(
                    window.end() == end_exclusive
                        && self.events_due_before(end_exclusive) == self.next_event,
                    "a BitTorrent window ran ahead to {} but is joined at {end_exclusive} \
                     with trace events up to {} consumed",
                    window.end(),
                    self.next_event
                );
                self.net.finish_window(window)
            }
            None => self.net.advance_window(
                self.bt_window_start,
                end_exclusive,
                &self.trace.events[self.bt_event_lo..self.next_event],
                &self.bt_online0,
                &self.pool,
            ),
        };
        self.bt_event_lo = self.next_event;
        self.bt_online0.clear();
        self.bt_online0.extend_from_slice(self.net.online_flags());
        self.timer.stop();
    }

    /// Hand the BitTorrent window from `bt_window_start` to the pool so it
    /// runs while this gossip round's encounters do. Only inside
    /// `run_until` (`bt_horizon` set), with two or more threads, and only
    /// when every message is applied inside its round: a delayed delivery
    /// or a resend would read the ledger between rounds. A zero-latency
    /// duplicate fires at the next tick, which reads no window tick yet.
    /// The window ends at the earliest tick boundary that the next gossip
    /// round, the observer or the end of `run_until` materializes, so it
    /// is always joined exactly where it ends.
    fn launch_bt_ahead(&mut self) {
        let Some(horizon) = self.bt_horizon else {
            return;
        };
        let faults = self.faults.config();
        if self.pool.threads() < 2 || faults.base_latency_ms != 0 || faults.retry.is_some() {
            return;
        }
        let start = self.bt_window_start;
        let tick = self.cfg.net.tick;
        // The first tick boundary at or past `t`, on `start`'s grid.
        let boundary = |t: SimTime| {
            let ahead = t.as_millis().saturating_sub(start.as_millis());
            start + SimDuration::from_millis(ahead.div_ceil(tick.as_millis()) * tick.as_millis())
        };
        let end = boundary(horizon).min(boundary(self.next_gossip) + tick);
        if end <= start {
            return;
        }
        self.timer.start("bittorrent");
        let hi = self.events_due_before(end);
        self.bt_ahead = Some(self.net.begin_window(
            start,
            end,
            &self.trace.events[self.bt_event_lo..hi],
            &self.bt_online0,
            &self.pool,
        ));
        self.timer.stop();
        #[cfg(test)]
        tests::LAUNCHES.with(|n| n.set(n.get() + 1));
    }

    /// The cursor past every trace event a window ending at `end` replays:
    /// those due at or before its last tick, counted from `bt_event_lo`.
    fn events_due_before(&self, end: SimTime) -> usize {
        let last_tick = end.as_millis() - self.cfg.net.tick.as_millis();
        let pending = &self.trace.events[self.bt_event_lo..];
        self.bt_event_lo + pending.partition_point(|ev| ev.time.as_millis() <= last_tick)
    }

    /// `node` comes online and joins the PSS, introduced by a
    /// deterministically random online node other than itself, drawn from
    /// the gossip stream. (Taking the *first* online node here skewed
    /// every PSS bootstrap introduction toward node 0.)
    fn join_pss(&mut self, node: NodeId) {
        let candidates: Vec<NodeId> = (0..self.n_total)
            .map(NodeId::from_index)
            .filter(|&n| n != node && self.is_online(n))
            .collect();
        let introducer = (!candidates.is_empty()).then(|| *self.rng_gossip.pick(&candidates));
        self.pss.set_online(node, introducer, self.now);
    }

    /// Crowd activation and duty-cycle churn.
    fn update_crowd(&mut self) {
        let Some(crowd) = &self.crowd else { return };
        let spec = self.setup.crowd.expect("crowd spec exists");
        if self.now < spec.join_at {
            return;
        }
        if !self.crowd_activated {
            self.crowd_activated = true;
            // M0 publishes its spam moderation; every member approves it
            // (so they all forward it) and optionally votes the honest top
            // moderator down.
            let m0 = crowd.spam_moderator();
            self.mc.publish(
                &self.registry,
                m0,
                spec.spam_swarm,
                rvs_modcast::ContentQuality::Spam,
                self.now,
            );
            let members: Vec<NodeId> = crowd.members().collect();
            for &m in &members {
                self.mc.set_opinion(m, m0, LocalVote::Approve, self.now);
                if let Some(target) = spec.demote {
                    self.mc
                        .set_opinion(m, target, LocalVote::Disapprove, self.now);
                }
            }
        }
        // Deterministic staggered duty cycle.
        let period = spec.churn_period.as_millis().max(1);
        let since = (self.now - spec.join_at).as_millis();
        for idx in 0..self.crowd_online.len() {
            let offset = (idx as u64 * period) / self.crowd_online.len().max(1) as u64;
            let phase = ((since + offset) % period) as f64 / period as f64;
            let online = phase < spec.duty_cycle;
            if online != self.crowd_online[idx] {
                self.crowd_online[idx] = online;
                let node = NodeId::from_index(self.n_trace + idx);
                if online {
                    self.join_pss(node);
                } else {
                    self.pss.set_offline(node);
                }
            }
        }
    }

    /// One protocol gossip round: every online node, in ascending id
    /// order, picks one partner and runs the exchange (Figs 1–3).
    fn gossip_round(&mut self) {
        // Quarantine bookkeeping first: refill budgets, decay strikes,
        // release served sentences — and re-validate what released peers
        // left behind (see `revalidate_released`).
        for q in self.guard.on_round(self.now) {
            self.revalidate_released(q);
        }
        self.pss.gossip_round(self.now, &mut self.rng_pss);
        self.publish_due_moderations();
        self.cast_due_votes();
        // One fault lane per node from the first round on, whoever has
        // sent so far: the persisted `faults` section keeps a fixed length.
        self.faults.ensure_lanes(self.n_total);
        for idx in 0..self.n_total {
            let i = NodeId::from_index(idx);
            if self.is_online(i) {
                self.initiate(i);
            }
        }
        // Flood traffic rides after the honest sends.
        self.run_flooder_sends();
        if self.adaptive.is_some() {
            self.observe_dispersion();
        }
        if let Some(aud) = &mut self.audit {
            let e = &self.enc;
            let f = self.faults.counters();
            let g = self.guard.counters();
            let now = self.now;
            let in_flight = super::delivery::primaries(&self.fault_events);
            // Fault-aware conservation: every attempt is delivered, dropped
            // for an attributed reason, or still in flight (a scheduled
            // delivery). Duplicate copies are outside the identity by
            // construction — they never touch `attempted` or `delivered`
            // (a duplicate shed by a full inbox lands in
            // `inbox_dropped_dup`, also outside it).
            let accounted = e.delivered
                + e.dropped_no_sample
                + e.dropped_offline_target
                + e.dropped_self_target
                + e.dropped_message_loss
                + f.dropped_burst
                + f.partitioned
                + f.dropped_expired
                + g.inbox_dropped
                + in_flight;
            aud.check(e.attempted == accounted, || {
                format!(
                    "encounter conservation broken at {now}: {e:?} faults {f:?} \
                     inbox-dropped {} in-flight {in_flight}",
                    g.inbox_dropped
                )
            });
        }
    }

    /// One gossip initiation by online peer `i` — a round send or a flood
    /// send: sample a partner from `i`'s own send lane, then hand the send
    /// to [`System::dispatch`] unless the sample is missing, `i` itself,
    /// or offline (stale PSS views).
    fn initiate(&mut self, i: NodeId) {
        self.enc.attempted += 1;
        let Some(j) = self.pss.sample_from(i, &mut self.send_rng[i.index()]) else {
            self.enc.dropped_no_sample += 1;
            return;
        };
        if i == j {
            self.enc.dropped_self_target += 1;
            return;
        }
        if !self.is_online(j) {
            self.enc.dropped_offline_target += 1;
            return;
        }
        // Attempt 1 is the initial send; retries re-enter via dispatch.
        self.dispatch(i, j, 1);
    }

    fn publish_due_moderations(&mut self) {
        for (k, spec) in self.setup.moderators.clone().into_iter().enumerate() {
            if !self.published[k] && spec.publish_at <= self.now && self.is_online(spec.moderator) {
                self.mc.publish(
                    &self.registry,
                    spec.moderator,
                    spec.swarm,
                    spec.quality,
                    self.now,
                );
                self.published[k] = true;
            }
        }
    }

    fn cast_due_votes(&mut self) {
        for (k, spec) in self.setup.voters.clone().into_iter().enumerate() {
            if self.vote_cast[k] {
                continue;
            }
            // A voter casts only once it has received one of the
            // moderator's items via dissemination.
            if self.mc.db(spec.voter).has_items_from(spec.moderator) {
                self.mc
                    .set_opinion(spec.voter, spec.moderator, spec.vote, self.now);
                self.vote_cast[k] = true;
            }
        }
    }

    /// Extra gossip initiations from the flooding crowd, after the honest
    /// sends. Flood traffic takes the same path as any send — loss,
    /// partitions, retries, and the conservation identity all apply.
    fn run_flooder_sends(&mut self) {
        let Some(f) = &self.flooder else { return };
        let per_round = f.per_round();
        let members: Vec<NodeId> = f.members().collect();
        for m in members {
            if !self.is_online(m) {
                continue;
            }
            for _ in 0..per_round {
                self.guard.counters_mut().flooder_sends += 1;
                self.initiate(m);
            }
        }
    }

    /// A peer released from quarantine gets what it previously deposited
    /// re-validated: with [`VoteSamplingConfig::revalidate`] set, every
    /// evaluator that no longer finds the peer experienced sheds the
    /// peer's votes from its ballot — acceptance during good standing is
    /// not a permanent grant.
    ///
    /// [`VoteSamplingConfig::revalidate`]: rvs_core::VoteSamplingConfig
    pub(super) fn revalidate_released(&mut self, q: NodeId) {
        self.guard.counters_mut().release_revalidations += 1;
        if !self.cfg.votes.revalidate {
            return;
        }
        for idx in 0..self.n_total {
            let i = NodeId::from_index(idx);
            if i == q {
                continue;
            }
            if votes_from(self.vs.ballot(i), q) > 0 && !self.experienced(i, q) {
                self.vs.ballot_mut(i).forget_voter(q);
                self.guard.counters_mut().release_forgets += 1;
            }
        }
    }

    fn observe_dispersion(&mut self) {
        let adaptive = self.adaptive.as_mut().expect("caller checked");
        for (idx, threshold) in adaptive.iter_mut().take(self.n_trace).enumerate() {
            let node = NodeId::from_index(idx);
            if self.net.is_online(node) {
                let d = self.vs.ballot(node).dispersion();
                threshold.observe_dispersion(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::{fig6_cast, SPAN};
    use rvs_faults::{FaultConfig, FaultSchedule, RetryConfig};
    use std::cell::Cell;

    thread_local! {
        /// BitTorrent windows launched ahead of a gossip round on this
        /// thread.
        pub(super) static LAUNCHES: Cell<u64> = const { Cell::new(0) };
    }

    /// Windows launched ahead while `drive` runs the fig6 cast on 10 peers
    /// at `threads` threads under `config`.
    fn launches(threads: usize, config: FaultConfig, drive: fn(&mut System)) -> u64 {
        let schedule = FaultSchedule {
            config,
            ..FaultSchedule::default()
        };
        let (mut system, _) = fig6_cast().system(3, schedule);
        system.set_threads(threads);
        let before = LAUNCHES.with(Cell::get);
        drive(&mut system);
        assert!(system.bt_ahead.is_none() && system.bt_horizon.is_none());
        LAUNCHES.with(Cell::get) - before
    }

    fn run_until_end(system: &mut System) {
        system.run_until(SimTime::ZERO + SPAN, SimDuration::from_hours(1), |_, _| {});
    }

    fn step_to_end(system: &mut System) {
        while system.now() < SimTime::ZERO + SPAN {
            system.step();
        }
    }

    #[test]
    fn a_window_runs_ahead_inside_run_until_when_delivery_is_inline() {
        let lossy = FaultConfig {
            loss: 0.3,
            duplicate: 0.1,
            ..FaultConfig::default()
        };
        for config in [FaultConfig::default(), lossy] {
            for threads in [2, 4] {
                let n = launches(threads, config, run_until_end);
                assert!(
                    n > 0,
                    "no window ran ahead at {threads} threads, {config:?}"
                );
            }
        }
    }

    #[test]
    fn no_window_runs_ahead_at_one_thread_off_the_inline_path_or_from_step() {
        let latency = FaultConfig {
            base_latency_ms: 5_000,
            ..FaultConfig::default()
        };
        let retry = FaultConfig {
            loss: 0.3,
            retry: Some(RetryConfig::default()),
            ..FaultConfig::default()
        };
        assert_eq!(launches(1, FaultConfig::default(), run_until_end), 0);
        assert_eq!(launches(2, latency, run_until_end), 0);
        assert_eq!(launches(2, retry, run_until_end), 0);
        assert_eq!(launches(2, FaultConfig::default(), step_to_end), 0);
    }
}
