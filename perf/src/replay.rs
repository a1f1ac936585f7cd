//! Layer-stack replay: per-layer numbers from outside the program.
//!
//! The harness owns fresh `BarterCast`, `ModerationCast` + `KeyRegistry`,
//! `VoteSampling` and `OraclePss` instances and drives them from
//! `BitTorrentNet::run_trace`: inside the observer it applies the cast as
//! `System` does and, per online peer, runs the Figs 1–3 call sequence
//! with one span per public layer call. Under the chaos workload the
//! sequence is the guarded one and every send first passes
//! `FaultPlane::decide` and the `Engine` event queue.
//!
//! The replay is a probe, not a second implementation: there is no bus, no
//! dedup window, no inbox cap, no duplicate copies and no VoxPopuli
//! backoff. How close it stays to `System` is itself reported
//! (`replay.encounter_ratio`, `replay.quality_delta`, `replay.coverage`).

use crate::child::{Fields, Job};
use crate::json::{num, Value};
use crate::spans::Spans;
use crate::workload::{self, Judge, Quality, OBSERVE_EVERY_HOURS};
use robust_vote_sampling::attacks::{FlashCrowd, Malformer};
use robust_vote_sampling::bartercast::{validate_records, BarterCast};
use robust_vote_sampling::bittorrent::{BitTorrentNet, NetConfig};
use robust_vote_sampling::core::{
    validate_topk, validate_vote_list, TopKList, Vote, VoteEntry, VoteSampling,
};
use robust_vote_sampling::faults::{FaultPlane, RetryConfig, SendOutcome};
use robust_vote_sampling::guard::{Governor, MessageClass, RejectReason};
use robust_vote_sampling::metrics::{correct_ordering_fraction, pollution_fraction};
use robust_vote_sampling::modcast::{
    validate_moderation_list, ContentQuality, KeyRegistry, LocalVote, Moderation, ModerationCast,
};
use robust_vote_sampling::pss::OraclePss;
use robust_vote_sampling::scenario::{CrowdSpec, ProtocolConfig, ScenarioSetup};
use robust_vote_sampling::sim::{DetRng, Engine, ModeratorId, NodeId, SimDuration, SimTime};
use robust_vote_sampling::trace::Trace;
use std::collections::BTreeSet;
use std::time::Instant;

/// Time `$e` as a span named by the `$name` field of `self.n`.
macro_rules! span {
    ($self:ident, $name:ident, $e:expr) => {{
        let open = $self.spans.enter($self.n.$name);
        let out = $e;
        $self.spans.exit(open);
        out
    }};
}

/// Interned span names, one per public layer call.
struct Names {
    round: u16,
    encounter: u16,
    sample: u16,
    pss_sample: u16,
    bc_sync: u16,
    bc_exchange: u16,
    bc_own_records: u16,
    bc_deliver_records: u16,
    bc_hit: u16,
    bc_miss: u16,
    mc_exchange: u16,
    mc_extract: u16,
    mc_deliver: u16,
    vs_vote_list: u16,
    vs_deliver: u16,
    vs_vox: u16,
    vs_ranking: u16,
    crowd_vote_list: u16,
    crowd_topk: u16,
    faults_decide: u16,
    guard_admit: u16,
    guard_validate: u16,
    guard_on_round: u16,
    engine_schedule: u16,
    engine_next: u16,
}

impl Names {
    fn intern(s: &mut Spans) -> Names {
        Names {
            round: s.name("replay.round"),
            encounter: s.name("replay.encounter"),
            sample: s.name("replay.sample"),
            pss_sample: s.name("pss.sample_from"),
            bc_sync: s.name("bartercast.sync_own_records"),
            bc_exchange: s.name("bartercast.exchange"),
            bc_own_records: s.name("bartercast.own_records"),
            bc_deliver_records: s.name("bartercast.deliver_records"),
            bc_hit: s.name("bartercast.contribution_hit"),
            bc_miss: s.name("bartercast.contribution_miss"),
            mc_exchange: s.name("modcast.exchange"),
            mc_extract: s.name("modcast.extract_from"),
            mc_deliver: s.name("modcast.deliver_list"),
            vs_vote_list: s.name("core.vote_list_of"),
            vs_deliver: s.name("core.deliver_vote_list"),
            vs_vox: s.name("core.vox_request"),
            vs_ranking: s.name("core.ranking_with_known"),
            crowd_vote_list: s.name("attacks.crowd_vote_list"),
            crowd_topk: s.name("attacks.crowd_topk_response"),
            faults_decide: s.name("faults.decide"),
            guard_admit: s.name("guard.admit"),
            guard_validate: s.name("guard.validate"),
            guard_on_round: s.name("guard.on_round"),
            engine_schedule: s.name("sim.engine_schedule"),
            engine_next: s.name("sim.engine_next_before"),
        }
    }
}

/// Why unwrapping the chaos layers cannot fail on the guarded path.
const GUARDED: &str = "the guarded path only runs when the chaos layers exist";

/// Events on the replay's fault-plane queue.
#[derive(Debug, Clone, Copy)]
enum Event {
    Deliver {
        from: NodeId,
        to: NodeId,
        attempt: u32,
    },
    Resend {
        from: NodeId,
        attempt: u32,
    },
    Partition {
        idx: usize,
        active: bool,
    },
    Crash(NodeId),
}

/// The fault, guard and adversary layers of the chaos workload.
struct Chaos {
    faults: FaultPlane,
    engine: Engine<Event>,
    guard: Governor,
    flooders: Vec<NodeId>,
    malformer: Malformer,
    rng_malform: DetRng,
    retry: Option<RetryConfig>,
    events: u64,
}

struct Stack<'a> {
    spans: Spans,
    n: Names,
    cfg: ProtocolConfig,
    trace: &'a Trace,
    setup: &'a ScenarioSetup,
    n_trace: usize,
    n_total: usize,

    pss: OraclePss,
    bc: BarterCast,
    mc: ModerationCast,
    registry: KeyRegistry,
    vs: VoteSampling,
    chaos: Option<Chaos>,

    crowd: Option<(FlashCrowd, CrowdSpec)>,
    crowd_activated: bool,
    core: BTreeSet<NodeId>,
    online: Vec<bool>,
    published: Vec<bool>,
    vote_cast: Vec<bool>,
    rng_gossip: DetRng,
    send_rng: Vec<DetRng>,

    quality: Quality,
    next_sample: SimTime,
    encounters: u64,
    observer_ns: u128,
}

impl<'a> Stack<'a> {
    fn new(inputs: &'a workload::Inputs, seed: u64, mut spans: Spans) -> Stack<'a> {
        let cfg = ProtocolConfig::default();
        let trace = &inputs.trace;
        let setup = &inputs.setup;
        let n_trace = trace.peer_count();
        let n_total = n_trace + setup.crowd.map_or(0, |c| c.size);
        // Same fork labels as `System::with_faults`, so each lane draws
        // the stream its `System` counterpart would.
        let root = DetRng::new(seed);
        let mut mc = ModerationCast::new(n_total, cfg.modcast);
        let mut vs = VoteSampling::new(n_total, cfg.votes);
        let mut core = BTreeSet::new();
        if let Some(c) = &setup.core {
            core.extend(c.members.iter().copied());
            let entry = VoteEntry {
                moderator: c.top_moderator,
                vote: Vote::Positive,
                made_at: SimTime::ZERO,
            };
            for &i in &c.members {
                mc.set_opinion(i, c.top_moderator, LocalVote::Approve, SimTime::ZERO);
                for &j in c.members.iter().filter(|&&j| j != i) {
                    vs.ballot_mut(i).merge(j, &[entry], SimTime::ZERO);
                }
            }
        }
        let crowd = setup.crowd.map(|spec| {
            let members = (n_trace..n_total).map(NodeId::from_index);
            let m0 = NodeId::from_index(n_trace);
            (
                FlashCrowd::new(members, m0, spec.demote, spec.join_at),
                spec,
            )
        });
        let chaos = inputs.byzantine.as_ref().map(|byz| {
            let mut faults = FaultPlane::new(inputs.schedule.config, root.fork(5));
            let mut engine = Engine::new();
            for p in &inputs.schedule.partitions {
                let idx = faults.add_partition(p.members.iter().copied());
                engine.schedule_at(p.start, Event::Partition { idx, active: true });
                engine.schedule_at(p.heal, Event::Partition { idx, active: false });
            }
            for c in &inputs.schedule.crashes {
                engine.schedule_at(c.at, Event::Crash(c.node));
            }
            Chaos {
                faults,
                engine,
                guard: Governor::new(n_total, byz.guard),
                flooders: byz.flooders.clone(),
                malformer: Malformer::new(workload::MALFORM_PER_MILLE),
                rng_malform: root.fork(7),
                retry: inputs.schedule.config.retry,
                events: 0,
            }
        });
        let send_base = root.fork(6);
        Stack {
            n: Names::intern(&mut spans),
            spans,
            cfg,
            trace,
            setup,
            n_trace,
            n_total,
            pss: OraclePss::new(n_total),
            bc: BarterCast::new(n_total, cfg.bartercast),
            mc,
            registry: KeyRegistry::new(n_total, seed ^ 0x5EED),
            vs,
            chaos,
            crowd,
            crowd_activated: false,
            core,
            online: vec![false; n_total],
            published: vec![false; setup.moderators.len()],
            vote_cast: vec![false; setup.voters.len()],
            rng_gossip: root.fork(2),
            send_rng: (0..n_total as u64).map(|i| send_base.fork(i)).collect(),
            quality: Quality::new(inputs.judge),
            next_sample: SimTime::ZERO,
            encounters: 0,
            observer_ns: 0,
        }
    }

    fn is_crowd(&self, node: NodeId) -> bool {
        node.index() >= self.n_trace
    }

    /// The `run_trace` observer: one gossip round at `now` (the last call,
    /// at the end of the trace, only samples the figure of merit).
    fn observe(&mut self, net: &BitTorrentNet, now: SimTime, end: SimTime) {
        let began = Instant::now();
        if now < end {
            span!(self, round, self.round(net, now));
        }
        if now >= self.next_sample || now >= end {
            span!(self, sample, self.sample(now));
            self.next_sample = now + SimDuration::from_hours(OBSERVE_EVERY_HOURS);
        }
        self.observer_ns += began.elapsed().as_nanos();
    }

    fn set_online(&mut self, node: NodeId, online: bool) {
        if self.online[node.index()] != online {
            self.online[node.index()] = online;
            if online {
                self.pss.set_online(node);
            } else {
                self.pss.set_offline(node);
            }
        }
    }

    fn round(&mut self, net: &BitTorrentNet, now: SimTime) {
        // Fault-plane events that came due since the previous round.
        while let Some(ev) = self.next_event(now) {
            self.handle_event(net, ev, now);
        }
        // Churn: trace peers follow the swarm simulator, crowd identities
        // their staggered duty cycle.
        for idx in 0..self.n_trace {
            self.set_online(NodeId::from_index(idx), net.online_flags()[idx]);
        }
        self.update_crowd(now);
        if let Some(c) = &mut self.chaos {
            span!(self, guard_on_round, c.guard.on_round(now));
        }
        self.apply_cast(now);
        for idx in 0..self.n_total {
            if self.online[idx] {
                self.send(net, NodeId::from_index(idx), now);
            }
        }
        let flooders = self
            .chaos
            .as_ref()
            .map_or(Vec::new(), |c| c.flooders.clone());
        for m in flooders {
            if self.online[m.index()] {
                for _ in 0..workload::FLOOD_PER_ROUND {
                    self.send(net, m, now);
                }
            }
        }
    }

    /// Crowd activation (publish the spam moderation, approve it) and the
    /// deterministic staggered duty cycle of `System::update_crowd`.
    fn update_crowd(&mut self, now: SimTime) {
        let Some((crowd, spec)) = &self.crowd else {
            return;
        };
        let spec = *spec;
        if now < spec.join_at {
            return;
        }
        let members: Vec<NodeId> = crowd.members().collect();
        if !self.crowd_activated {
            self.crowd_activated = true;
            let m0 = crowd.spam_moderator();
            self.mc.publish(
                &self.registry,
                m0,
                spec.spam_swarm,
                ContentQuality::Spam,
                now,
            );
            for &m in &members {
                self.mc.set_opinion(m, m0, LocalVote::Approve, now);
                if let Some(target) = spec.demote {
                    self.mc.set_opinion(m, target, LocalVote::Disapprove, now);
                }
            }
        }
        let period = spec.churn_period.as_millis().max(1);
        let since = (now - spec.join_at).as_millis();
        for (k, &m) in members.iter().enumerate() {
            let offset = (k as u64 * period) / members.len() as u64;
            let phase = ((since + offset) % period) as f64 / period as f64;
            self.set_online(m, phase < spec.duty_cycle);
        }
    }

    /// Publish due moderations and cast due votes, as `System` does at the
    /// head of each gossip round.
    fn apply_cast(&mut self, now: SimTime) {
        let setup = self.setup;
        for (k, spec) in setup.moderators.iter().enumerate() {
            if !self.published[k] && spec.publish_at <= now && self.online[spec.moderator.index()] {
                self.mc.publish(
                    &self.registry,
                    spec.moderator,
                    spec.swarm,
                    spec.quality,
                    now,
                );
                self.published[k] = true;
            }
        }
        for (k, spec) in setup.voters.iter().enumerate() {
            if !self.vote_cast[k] && self.mc.db(spec.voter).has_items_from(spec.moderator) {
                self.mc
                    .set_opinion(spec.voter, spec.moderator, spec.vote, now);
                self.vote_cast[k] = true;
            }
        }
    }

    /// One gossip initiation by `i`: sample a partner, then either run the
    /// plain encounter or hand the send to the fault plane.
    fn send(&mut self, net: &BitTorrentNet, i: NodeId, now: SimTime) {
        let rng = &mut self.send_rng[i.index()];
        let Some(j) = span!(self, pss_sample, self.pss.sample_from(i, rng)) else {
            return;
        };
        if i == j || !self.online[j.index()] {
            return;
        }
        if self.chaos.is_some() {
            self.dispatch(net, i, j, 1, now);
        } else {
            self.encounter(net, i, j, now);
        }
    }

    // ------------------------------------------------------------------
    // Plain path (Figs 1–3 as `System::encounter_plain` sequences them)
    // ------------------------------------------------------------------

    fn encounter(&mut self, net: &BitTorrentNet, i: NodeId, j: NodeId, now: SimTime) {
        self.encounters += 1;
        let open = self.spans.enter(self.n.encounter);
        if self.chaos.is_some() {
            self.guarded_body(net, i, j, now);
        } else {
            self.plain_body(net, i, j, now);
        }
        self.spans.exit(open);
    }

    fn plain_body(&mut self, net: &BitTorrentNet, i: NodeId, j: NodeId, now: SimTime) {
        span!(self, bc_sync, self.bc.sync_own_records(i, net.ledger()));
        span!(self, bc_sync, self.bc.sync_own_records(j, net.ledger()));
        span!(self, bc_exchange, self.bc.exchange(i, j));
        span!(
            self,
            mc_exchange,
            self.mc
                .exchange(&self.registry, i, j, now, &mut self.rng_gossip)
        );
        // Experience is computed before any merge.
        let e_i_accepts_j = self.experienced(i, j);
        let e_j_accepts_i = self.experienced(j, i);
        let list_i = self.vote_list(i);
        let list_j = self.vote_list(j);
        span!(
            self,
            vs_deliver,
            self.vs.deliver_vote_list(j, i, &list_j, now, e_i_accepts_j)
        );
        span!(
            self,
            vs_deliver,
            self.vs.deliver_vote_list(i, j, &list_i, now, e_j_accepts_i)
        );
        if self.cfg.vox_enabled && !self.is_crowd(i) && self.vs.needs_bootstrap(i) {
            if let Some(list) = self.crowd_topk(j) {
                span!(self, vs_vox, self.vs.deliver_external_topk(i, list));
            } else {
                span!(self, vs_vox, self.vs.vox_request(i, j));
            }
        }
    }

    /// `E_i(j)`: one `contribution_kib` span, filed under hit or miss by
    /// the `maxflow_evaluations` delta.
    fn experienced(&mut self, i: NodeId, j: NodeId) -> bool {
        let before = self.bc.counters().maxflow_evaluations;
        let open = self.spans.enter(self.n.bc_hit);
        let kib = self.bc.contribution_kib(i, j);
        self.spans.exit(open);
        if self.bc.counters().maxflow_evaluations != before {
            self.spans.rename(open, self.n.bc_miss);
        }
        kib as f64 / 1024.0 >= self.cfg.experience_t_mib
    }

    fn vote_list(&mut self, node: NodeId) -> Vec<VoteEntry> {
        match &self.crowd {
            Some((crowd, _)) if crowd.is_member(node) => {
                span!(self, crowd_vote_list, crowd.vote_list())
            }
            _ => span!(
                self,
                vs_vote_list,
                self.vs.vote_list_of(node, &self.mc, &mut self.rng_gossip)
            ),
        }
    }

    /// The fabricated top-K list `j` answers with, when `j` is a crowd
    /// member.
    fn crowd_topk(&mut self, j: NodeId) -> Option<TopKList> {
        match &self.crowd {
            Some((crowd, _)) if crowd.is_member(j) => Some(span!(
                self,
                crowd_topk,
                crowd.topk_response(&[], self.cfg.votes.k)
            )),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Guarded path (`System::encounter_guarded`) behind the fault plane
    // ------------------------------------------------------------------

    fn chaos(&mut self) -> &mut Chaos {
        self.chaos.as_mut().expect(GUARDED)
    }

    fn next_event(&mut self, now: SimTime) -> Option<Event> {
        let c = self.chaos.as_mut()?;
        let ev = span!(self, engine_next, c.engine.next_before(now));
        ev.map(|(_, e)| {
            c.events += 1;
            e
        })
    }

    fn schedule(&mut self, delay: SimDuration, ev: Event) {
        let c = self.chaos.as_mut().expect(GUARDED);
        span!(self, engine_schedule, c.engine.schedule_in(delay, ev));
    }

    fn dispatch(&mut self, net: &BitTorrentNet, i: NodeId, j: NodeId, attempt: u32, now: SimTime) {
        let c = self.chaos.as_mut().expect(GUARDED);
        match span!(self, faults_decide, c.faults.decide(i, j)) {
            SendOutcome::Deliver { delay, .. } if delay.is_zero() => {
                self.deliver(net, i, j, attempt, now)
            }
            SendOutcome::Deliver { delay, .. } => self.schedule(
                delay,
                Event::Deliver {
                    from: i,
                    to: j,
                    attempt,
                },
            ),
            SendOutcome::DropIndependent
            | SendOutcome::DropBurst
            | SendOutcome::DropPartitioned => self.retry(i, attempt),
        }
    }

    fn retry(&mut self, from: NodeId, failed_attempt: u32) {
        let Some(rc) = self.chaos().retry else { return };
        if failed_attempt < rc.max_attempts {
            let attempt = failed_attempt + 1;
            self.schedule(rc.backoff_delay(attempt), Event::Resend { from, attempt });
        }
    }

    fn handle_event(&mut self, net: &BitTorrentNet, ev: Event, now: SimTime) {
        match ev {
            Event::Deliver { from, to, attempt } => self.deliver(net, from, to, attempt, now),
            Event::Resend { from, attempt } => {
                if self.online[from.index()] {
                    self.resend(net, from, attempt, now);
                }
            }
            Event::Partition { idx, active } => {
                self.chaos().faults.set_partition_active(idx, active)
            }
            Event::Crash(node) => {
                self.vs.crash_reset(node);
                self.chaos().guard.crash_reset(node);
            }
        }
    }

    fn resend(&mut self, net: &BitTorrentNet, from: NodeId, attempt: u32, now: SimTime) {
        let rng = &mut self.send_rng[from.index()];
        match span!(self, pss_sample, self.pss.sample_from(from, rng)) {
            Some(t) if t != from && self.online[t.index()] => {
                self.dispatch(net, from, t, attempt, now)
            }
            _ => self.retry(from, attempt),
        }
    }

    /// A message arrives: both ends must still be up, on the same side of
    /// every cut, and out of quarantine.
    fn deliver(
        &mut self,
        net: &BitTorrentNet,
        from: NodeId,
        to: NodeId,
        attempt: u32,
        now: SimTime,
    ) {
        if !self.online[from.index()]
            || !self.online[to.index()]
            || self.chaos().faults.partitioned(from, to)
        {
            return self.retry(from, attempt);
        }
        let guard = &self.chaos().guard;
        if guard.is_quarantined(from, now) || guard.is_quarantined(to, now) {
            return;
        }
        self.encounter(net, from, to, now);
    }

    fn guarded_body(&mut self, net: &BitTorrentNet, i: NodeId, j: NodeId, now: SimTime) {
        span!(self, bc_sync, self.bc.sync_own_records(i, net.ledger()));
        span!(self, bc_sync, self.bc.sync_own_records(j, net.ledger()));
        self.bc.mark_exchange();
        if self.barter_half(i, j, now) {
            self.barter_half(j, i, now);
        }
        let mods_i = span!(
            self,
            mc_extract,
            self.mc.extract_from(i, &mut self.rng_gossip)
        );
        let mods_j = span!(
            self,
            mc_extract,
            self.mc.extract_from(j, &mut self.rng_gossip)
        );
        if self.moderations_half(i, j, mods_i, now) {
            self.moderations_half(j, i, mods_j, now);
        }
        let e_i_accepts_j = self.experienced(i, j);
        let e_j_accepts_i = self.experienced(j, i);
        let list_i = self.vote_list(i);
        let list_j = self.vote_list(j);
        if self.votes_half(i, j, list_i, e_j_accepts_i, now) {
            self.votes_half(j, i, list_j, e_i_accepts_j, now);
        }
        if self.cfg.vox_enabled && self.vs.needs_bootstrap(i) {
            match self.vs.topk_response(j) {
                Some(list) => {
                    self.topk_half(i, j, list, now);
                }
                None => self.vs.note_vox_decline(),
            }
        }
    }

    fn barter_half(&mut self, s: NodeId, r: NodeId, now: SimTime) -> bool {
        let mut recs = span!(self, bc_own_records, self.bc.own_records(s));
        let n = self.n_total;
        let ok = gate(
            (&mut self.spans, &self.n, self.chaos.as_mut()),
            (s, MessageClass::BarterRecords, now),
            &mut recs,
            |m, p, rng| m.mutate_records(p, s, rng),
            |p, g| validate_records(p, s, 2 * n, n, g.config().max_record_kib),
        );
        if ok {
            span!(
                self,
                bc_deliver_records,
                self.bc.deliver_records(r, s, &recs)
            );
        }
        ok
    }

    fn moderations_half(
        &mut self,
        s: NodeId,
        r: NodeId,
        mut list: Vec<Moderation>,
        now: SimTime,
    ) -> bool {
        let (n, max_list, registry) = (self.n_total, self.cfg.modcast.max_list, &self.registry);
        let ok = gate(
            (&mut self.spans, &self.n, self.chaos.as_mut()),
            (s, MessageClass::Moderations, now),
            &mut list,
            |m, p, rng| m.mutate_moderations(p, now, rng),
            |p, g| {
                let skew = g.config().max_timestamp_skew;
                validate_moderation_list(p, registry, max_list, n, now, skew)
            },
        );
        if ok {
            span!(
                self,
                mc_deliver,
                self.mc.deliver_list(&self.registry, r, &list, now)
            );
        }
        ok
    }

    fn votes_half(
        &mut self,
        s: NodeId,
        r: NodeId,
        mut list: Vec<VoteEntry>,
        experienced: bool,
        now: SimTime,
    ) -> bool {
        let n = self.n_total;
        let ok = gate(
            (&mut self.spans, &self.n, self.chaos.as_mut()),
            (s, MessageClass::VoteList, now),
            &mut list,
            |m, p, rng| m.mutate_votes(p, now, rng),
            |p, g| {
                let cfg = g.config();
                validate_vote_list(p, n, n, now, cfg.max_timestamp_skew, cfg.replay_window)
            },
        );
        if ok {
            span!(
                self,
                vs_deliver,
                self.vs.deliver_vote_list(s, r, &list, now, experienced)
            );
        }
        ok
    }

    fn topk_half(&mut self, r: NodeId, s: NodeId, mut list: TopKList, now: SimTime) -> bool {
        let (n, k) = (self.n_total, self.cfg.votes.k);
        let ok = gate(
            (&mut self.spans, &self.n, self.chaos.as_mut()),
            (s, MessageClass::TopK, now),
            &mut list,
            |m, p, rng| m.mutate_topk(p, rng),
            |p, _| validate_topk(p, k, n),
        );
        if ok {
            span!(self, vs_vox, self.vs.deliver_external_topk(r, list));
        }
        ok
    }

    // ------------------------------------------------------------------
    // Figure of merit, from the replay's own stack
    // ------------------------------------------------------------------

    fn ranking(&mut self, i: NodeId) -> Vec<ModeratorId> {
        span!(self, vs_ranking, self.vs.ranking_with_known(i, &self.mc)).ranked
    }

    fn sample(&mut self, now: SimTime) {
        let peers: Vec<NodeId> = (0..self.n_trace)
            .map(NodeId::from_index)
            .filter(|n| match self.quality.judge() {
                Judge::Ordering(_) => true,
                Judge::Pollution(_) => {
                    !self.core.contains(n) && self.trace.peers[n.index()].arrival <= now
                }
            })
            .collect();
        let rankings: Vec<Vec<ModeratorId>> = peers.into_iter().map(|i| self.ranking(i)).collect();
        let lists = rankings.iter().map(Vec::as_slice);
        let v = match self.quality.judge() {
            Judge::Ordering(m) => correct_ordering_fraction(lists, &m),
            Judge::Pollution(spam) => pollution_fraction(lists, spam),
        };
        self.quality.push(v);
    }
}

/// The wire, the sender's budget, then the class's typed gate: whether a
/// guarded sub-message from `s` is let through to the protocol layer.
fn gate<T>(
    (spans, n, chaos): (&mut Spans, &Names, Option<&mut Chaos>),
    (s, class, now): (NodeId, MessageClass, SimTime),
    payload: &mut T,
    mutate: impl FnOnce(&Malformer, &mut T, &mut DetRng) -> bool,
    validate: impl FnOnce(&T, &Governor) -> Result<(), RejectReason>,
) -> bool {
    let c = chaos.expect(GUARDED);
    let m = c.malformer;
    if m.should_mutate(&mut c.rng_malform) {
        mutate(&m, payload, &mut c.rng_malform);
    }
    let verdict = spans
        .time(n.guard_admit, || c.guard.admit(s, class, now))
        .and_then(|()| spans.time(n.guard_validate, || validate(payload, &c.guard)));
    match verdict {
        Ok(()) => {
            c.guard.note_accepted();
            true
        }
        Err(reason) => {
            c.guard.note_rejection(s, reason, now);
            false
        }
    }
}

/// Run the replay pass and report its spans.
pub fn run(job: &Job) -> Result<Fields, String> {
    let inputs = workload::generate(job.workload, &job.scale, job.seed);
    let cfg = ProtocolConfig::default();
    let net_cfg = NetConfig::default();
    let mut stack = Stack::new(&inputs, job.seed, Spans::calibrated());
    let end = SimTime::ZERO + inputs.trace.duration;

    let began = Instant::now();
    let net = BitTorrentNet::run_trace(
        &inputs.trace,
        net_cfg,
        job.seed,
        cfg.gossip_every,
        |net, now| stack.observe(net, now, end),
    );
    let total_s = began.elapsed().as_secs_f64();
    let observer_s = stack.observer_ns as f64 / 1e9;

    let spans: Vec<(String, Value)> = stack
        .spans
        .aggregate()
        .into_iter()
        .map(|(name, a)| {
            let fields = [
                ("count", num(a.count as f64)),
                ("total_ns", num(a.total_ns)),
                ("self_ns", num(a.self_ns)),
                ("mean_ns", num(a.mean_ns())),
                ("p50_ns", num(a.p50_ns)),
                ("p99_ns", num(a.p99_ns)),
            ];
            (name.to_string(), crate::json::obj(fields))
        })
        .collect();
    let ticks = inputs
        .trace
        .duration
        .as_millis()
        .div_ceil(net_cfg.tick.as_millis());
    let raw = crate::json::obj([
        ("total_s", num(total_s)),
        ("observer_s", num(observer_s)),
        ("run_trace_s", num(total_s - observer_s)),
        ("ticks", num(ticks as f64)),
        ("kib_total", num(net.ledger().total_kib() as f64)),
        ("encounters", num(stack.encounters as f64)),
        ("quality", num(stack.quality.value())),
        (
            "engine_events",
            num(stack.chaos.as_ref().map(|c| c.events as f64)),
        ),
        ("span_overhead_ns", num(stack.spans.overhead_ns())),
        ("spans", Value::Object(spans)),
    ]);
    if let Some(path) = &job.dump_spans {
        crate::child::dump_spans(&stack.spans, path)?;
    }
    Ok(vec![("raw", raw)])
}
