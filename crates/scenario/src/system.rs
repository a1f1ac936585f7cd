//! The assembled system: every substrate wired together and driven by a
//! trace.

use crate::audit::Auditor;
use crate::config::{CrowdSpec, ProtocolConfig, ScenarioSetup};
use delivery::FaultEvent;
use rvs_attacks::{FlashCrowd, Flooder, Malformer};
use rvs_bartercast::{AdaptiveThreshold, BarterCast};
use rvs_bittorrent::{BitTorrentNet, Window};
use rvs_core::{VoteEntry, VoteSampling};
use rvs_faults::{Backoff, FaultPlane, FaultSchedule};
use rvs_guard::{Governor, GuardConfig};
use rvs_metrics::{collective_experience_value, correct_ordering_fraction, pollution_fraction};
use rvs_modcast::{KeyRegistry, LocalVote, ModerationCast};
use rvs_pss::{NewscastConfig, NewscastPss, OraclePss};
use rvs_sim::{pool, DetRng, Engine, ModeratorId, NodeId, Pool, SimTime};
use rvs_telemetry::{EncounterCounters, PhaseTimer, Snapshot};
use rvs_trace::Trace;
use std::collections::{BTreeSet, VecDeque};

mod delivery;
mod encounter;
mod persist;
mod round;

/// The peer sampling service in use.
enum Pss {
    Oracle(OraclePss),
    Newscast(NewscastPss),
}

impl Pss {
    fn set_online(&mut self, peer: NodeId, introducer: Option<NodeId>, now: SimTime) {
        match self {
            Pss::Oracle(o) => o.set_online(peer),
            Pss::Newscast(n) => n.set_online(peer, introducer, now),
        }
    }
    fn set_offline(&mut self, peer: NodeId) {
        match self {
            Pss::Oracle(o) => o.set_offline(peer),
            Pss::Newscast(n) => n.set_offline(peer),
        }
    }
    /// Read-only sampling: PSS state never changes on sampling (only on
    /// churn and gossip rounds); the draw comes from the requester's own
    /// RNG lane.
    fn sample_from(&self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        match self {
            Pss::Oracle(o) => o.sample_from(requester, rng),
            Pss::Newscast(n) => n.sample_from(requester, rng),
        }
    }
    fn gossip_round(&mut self, now: SimTime, rng: &mut DetRng) {
        if let Pss::Newscast(n) = self {
            n.gossip_round(now, rng);
        }
    }
    fn len(&self) -> usize {
        match self {
            Pss::Oracle(o) => o.len(),
            Pss::Newscast(n) => n.len(),
        }
    }
}

rvs_checkpoint::persist_enum!(Pss { Oracle(o) = 0, Newscast(n) = 1 });

/// The flash crowd `spec` casts: it occupies the ids after the `n_trace`
/// trace peers, and its first member doubles as the spam moderator M0.
fn flash_crowd(spec: Option<CrowdSpec>, n_trace: usize) -> Option<FlashCrowd> {
    spec.map(|spec| {
        let members = (n_trace..n_trace + spec.size).map(NodeId::from_index);
        let m0 = NodeId::from_index(n_trace);
        FlashCrowd::new(members, m0, spec.demote, spec.join_at)
    })
}

/// The fully wired simulation.
pub struct System {
    /// The run's master seed; every RNG stream is a labelled fork of it.
    /// Carried so checkpoints are self-contained (volatile state such as
    /// the key registry is re-derived from it on restore).
    seed: u64,
    cfg: ProtocolConfig,
    setup: ScenarioSetup,
    trace: Trace,
    n_trace: usize,
    n_total: usize,

    net: BitTorrentNet,
    pss: Pss,
    bc: BarterCast,
    mc: ModerationCast,
    registry: KeyRegistry,
    vs: VoteSampling,

    crowd: Option<FlashCrowd>,
    crowd_activated: bool,
    crowd_online: Vec<bool>,
    core_members: BTreeSet<NodeId>,
    adaptive: Option<Vec<AdaptiveThreshold>>,

    published: Vec<bool>,
    vote_cast: Vec<bool>,

    now: SimTime,
    next_event: usize,
    next_gossip: SimTime,
    rng_gossip: DetRng,
    rng_pss: DetRng,
    /// Per-peer send RNG lanes (PSS sample draws), keyed by peer id so
    /// the stream each peer observes depends on nothing but its own sends.
    send_rng: Vec<DetRng>,

    // Parallel round engine. The pool shards per-swarm BitTorrent
    // windows, and inside `run_until` the window up to the next gossip
    // round runs on it while this round's encounters run (`bt_ahead`);
    // results merge in canonical order, so the thread count can never
    // change results (proven by tests/parallel_differential.rs).
    pool: Pool,
    /// First BitTorrent tick not yet materialized.
    bt_window_start: SimTime,
    /// Online snapshot at `bt_window_start` (end of the last window).
    bt_online0: Vec<bool>,
    /// Trace events consumed by materialized windows so far.
    bt_event_lo: usize,
    /// The window from `bt_window_start` that is out on the pool, if any;
    /// the next `materialize_bt` folds it in. Volatile: never persisted,
    /// and nothing but `step` sees it in flight.
    bt_ahead: Option<Window>,
    /// While `run_until` runs a step: the earliest time its observer or its
    /// end needs the net. A window runs ahead only when this is set.
    bt_horizon: Option<SimTime>,

    enc: EncounterCounters,
    timer: PhaseTimer,
    audit: Option<Auditor>,

    // Fault-injection plane. With the default (inert) schedule, every
    // message takes the synchronous inline path and none of this state
    // consumes RNG draws or changes behaviour.
    faults: FaultPlane,
    fault_events: Engine<FaultEvent>,
    /// Next message id (monotone; ids order sends for reorder detection).
    next_msg_id: u64,
    /// Highest message id whose exchange has been applied.
    max_fired_msg: u64,
    /// Per-node windows of applied message ids (duplicate suppression),
    /// each strictly ascending: ids are handed out in send order, so an
    /// applied id almost always goes at the back, and the oldest leaves at
    /// the front.
    seen_msgs: Vec<VecDeque<u64>>,
    /// Per-node VoxPopuli bootstrap backoff state (only consulted when the
    /// schedule enables retry).
    vox_backoff: Vec<Backoff>,
    /// Per-node responder-rotation memory: peers that recently declined a
    /// VoxPopuli request and should not be re-asked immediately.
    vox_decliners: Vec<BTreeSet<NodeId>>,

    // Byzantine message plane. With the default (disabled) GuardConfig
    // the governor admits everything and the encounter's gate is open.
    guard: Governor,
    /// The flooding adversary, when armed: extra gossip initiations per
    /// member per round, routed through the normal send path.
    flooder: Option<Flooder>,
    /// The wire mutator, when armed: structured corruption applied to
    /// guarded sub-messages before admission.
    malformer: Option<Malformer>,
    /// Dedicated RNG lane for malformation decisions, so arming the
    /// malformer never perturbs honest protocol draws.
    rng_malform: DetRng,
    /// Per-node count of scheduled (in-flight) deliveries headed to the
    /// node — the bounded-inbox gauge the guard's `inbox_cap` polices.
    inbox_load: Vec<u32>,
}

impl System {
    /// Assemble a system for `trace` with the given scenario cast and an
    /// inert fault plane (no latency, loss, partitions, or crashes beyond
    /// the legacy `message_loss` knob).
    pub fn new(trace: Trace, cfg: ProtocolConfig, setup: ScenarioSetup, seed: u64) -> System {
        System::with_faults(trace, cfg, setup, seed, FaultSchedule::default())
    }

    /// Assemble a system whose deliveries route through the fault plane
    /// driven by `schedule`. The plane draws from a dedicated RNG fork, so
    /// two runs differing only in their schedule share every protocol RNG
    /// stream; an inert schedule reproduces [`System::new`] byte-for-byte.
    pub fn with_faults(
        trace: Trace,
        cfg: ProtocolConfig,
        setup: ScenarioSetup,
        seed: u64,
        schedule: FaultSchedule,
    ) -> System {
        let n_trace = trace.peer_count();
        let crowd_size = setup.crowd.map(|c| c.size).unwrap_or(0);
        let n_total = n_trace + crowd_size;
        let root = DetRng::new(seed);

        let net = BitTorrentNet::new(&trace, cfg.net, &root.fork(1));
        let pss = if cfg.use_newscast_pss {
            Pss::Newscast(NewscastPss::new(n_total, NewscastConfig::default()))
        } else {
            Pss::Oracle(OraclePss::new(n_total))
        };
        let bc = BarterCast::new(n_total, cfg.bartercast);
        let mut mc = ModerationCast::new(n_total, cfg.modcast);
        let registry = KeyRegistry::new(n_total, seed ^ 0x5EED);
        let mut vs = VoteSampling::new(n_total, cfg.votes);

        let crowd = flash_crowd(setup.crowd, n_trace);

        // Pre-seeded experienced core: converged on its top moderator.
        let mut core_members = BTreeSet::new();
        if let Some(core) = &setup.core {
            core_members.extend(core.members.iter().copied());
            let t0 = SimTime::ZERO;
            for &i in &core.members {
                mc.set_opinion(i, core.top_moderator, LocalVote::Approve, t0);
            }
            let entry = VoteEntry {
                moderator: core.top_moderator,
                vote: rvs_core::Vote::Positive,
                made_at: t0,
            };
            for &i in &core.members {
                for &j in &core.members {
                    if i != j {
                        vs.ballot_mut(i).merge(j, &[entry], t0);
                    }
                }
            }
        }

        let adaptive = cfg.adaptive_t.map(|a| vec![a; n_total]);
        let n_moderators = setup.moderators.len();
        let n_voters = setup.voters.len();

        // The legacy `message_loss` knob routes through the fault plane as
        // independent loss (unless the schedule configures its own rate),
        // so every drop reason is attributed to exactly one counter.
        let mut fault_cfg = schedule.config;
        if fault_cfg.loss == 0.0 {
            fault_cfg.loss = cfg.message_loss;
        }
        let mut faults = FaultPlane::new(fault_cfg, root.fork(5));
        let mut fault_events: Engine<FaultEvent> = Engine::new();
        for p in &schedule.partitions {
            let idx = faults.add_partition(p.members.iter().copied());
            fault_events.schedule_at(p.start, FaultEvent::PartitionStart(idx));
            fault_events.schedule_at(p.heal, FaultEvent::PartitionHeal(idx));
        }
        for c in &schedule.crashes {
            if c.node.index() < n_total {
                fault_events.schedule_at(c.at, FaultEvent::Crash(c.node));
            }
        }

        let send_base = root.fork(6);
        let bt_online0 = net.online_flags().to_vec();
        System {
            seed,
            cfg,
            setup,
            trace,
            n_trace,
            n_total,
            net,
            pss,
            bc,
            mc,
            registry,
            vs,
            crowd,
            crowd_activated: false,
            crowd_online: vec![false; crowd_size],
            core_members,
            adaptive,
            published: vec![false; n_moderators],
            vote_cast: vec![false; n_voters],
            now: SimTime::ZERO,
            next_event: 0,
            next_gossip: SimTime::ZERO,
            rng_gossip: root.fork(2),
            rng_pss: root.fork(3),
            send_rng: (0..n_total as u64).map(|i| send_base.fork(i)).collect(),
            pool: Pool::new(pool::env_threads()),
            bt_window_start: SimTime::ZERO,
            bt_online0,
            bt_event_lo: 0,
            bt_ahead: None,
            bt_horizon: None,
            enc: EncounterCounters::default(),
            timer: PhaseTimer::new(),
            audit: None,
            faults,
            fault_events,
            next_msg_id: 1,
            max_fired_msg: 0,
            seen_msgs: vec![VecDeque::new(); n_total],
            vox_backoff: vec![Backoff::new(); n_total],
            vox_decliners: vec![BTreeSet::new(); n_total],
            guard: Governor::new(n_total, GuardConfig::default()),
            flooder: None,
            malformer: None,
            rng_malform: root.fork(7),
            inbox_load: vec![0; n_total],
        }
    }

    /// The master seed this run was assembled from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the worker-thread count for the parallel round engine (clamped
    /// to at least 1; 1 runs everything inline on the caller's thread).
    /// Thread count can never change results — per-swarm RNG streams are
    /// keyed by id and window effects merge in canonical order — so this
    /// is purely a wall-clock knob.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.pool.threads() {
            self.pool = Pool::new(threads);
        }
    }

    /// The worker-thread count the round engine is using.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Switch on runtime invariant auditing (idempotent). The [`Auditor`]
    /// re-checks conservation and protocol invariants after every
    /// encounter; enabling it never changes protocol behaviour.
    pub fn enable_audit(&mut self) {
        if self.audit.is_none() {
            self.audit = Some(Auditor::new());
        }
    }

    /// The auditor, when auditing is enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.audit.as_ref()
    }

    /// Violations recorded so far — empty when auditing is off or clean.
    pub fn audit_violations(&self) -> &[String] {
        self.audit.as_ref().map(Auditor::violations).unwrap_or(&[])
    }

    /// A mergeable snapshot of every protocol layer's counters plus this
    /// system's wall-clock phase timings.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        Snapshot {
            encounters: self.enc.clone(),
            moderation: self.mc.counters().clone(),
            votes: self.vs.counters().clone(),
            voxpopuli: self.vs.vox_counters().clone(),
            barter: self.bc.counters(),
            pss: match &self.pss {
                Pss::Newscast(n) => n.counters().clone(),
                Pss::Oracle(_) => Default::default(),
            },
            faults: self.faults.counters().clone(),
            guard: self.guard.counters().clone(),
            phase_nanos: self.timer.phases().clone(),
        }
    }

    /// The fault-injection plane (partition state and fault counters).
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// The Byzantine guard plane (per-peer budgets, quarantine state,
    /// rejection counters).
    pub fn guard(&self) -> &Governor {
        &self.guard
    }

    /// Arm (or re-arm) the guard plane. Re-arming resets every peer's
    /// budgets to the new config; rejection counters are kept. With
    /// `enabled == false` the encounter's gate stands open.
    pub fn set_guard_config(&mut self, cfg: GuardConfig) {
        self.guard.set_config(cfg);
    }

    /// Size of the largest per-node dedup window right now. Bounded by
    /// [`GuardConfig::seen_window`] at all times — the flood regression
    /// tests assert this never exceeds the configured cap.
    pub fn max_seen_window(&self) -> usize {
        self.seen_msgs.iter().map(VecDeque::len).max().unwrap_or(0)
    }

    /// The message ids in `node`'s dedup window, ascending.
    pub fn dedup_window(&self, node: NodeId) -> impl Iterator<Item = u64> + '_ {
        self.seen_msgs[node.index()].iter().copied()
    }

    /// Arm the flooding adversary: each member initiates `per_round`
    /// extra gossip sends per round through the normal send path.
    ///
    /// # Panics
    ///
    /// If the flood does not fit the population
    /// ([`Flooder::within`]): a member outside it, or more sends a round
    /// than it has nodes.
    pub fn set_flooder(&mut self, flooder: Flooder) {
        assert!(
            flooder.within(self.n_total),
            "the flood does not fit the {} nodes",
            self.n_total
        );
        self.flooder = Some(flooder);
    }

    /// The flooding adversary, when armed.
    pub fn flooder(&self) -> Option<&Flooder> {
        self.flooder.as_ref()
    }

    /// Arm the wire mutator: guarded sub-messages are structurally
    /// corrupted at its configured rate before admission. Only effective
    /// while the guard plane is enabled (the mutation point sits on the
    /// gated delivery path).
    pub fn set_malformer(&mut self, malformer: Malformer) {
        self.malformer = Some(malformer);
    }

    /// The wire mutator, when armed.
    pub fn malformer(&self) -> Option<&Malformer> {
        self.malformer.as_ref()
    }

    /// Scheduled primary deliveries still in flight.
    pub fn in_flight(&self) -> u64 {
        delivery::primaries(&self.fault_events)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of peers in the underlying trace.
    pub fn trace_peer_count(&self) -> usize {
        self.n_trace
    }

    /// Total nodes including any flash crowd.
    pub fn total_nodes(&self) -> usize {
        self.n_total
    }

    /// The trace driving the run.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The BitTorrent substrate.
    pub fn net(&self) -> &BitTorrentNet {
        assert!(
            self.bt_ahead.is_none(),
            "the net was read while its swarms are out on the pool"
        );
        &self.net
    }

    /// The BarterCast state.
    pub fn bartercast(&self) -> &BarterCast {
        &self.bc
    }

    /// The ModerationCast state.
    pub fn modcast(&self) -> &ModerationCast {
        &self.mc
    }

    /// The vote-sampling state.
    pub fn votes(&self) -> &VoteSampling {
        &self.vs
    }

    /// The flash crowd, if any.
    pub fn crowd(&self) -> Option<&FlashCrowd> {
        self.crowd.as_ref()
    }

    /// Is `node` online right now (trace churn for trace peers, duty cycle
    /// for crowd identities)?
    pub fn is_online(&self, node: NodeId) -> bool {
        if node.index() < self.n_trace {
            self.net.is_online(node)
        } else {
            self.crowd_online
                .get(node.index() - self.n_trace)
                .copied()
                .unwrap_or(false)
        }
    }

    fn is_crowd(&self, node: NodeId) -> bool {
        self.crowd
            .as_ref()
            .map(|c| c.is_member(node))
            .unwrap_or(false)
    }

    /// The experience predicate `E_i(j)` as node `i` evaluates it —
    /// always computed from `i`'s own BarterCast graph, even for the
    /// pre-seeded core: a *new* node has downloaded nothing yet, so nobody
    /// (core included) is experienced towards it until it participates in
    /// swarms. That asymmetry is what opens the Figure 8 bootstrap window.
    pub fn experienced(&self, i: NodeId, j: NodeId) -> bool {
        let t = match &self.adaptive {
            Some(per_node) => per_node[i.index()].t_mib,
            None => self.cfg.experience_t_mib,
        };
        self.bc.contribution_mib(i, j) >= t
    }

    /// Contribution `f_{j→i}` in MiB for an explicit threshold sweep.
    pub fn contribution_mib(&self, i: NodeId, j: NodeId) -> f64 {
        self.bc.contribution_mib(i, j)
    }

    /// CEV over the trace population for threshold `t_mib` (Figure 5).
    pub fn cev(&self, t_mib: f64) -> f64 {
        collective_experience_value(self.n_trace, |i, j| self.bc.contribution_mib(i, j) >= t_mib)
    }

    /// The ranking node `i` would display to its user: the VoxPopuli merge
    /// while bootstrapping, ballot statistics (unioned with moderators
    /// known from its local database) afterwards.
    pub fn display_ranking(&self, i: NodeId) -> Vec<ModeratorId> {
        self.vs.ranking_with_known(i, &self.mc).ranked
    }

    /// Fraction of trace nodes whose displayed ranking orders `expected`
    /// correctly (Figure 6).
    pub fn ordering_accuracy(&self, expected: &[ModeratorId]) -> f64 {
        let rankings: Vec<Vec<ModeratorId>> = (0..self.n_trace)
            .map(|i| self.display_ranking(NodeId::from_index(i)))
            .collect();
        correct_ordering_fraction(rankings.iter().map(|r| r.as_slice()), expected)
    }

    /// Fraction of *newly arrived honest* nodes (trace peers outside the
    /// pre-seeded core that have arrived by now) ranking `spam` top
    /// (Figure 8).
    pub fn new_node_pollution(&self, spam: ModeratorId) -> f64 {
        let rankings: Vec<Vec<ModeratorId>> = (0..self.n_trace)
            .map(NodeId::from_index)
            .filter(|n| !self.core_members.contains(n))
            .filter(|n| self.trace.peers[n.index()].arrival <= self.now)
            .map(|n| self.display_ranking(n))
            .collect();
        pollution_fraction(rankings.iter().map(|r| r.as_slice()), spam)
    }

    /// Current adaptive thresholds (ablation A1), if enabled.
    pub fn adaptive_thresholds(&self) -> Option<&[AdaptiveThreshold]> {
        self.adaptive.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VoteSamplingConfig;
    use rvs_sim::SimDuration;

    pub(super) const SPAN: SimDuration = SimDuration::from_hours(4);

    /// The fig6 cast on 10 peers over [`SPAN`], at the default `T`.
    pub(super) fn fig6_cast() -> VoteSamplingConfig {
        VoteSamplingConfig {
            protocol: ProtocolConfig::default(),
            ..VoteSamplingConfig::quick(10, SPAN)
        }
    }

    /// The fig6 cast under `protocol`, where node 1 has synced from the
    /// ledger that 2 uploaded `kib` KiB to it, and node 2 its own side.
    fn uploaded(kib: u64, protocol: ProtocolConfig) -> System {
        let cast = VoteSamplingConfig {
            protocol,
            ..fig6_cast()
        };
        let (mut system, _) = cast.system(1, FaultSchedule::default());
        let mut ledger = rvs_bittorrent::TransferLedger::new();
        ledger.credit(NodeId(2), NodeId(1), kib);
        for node in [NodeId(1), NodeId(2)] {
            system.bc.sync_own_records(node, &ledger);
        }
        system
    }

    #[test]
    fn experience_holds_from_t_inclusive_and_one_way() {
        let fixed = ProtocolConfig::default();
        assert!(uploaded(5 * 1024, fixed).experienced(NodeId(1), NodeId(2)));
        assert!(!uploaded(5 * 1024 - 1, fixed).experienced(NodeId(1), NodeId(2)));
        // 2 uploaded to 1; 1 never uploaded to 2.
        let system = uploaded(10 * 1024, fixed);
        assert!(system.experienced(NodeId(1), NodeId(2)));
        assert!(!system.experienced(NodeId(2), NodeId(1)));
        // At `T` = 0 even a node that contributed nothing passes.
        let zero = ProtocolConfig {
            experience_t_mib: 0.0,
            ..fixed
        };
        assert!(uploaded(1, zero).experienced(NodeId(1), NodeId(0)));
    }

    #[test]
    fn adaptive_experience_follows_the_nodes_current_t() {
        let protocol = ProtocolConfig {
            adaptive_t: Some(AdaptiveThreshold::default()),
            ..ProtocolConfig::default()
        };
        // 3 MiB passes node 1's adaptive `T` of 0, not the fixed 5 MiB.
        let mut system = uploaded(3 * 1024, protocol);
        assert!(system.experienced(NodeId(1), NodeId(2)));
        let thresholds = system.adaptive.as_mut().expect("adaptive thresholds");
        for _ in 0..4 {
            thresholds[1].observe_dispersion(1.0); // node 1's `T` climbs to 4
        }
        assert!(!system.experienced(NodeId(1), NodeId(2)));
        // Node 2 still judges at its own `T` of 0.
        assert!(system.experienced(NodeId(2), NodeId(1)));
    }
}
