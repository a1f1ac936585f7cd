//! The assembled system: every substrate wired together and driven by a
//! trace.

use crate::audit::Auditor;
use crate::checkpoint::{Checkpoint, Identity};
use crate::config::{ProtocolConfig, ScenarioSetup};
use encounter::votes_from;
use rvs_attacks::{FlashCrowd, Flooder, Malformer};
use rvs_bartercast::{AdaptiveThreshold, BarterCast};
use rvs_bittorrent::{BitTorrentNet, Window};
use rvs_checkpoint::Persist as _;
use rvs_core::{VoteEntry, VoteSampling};
use rvs_faults::{Backoff, FaultPlane, FaultSchedule, SendOutcome};
use rvs_guard::{Governor, GuardConfig, RejectReason};
use rvs_metrics::{collective_experience_value, correct_ordering_fraction, pollution_fraction};
use rvs_modcast::{KeyRegistry, LocalVote, ModerationCast};
use rvs_pss::{NewscastConfig, NewscastPss, OraclePss};
use rvs_sim::{pool, DetRng, Engine, ModeratorId, NodeId, Pool, SimDuration, SimTime};
use rvs_telemetry::{EncounterCounters, PhaseTimer, Snapshot};
use rvs_trace::{Trace, TraceEventKind};
use std::collections::{BTreeSet, VecDeque};

mod encounter;

/// Events routed through the fault-plane delivery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultEvent {
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

/// Stable binary encoding: a `u8` discriminant (0 = Deliver, 1 = Resend,
/// 2 = PartitionStart, 3 = PartitionHeal, 4 = Crash) followed by the
/// variant's fields in declaration order.
impl rvs_checkpoint::Persist for FaultEvent {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        match *self {
            FaultEvent::Deliver {
                id,
                from,
                to,
                attempt,
                primary,
            } => {
                enc.u8(0);
                enc.u64(id);
                from.persist(enc);
                to.persist(enc);
                enc.u32(attempt);
                enc.bool(primary);
            }
            FaultEvent::Resend { from, to, attempt } => {
                enc.u8(1);
                from.persist(enc);
                to.persist(enc);
                enc.u32(attempt);
            }
            FaultEvent::PartitionStart(idx) => {
                enc.u8(2);
                enc.usize(idx);
            }
            FaultEvent::PartitionHeal(idx) => {
                enc.u8(3);
                enc.usize(idx);
            }
            FaultEvent::Crash(node) => {
                enc.u8(4);
                node.persist(enc);
            }
        }
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        match dec.u8()? {
            0 => Ok(FaultEvent::Deliver {
                id: dec.u64()?,
                from: NodeId::restore(dec)?,
                to: NodeId::restore(dec)?,
                attempt: dec.u32()?,
                primary: dec.bool()?,
            }),
            1 => Ok(FaultEvent::Resend {
                from: NodeId::restore(dec)?,
                to: NodeId::restore(dec)?,
                attempt: dec.u32()?,
            }),
            2 => Ok(FaultEvent::PartitionStart(dec.usize()?)),
            3 => Ok(FaultEvent::PartitionHeal(dec.usize()?)),
            4 => Ok(FaultEvent::Crash(NodeId::restore(dec)?)),
            d => Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "invalid FaultEvent discriminant {d}"
            ))),
        }
    }
}

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

/// Stable binary encoding: a `u8` discriminant (0 = Oracle, 1 = Newscast)
/// followed by the wrapped sampler's state.
impl rvs_checkpoint::Persist for Pss {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        match self {
            Pss::Oracle(o) => {
                enc.u8(0);
                o.persist(enc);
            }
            Pss::Newscast(n) => {
                enc.u8(1);
                n.persist(enc);
            }
        }
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        match dec.u8()? {
            0 => Ok(Pss::Oracle(OraclePss::restore(dec)?)),
            1 => Ok(Pss::Newscast(NewscastPss::restore(dec)?)),
            d => Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "invalid Pss discriminant {d}"
            ))),
        }
    }
}

/// Write the per-node dedup windows: a node count, then per node a
/// [varint](rvs_checkpoint::Encoder::varint) length and the ids as
/// [gaps](rvs_checkpoint::Encoder::gap), so every window restores strictly
/// ascending — what its bisection needs — by construction.
fn persist_dedup_windows(windows: &[VecDeque<u64>], enc: &mut rvs_checkpoint::Encoder) {
    enc.usize(windows.len());
    for window in windows {
        enc.varint(window.len() as u64);
        let mut next = 0;
        window.iter().for_each(|&id| enc.gap(&mut next, id));
    }
}

/// Read what [`persist_dedup_windows`] wrote. A length the bytes left
/// cannot hold is refused before it allocates.
fn restore_dedup_windows(
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
    /// Scheduled primary deliveries not yet resolved — the in-flight term
    /// of the encounter conservation identity.
    pending_primary: u64,
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

        // The flash crowd occupies ids n_trace..n_total; its first member
        // doubles as the spam moderator M0.
        let crowd = setup.crowd.map(|spec| {
            assert!(spec.size > 0, "crowd must have at least one member");
            let members: Vec<NodeId> = (n_trace..n_total).map(NodeId::from_index).collect();
            FlashCrowd::new(
                members,
                NodeId::from_index(n_trace),
                spec.demote,
                spec.join_at,
            )
        });

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
            pending_primary: 0,
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

    /// Serialize the complete resumable state into a self-contained
    /// [`Checkpoint`]: seed, configuration, scenario cast, trace, every
    /// protocol layer, every RNG lane, the fault plane with its in-flight
    /// event queue, and the telemetry counters. Volatile-by-design state
    /// (thread pool, wall-clock phase timer, auditor, key registry, flash
    /// crowd handle) is *not* written — [`System::restore`] re-derives it,
    /// which is what makes restoring on a different thread count legal.
    /// Resuming is byte-identical to never having stopped (proven by
    /// `tests/checkpoint_differential.rs`); layout and versioning policy
    /// are documented in DESIGN.md §12.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            bytes: self.encode().into_bytes(),
        }
    }

    /// [`System::checkpoint`]'s encoder before it is reduced to bytes: it
    /// still knows where each tagged section starts.
    pub(crate) fn encode(&self) -> rvs_checkpoint::Encoder {
        assert!(
            self.bt_ahead.is_none(),
            "checkpoint taken while a BitTorrent window is out on the pool"
        );
        let mut enc = rvs_checkpoint::Encoder::new();
        rvs_checkpoint::write_header(&mut enc);
        Identity {
            seed: self.seed,
            now: self.now,
            trace_peers: self.n_trace,
            total_nodes: self.n_total,
        }
        .persist(&mut enc);

        enc.tag("cfg");
        self.cfg.persist(&mut enc);
        enc.tag("setup");
        self.setup.persist(&mut enc);
        enc.tag("trace");
        self.trace.persist(&mut enc);

        enc.tag("net");
        self.net.persist(&mut enc);
        enc.tag("pss");
        self.pss.persist(&mut enc);
        enc.tag("bartercast");
        self.bc.persist(&mut enc);
        enc.tag("modcast");
        self.mc.persist(&mut enc);
        enc.tag("votes");
        self.vs.persist(&mut enc);

        enc.tag("scenario");
        enc.bool(self.crowd_activated);
        self.crowd_online.persist(&mut enc);
        self.core_members.persist(&mut enc);
        self.adaptive.persist(&mut enc);
        self.published.persist(&mut enc);
        self.vote_cast.persist(&mut enc);

        enc.tag("clock");
        enc.usize(self.next_event);
        self.next_gossip.persist(&mut enc);

        enc.tag("rng");
        self.rng_gossip.persist(&mut enc);
        self.rng_pss.persist(&mut enc);
        self.send_rng.persist(&mut enc);

        enc.tag("bt");
        self.bt_window_start.persist(&mut enc);
        self.bt_online0.persist(&mut enc);
        enc.usize(self.bt_event_lo);

        enc.tag("counters");
        self.enc.persist(&mut enc);

        enc.tag("faults");
        self.faults.persist(&mut enc);
        self.fault_events.persist(&mut enc);
        enc.u64(self.next_msg_id);
        enc.u64(self.pending_primary);
        enc.u64(self.max_fired_msg);
        persist_dedup_windows(&self.seen_msgs, &mut enc);
        self.vox_backoff.persist(&mut enc);
        self.vox_decliners.persist(&mut enc);

        enc.tag("guard");
        self.guard.persist(&mut enc);
        self.flooder.persist(&mut enc);
        self.malformer.persist(&mut enc);
        self.rng_malform.persist(&mut enc);
        self.inbox_load.persist(&mut enc);
        enc
    }

    /// Rebuild a [`System`] from a [`Checkpoint`], re-deriving every
    /// volatile: the thread pool from the current environment (so a
    /// checkpoint taken under `RVS_THREADS=1` restores cleanly under
    /// `RVS_THREADS=4` and vice versa), the key registry from the seed,
    /// the flash-crowd handle from the persisted spec, a fresh phase
    /// timer, and auditing off (call [`System::enable_audit`] again to
    /// resume invariant checking — the audit RNG lane is persisted, so a
    /// re-enabled auditor samples exactly as an uninterrupted one).
    ///
    /// Never panics on damaged input: corrupt, truncated, or
    /// version-skewed blobs surface as typed [`DecodeError`]s, and
    /// cross-field consistency (population sizes, cursor bounds,
    /// per-node vector lengths, a non-zero tick, each protocol section's
    /// config equal to `cfg`'s) is validated before any state is used.
    ///
    /// [`DecodeError`]: rvs_checkpoint::DecodeError
    pub fn restore(ckpt: &Checkpoint) -> Result<System, rvs_checkpoint::DecodeError> {
        let corrupt = |msg: String| rvs_checkpoint::DecodeError::Corrupt(msg);
        let mut dec = rvs_checkpoint::Decoder::new(ckpt.as_bytes());
        rvs_checkpoint::read_header(&mut dec)?;
        let Identity {
            seed,
            now,
            trace_peers: n_trace,
            total_nodes: n_total,
        } = Identity::restore(&mut dec)?;

        dec.tag("cfg")?;
        let cfg = ProtocolConfig::restore(&mut dec)?;
        dec.tag("setup")?;
        let setup = ScenarioSetup::restore(&mut dec)?;
        dec.tag("trace")?;
        let trace = Trace::restore(&mut dec)?;

        dec.tag("net")?;
        let net = BitTorrentNet::restore(&mut dec)?;
        dec.tag("pss")?;
        let pss = Pss::restore(&mut dec)?;
        dec.tag("bartercast")?;
        let bc = BarterCast::restore(&mut dec)?;
        dec.tag("modcast")?;
        let mc = ModerationCast::restore(&mut dec)?;
        dec.tag("votes")?;
        let vs = VoteSampling::restore(&mut dec)?;

        dec.tag("scenario")?;
        let crowd_activated = dec.bool()?;
        let crowd_online: Vec<bool> = Vec::restore(&mut dec)?;
        let core_members: BTreeSet<NodeId> = BTreeSet::restore(&mut dec)?;
        let adaptive: Option<Vec<AdaptiveThreshold>> = Option::restore(&mut dec)?;
        let published: Vec<bool> = Vec::restore(&mut dec)?;
        let vote_cast: Vec<bool> = Vec::restore(&mut dec)?;

        dec.tag("clock")?;
        let next_event = dec.usize()?;
        let next_gossip = SimTime::restore(&mut dec)?;

        dec.tag("rng")?;
        let rng_gossip = DetRng::restore(&mut dec)?;
        let rng_pss = DetRng::restore(&mut dec)?;
        let send_rng: Vec<DetRng> = Vec::restore(&mut dec)?;

        dec.tag("bt")?;
        let bt_window_start = SimTime::restore(&mut dec)?;
        let bt_online0: Vec<bool> = Vec::restore(&mut dec)?;
        let bt_event_lo = dec.usize()?;

        dec.tag("counters")?;
        let enc_counters = EncounterCounters::restore(&mut dec)?;

        dec.tag("faults")?;
        let faults = FaultPlane::restore(&mut dec)?;
        let fault_events: Engine<FaultEvent> = Engine::restore(&mut dec)?;
        let next_msg_id = dec.u64()?;
        let pending_primary = dec.u64()?;
        let max_fired_msg = dec.u64()?;
        let seen_msgs = restore_dedup_windows(&mut dec)?;
        let vox_backoff: Vec<Backoff> = Vec::restore(&mut dec)?;
        let vox_decliners: Vec<BTreeSet<NodeId>> = Vec::restore(&mut dec)?;

        dec.tag("guard")?;
        let guard = Governor::restore(&mut dec)?;
        let flooder: Option<Flooder> = Option::restore(&mut dec)?;
        let malformer: Option<Malformer> = Option::restore(&mut dec)?;
        let rng_malform = DetRng::restore(&mut dec)?;
        let inbox_load: Vec<u32> = Vec::restore(&mut dec)?;
        dec.finish()?;

        // Cross-field consistency: a blob that decodes field-by-field can
        // still describe an impossible system; reject it before wiring.
        let crowd_size = setup.crowd.map(|c| c.size).unwrap_or(0);
        if trace.peer_count() != n_trace {
            return Err(corrupt(format!(
                "trace has {} peers but header claims {n_trace}",
                trace.peer_count()
            )));
        }
        if n_total != n_trace + crowd_size {
            return Err(corrupt(format!(
                "total nodes {n_total} != trace peers {n_trace} + crowd {crowd_size}"
            )));
        }
        if crowd_online.len() != crowd_size {
            return Err(corrupt(format!(
                "crowd online flags {} != crowd size {crowd_size}",
                crowd_online.len()
            )));
        }
        if adaptive.is_some() != cfg.adaptive_t.is_some() {
            return Err(corrupt(
                "adaptive-threshold state does not match the configured `adaptive_t`".into(),
            ));
        }
        if cfg.net.tick.as_millis() == 0 {
            return Err(corrupt("`cfg` has a zero BitTorrent tick".into()));
        }
        for (name, same) in [
            ("net", net.config() == cfg.net),
            ("bartercast", bc.config() == cfg.bartercast),
            ("modcast", mc.config() == cfg.modcast),
            ("votes", vs.config() == cfg.votes),
        ] {
            if !same {
                return Err(corrupt(format!(
                    "`{name}` runs under a config other than `cfg`'s copy"
                )));
            }
        }
        for (name, len) in [
            ("PSS population", pss.len()),
            (
                "adaptive thresholds",
                adaptive.as_ref().map_or(n_total, Vec::len),
            ),
            ("send RNG lanes", send_rng.len()),
            ("dedup windows", seen_msgs.len()),
            ("backoff states", vox_backoff.len()),
            ("decliner windows", vox_decliners.len()),
            ("guard records", guard.len()),
            ("inbox gauges", inbox_load.len()),
        ] {
            if len != n_total {
                return Err(corrupt(format!("{name} {len} != total nodes {n_total}")));
            }
        }
        for (name, ok) in [
            ("bartercast", bc.has_population(n_total)),
            ("modcast", mc.has_population(n_total)),
            ("votes", vs.has_population(n_total)),
        ] {
            if !ok {
                return Err(corrupt(format!(
                    "{name} tables are not sized for {n_total} nodes"
                )));
            }
        }
        if published.len() != setup.moderators.len() || vote_cast.len() != setup.voters.len() {
            return Err(corrupt(format!(
                "cast progress ({}, {}) does not match setup ({}, {})",
                published.len(),
                vote_cast.len(),
                setup.moderators.len(),
                setup.voters.len()
            )));
        }
        if next_event > trace.events.len() || bt_event_lo > next_event {
            return Err(corrupt(format!(
                "event cursors ({bt_event_lo}, {next_event}) exceed trace length {}",
                trace.events.len()
            )));
        }
        if !net.fits(&trace) || bt_online0.len() != n_trace {
            return Err(corrupt(format!(
                "BitTorrent substrate or its online snapshot ({}) is not sized for the trace \
                 ({n_trace} peers, {} swarms)",
                bt_online0.len(),
                trace.swarms.len()
            )));
        }

        // Volatile rebuilds — everything deliberately outside the blob.
        let registry = KeyRegistry::new(n_total, seed ^ 0x5EED);
        let crowd = setup.crowd.map(|spec| {
            let members: Vec<NodeId> = (n_trace..n_total).map(NodeId::from_index).collect();
            FlashCrowd::new(
                members,
                NodeId::from_index(n_trace),
                spec.demote,
                spec.join_at,
            )
        });
        Ok(System {
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
            crowd_activated,
            crowd_online,
            core_members,
            adaptive,
            published,
            vote_cast,
            now,
            next_event,
            next_gossip,
            rng_gossip,
            rng_pss,
            send_rng,
            pool: Pool::new(pool::env_threads()),
            bt_window_start,
            bt_online0,
            bt_event_lo,
            bt_ahead: None,
            bt_horizon: None,
            enc: enc_counters,
            timer: PhaseTimer::new(),
            audit: None,
            faults,
            fault_events,
            next_msg_id,
            pending_primary,
            max_fired_msg,
            seen_msgs,
            vox_backoff,
            vox_decliners,
            guard,
            flooder,
            malformer,
            rng_malform,
            inbox_load,
        })
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
    pub fn set_flooder(&mut self, flooder: Flooder) {
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
        self.pending_primary
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
                TraceEventKind::Online => {
                    let introducer = self.any_online_except(ev.peer);
                    self.pss.set_online(ev.peer, introducer, self.now);
                }
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
    fn materialize_bt(&mut self, end_exclusive: SimTime) {
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

    /// A deterministically random online node other than `except`, drawn
    /// from the gossip stream. (Taking the *first* online node here skewed
    /// every PSS bootstrap introduction toward node 0.)
    fn any_online_except(&mut self, except: NodeId) -> Option<NodeId> {
        let candidates: Vec<NodeId> = (0..self.n_total)
            .map(NodeId::from_index)
            .filter(|&n| n != except && self.is_online(n))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(*self.rng_gossip.pick(&candidates))
        }
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
                    let introducer = self.any_online_except(node);
                    self.pss.set_online(node, introducer, self.now);
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
            let in_flight = self.pending_primary;
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

    /// Route one send from `i` to `j` through the fault plane, which
    /// decides loss/latency/duplication on the sender's own lane: drops
    /// feed the retry path, deliveries assign the (serial, monotone)
    /// message id and either run the exchange inline or schedule it. The
    /// caller has already counted `attempted` and verified both endpoints
    /// online.
    fn dispatch(&mut self, i: NodeId, j: NodeId, attempt: u32) {
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
                let inbox_full = |load: &[u32], guard: &Governor| {
                    guard.enabled() && load[j.index()] >= guard.config().inbox_cap
                };
                if let Some(extra) = duplicate_delay {
                    if inbox_full(&self.inbox_load, &self.guard) {
                        // Fixed drop policy: a full inbox sheds the newest
                        // arrival. Duplicates are outside the conservation
                        // identity, so this gets its own counter.
                        self.guard.counters_mut().inbox_dropped_dup += 1;
                    } else {
                        self.inbox_load[j.index()] += 1;
                        self.fault_events.schedule_at(
                            self.now.saturating_add(extra),
                            FaultEvent::Deliver {
                                id,
                                from: i,
                                to: j,
                                attempt,
                                primary: false,
                            },
                        );
                    }
                }
                if delay.is_zero() {
                    // Zero-latency fast path: the legacy synchronous
                    // exchange, applied inside the sending gossip round.
                    self.apply_message(id, i, j);
                    self.enc.delivered += 1;
                } else if inbox_full(&self.inbox_load, &self.guard) {
                    // The primary copy is shed before scheduling: the
                    // attempt resolves as an attributed drop (the
                    // `inbox_dropped` term of the conservation identity)
                    // and feeds the retry path like any other loss.
                    self.guard
                        .note_rejection(j, RejectReason::InboxOverflow, self.now);
                    self.maybe_retry(i, j, attempt);
                } else {
                    self.inbox_load[j.index()] += 1;
                    self.pending_primary += 1;
                    self.fault_events.schedule_at(
                        self.now.saturating_add(delay),
                        FaultEvent::Deliver {
                            id,
                            from: i,
                            to: j,
                            attempt,
                            primary: true,
                        },
                    );
                }
            }
        }
    }

    fn handle_fault_event(&mut self, ev: FaultEvent) {
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
        self.inbox_load[to.index()] = self.inbox_load[to.index()].saturating_sub(1);
        if primary {
            self.pending_primary -= 1;
        }
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
        if node.index() >= self.n_total {
            return;
        }
        self.vs.crash_reset(node);
        self.seen_msgs[node.index()].clear();
        self.vox_backoff[node.index()] = Backoff::new();
        self.vox_decliners[node.index()].clear();
        // Guard state is volatile by design: a rebooted peer returns with
        // fresh budgets and no strikes or quarantine history.
        self.guard.crash_reset(node);
        self.faults.counters_mut().crash_restarts += 1;
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
        let members: Vec<NodeId> = f.members().filter(|m| m.index() < self.n_total).collect();
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
    fn revalidate_released(&mut self, q: NodeId) {
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

    /// Current adaptive thresholds (ablation A1), if enabled.
    pub fn adaptive_thresholds(&self) -> Option<&[AdaptiveThreshold]> {
        self.adaptive.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VoteSamplingConfig;
    use rvs_faults::{FaultConfig, RetryConfig};
    use std::cell::Cell;

    thread_local! {
        /// BitTorrent windows launched ahead of a gossip round on this
        /// thread.
        pub(super) static LAUNCHES: Cell<u64> = const { Cell::new(0) };
    }

    const SPAN: SimDuration = SimDuration::from_hours(4);

    /// The fig6 cast on 10 peers over [`SPAN`], at the default `T`.
    fn fig6_cast() -> VoteSamplingConfig {
        VoteSamplingConfig {
            protocol: ProtocolConfig::default(),
            ..VoteSamplingConfig::quick(10, SPAN)
        }
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
