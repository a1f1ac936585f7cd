//! All swarms of a trace, wired to churn: the full BitTorrent substrate.
//!
//! [`BitTorrentNet`] owns one [`SwarmSim`] per trace swarm, a global
//! [`TransferLedger`], and the online/offline state of every peer. Trace
//! events drive churn and download starts; fixed ticks drive transfers.
//! Behavioural policies from the paper are applied here:
//!
//! * **initial seeders** join their swarm as soon as they are online after
//!   the swarm is created and keep seeding whenever online (the tracker
//!   community expects the uploader to sustain the torrent);
//! * **altruists** seed a completed download until their per-profile seed
//!   budget of online seeding time is spent;
//! * **free-riders** "leave swarms as soon as they have downloaded their
//!   file" (§VI) and never seed.
//!
//! # Parallel execution
//!
//! Swarms are mutually independent within a tick: each owns its RNG stream
//! (forked from the net's base **keyed by swarm id**), its members, and its
//! seed budgets. The only cross-swarm state is the global ledger — a
//! commutative sum of per-swarm credits. Two drivers exploit this:
//!
//! * [`BitTorrentNet::tick`] advances every swarm serially, in ascending
//!   swarm order (the legacy immediate mode used by [`run_trace`]), and
//!   returns the tick's completions.
//! * [`BitTorrentNet::begin_window`] hands a whole span of ticks to a
//!   [`Pool`], per swarm an isolated job, and returns at once with the
//!   swarms out on the pool; [`BitTorrentNet::finish_window`] waits for
//!   them and folds each swarm's list of credits into the ledger in
//!   ascending swarm order. [`BitTorrentNet::advance_window`] is the two
//!   back to back.
//!   Because every tick is a pure function of the swarm's own state, the
//!   result is byte-identical to immediate mode for any window
//!   partition and any thread count. Between the two halves the caller may
//!   run anything that does not need the swarms: the ledger reads as of
//!   the window's start until it is finished.
//!
//! [`run_trace`]: BitTorrentNet::run_trace

use crate::ledger::{CreditSink, TransferLedger};
use crate::swarm::{Completion, LinkProfile, MemberRole, SwarmSim};
use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::pool::{Pending, Pool};
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime, SwarmId};
use rvs_trace::{PeerProfile, Trace, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration for the whole-network simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Transfer tick length, never zero. 10 s matches
    /// [`RECHOKE_INTERVAL`](crate::swarm::RECHOKE_INTERVAL) and keeps a
    /// 7-day trace around 60k ticks.
    pub tick: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            tick: SimDuration::from_secs(10),
        }
    }
}

rvs_checkpoint::persist_struct!(NetConfig { tick });

/// One swarm plus everything its ticks touch: its RNG stream (keyed by
/// swarm id) and the seed budgets of its altruists. Self-contained so a
/// window of ticks can run as an isolated pool job.
#[derive(Debug, Clone)]
struct SwarmRunner {
    sim: SwarmSim,
    rng: DetRng,
    /// Remaining online seeding budget per altruist member of this swarm.
    seed_budget: BTreeMap<NodeId, SimDuration>,
}

/// What one swarm booked during a window: `(from, to, kib)` in arrival
/// order.
type Credits = Vec<(NodeId, NodeId, u64)>;

/// What one pool job hands back: its chunk of swarms and, per swarm, the
/// credits of the window.
type ChunkResult = (Vec<SwarmRunner>, Vec<Credits>);

/// A window of ticks out on the pool, from [`BitTorrentNet::begin_window`]
/// until [`BitTorrentNet::finish_window`] puts its swarms back. While it is
/// out the net holds no swarms.
#[derive(Debug)]
#[must_use = "the window's swarms only return to the net through `finish_window`"]
pub struct Window {
    chunks: Pending<ChunkResult>,
    end: SimTime,
}

impl Window {
    /// The first tick the window does not simulate (the next window's
    /// `start`).
    pub fn end(&self) -> SimTime {
        self.end
    }
}

fn link_of(profiles: &[PeerProfile], peer: NodeId) -> LinkProfile {
    let p = &profiles[peer.index()];
    LinkProfile {
        connectable: p.connectable,
        uplink_kibps: p.uplink_kibps,
        downlink_kibps: p.downlink_kibps,
    }
}

impl SwarmRunner {
    /// Apply the swarm-relevant part of one trace event at time `now`.
    fn apply_event(&mut self, ev: &TraceEvent, now: SimTime, link: LinkProfile, online: bool) {
        match ev.kind {
            TraceEventKind::Online => {
                self.sim.set_online(ev.peer, true);
                // Initial seeders (re)join once online after swarm creation.
                if self.sim.spec().initial_seeder == ev.peer
                    && self.sim.spec().created <= now
                    && !self.sim.is_member(ev.peer)
                {
                    self.sim.join(ev.peer, MemberRole::Seeder, link, true);
                }
            }
            TraceEventKind::Offline => {
                self.sim.set_online(ev.peer, false);
            }
            TraceEventKind::StartDownload { swarm } => {
                if swarm == self.sim.spec().id {
                    self.sim.join(ev.peer, MemberRole::Leecher, link, online);
                }
            }
        }
    }

    /// One transfer tick plus the seeding policies, crediting into
    /// `ledger` (the global ledger in immediate mode, the window's list of
    /// credits in window mode).
    fn advance_tick(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        online: &[bool],
        profiles: &[PeerProfile],
        ledger: &mut impl CreditSink,
    ) -> Vec<Completion> {
        let completions = self.sim.tick(now, dt, ledger, &mut self.rng);
        for c in &completions {
            let profile = &profiles[c.peer.index()];
            if profile.free_rider {
                // Free-riders quit immediately on completion.
                self.sim.leave(c.peer);
            } else {
                self.seed_budget.insert(c.peer, profile.seed_duration);
            }
        }
        // Spend seed budgets for altruists that are online and still
        // members; leave when exhausted.
        let mut expired = Vec::new();
        for (&peer, remaining) in self.seed_budget.iter_mut() {
            if !online[peer.index()] {
                continue;
            }
            if !self.sim.is_member(peer) {
                expired.push(peer);
                continue;
            }
            if remaining.as_millis() <= dt.as_millis() {
                expired.push(peer);
            } else {
                *remaining = *remaining - dt;
            }
        }
        for peer in expired {
            self.seed_budget.remove(&peer);
            self.sim.leave(peer);
        }
        completions
    }

    /// Replay every tick in `[start, end_exclusive)` against this swarm:
    /// events are applied by the same `time <= tick` rule the immediate
    /// driver uses, transfers are booked into a list. Returns the credits
    /// in arrival order.
    fn advance_window(
        &mut self,
        start: SimTime,
        end_exclusive: SimTime,
        dt: SimDuration,
        events: &[TraceEvent],
        online0: &[bool],
        profiles: &[PeerProfile],
    ) -> Credits {
        let mut online = online0.to_vec();
        let mut cursor = 0usize;
        let mut credits = Credits::new();
        let mut now = start;
        while now < end_exclusive {
            while cursor < events.len() && events[cursor].time <= now {
                let ev = events[cursor];
                cursor += 1;
                match ev.kind {
                    TraceEventKind::Online => online[ev.peer.index()] = true,
                    TraceEventKind::Offline => online[ev.peer.index()] = false,
                    TraceEventKind::StartDownload { .. } => {}
                }
                let link = link_of(profiles, ev.peer);
                self.apply_event(&ev, now, link, online[ev.peer.index()]);
            }
            self.advance_tick(now, dt, &online, profiles, &mut credits);
            now += dt;
        }
        credits
    }
}

/// The BitTorrent substrate: every swarm of a trace plus churn state.
#[derive(Debug, Clone)]
pub struct BitTorrentNet {
    cfg: NetConfig,
    profiles: Arc<Vec<PeerProfile>>,
    swarms: Vec<SwarmRunner>,
    online: Vec<bool>,
    ledger: TransferLedger,
}

impl BitTorrentNet {
    /// Build the substrate for a trace. No events are applied yet. Swarm
    /// `i`'s RNG stream is `rng_base.fork(i)` — keyed by swarm id, so the
    /// stream a swarm observes never depends on scheduling.
    pub fn new(trace: &Trace, cfg: NetConfig, rng_base: &DetRng) -> Self {
        BitTorrentNet {
            cfg,
            profiles: Arc::new(trace.peers.clone()),
            swarms: trace
                .swarms
                .iter()
                .enumerate()
                .map(|(i, s)| SwarmRunner {
                    sim: SwarmSim::new(*s),
                    rng: rng_base.fork(i as u64),
                    seed_budget: BTreeMap::new(),
                })
                .collect(),
            online: vec![false; trace.peers.len()],
            ledger: TransferLedger::new(),
        }
    }

    /// The configuration the substrate was built with.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Is `peer` currently online?
    pub fn is_online(&self, peer: NodeId) -> bool {
        self.online[peer.index()]
    }

    /// Online flags for every trace peer, indexed by id.
    pub fn online_flags(&self) -> &[bool] {
        &self.online
    }

    /// All currently online peers (ascending id).
    pub fn online_peers(&self) -> Vec<NodeId> {
        self.online
            .iter()
            .enumerate()
            .filter_map(|(i, &on)| on.then_some(NodeId::from_index(i)))
            .collect()
    }

    /// The global transfer ledger.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Access a swarm's simulation state.
    pub fn swarm(&self, id: SwarmId) -> &SwarmSim {
        &self.swarms[id.index()].sim
    }

    /// Number of swarms in the network.
    pub fn swarm_count(&self) -> usize {
        self.swarms.len()
    }

    /// Record only the churn side of a trace event (the online flags).
    /// Window mode uses this: the swarm-level mutations are replayed
    /// inside [`BitTorrentNet::advance_window`] jobs by the same rule, so
    /// they must not also be applied here.
    pub fn note_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceEventKind::Online => self.online[ev.peer.index()] = true,
            TraceEventKind::Offline => self.online[ev.peer.index()] = false,
            TraceEventKind::StartDownload { .. } => {}
        }
    }

    /// Apply one trace event at time `now`, immediately and in full
    /// (immediate mode; do not mix with [`BitTorrentNet::advance_window`]).
    pub fn apply_event(&mut self, ev: &TraceEvent, now: SimTime) {
        self.note_event(ev);
        let link = link_of(&self.profiles, ev.peer);
        let online = self.online[ev.peer.index()];
        for runner in &mut self.swarms {
            runner.apply_event(ev, now, link, online);
        }
    }

    /// Advance all swarms by one tick, applying seeding policies
    /// (immediate mode, ascending swarm order). Returns the tick's
    /// completions in swarm order.
    pub fn tick(&mut self, now: SimTime) -> Vec<Completion> {
        let dt = self.cfg.tick;
        let BitTorrentNet {
            swarms,
            profiles,
            online,
            ledger,
            ..
        } = self;
        swarms
            .iter_mut()
            .flat_map(|runner| runner.advance_tick(now, dt, online, profiles, ledger))
            .collect()
    }

    /// Hand every tick in `[start, end_exclusive)` for all swarms to
    /// `pool`, one job per contiguous swarm chunk, and return without
    /// waiting: the swarms are out on the pool until
    /// [`BitTorrentNet::finish_window`] takes the returned [`Window`].
    /// `events` must be exactly the trace events that become due in the
    /// window (they are replayed per tick with the same `time <= tick` rule
    /// as immediate mode); `online0` is the online snapshot from the end of
    /// the previous window. One window at a time: the ledger and the online
    /// flags stay readable meanwhile, and the window writes to neither of
    /// them until it is finished.
    pub fn begin_window(
        &mut self,
        start: SimTime,
        end_exclusive: SimTime,
        events: &[TraceEvent],
        online0: &[bool],
        pool: &Pool,
    ) -> Window {
        let dt = self.cfg.tick;
        let ticks = if start < end_exclusive {
            (end_exclusive.as_millis() - start.as_millis()).div_ceil(dt.as_millis())
        } else {
            0
        };
        let end = start + SimDuration::from_millis(ticks * dt.as_millis());
        let n = self.swarms.len();
        let mut jobs: Vec<Box<dyn FnOnce() -> ChunkResult + Send + 'static>> = Vec::new();
        if ticks > 0 && n > 0 {
            let ctx = Arc::new((
                events.to_vec(),
                online0.to_vec(),
                Arc::clone(&self.profiles),
            ));
            let chunk_size = n.div_ceil(pool.threads().min(n));
            let mut iter = std::mem::take(&mut self.swarms).into_iter().peekable();
            while iter.peek().is_some() {
                let chunk: Vec<SwarmRunner> = iter.by_ref().take(chunk_size).collect();
                let ctx = Arc::clone(&ctx);
                jobs.push(Box::new(move || {
                    let mut chunk = chunk;
                    let (events, online0, profiles) = &*ctx;
                    let booked: Vec<Credits> = chunk
                        .iter_mut()
                        .map(|r| {
                            r.advance_window(start, end_exclusive, dt, events, online0, profiles)
                        })
                        .collect();
                    (chunk, booked)
                }));
            }
        }
        Window {
            chunks: pool.submit(jobs),
            end,
        }
    }

    /// Wait for `window`'s swarms, put them back and fold their credits
    /// into the ledger ascending by swarm id. Returns the first tick not
    /// yet simulated (the next window's `start`).
    pub fn finish_window(&mut self, window: Window) -> SimTime {
        // Results come back in job-submission order == ascending swarm id.
        for (chunk, booked) in window.chunks.wait() {
            for (runner, mut credits) in chunk.into_iter().zip(booked) {
                self.ledger.credit_window(&mut credits);
                self.swarms.push(runner);
            }
        }
        window.end
    }

    /// Replay every tick in `[start, end_exclusive)` for all swarms on
    /// `pool` and merge the results: [`BitTorrentNet::begin_window`] and
    /// [`BitTorrentNet::finish_window`] back to back. Returns the first
    /// tick not yet simulated.
    pub fn advance_window(
        &mut self,
        start: SimTime,
        end_exclusive: SimTime,
        events: &[TraceEvent],
        online0: &[bool],
        pool: &Pool,
    ) -> SimTime {
        let window = self.begin_window(start, end_exclusive, events, online0, pool);
        self.finish_window(window)
    }

    /// Convenience driver: replay the whole trace, ticking transfers and
    /// invoking `observer` every `sample_every` of simulation time.
    pub fn run_trace(
        trace: &Trace,
        cfg: NetConfig,
        seed: u64,
        sample_every: SimDuration,
        mut observer: impl FnMut(&BitTorrentNet, SimTime),
    ) -> BitTorrentNet {
        let rng_base = DetRng::new(seed).fork(0xB177);
        let mut net = BitTorrentNet::new(trace, cfg, &rng_base);
        let end = SimTime::ZERO + trace.duration;
        let mut next_event = 0usize;
        let mut next_sample = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        while now < end {
            while next_event < trace.events.len() && trace.events[next_event].time <= now {
                let ev = trace.events[next_event];
                net.apply_event(&ev, now);
                next_event += 1;
            }
            net.tick(now);
            if now >= next_sample {
                observer(&net, now);
                next_sample = now + sample_every;
            }
            now += cfg.tick;
        }
        observer(&net, end);
        net
    }
}

/// Stable binary encoding: the config, the swarm count and per swarm its
/// sim, coin and seeding budgets, the online flags and the ledger. The
/// peer profiles and swarm specs are the trace's, written once there.
impl BitTorrentNet {
    /// Write the substrate but what its trace holds.
    pub fn persist(&self, enc: &mut Encoder) {
        self.cfg.persist(enc);
        enc.usize(self.swarms.len());
        for runner in &self.swarms {
            runner.sim.persist(enc);
            runner.rng.persist(enc);
            runner.seed_budget.persist(enc);
        }
        self.online.persist(enc);
        self.ledger.persist(enc);
    }

    /// The substrate [`BitTorrentNet::persist`] wrote over `trace`, a valid
    /// one. Refuses a zero tick, a swarm count or online table other than
    /// the trace's, and a member or seeding budget naming no trace peer.
    pub fn restore(dec: &mut Decoder<'_>, trace: &Trace) -> Result<Self, DecodeError> {
        let corrupt = |what: String| Err(DecodeError::Corrupt(format!("BitTorrentNet: {what}")));
        let cfg = NetConfig::restore(dec)?;
        if cfg.tick.as_millis() == 0 {
            return corrupt("zero BitTorrent tick".to_string());
        }
        let (count, peers, files) = (dec.usize()?, trace.peer_count(), trace.swarms.len());
        if count != files {
            return corrupt(format!("{count} swarms, the trace has {files}"));
        }
        let mut swarms = Vec::with_capacity(count);
        for &spec in &trace.swarms {
            let sim = SwarmSim::restore(spec, dec)?;
            let (rng, seed_budget): (_, BTreeMap<_, _>) = Persist::restore(dec)?;
            let ids = sim.members().chain(seed_budget.keys().copied());
            if let Some(peer) = ids.max().filter(|peer| peer.index() >= peers) {
                return corrupt(format!(
                    "swarm {} names {peer}, past {peers} peers",
                    spec.id
                ));
            }
            swarms.push(SwarmRunner {
                sim,
                rng,
                seed_budget,
            });
        }
        let online: Vec<bool> = Vec::restore(dec)?;
        if online.len() != peers {
            return corrupt(format!("{} online flags for {peers} peers", online.len()));
        }
        let (profiles, ledger) = (Arc::new(trace.peers.clone()), TransferLedger::restore(dec)?);
        Ok(BitTorrentNet {
            cfg,
            profiles,
            swarms,
            online,
            ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_trace::TraceGenConfig;

    fn bytes(net: &BitTorrentNet) -> Vec<u8> {
        let mut enc = Encoder::new();
        net.persist(&mut enc);
        enc.into_bytes()
    }

    fn quick_trace(seed: u64) -> Trace {
        TraceGenConfig::quick(15, SimDuration::from_days(1)).generate(seed)
    }

    /// [`BitTorrentNet::run_trace`]'s replay, keeping the completions each
    /// tick returns.
    fn replay(trace: &Trace, seed: u64) -> (BitTorrentNet, Vec<Completion>) {
        let cfg = NetConfig::default();
        let mut net = BitTorrentNet::new(trace, cfg, &DetRng::new(seed).fork(0xB177));
        let mut events = trace.events.iter().peekable();
        let mut completions = Vec::new();
        let mut now = SimTime::ZERO;
        while now < SimTime::ZERO + trace.duration {
            while let Some(ev) = events.next_if(|ev| ev.time <= now) {
                net.apply_event(ev, now);
            }
            completions.extend(net.tick(now));
            now += cfg.tick;
        }
        (net, completions)
    }

    #[test]
    fn trace_replay_moves_data() {
        let trace = quick_trace(5);
        let net = BitTorrentNet::run_trace(
            &trace,
            NetConfig::default(),
            1,
            SimDuration::from_hours(6),
            |_, _| {},
        );
        assert!(
            net.ledger().total_kib() > 10 * 1024,
            "expected >10 MiB transferred, got {} KiB",
            net.ledger().total_kib()
        );
    }

    #[test]
    fn completions_occur_and_are_ordered() {
        let (_, c) = replay(&quick_trace(7), 2);
        assert!(!c.is_empty(), "some downloads should complete in a day");
        for w in c.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn free_riders_leave_after_completion() {
        let trace = quick_trace(9);
        let (net, completions) = replay(&trace, 3);
        for c in completions {
            let p = &trace.peers[c.peer.index()];
            if p.free_rider {
                assert!(
                    !net.swarm(c.swarm).is_member(c.peer),
                    "free-rider {} should have left swarm {}",
                    c.peer,
                    c.swarm
                );
            }
        }
    }

    #[test]
    fn online_state_follows_trace() {
        let trace = quick_trace(11);
        let mut net = BitTorrentNet::new(&trace, NetConfig::default(), &DetRng::new(11));
        let ev = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Online))
            .unwrap();
        net.apply_event(ev, ev.time);
        assert!(net.is_online(ev.peer));
        let off = TraceEvent {
            time: ev.time,
            peer: ev.peer,
            kind: TraceEventKind::Offline,
        };
        net.apply_event(&off, ev.time);
        assert!(!net.is_online(ev.peer));
        assert!(net.online_peers().is_empty());
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = quick_trace(13);
        let run = || {
            BitTorrentNet::run_trace(
                &trace,
                NetConfig::default(),
                4,
                SimDuration::from_hours(6),
                |_, _| {},
            )
            .ledger()
            .clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observer_called_at_sampling_interval() {
        let trace = quick_trace(15);
        let mut samples = Vec::new();
        BitTorrentNet::run_trace(
            &trace,
            NetConfig::default(),
            5,
            SimDuration::from_hours(6),
            |_, t| samples.push(t),
        );
        // 24h / 6h = 4 interior samples + initial + final.
        assert!(samples.len() >= 5, "got {} samples", samples.len());
        for w in samples.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn initial_seeders_upload_most_early() {
        let trace = quick_trace(17);
        let net = BitTorrentNet::run_trace(
            &trace,
            NetConfig::default(),
            6,
            SimDuration::from_hours(24),
            |_, _| {},
        );
        // Every swarm's initial seeder should have uploaded something
        // (their swarm had at least one leecher in almost every seed; allow
        // swarms that attracted no leechers).
        let uploaded_any = trace
            .swarms
            .iter()
            .filter(|s| net.ledger().total_uploaded_kib(s.initial_seeder) > 0)
            .count();
        assert!(uploaded_any >= 1);
    }

    /// The windowed driver must be byte-identical to the immediate driver —
    /// the same checkpoint bytes, so the same ledger, swarms and generators —
    /// for any window partition and any thread count.
    #[test]
    fn windowed_replay_matches_immediate_replay() {
        let trace = quick_trace(19);
        let immediate = BitTorrentNet::run_trace(
            &trace,
            NetConfig::default(),
            7,
            SimDuration::from_hours(24),
            |_, _| {},
        );

        let windowed = |threads: usize, window: SimDuration| -> BitTorrentNet {
            let pool = Pool::new(threads);
            let cfg = NetConfig::default();
            let rng_base = DetRng::new(7).fork(0xB177);
            let mut net = BitTorrentNet::new(&trace, cfg, &rng_base);
            let end = SimTime::ZERO + trace.duration;
            let mut next_event = 0usize;
            let mut lo = 0usize;
            let mut window_start = SimTime::ZERO;
            let mut online0 = net.online_flags().to_vec();
            let mut now = SimTime::ZERO;
            while now < end {
                while next_event < trace.events.len() && trace.events[next_event].time <= now {
                    net.note_event(&trace.events[next_event]);
                    next_event += 1;
                }
                if (now - window_start).as_millis() >= window.as_millis() {
                    window_start = net.advance_window(
                        window_start,
                        now + cfg.tick,
                        &trace.events[lo..next_event],
                        &online0,
                        &pool,
                    );
                    lo = next_event;
                    online0 = net.online_flags().to_vec();
                }
                now += cfg.tick;
            }
            net.advance_window(
                window_start,
                end,
                &trace.events[lo..next_event],
                &online0,
                &pool,
            );
            net
        };

        for (threads, window) in [
            (1, SimDuration::from_mins(10)),
            (4, SimDuration::from_mins(10)),
            (4, SimDuration::from_hours(3)),
            (8, SimDuration::from_secs(10)),
        ] {
            assert!(
                bytes(&windowed(threads, window)) == bytes(&immediate),
                "the nets diverged at {threads} threads, window {window}"
            );
        }
    }

    /// While a window is out on the pool the net holds no swarms and its
    /// ledger is as it was; finishing it lands in the state
    /// `advance_window` reaches.
    #[test]
    fn a_window_out_on_the_pool_leaves_the_books_until_it_is_finished() {
        let trace = quick_trace(21);
        let cfg = NetConfig::default();
        let rng_base = DetRng::new(8).fork(0xB177);
        let fresh = BitTorrentNet::new(&trace, cfg, &rng_base);
        let start = SimTime::ZERO;
        let end = SimTime::from_hours(6);
        let events = &trace.events[..trace.events.partition_point(|e| e.time < end)];
        let online0 = fresh.online_flags().to_vec();
        let mut serial = fresh.clone();
        let serial_end = serial.advance_window(start, end, events, &online0, &Pool::new(1));
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let mut net = fresh.clone();
            let window = net.begin_window(start, end, events, &online0, &pool);
            assert_eq!(window.end(), serial_end);
            assert_eq!(
                net.swarm_count(),
                0,
                "swarms stayed home at {threads} threads"
            );
            assert_eq!(net.ledger(), fresh.ledger());
            assert_eq!(net.finish_window(window), serial_end);
            assert_eq!(net.swarm_count(), trace.swarms.len());
            assert_eq!(net.ledger(), serial.ledger());
            assert!(net.ledger().total_kib() > 0, "the window moved no data");
        }
    }

    /// An empty span hands nothing to the pool and leaves the swarms home.
    #[test]
    fn an_empty_window_keeps_the_swarms_home() {
        let trace = quick_trace(23);
        let mut net = BitTorrentNet::new(&trace, NetConfig::default(), &DetRng::new(9));
        let online0 = net.online_flags().to_vec();
        let at = SimTime::from_hours(1);
        let window = net.begin_window(at, at, &[], &online0, &Pool::new(4));
        assert_eq!(net.swarm_count(), trace.swarms.len());
        assert_eq!(net.finish_window(window), at);
    }
}
