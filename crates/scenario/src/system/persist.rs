//! Checkpointing: the section order of a checkpoint, written and read,
//! and the checks that span sections.

use super::delivery::{inbox_gauges, persist_dedup_windows, restore_dedup_windows, FaultEvent};
use super::{flash_crowd, Pss, System};
use crate::checkpoint::{Checkpoint, Identity};
use crate::config::{ProtocolConfig, ScenarioSetup};
use rvs_attacks::{Flooder, Malformer};
use rvs_bartercast::{AdaptiveThreshold, BarterCast};
use rvs_bittorrent::BitTorrentNet;
use rvs_checkpoint::Persist;
use rvs_core::VoteSampling;
use rvs_faults::{Backoff, FaultPlane};
use rvs_guard::Governor;
use rvs_modcast::{KeyRegistry, ModerationCast};
use rvs_sim::{pool, DetRng, Engine, NodeId, Pool, SimTime};
use rvs_telemetry::{EncounterCounters, PhaseTimer};
use rvs_trace::Trace;
use std::collections::BTreeSet;

impl System {
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

        // Each layer's section writes its own config.
        enc.tag("cfg");
        let ProtocolConfig {
            net: _,
            bartercast: _,
            modcast: _,
            votes: _,
            gossip_every,
            experience_t_mib,
            adaptive_t,
            vox_enabled,
            use_newscast_pss,
            message_loss,
        } = self.cfg;
        (gossip_every, experience_t_mib, adaptive_t).persist(&mut enc);
        (vox_enabled, use_newscast_pss, message_loss).persist(&mut enc);
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
        enc.u64(self.max_fired_msg);
        persist_dedup_windows(&self.seen_msgs, &mut enc);
        self.vox_backoff.persist(&mut enc);
        self.vox_decliners.persist(&mut enc);

        enc.tag("guard");
        self.guard.persist(&mut enc);
        self.flooder.persist(&mut enc);
        self.malformer.persist(&mut enc);
        self.rng_malform.persist(&mut enc);
        enc
    }

    /// Rebuild a [`System`] from a [`Checkpoint`], re-deriving every
    /// volatile: the thread pool from the current environment (so a
    /// checkpoint taken under `RVS_THREADS=1` restores cleanly under
    /// `RVS_THREADS=4` and vice versa), the key registry from the seed,
    /// the flash-crowd handle from the persisted spec, a fresh phase
    /// timer, and auditing off (call [`System::enable_audit`] again to
    /// resume invariant checking; the auditor draws no randomness, so
    /// turning it on never changes the run) — and the inbox gauges from the
    /// fault queue.
    ///
    /// Never panics on damaged input: corrupt, truncated, or
    /// version-skewed blobs surface as typed [`DecodeError`]s. Each value
    /// is written once, and is checked against what it indexes before any
    /// state is used:
    /// - the trace is valid before the BitTorrent substrate is read
    ///   against it, and the substrate's restore refuses a zero tick, a
    ///   swarm count or online table other than the trace's, a member or
    ///   seeding budget naming no trace peer, and a bitfield not over its
    ///   file;
    /// - the header's population against the trace and the cast, and
    ///   every per-node, per-peer and per-cast table's length;
    /// - cursor bounds, and a clock its cursors agree with;
    /// - adaptive thresholds with a range to clamp to;
    /// - a flood inside the population, at most one send a node a round;
    /// - every cast voter inside the population, and a fault queue that
    ///   names no node outside it.
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
        let (gossip_every, experience_t_mib, adaptive_t) = Persist::restore(&mut dec)?;
        let (vox_enabled, use_newscast_pss, message_loss) = Persist::restore(&mut dec)?;
        dec.tag("setup")?;
        let setup = ScenarioSetup::restore(&mut dec)?;
        dec.tag("trace")?;
        let trace = Trace::restore(&mut dec)?;
        trace
            .validate()
            .map_err(|err| corrupt(format!("`trace`: {err}")))?;

        dec.tag("net")?;
        let net = BitTorrentNet::restore(&mut dec, &trace)?;
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
        let max_fired_msg = dec.u64()?;
        let seen_msgs = restore_dedup_windows(&mut dec)?;
        let vox_backoff: Vec<Backoff> = Vec::restore(&mut dec)?;
        let vox_decliners: Vec<BTreeSet<NodeId>> = Vec::restore(&mut dec)?;

        dec.tag("guard")?;
        let guard = Governor::restore(&mut dec)?;
        let flooder: Option<Flooder> = Option::restore(&mut dec)?;
        let malformer: Option<Malformer> = Option::restore(&mut dec)?;
        let rng_malform = DetRng::restore(&mut dec)?;
        dec.finish()?;

        // Cross-field consistency: a blob that decodes field-by-field can
        // still describe an impossible system; reject it before wiring.
        let cfg = ProtocolConfig {
            net: net.config(),
            bartercast: bc.config(),
            modcast: mc.config(),
            votes: vs.config(),
            gossip_every,
            experience_t_mib,
            adaptive_t,
            vox_enabled,
            use_newscast_pss,
            message_loss,
        };
        let crowd_size = setup.crowd.map(|c| c.size).unwrap_or(0);
        if adaptive.is_some() != cfg.adaptive_t.is_some() {
            return Err(corrupt(
                "adaptive-threshold state does not match the configured `adaptive_t`".into(),
            ));
        }
        let mut thresholds = adaptive.iter().flatten().chain(&cfg.adaptive_t);
        if let Some(t) = thresholds.find(|t| !t.has_range()) {
            return Err(corrupt(format!(
                "an adaptive threshold clamps to [{}, {}] MiB",
                t.t_min_mib, t.t_max_mib
            )));
        }
        // `step` keeps `now` and the window start on the tick grid, the
        // window at most one gossip interval behind, and the next round
        // due from the tick before `now` to one interval past it; the fault
        // queue's clock is the last horizon `now` handed it. A clock far
        // from its cursors would tick BitTorrent all the way up to it.
        let (tick, every) = (cfg.net.tick.as_millis(), cfg.gossip_every.as_millis());
        let at = now.as_millis();
        let (window, gossip) = (bt_window_start.as_millis(), next_gossip.as_millis());
        let last_tick = at.saturating_sub(tick);
        if at % tick != 0
            || window % tick != 0
            || window > at
            || at - window > every
            || gossip < last_tick
            || gossip - last_tick > every
            || fault_events.now() > now
        {
            return Err(corrupt(format!(
                "clock at {now} disagrees with its cursors: BitTorrent window from \
                 {bt_window_start}, next round at {next_gossip}, fault queue at {} \
                 ({} ticks, a round every {})",
                fault_events.now(),
                cfg.net.tick,
                cfg.gossip_every
            )));
        }
        // The header's population against the trace and the cast, then
        // every table's length against what it is per: a node, a trace
        // peer, a crowd member, a moderator or a voter.
        let (nodes, peers) = (("total nodes", n_total), ("trace peers", n_trace));
        let cast = ("trace peers + crowd", n_trace + crowd_size);
        let crowd = ("crowd size", crowd_size);
        let mods = ("moderators", setup.moderators.len());
        let voters = ("voters", setup.voters.len());
        let thresholds = adaptive.as_ref().map_or(n_total, Vec::len);
        for (name, len, (of, want)) in [
            ("peers in the trace", trace.peer_count(), peers),
            ("total nodes", n_total, cast),
            ("crowd online flags", crowd_online.len(), crowd),
            ("PSS population", pss.len(), nodes),
            ("adaptive thresholds", thresholds, nodes),
            ("send RNG lanes", send_rng.len(), nodes),
            ("dedup windows", seen_msgs.len(), nodes),
            ("backoff states", vox_backoff.len(), nodes),
            ("decliner windows", vox_decliners.len(), nodes),
            ("guard records", guard.len(), nodes),
            ("publications", published.len(), mods),
            ("votes cast", vote_cast.len(), voters),
            ("BitTorrent online snapshot", bt_online0.len(), peers),
        ] {
            if len != want {
                return Err(corrupt(format!("{name} {len} != {of} {want}")));
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
        if next_event > trace.events.len() || bt_event_lo > next_event {
            return Err(corrupt(format!(
                "event cursors ({bt_event_lo}, {next_event}) exceed trace length {}",
                trace.events.len()
            )));
        }

        if let Some(f) = flooder.as_ref().filter(|f| !f.within(n_total)) {
            let (rate, last) = (f.per_round(), f.members().last());
            return Err(corrupt(format!(
                "a flood of {rate} sends a round from members up to {last:?} \
                 does not fit the {n_total} nodes"
            )));
        }
        if let Some(spec) = setup.voters.iter().find(|v| v.voter.index() >= n_total) {
            return Err(corrupt(format!(
                "voter {} is outside the {n_total} nodes",
                spec.voter
            )));
        }
        let inbox_load = inbox_gauges(&fault_events, n_total)?;

        // Volatile rebuilds — everything deliberately outside the blob.
        let registry = KeyRegistry::new(n_total, seed ^ 0x5EED);
        let crowd = flash_crowd(setup.crowd, n_trace);
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
}
