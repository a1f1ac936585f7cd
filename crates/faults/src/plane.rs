//! The runtime fault plane: per-send fate decisions and partition state.

use std::collections::BTreeSet;

use crate::config::FaultConfig;
use rvs_sim::{DetRng, NodeId, SimDuration};
use rvs_telemetry::FaultCounters;

/// The fate the plane assigns to one protocol send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Lost to the independent (Bernoulli) loss rate.
    DropIndependent,
    /// Lost while the Gilbert–Elliott channel was in the bad state.
    DropBurst,
    /// Cut by an active partition between sender and receiver.
    DropPartitioned,
    /// Delivered after `delay`; `duplicate_delay` is `Some` when the
    /// duplication fault also spawns a second copy with its own latency.
    Deliver {
        /// One-way latency for the primary copy (zero means the caller may
        /// deliver synchronously, preserving the legacy inline path).
        delay: SimDuration,
        /// Latency of the duplicate copy, if one was spawned.
        duplicate_delay: Option<SimDuration>,
    },
}

/// One side of a named network cut. While `active`, no message may cross
/// between `members` and the rest of the population.
#[derive(Debug, Clone)]
struct Partition {
    members: BTreeSet<NodeId>,
    active: bool,
}

/// True when any active partition separates `a` from `b` (exactly one of
/// the two is inside the partition's member set).
fn partitioned(partitions: &[Partition], a: NodeId, b: NodeId) -> bool {
    partitions
        .iter()
        .any(|p| p.active && p.members.contains(&a) != p.members.contains(&b))
}

/// Per-sender fault lane: an independent RNG stream plus Gilbert–Elliott
/// channel state, forked from the plane's base stream **keyed by sender
/// id**, so the decide sequence each sender observes is a pure function
/// of `(seed, sender, send index)`, whatever the other senders do.
#[derive(Debug, Clone)]
struct FaultLane {
    rng: DetRng,
    burst_bad: bool,
}

impl FaultLane {
    fn new(base: &DetRng, sender: usize) -> FaultLane {
        FaultLane {
            rng: base.fork(sender as u64),
            burst_bad: false,
        }
    }

    /// Decide the fate of one send from `a` to `b`, consuming draws from
    /// this lane in the fixed order documented on [`FaultPlane`]. Drops
    /// attributed to the plane (`partitioned`, `dropped_burst`) and
    /// scheduling effects (`delayed`, `duplicated`) are counted into
    /// `counters`; independent-loss drops are counted by the caller in the
    /// encounter block, where the legacy `message_loss` knob has always
    /// lived.
    fn decide(
        &mut self,
        cfg: &FaultConfig,
        partitions: &[Partition],
        counters: &mut FaultCounters,
        a: NodeId,
        b: NodeId,
    ) -> SendOutcome {
        if partitioned(partitions, a, b) {
            counters.partitioned += 1;
            return SendOutcome::DropPartitioned;
        }
        if cfg.loss > 0.0 && self.rng.chance(cfg.loss) {
            return SendOutcome::DropIndependent;
        }
        if let Some(burst) = cfg.burst {
            if self.burst_bad {
                if self.rng.chance(burst.p_exit_bad) {
                    self.burst_bad = false;
                }
            } else if self.rng.chance(burst.p_enter_bad) {
                self.burst_bad = true;
            }
            let p_loss = if self.burst_bad {
                burst.loss_bad
            } else {
                burst.loss_good
            };
            if p_loss > 0.0 && self.rng.chance(p_loss) {
                counters.dropped_burst += 1;
                return SendOutcome::DropBurst;
            }
        }
        let delay = self.draw_latency(cfg);
        if !delay.is_zero() {
            counters.delayed += 1;
        }
        let duplicate_delay = if cfg.duplicate > 0.0 && self.rng.chance(cfg.duplicate) {
            counters.duplicated += 1;
            Some(self.draw_latency(cfg))
        } else {
            None
        };
        SendOutcome::Deliver {
            delay,
            duplicate_delay,
        }
    }

    /// One latency draw: `base · uniform[1 − spread, 1 + spread]` ms,
    /// consuming a draw only when both base and spread are non-zero.
    fn draw_latency(&mut self, cfg: &FaultConfig) -> SimDuration {
        let base = cfg.base_latency_ms;
        if base == 0 {
            return SimDuration::from_millis(0);
        }
        if cfg.jitter_spread <= 0.0 {
            return SimDuration::from_millis(base);
        }
        let ms = self.rng.jitter(base as f64, cfg.jitter_spread);
        SimDuration::from_millis(ms.max(0.0).round() as u64)
    }
}

/// The fault plane: owns per-sender fault lanes (each a dedicated fork of
/// the run seed, so enabling faults never perturbs protocol RNG streams),
/// active partitions, and the [`FaultCounters`] telemetry block.
///
/// Determinism contract: [`FaultPlane::decide`] consumes RNG draws from the
/// *sender's* lane in a fixed, documented order — partition check (no
/// draw), independent loss (one draw iff `0 < loss < 1`), burst-channel
/// transition + loss draws (only when burst is configured), latency draw
/// (iff `base_latency_ms > 0` and `jitter_spread > 0`), duplication draw
/// (iff `0 < duplicate < 1`, plus a latency draw for the copy). With an
/// inert config a lane consumes **zero** draws, which is what keeps
/// zero-fault runs byte-identical to runs without the plane.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    lane_base: DetRng,
    lanes: Vec<FaultLane>,
    partitions: Vec<Partition>,
    counters: FaultCounters,
}

impl FaultPlane {
    /// Build a plane from a config and its dedicated RNG fork. Lanes are
    /// grown lazily as senders appear (lane `i` is always `base.fork(i)`).
    pub fn new(cfg: FaultConfig, lane_base: DetRng) -> FaultPlane {
        FaultPlane {
            cfg,
            lane_base,
            lanes: Vec::new(),
            partitions: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The plane's telemetry block (merged into run snapshots).
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Mutable access for counters incremented by the host (`retries`,
    /// `backoff_gaveups`, `crash_restarts`, `reordered`, `dedup_suppressed`,
    /// `dropped_expired` — events only the delivery loop can observe).
    pub fn counters_mut(&mut self) -> &mut FaultCounters {
        &mut self.counters
    }

    /// Register a named partition side (initially inactive); returns its
    /// index for later [`FaultPlane::set_partition_active`] calls.
    pub fn add_partition(&mut self, members: impl IntoIterator<Item = NodeId>) -> usize {
        self.partitions.push(Partition {
            members: members.into_iter().collect(),
            active: false,
        });
        self.partitions.len() - 1
    }

    /// Activate (cut) or deactivate (heal) a registered partition.
    pub fn set_partition_active(&mut self, idx: usize, active: bool) {
        if let Some(p) = self.partitions.get_mut(idx) {
            p.active = active;
        }
    }

    /// True when any active partition separates `a` from `b`.
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        partitioned(&self.partitions, a, b)
    }

    /// Whether any sender's Gilbert–Elliott channel is in the bad state.
    pub fn burst_bad(&self) -> bool {
        self.lanes.iter().any(|lane| lane.burst_bad)
    }

    /// Make sure lanes `0..n` exist (lane `i` is derived as `base.fork(i)`
    /// the first time sender `i` appears, so growth order cannot matter).
    pub fn ensure_lanes(&mut self, n: usize) {
        while self.lanes.len() < n {
            let lane = FaultLane::new(&self.lane_base, self.lanes.len());
            self.lanes.push(lane);
        }
    }

    /// Decide the fate of one send from `a` to `b`, consuming draws from
    /// `a`'s lane. See the type-level determinism contract.
    pub fn decide(&mut self, a: NodeId, b: NodeId) -> SendOutcome {
        self.ensure_lanes(a.index() + 1);
        let FaultPlane {
            cfg,
            lanes,
            partitions,
            counters,
            ..
        } = self;
        lanes[a.index()].decide(cfg, partitions, counters, a, b)
    }
}

rvs_checkpoint::persist_struct!(FaultLane { rng, burst_bad });

rvs_checkpoint::persist_struct!(Partition { members, active });

rvs_checkpoint::persist_struct!(FaultPlane {
    cfg,
    lane_base,
    lanes,
    partitions,
    counters
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BurstLoss;

    fn plane(cfg: FaultConfig) -> FaultPlane {
        FaultPlane::new(cfg, DetRng::new(42).fork(5))
    }

    #[test]
    fn inert_plane_always_delivers_synchronously_with_zero_draws() {
        let mut p = plane(FaultConfig::default());
        for i in 0..100u32 {
            let got = p.decide(NodeId(i % 7), NodeId((i + 1) % 7));
            assert_eq!(
                got,
                SendOutcome::Deliver {
                    delay: SimDuration::from_millis(0),
                    duplicate_delay: None
                }
            );
        }
        // Every sender lane's stream is untouched: each produces the same
        // next value as a fresh per-sender fork that never decided anything.
        for sender in 0..7u64 {
            let mut witness = DetRng::new(42).fork(5).fork(sender);
            assert_eq!(
                p.lanes[sender as usize].rng.next_f64(),
                witness.next_f64(),
                "lane {sender} consumed draws while inert"
            );
        }
        assert_eq!(p.counters().total(), 0);
    }

    #[test]
    fn lanes_are_keyed_by_sender_id_not_creation_order() {
        // Growing lanes in different orders must yield identical streams:
        // lane i is always base.fork(i).
        let cfg = FaultConfig {
            base_latency_ms: 500,
            jitter_spread: 0.5,
            ..FaultConfig::default()
        };
        let mut early = plane(cfg);
        early.ensure_lanes(9); // all lanes up front
        let mut lazy = plane(cfg);
        let seq = |p: &mut FaultPlane| -> Vec<SendOutcome> {
            (0..200u32)
                .map(|i| p.decide(NodeId(i % 9), NodeId((i + 4) % 9)))
                .collect()
        };
        assert_eq!(seq(&mut early), seq(&mut lazy));
    }

    #[test]
    fn partition_cuts_exactly_cross_traffic() {
        let mut p = plane(FaultConfig::default());
        let idx = p.add_partition([NodeId(0), NodeId(1)]);
        assert!(!p.partitioned(NodeId(0), NodeId(2)));
        p.set_partition_active(idx, true);
        assert!(p.partitioned(NodeId(0), NodeId(2)));
        assert!(p.partitioned(NodeId(2), NodeId(1)));
        // Same side: inside-inside and outside-outside both pass.
        assert!(!p.partitioned(NodeId(0), NodeId(1)));
        assert!(!p.partitioned(NodeId(2), NodeId(3)));
        assert_eq!(p.decide(NodeId(0), NodeId(2)), SendOutcome::DropPartitioned);
        assert_eq!(p.counters().partitioned, 1);
        p.set_partition_active(idx, false);
        assert!(!p.partitioned(NodeId(0), NodeId(2)));
    }

    #[test]
    fn burst_loss_hits_approximately_its_stationary_rate() {
        let cfg = FaultConfig {
            burst: Some(BurstLoss::with_overall_loss(0.3, 8.0)),
            ..FaultConfig::default()
        };
        let mut p = plane(cfg);
        let n = 20_000u64;
        let mut lost = 0u64;
        for _ in 0..n {
            if p.decide(NodeId(0), NodeId(1)) == SendOutcome::DropBurst {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "burst loss rate {rate} too far from 0.3"
        );
        assert_eq!(p.counters().dropped_burst, lost);
    }

    #[test]
    fn latency_jitter_stays_within_spread_and_counts_delayed() {
        let cfg = FaultConfig {
            base_latency_ms: 1_000,
            jitter_spread: 1.0,
            ..FaultConfig::default()
        };
        let mut p = plane(cfg);
        let mut max_seen = 0u64;
        for _ in 0..2_000 {
            match p.decide(NodeId(0), NodeId(1)) {
                SendOutcome::Deliver { delay, .. } => {
                    let ms = delay.as_millis();
                    assert!(ms <= 2_000, "latency {ms} exceeds 2x mean");
                    max_seen = max_seen.max(ms);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // With spread 1.0 the top of the range should actually be reached.
        assert!(max_seen > 1_800, "jitter never approached 2x mean");
        assert!(p.counters().delayed > 1_900);
    }

    #[test]
    fn duplication_spawns_copies_at_about_the_configured_rate() {
        let cfg = FaultConfig {
            duplicate: 0.05,
            ..FaultConfig::default()
        };
        let mut p = plane(cfg);
        let mut dups = 0u64;
        for _ in 0..20_000 {
            if let SendOutcome::Deliver {
                duplicate_delay: Some(_),
                ..
            } = p.decide(NodeId(0), NodeId(1))
            {
                dups += 1;
            }
        }
        let rate = dups as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "duplicate rate {rate}");
        assert_eq!(p.counters().duplicated, dups);
    }

    #[test]
    fn decide_sequence_is_replayable() {
        let cfg = FaultConfig {
            base_latency_ms: 500,
            jitter_spread: 0.5,
            loss: 0.1,
            duplicate: 0.05,
            burst: Some(BurstLoss::with_overall_loss(0.2, 5.0)),
            retry: None,
        };
        let run = |mut p: FaultPlane| -> Vec<SendOutcome> {
            (0..500u32)
                .map(|i| p.decide(NodeId(i % 9), NodeId((i + 3) % 9)))
                .collect()
        };
        assert_eq!(run(plane(cfg)), run(plane(cfg)));
    }
}
