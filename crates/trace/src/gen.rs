//! Synthetic trace generation calibrated to the filelist.org dataset.
//!
//! The generator reproduces the dataset statistics the paper reports in §VI:
//!
//! * 100 unique peers monitored for 7 days, ≈23,000 events per trace;
//! * on average ~50% of the total population online at any given time
//!   (heavy churn, heavy-tailed session/gap lengths);
//! * ≈25% of peers upload little (modelled as free-riders with small
//!   uplinks that quit swarms on completion);
//! * some peers "rarely present … enter and quickly leave the system";
//! * per-peer connectability flags (firewalled vs freely connectable);
//! * per-swarm file sizes.
//!
//! All draws flow through a forked [`DetRng`], so a `(config, seed)` pair
//! fully determines the trace.

use crate::model::{PeerProfile, SwarmSpec, Trace, TraceEvent, TraceEventKind};
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime, SwarmId};

/// Configuration for the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// Number of unique peers (paper: 100).
    pub n_peers: usize,
    /// Monitored span (paper: 7 days).
    pub duration: SimDuration,
    /// Peers present from (nearly) the start of the trace — the community
    /// founders from whom the experienced core grows.
    pub founder_count: usize,
    /// Mean online session length (heavy-tailed around this mean).
    pub mean_session: SimDuration,
    /// Mean offline gap between sessions for regular peers.
    pub mean_gap: SimDuration,
    /// Pareto shape for sessions and gaps (must be > 1 so the mean exists).
    pub churn_alpha: f64,
    /// Fraction of peers that are rarely online (their gaps are multiplied
    /// by [`TraceGenConfig::rare_gap_factor`]).
    pub rarely_online_fraction: f64,
    /// Gap multiplier for rarely-online peers.
    pub rare_gap_factor: f64,
    /// Fraction of free-riding peers (paper: ≈25% upload little).
    pub free_rider_fraction: f64,
    /// Fraction of freely connectable (non-firewalled) peers.
    pub connectable_fraction: f64,
    /// Number of swarms active during the trace.
    pub n_swarms: usize,
    /// Inclusive range of file sizes in MiB.
    pub file_size_mib: (u32, u32),
    /// BitTorrent piece size in KiB.
    pub piece_size_kib: u32,
    /// Mean number of swarms each peer downloads (min 1).
    pub mean_downloads_per_peer: f64,
    /// Mean delay between a peer becoming eligible (arrived & swarm exists)
    /// and starting a download.
    pub mean_download_delay: SimDuration,
    /// Mean seeding time for altruistic peers after completing a download.
    pub mean_seed_time: SimDuration,
    /// Uplink capacity range for altruistic peers, KiB/s.
    pub uplink_kibps: (u32, u32),
    /// Uplink capacity range for free-riders, KiB/s.
    pub free_rider_uplink_kibps: (u32, u32),
    /// Downlink = uplink × this factor (asymmetric consumer lines).
    pub downlink_factor: u32,
}

impl TraceGenConfig {
    /// The paper-calibrated preset: reproduces the §VI dataset statistics.
    pub fn filelist_like() -> Self {
        TraceGenConfig {
            n_peers: 100,
            duration: SimDuration::from_days(7),
            founder_count: 20,
            mean_session: SimDuration::from_mins(45),
            mean_gap: SimDuration::from_mins(26),
            churn_alpha: 1.8,
            rarely_online_fraction: 0.12,
            rare_gap_factor: 18.0,
            free_rider_fraction: 0.25,
            connectable_fraction: 0.6,
            n_swarms: 12,
            file_size_mib: (150, 1400),
            piece_size_kib: 256,
            mean_downloads_per_peer: 3.0,
            mean_download_delay: SimDuration::from_hours(8),
            mean_seed_time: SimDuration::from_hours(12),
            uplink_kibps: (96, 768),
            free_rider_uplink_kibps: (16, 64),
            downlink_factor: 4,
        }
    }

    /// The paper's community at another size: `n_peers` over `duration`,
    /// one founder per five peers (at least one), otherwise
    /// [`filelist_like`](Self::filelist_like) — which is `scaled(100, 7
    /// days)`. "Fig 6 at N peers" for `rvs run`, the figure binaries and
    /// the benchmark's workloads.
    pub fn scaled(n_peers: usize, duration: SimDuration) -> Self {
        TraceGenConfig {
            n_peers,
            duration,
            founder_count: (n_peers / 5).max(1),
            ..Self::filelist_like()
        }
    }

    /// A small, fast preset for unit/integration tests: `n` peers over the
    /// given duration, otherwise filelist-like behaviour.
    pub fn quick(n_peers: usize, duration: SimDuration) -> Self {
        TraceGenConfig {
            n_peers,
            duration,
            founder_count: (n_peers / 4).max(1),
            n_swarms: 3,
            mean_downloads_per_peer: 1.5,
            // Tests run hours, not days: start downloads promptly.
            mean_download_delay: SimDuration::from_hours(2),
            ..Self::filelist_like()
        }
    }

    /// Generate a trace from this configuration and a seed. Deterministic:
    /// the same `(self, seed)` always yields the identical trace.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.n_peers > 0, "trace needs at least one peer");
        assert!(self.n_swarms > 0, "trace needs at least one swarm");
        assert!(self.churn_alpha > 1.0, "Pareto mean requires alpha > 1");
        let root = DetRng::new(seed);
        let mut rng_profiles = root.fork(1);
        let mut rng_churn = root.fork(2);
        let mut rng_swarms = root.fork(3);
        let mut rng_downloads = root.fork(4);

        let peers = self.gen_profiles(&mut rng_profiles);
        let swarms = self.gen_swarms(&peers, &mut rng_swarms);
        let mut events = Vec::with_capacity(self.n_peers * 64);
        let rare_cutoff = (self.n_peers as f64 * self.rarely_online_fraction).round() as usize;
        for (idx, p) in peers.iter().enumerate() {
            // Peers are assigned "rarely online" by index after profile
            // shuffling, so the set is random but reproducible.
            let rare = idx < rare_cutoff;
            self.gen_churn(p, rare, &mut rng_churn, &mut events);
        }
        self.gen_downloads(&peers, &swarms, &mut rng_downloads, &mut events);

        // Total order: (time, peer, kind-rank) so equal-time events sort
        // deterministically regardless of generation order.
        events.sort_by_key(|e| (e.time, e.peer, kind_rank(&e.kind)));

        let trace = Trace {
            seed,
            duration: self.duration,
            peers,
            swarms,
            events,
        };
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }

    fn gen_profiles(&self, rng: &mut DetRng) -> Vec<PeerProfile> {
        let n = self.n_peers;
        let founder_count = self.founder_count.min(n);
        // Decide roles by sampling index sets, then assign arrivals.
        let n_free = (n as f64 * self.free_rider_fraction).round() as usize;
        let free_set = rng.sample_indices(n, n_free);
        let mut is_free = vec![false; n];
        for i in free_set {
            is_free[i] = true;
        }
        let end_ms = self.duration.as_millis();
        (0..n)
            .map(|i| {
                let arrival = if i < founder_count {
                    // Founders trickle in over the first half hour.
                    SimTime::from_millis(rng.below(30 * 60_000))
                } else {
                    // Everyone else arrives over the first 80% of the trace,
                    // strongly biased towards the beginning (u⁴ density):
                    // filelist.org monitored peers were largely active from
                    // the first day, with a tail of late joiners.
                    let u = rng.next_f64();
                    SimTime::from_millis((u.powi(4) * 0.8 * end_ms as f64) as u64)
                };
                let free_rider = is_free[i];
                let (ulo, uhi) = if free_rider {
                    self.free_rider_uplink_kibps
                } else {
                    self.uplink_kibps
                };
                let uplink = rng.range_u64(ulo as u64, uhi as u64 + 1) as u32;
                let seed_ms = rng.exp(self.mean_seed_time.as_millis() as f64) as u64;
                PeerProfile {
                    id: NodeId::from_index(i),
                    arrival,
                    connectable: rng.chance(self.connectable_fraction),
                    free_rider,
                    seed_duration: SimDuration::from_millis(seed_ms),
                    uplink_kibps: uplink,
                    downlink_kibps: uplink * self.downlink_factor,
                }
            })
            .collect()
    }

    fn gen_swarms(&self, peers: &[PeerProfile], rng: &mut DetRng) -> Vec<SwarmSpec> {
        // Initial seeders come from the founders so every swarm has content
        // available early (the tracker would not list a dead torrent).
        let founders: Vec<NodeId> = {
            let mut ids: Vec<NodeId> = peers.iter().map(|p| p.id).collect();
            ids.sort_by_key(|id| (peers[id.index()].arrival, *id));
            ids.truncate(self.founder_count.min(peers.len()).max(1));
            ids
        };
        let (lo, hi) = self.file_size_mib;
        (0..self.n_swarms)
            .map(|i| {
                // Swarms exist early: the tracker listed them before the
                // monitoring window started (creation within the first ~2%
                // of the trace, i.e. a few hours of a 7-day span).
                let created = SimTime::from_millis(rng.below(self.duration.as_millis() / 48 + 1));
                SwarmSpec {
                    id: SwarmId::from_index(i),
                    created,
                    file_size_mib: rng.range_u64(lo as u64, hi as u64 + 1) as u32,
                    piece_size_kib: self.piece_size_kib,
                    initial_seeder: *rng.pick(&founders),
                }
            })
            .collect()
    }

    fn gen_churn(
        &self,
        p: &PeerProfile,
        rarely_online: bool,
        rng: &mut DetRng,
        events: &mut Vec<TraceEvent>,
    ) {
        let end = SimTime::ZERO + self.duration;
        let alpha = self.churn_alpha;
        // Pareto scale such that the distribution mean equals the configured
        // mean: mean = x_min * alpha / (alpha - 1).
        let scale = |mean_ms: f64| mean_ms * (alpha - 1.0) / alpha;
        let sess_scale = scale(self.mean_session.as_millis() as f64);
        let gap_factor = if rarely_online {
            self.rare_gap_factor
        } else {
            1.0
        };
        let gap_scale = scale(self.mean_gap.as_millis() as f64 * gap_factor);

        let mut t = p.arrival;
        // Rarely-online peers may also start with a long initial delay.
        if rarely_online {
            t = t.saturating_add(SimDuration::from_millis(rng.pareto(gap_scale, alpha) as u64));
        }
        let mut online = false;
        while t < end {
            if online {
                events.push(TraceEvent {
                    time: t,
                    peer: p.id,
                    kind: TraceEventKind::Offline,
                });
                let gap = rng.pareto(gap_scale, alpha) as u64;
                t = t.saturating_add(SimDuration::from_millis(gap.max(1)));
            } else {
                events.push(TraceEvent {
                    time: t,
                    peer: p.id,
                    kind: TraceEventKind::Online,
                });
                let sess = rng.pareto(sess_scale, alpha) as u64;
                t = t.saturating_add(SimDuration::from_millis(sess.max(1)));
            }
            online = !online;
        }
    }

    fn gen_downloads(
        &self,
        peers: &[PeerProfile],
        swarms: &[SwarmSpec],
        rng: &mut DetRng,
        events: &mut Vec<TraceEvent>,
    ) {
        let end = SimTime::ZERO + self.duration;
        // Zipf-like swarm popularity: weight 1/(rank+1).
        let weights: Vec<f64> = (0..swarms.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        let total_w: f64 = weights.iter().sum();
        for p in peers {
            // Number of downloads: 1 + geometric-ish around the mean.
            let extra = (self.mean_downloads_per_peer - 1.0).max(0.0);
            let mut k = 1;
            while rng.chance(extra / (extra + 1.0)) && k < swarms.len() {
                k += 1;
            }
            // Weighted sample without replacement.
            let mut available: Vec<usize> = (0..swarms.len()).collect();
            let mut chosen = Vec::with_capacity(k);
            let mut remaining_w = total_w;
            for _ in 0..k.min(available.len()) {
                let mut x = rng.next_f64() * remaining_w;
                let mut pick = 0;
                for (slot, &s) in available.iter().enumerate() {
                    x -= weights[s];
                    if x <= 0.0 {
                        pick = slot;
                        break;
                    }
                    pick = slot;
                }
                let s = available.swap_remove(pick);
                remaining_w -= weights[s];
                chosen.push(s);
            }
            for s in chosen {
                let spec = &swarms[s];
                if spec.initial_seeder == p.id {
                    continue; // the seeder already has the file
                }
                let eligible = p.arrival.max(spec.created);
                let delay = rng.exp(self.mean_download_delay.as_millis() as f64) as u64;
                let t = eligible.saturating_add(SimDuration::from_millis(delay));
                if t < end {
                    events.push(TraceEvent {
                        time: t,
                        peer: p.id,
                        kind: TraceEventKind::StartDownload { swarm: spec.id },
                    });
                }
            }
        }
    }
}

fn kind_rank(kind: &TraceEventKind) -> u8 {
    match kind {
        TraceEventKind::Online => 0,
        TraceEventKind::StartDownload { .. } => 1,
        TraceEventKind::Offline => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceGenConfig::quick(20, SimDuration::from_days(1));
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TraceGenConfig::quick(20, SimDuration::from_days(1));
        assert_ne!(cfg.generate(1).events, cfg.generate(2).events);
    }

    #[test]
    fn scaled_at_the_paper_size_is_the_paper_preset() {
        let paper = TraceGenConfig::scaled(100, SimDuration::from_days(7));
        assert_eq!(paper, TraceGenConfig::filelist_like());
        assert_eq!(
            TraceGenConfig::scaled(4, SimDuration::from_hours(1)).founder_count,
            1
        );
    }

    #[test]
    fn generated_trace_validates() {
        let cfg = TraceGenConfig::filelist_like();
        let t = cfg.generate(42);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn filelist_calibration_matches_paper_stats() {
        // The §VI dataset: 100 peers, ≈23k events, ~50% online, ~25%
        // free-riders. Allow the tolerances a synthetic match needs.
        let cfg = TraceGenConfig::filelist_like();
        let mut events = 0usize;
        let mut online = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let t = cfg.generate(seed);
            let st = TraceStats::compute(&t);
            assert_eq!(st.unique_peers, 100);
            events += st.event_count;
            online += st.avg_online_fraction;
            assert!(
                (st.free_rider_fraction - 0.25).abs() < 0.03,
                "free rider fraction {}",
                st.free_rider_fraction
            );
        }
        let mean_events = events as f64 / runs as f64;
        let mean_online = online / runs as f64;
        assert!(
            (18_000.0..=28_000.0).contains(&mean_events),
            "mean events {mean_events} should approximate 23k"
        );
        assert!(
            (0.40..=0.60).contains(&mean_online),
            "mean online fraction {mean_online} should approximate 0.5"
        );
    }

    #[test]
    fn founders_arrive_first() {
        let cfg = TraceGenConfig::filelist_like();
        let t = cfg.generate(3);
        let order = t.arrival_order();
        // The first founder_count arrivals should all be within 30 minutes.
        for id in order.iter().take(cfg.founder_count) {
            assert!(t.peers[id.index()].arrival <= SimTime::from_mins(30));
        }
    }

    #[test]
    fn rarely_online_peers_exist() {
        let cfg = TraceGenConfig::filelist_like();
        let t = cfg.generate(11);
        let online = t.online_time_per_peer();
        let dur = t.duration.as_millis() as f64;
        let rare = online
            .iter()
            .filter(|d| (d.as_millis() as f64 / dur) < 0.10)
            .count();
        assert!(rare >= 3, "expected rarely-online stragglers, found {rare}");
    }

    #[test]
    fn free_riders_have_small_uplinks() {
        let cfg = TraceGenConfig::filelist_like();
        let t = cfg.generate(5);
        let max_fr = cfg.free_rider_uplink_kibps.1;
        let min_alt = cfg.uplink_kibps.0;
        for p in &t.peers {
            if p.free_rider {
                assert!(p.uplink_kibps <= max_fr);
            } else {
                assert!(p.uplink_kibps >= min_alt);
            }
        }
    }

    #[test]
    fn every_swarm_has_a_founder_seeder() {
        let cfg = TraceGenConfig::filelist_like();
        let t = cfg.generate(9);
        let order = t.arrival_order();
        let founders: std::collections::BTreeSet<_> =
            order.iter().take(cfg.founder_count).collect();
        for s in &t.swarms {
            assert!(
                founders.contains(&s.initial_seeder),
                "swarm {} seeded by non-founder {}",
                s.id,
                s.initial_seeder
            );
        }
    }

    #[test]
    fn downloads_reference_valid_swarms_and_skip_seeder() {
        let cfg = TraceGenConfig::quick(30, SimDuration::from_days(2));
        let t = cfg.generate(21);
        for ev in &t.events {
            if let TraceEventKind::StartDownload { swarm } = ev.kind {
                let spec = &t.swarms[swarm.index()];
                assert_ne!(
                    spec.initial_seeder, ev.peer,
                    "initial seeder must not re-download"
                );
            }
        }
    }

    #[test]
    fn quick_preset_scales_down() {
        let cfg = TraceGenConfig::quick(10, SimDuration::from_hours(6));
        let t = cfg.generate(1);
        assert_eq!(t.peer_count(), 10);
        assert_eq!(t.swarms.len(), 3);
        assert!(t.events.len() > 10);
        assert_eq!(t.validate(), Ok(()));
    }
}
