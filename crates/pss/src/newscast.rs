//! Newscast-style gossip peer sampling.
//!
//! Each node keeps a bounded *view* of `(peer, heartbeat)` entries. Every
//! gossip period an online node picks a random entry from its view,
//! exchanges views with that peer, and both keep the `view_size` freshest
//! entries of the union (plus a fresh self-entry). This is the classic
//! Newscast construction \[Jelasity et al. 2003\] that BuddyCast — the PSS
//! deployed in Tribler — derives from. It maintains a random-like overlay
//! that is self-repairing under churn and whose view samples approximate
//! uniform draws from the online population.

use crate::PeerSampler;
use rvs_sim::{DetRng, NodeId, SimTime};
use rvs_telemetry::PssCounters;

/// Tuning for the Newscast PSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewscastConfig {
    /// Entries kept per view (classic Newscast uses 20–30). Departed peers
    /// age out once `view_size` fresher descriptors circulate — the classic
    /// crowding-out mechanism; there is deliberately no hard age purge,
    /// which would fragment the overlay after quiet periods.
    pub view_size: usize,
}

impl Default for NewscastConfig {
    fn default() -> Self {
        NewscastConfig { view_size: 20 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    peer: NodeId,
    heartbeat: SimTime,
}

/// Gossip-based PSS over a fixed-size population.
#[derive(Debug, Clone)]
pub struct NewscastPss {
    cfg: NewscastConfig,
    views: Vec<Vec<Entry>>,
    online: Vec<bool>,
    counters: PssCounters,
}

impl NewscastPss {
    /// A PSS over `n` nodes with empty views.
    pub fn new(n: usize, cfg: NewscastConfig) -> Self {
        NewscastPss {
            cfg,
            views: vec![Vec::new(); n],
            online: vec![false; n],
            counters: PssCounters::default(),
        }
    }

    /// Population-wide view-exchange counters.
    pub fn counters(&self) -> &PssCounters {
        &self.counters
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Mark a peer online. A joining peer needs at least one contact to
    /// bootstrap its view; `introducer` models the tracker/superpeer list
    /// every deployed client ships with.
    pub fn set_online(&mut self, peer: NodeId, introducer: Option<NodeId>, now: SimTime) {
        self.online[peer.index()] = true;
        if let Some(intro) = introducer {
            if intro != peer {
                let view = &mut self.views[peer.index()];
                // Refresh rather than duplicate, and keep the view bounded:
                // evict the stalest entry when the introducer would overflow
                // it (repeated joins must not grow the view).
                view.retain(|e| e.peer != intro);
                if view.len() >= self.cfg.view_size {
                    if let Some(stalest) = view
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.heartbeat, e.peer))
                        .map(|(i, _)| i)
                    {
                        view.swap_remove(stalest);
                    }
                }
                view.push(Entry {
                    peer: intro,
                    heartbeat: now,
                });
            }
        }
    }

    /// Mark a peer offline. Its view survives (state is kept across
    /// sessions, as in Tribler) but it stops gossiping.
    pub fn set_offline(&mut self, peer: NodeId) {
        self.online[peer.index()] = false;
    }

    /// Is the peer online?
    pub fn is_online(&self, peer: NodeId) -> bool {
        self.online[peer.index()]
    }

    /// Current view of `peer` (peers only, freshest first).
    pub fn view_of(&self, peer: NodeId) -> Vec<NodeId> {
        let mut v = self.views[peer.index()].clone();
        v.sort_by_key(|e| (std::cmp::Reverse(e.heartbeat), e.peer));
        v.into_iter().map(|e| e.peer).collect()
    }

    /// Run one gossip round at time `now`: every online node initiates one
    /// exchange with a random view entry (if that entry is online).
    pub fn gossip_round(&mut self, now: SimTime, rng: &mut DetRng) {
        for i in 0..self.views.len() {
            if !self.online[i] {
                continue;
            }
            let initiator = NodeId::from_index(i);
            let partner = {
                let view = &self.views[i];
                if view.is_empty() {
                    continue;
                }
                view[rng.index(view.len())].peer
            };
            // Contacting an offline peer fails silently (timeout); the stale
            // entry ages out via max_age.
            if partner.index() >= self.online.len() || !self.online[partner.index()] {
                self.counters.failed_contacts += 1;
                continue;
            }
            self.exchange(initiator, partner, now, rng);
            self.counters.exchanges += 1;
        }
    }

    /// Symmetric view exchange between two online peers.
    fn exchange(&mut self, a: NodeId, b: NodeId, now: SimTime, rng: &mut DetRng) {
        let mut union: Vec<Entry> =
            Vec::with_capacity(self.views[a.index()].len() + self.views[b.index()].len() + 2);
        union.extend(self.views[a.index()].iter().copied());
        union.extend(self.views[b.index()].iter().copied());
        union.push(Entry {
            peer: a,
            heartbeat: now,
        });
        union.push(Entry {
            peer: b,
            heartbeat: now,
        });
        // Deduplicate keeping the freshest heartbeat per peer, then age out.
        union.sort_by_key(|e| (e.peer, std::cmp::Reverse(e.heartbeat)));
        union.dedup_by_key(|e| e.peer);
        // Freshest-first truncation to view_size (classic Newscast): stale
        // descriptors are never purged outright — they fall off only when
        // crowded out by fresher ones. A hard age purge would fragment the
        // overlay into small always-fresh cliques after any quiet period.
        // Ties (entries refreshed in the same round) are broken *randomly*:
        // a deterministic tie-break would make every view converge onto the
        // same subset of peers and destroy the sampler's uniformity.
        rng.shuffle(&mut union);
        union.sort_by_key(|e| std::cmp::Reverse(e.heartbeat));

        let make_view = |exclude: NodeId| -> Vec<Entry> {
            union
                .iter()
                .copied()
                .filter(|e| e.peer != exclude)
                .take(self.cfg.view_size)
                .collect()
        };
        self.views[a.index()] = make_view(a);
        self.views[b.index()] = make_view(b);
    }
}

impl NewscastPss {
    /// Sample without mutating the sampler: views only change during
    /// [`NewscastPss::gossip_round`] and churn, never on sampling, so each
    /// peer can draw from its own RNG lane and match the `&mut` trait path
    /// draw for draw.
    pub fn sample_from(&self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        let view = &self.views[requester.index()];
        let candidates: Vec<NodeId> = view
            .iter()
            .map(|e| e.peer)
            .filter(|&p| p != requester)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.index(candidates.len())])
        }
    }
}

impl PeerSampler for NewscastPss {
    fn sample(&mut self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        self.sample_from(requester, rng)
    }
}

rvs_checkpoint::persist_struct!(Entry { peer, heartbeat });

/// Stable binary encoding: view size, per-node views in their exact
/// in-memory entry order (order feeds partner-selection draws), online
/// flags, counters.
impl rvs_checkpoint::Persist for NewscastPss {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.usize(self.cfg.view_size);
        self.views.persist(enc);
        self.online.persist(enc);
        self.counters.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let cfg = NewscastConfig {
            view_size: dec.usize()?,
        };
        let views: Vec<Vec<Entry>> = Vec::restore(dec)?;
        let online: Vec<bool> = Vec::restore(dec)?;
        let counters = PssCounters::restore(dec)?;
        // Views are wire state: run each through the same structural gate
        // inbound views pass, so a damaged or adversarial checkpoint
        // surfaces as a typed error instead of a corrupt overlay.
        let population = views.len();
        if online.len() != population {
            return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "newscast online flags {} != views {population}",
                online.len()
            )));
        }
        for (i, view) in views.iter().enumerate() {
            let peers: Vec<NodeId> = view.iter().map(|e| e.peer).collect();
            if let Err(reason) = crate::validate::validate_view(&peers, population, cfg.view_size) {
                return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                    "newscast view of node {i} invalid: {}",
                    reason.as_str()
                )));
            }
        }
        Ok(NewscastPss {
            cfg,
            views,
            online,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::SimDuration;

    /// Bring `n` nodes online chained to node 0 and gossip `rounds` times.
    fn converged(n: usize, rounds: usize, seed: u64) -> (NewscastPss, DetRng) {
        let mut pss = NewscastPss::new(n, NewscastConfig::default());
        let mut rng = DetRng::new(seed);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let intro = if i == 0 { None } else { Some(NodeId(0)) };
            pss.set_online(NodeId::from_index(i), intro, now);
        }
        for _ in 0..rounds {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
        }
        (pss, rng)
    }

    #[test]
    fn views_fill_after_gossip() {
        let (pss, _) = converged(50, 30, 1);
        for i in 0..50 {
            let v = pss.view_of(NodeId(i));
            assert!(
                v.len() >= 10,
                "node {i} view only has {} entries after convergence",
                v.len()
            );
            assert!(!v.contains(&NodeId(i)), "self entries must be excluded");
        }
    }

    #[test]
    fn samples_cover_most_of_population() {
        let (mut pss, mut rng) = converged(40, 40, 2);
        let mut seen = std::collections::BTreeSet::new();
        let mut now = SimTime::from_hours(1);
        // Keep gossiping while sampling so views keep rotating.
        for _ in 0..200 {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
            if let Some(p) = pss.sample(NodeId(7), &mut rng) {
                seen.insert(p);
            }
        }
        assert!(
            seen.len() > 20,
            "samples should sweep the population; saw {}",
            seen.len()
        );
    }

    #[test]
    fn isolated_node_samples_none() {
        let mut pss = NewscastPss::new(3, NewscastConfig::default());
        pss.set_online(NodeId(1), None, SimTime::ZERO);
        let mut rng = DetRng::new(3);
        assert_eq!(pss.sample(NodeId(1), &mut rng), None);
    }

    #[test]
    fn offline_peers_age_out_of_views() {
        // Small views: a departed peer's descriptor is crowded out once
        // view_size fresher descriptors circulate.
        let cfg = NewscastConfig { view_size: 5 };
        let mut pss = NewscastPss::new(10, cfg);
        let mut rng = DetRng::new(4);
        let mut now = SimTime::ZERO;
        for i in 0..10 {
            let intro = if i == 0 { None } else { Some(NodeId(0)) };
            pss.set_online(NodeId(i), intro, now);
        }
        for _ in 0..20 {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
        }
        // Node 9 departs; keep gossiping past max_age.
        pss.set_offline(NodeId(9));
        for _ in 0..30 {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
        }
        for i in 0..9 {
            assert!(
                !pss.view_of(NodeId(i)).contains(&NodeId(9)),
                "node {i} still references departed node 9"
            );
        }
    }

    #[test]
    fn view_size_is_bounded() {
        let (pss, _) = converged(100, 40, 5);
        for i in 0..100 {
            assert!(pss.view_of(NodeId(i)).len() <= NewscastConfig::default().view_size);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (pss, _) = converged(30, 20, seed);
            (0..30).map(|i| pss.view_of(NodeId(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9));
    }

    #[test]
    fn rejoining_peer_reintegrates() {
        let (mut pss, mut rng) = converged(20, 20, 6);
        let mut now = SimTime::from_hours(1);
        pss.set_offline(NodeId(5));
        for _ in 0..10 {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
        }
        pss.set_online(NodeId(5), Some(NodeId(0)), now);
        for _ in 0..10 {
            now += SimDuration::from_secs(5);
            pss.gossip_round(now, &mut rng);
        }
        assert!(!pss.view_of(NodeId(5)).is_empty());
    }
}
