//! Swarm health statistics: the per-swarm snapshots a tracker (or a
//! researcher) watches — seeder/leecher counts, availability, progress.

use crate::net::BitTorrentNet;
use crate::swarm::SwarmSim;
use rvs_sim::SwarmId;
use std::fmt;

/// A point-in-time health snapshot of one swarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmHealth {
    /// The swarm.
    pub swarm: SwarmId,
    /// Members currently online and seeding.
    pub online_seeders: usize,
    /// Members currently online and leeching.
    pub online_leechers: usize,
    /// Total members (online or not).
    pub members: usize,
    /// Mean download progress over current leechers (1.0 when none).
    pub mean_leecher_progress: f64,
}

impl SwarmHealth {
    /// Snapshot one swarm.
    pub fn of(sim: &SwarmSim) -> SwarmHealth {
        let mut progress_sum = 0.0;
        let mut leechers = 0usize;
        for peer in sim.members() {
            if sim.role(peer) == Some(crate::swarm::MemberRole::Leecher) {
                leechers += 1;
                progress_sum += sim.progress(peer).unwrap_or(0.0);
            }
        }
        SwarmHealth {
            swarm: sim.spec().id,
            online_seeders: sim.online_seeders(),
            online_leechers: sim.online_leechers(),
            members: sim.member_count(),
            mean_leecher_progress: if leechers == 0 {
                1.0
            } else {
                progress_sum / leechers as f64
            },
        }
    }
}

impl fmt::Display for SwarmHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} seeders / {} leechers online ({} members, mean progress {:.0}%)",
            self.swarm,
            self.online_seeders,
            self.online_leechers,
            self.members,
            self.mean_leecher_progress * 100.0
        )
    }
}

/// Snapshot every swarm of a network.
pub fn network_health(net: &BitTorrentNet) -> Vec<SwarmHealth> {
    (0..net.swarm_count())
        .map(|i| SwarmHealth::of(net.swarm(SwarmId::from_index(i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::{LinkProfile, MemberRole};
    use rvs_sim::{NodeId, SimTime};
    use rvs_trace::SwarmSpec;

    fn spec() -> SwarmSpec {
        SwarmSpec {
            id: SwarmId(0),
            created: SimTime::ZERO,
            file_size_mib: 10,
            piece_size_kib: 256,
            initial_seeder: NodeId(0),
        }
    }

    fn link() -> LinkProfile {
        LinkProfile {
            connectable: true,
            uplink_kibps: 256,
            downlink_kibps: 1024,
        }
    }

    #[test]
    fn snapshot_counts_roles() {
        let mut sim = SwarmSim::new(spec());
        sim.join(NodeId(0), MemberRole::Seeder, link(), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(), true);
        sim.join(NodeId(2), MemberRole::Leecher, link(), false);
        let h = SwarmHealth::of(&sim);
        assert_eq!(h.online_seeders, 1);
        assert_eq!(h.online_leechers, 1);
        assert_eq!(h.members, 3);
        assert_eq!(h.mean_leecher_progress, 0.0);
    }

    #[test]
    fn no_leechers_means_progress_one() {
        let mut sim = SwarmSim::new(spec());
        sim.join(NodeId(0), MemberRole::Seeder, link(), true);
        let h = SwarmHealth::of(&sim);
        assert_eq!(h.mean_leecher_progress, 1.0);
    }

    #[test]
    fn display_is_readable() {
        let mut sim = SwarmSim::new(spec());
        sim.join(NodeId(0), MemberRole::Seeder, link(), true);
        let text = SwarmHealth::of(&sim).to_string();
        assert!(text.contains("1 seeders"));
        assert!(text.contains("s0"));
    }
}
