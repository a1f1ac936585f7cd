//! The trace data model: peers, swarms, and the time-ordered event stream.

use rvs_sim::{NodeId, SimDuration, SimTime, SwarmId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happened at a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// The peer came online (its client started).
    Online,
    /// The peer went offline (client stopped / network lost).
    Offline,
    /// The peer began downloading the given swarm's file. The BitTorrent
    /// simulator takes over from here: the peer leeches while online and, on
    /// completion, seeds according to its [`PeerProfile`].
    StartDownload {
        /// The swarm being joined as a leecher.
        swarm: SwarmId,
    },
}

/// One timestamped event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub time: SimTime,
    /// The peer it concerns.
    pub peer: NodeId,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Static, per-peer attributes recorded by (or derived from) the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerProfile {
    /// Dense peer identifier; index into [`Trace::peers`].
    pub id: NodeId,
    /// First moment the peer enters the system. The paper designates the
    /// first three arrivals as moderators M1, M2, M3.
    pub arrival: SimTime,
    /// Whether the peer is freely connectable or firewalled. Two firewalled
    /// peers cannot open a BitTorrent connection to each other.
    pub connectable: bool,
    /// Free-riders leave each swarm as soon as their download completes and
    /// have modest uplinks; the paper found ≈25% of traced peers "uploaded
    /// little to others".
    pub free_rider: bool,
    /// How long an altruistic peer keeps seeding a completed file while
    /// online (ignored for free-riders, who leave immediately).
    pub seed_duration: SimDuration,
    /// Upload capacity in KiB/s.
    pub uplink_kibps: u32,
    /// Download capacity in KiB/s.
    pub downlink_kibps: u32,
}

/// A swarm: one shared file behind one .torrent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwarmSpec {
    /// Dense swarm identifier; index into [`Trace::swarms`].
    pub id: SwarmId,
    /// When the swarm (and its initial seeder) appears.
    pub created: SimTime,
    /// Size of the shared file in MiB. filelist.org traces record file size
    /// per swarm; typical media files run hundreds of MiB.
    pub file_size_mib: u32,
    /// Piece size in KiB (BitTorrent default region: 256 KiB – 1 MiB).
    pub piece_size_kib: u32,
    /// The peer acting as the swarm's initial seeder.
    pub initial_seeder: NodeId,
}

impl SwarmSpec {
    /// Number of pieces in the file (ceiling division).
    pub fn piece_count(&self) -> u32 {
        let file_kib = self.file_size_mib as u64 * 1024;
        (file_kib.div_ceil(self.piece_size_kib as u64)) as u32
    }
}

rvs_checkpoint::persist_enum!(TraceEventKind {
    Online = 0,
    Offline = 1,
    StartDownload { swarm } = 2,
});

rvs_checkpoint::persist_struct!(TraceEvent { time, peer, kind });

rvs_checkpoint::persist_struct!(PeerProfile {
    id,
    arrival,
    connectable,
    free_rider,
    seed_duration,
    uplink_kibps,
    downlink_kibps
});

rvs_checkpoint::persist_struct!(SwarmSpec {
    id,
    created,
    file_size_mib,
    piece_size_kib,
    initial_seeder
});

/// Validation failures for a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Events are not sorted by time.
    UnsortedEvents {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// An event references a peer outside `peers`.
    UnknownPeer {
        /// Index of the offending event.
        index: usize,
        /// The unknown peer id.
        peer: NodeId,
    },
    /// An event references a swarm outside `swarms`.
    UnknownSwarm {
        /// Index of the offending event.
        index: usize,
        /// The unknown swarm id.
        swarm: SwarmId,
    },
    /// A peer's Online/Offline events do not alternate correctly.
    ChurnMismatch {
        /// The peer with inconsistent churn.
        peer: NodeId,
    },
    /// A peer profile's id does not match its position.
    MisindexedPeer {
        /// Position in `peers`.
        index: usize,
    },
    /// A swarm spec's id does not match its position.
    MisindexedSwarm {
        /// Position in `swarms`.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnsortedEvents { index } => {
                write!(f, "event {index} is earlier than its predecessor")
            }
            TraceError::UnknownPeer { index, peer } => {
                write!(f, "event {index} references unknown peer {peer}")
            }
            TraceError::UnknownSwarm { index, swarm } => {
                write!(f, "event {index} references unknown swarm {swarm}")
            }
            TraceError::ChurnMismatch { peer } => {
                write!(f, "peer {peer} has non-alternating online/offline events")
            }
            TraceError::MisindexedPeer { index } => {
                write!(f, "peer profile at index {index} has mismatched id")
            }
            TraceError::MisindexedSwarm { index } => {
                write!(f, "swarm spec at index {index} has mismatched id")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete trace: the population, the swarms, and the event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Seed the trace was generated from (0 for imported real traces).
    pub seed: u64,
    /// Total monitored span (the paper's traces cover 7 days).
    pub duration: SimDuration,
    /// All peers ever observed, indexed by [`NodeId`].
    pub peers: Vec<PeerProfile>,
    /// All swarms, indexed by [`SwarmId`].
    pub swarms: Vec<SwarmSpec>,
    /// Time-ordered event stream.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of unique peers in the trace.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Peers in order of first arrival. The first three are the paper's
    /// moderators M1, M2, M3 in the Figure-6 experiment.
    pub fn arrival_order(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.peers.iter().map(|p| p.id).collect();
        ids.sort_by_key(|id| (self.peers[id.index()].arrival, *id));
        ids
    }

    /// Check structural invariants: sorted events, known ids, alternating
    /// churn per peer, dense indexing.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, p) in self.peers.iter().enumerate() {
            if p.id.index() != i {
                return Err(TraceError::MisindexedPeer { index: i });
            }
        }
        for (i, s) in self.swarms.iter().enumerate() {
            if s.id.index() != i {
                return Err(TraceError::MisindexedSwarm { index: i });
            }
        }
        let mut online = vec![false; self.peers.len()];
        let mut last = SimTime::ZERO;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.time < last {
                return Err(TraceError::UnsortedEvents { index: i });
            }
            last = ev.time;
            if ev.peer.index() >= self.peers.len() {
                return Err(TraceError::UnknownPeer {
                    index: i,
                    peer: ev.peer,
                });
            }
            match ev.kind {
                TraceEventKind::Online => {
                    if online[ev.peer.index()] {
                        return Err(TraceError::ChurnMismatch { peer: ev.peer });
                    }
                    online[ev.peer.index()] = true;
                }
                TraceEventKind::Offline => {
                    if !online[ev.peer.index()] {
                        return Err(TraceError::ChurnMismatch { peer: ev.peer });
                    }
                    online[ev.peer.index()] = false;
                }
                TraceEventKind::StartDownload { swarm } => {
                    if swarm.index() >= self.swarms.len() {
                        return Err(TraceError::UnknownSwarm { index: i, swarm });
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-peer total online time over the trace (peers still online at the
    /// end are credited up to `duration`).
    pub fn online_time_per_peer(&self) -> Vec<SimDuration> {
        let end = SimTime::ZERO + self.duration;
        let mut total = vec![SimDuration::ZERO; self.peers.len()];
        let mut since: Vec<Option<SimTime>> = vec![None; self.peers.len()];
        for ev in &self.events {
            match ev.kind {
                TraceEventKind::Online => since[ev.peer.index()] = Some(ev.time),
                TraceEventKind::Offline => {
                    if let Some(s) = since[ev.peer.index()].take() {
                        total[ev.peer.index()] += ev.time - s;
                    }
                }
                TraceEventKind::StartDownload { .. } => {}
            }
        }
        for (i, s) in since.iter().enumerate() {
            if let Some(s) = *s {
                total[i] += end - s;
            }
        }
        total
    }
}

rvs_checkpoint::persist_struct!(Trace {
    seed,
    duration,
    peers,
    swarms,
    events
});

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(i: u32, arrival_h: u64) -> PeerProfile {
        PeerProfile {
            id: NodeId(i),
            arrival: SimTime::from_hours(arrival_h),
            connectable: true,
            free_rider: false,
            seed_duration: SimDuration::from_hours(10),
            uplink_kibps: 512,
            downlink_kibps: 2048,
        }
    }

    fn tiny_trace() -> Trace {
        Trace {
            seed: 1,
            duration: SimDuration::from_days(7),
            peers: vec![peer(0, 0), peer(1, 2)],
            swarms: vec![SwarmSpec {
                id: SwarmId(0),
                created: SimTime::ZERO,
                file_size_mib: 700,
                piece_size_kib: 256,
                initial_seeder: NodeId(0),
            }],
            events: vec![
                TraceEvent {
                    time: SimTime::ZERO,
                    peer: NodeId(0),
                    kind: TraceEventKind::Online,
                },
                TraceEvent {
                    time: SimTime::from_hours(2),
                    peer: NodeId(1),
                    kind: TraceEventKind::Online,
                },
                TraceEvent {
                    time: SimTime::from_hours(2),
                    peer: NodeId(1),
                    kind: TraceEventKind::StartDownload { swarm: SwarmId(0) },
                },
                TraceEvent {
                    time: SimTime::from_hours(5),
                    peer: NodeId(1),
                    kind: TraceEventKind::Offline,
                },
            ],
        }
    }

    #[test]
    fn valid_trace_passes() {
        assert_eq!(tiny_trace().validate(), Ok(()));
    }

    #[test]
    fn unsorted_events_rejected() {
        let mut t = tiny_trace();
        // Two Online events for different peers, out of time order: the
        // churn invariant stays intact so the sort check fires.
        t.events.swap(0, 1);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnsortedEvents { .. })
        ));
    }

    #[test]
    fn unknown_peer_rejected() {
        let mut t = tiny_trace();
        t.events[0].peer = NodeId(99);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnknownPeer {
                peer: NodeId(99),
                ..
            })
        ));
    }

    #[test]
    fn unknown_swarm_rejected() {
        let mut t = tiny_trace();
        t.events[2].kind = TraceEventKind::StartDownload { swarm: SwarmId(7) };
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnknownSwarm {
                swarm: SwarmId(7),
                ..
            })
        ));
    }

    #[test]
    fn double_online_rejected() {
        let mut t = tiny_trace();
        t.events[1] = TraceEvent {
            time: SimTime::from_hours(1),
            peer: NodeId(0),
            kind: TraceEventKind::Online,
        };
        assert!(matches!(
            t.validate(),
            Err(TraceError::ChurnMismatch { peer: NodeId(0) })
        ));
    }

    #[test]
    fn offline_without_online_rejected() {
        let mut t = tiny_trace();
        t.events = vec![TraceEvent {
            time: SimTime::ZERO,
            peer: NodeId(1),
            kind: TraceEventKind::Offline,
        }];
        assert!(matches!(
            t.validate(),
            Err(TraceError::ChurnMismatch { peer: NodeId(1) })
        ));
    }

    #[test]
    fn misindexed_peer_rejected() {
        let mut t = tiny_trace();
        t.peers[1].id = NodeId(5);
        assert_eq!(t.validate(), Err(TraceError::MisindexedPeer { index: 1 }));
    }

    #[test]
    fn arrival_order_sorts_by_time() {
        let t = tiny_trace();
        assert_eq!(t.arrival_order(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn online_time_credits_open_sessions_to_end() {
        let t = tiny_trace();
        let online = t.online_time_per_peer();
        // Peer 0 never goes offline: credited the full 7 days.
        assert_eq!(online[0], SimDuration::from_days(7));
        // Peer 1 online 2h..5h.
        assert_eq!(online[1], SimDuration::from_hours(3));
    }

    #[test]
    fn piece_count_rounds_up() {
        let s = SwarmSpec {
            id: SwarmId(0),
            created: SimTime::ZERO,
            file_size_mib: 1,
            piece_size_kib: 1000,
            initial_seeder: NodeId(0),
        };
        // 1024 KiB / 1000 KiB -> 2 pieces.
        assert_eq!(s.piece_count(), 2);
        let s2 = SwarmSpec {
            piece_size_kib: 256,
            ..s
        };
        assert_eq!(s2.piece_count(), 4);
    }

    #[test]
    fn trace_error_display_is_informative() {
        let e = TraceError::UnknownPeer {
            index: 3,
            peer: NodeId(9),
        };
        assert!(e.to_string().contains("n9"));
    }
}
