//! Serializable chaos scenarios: fault config plus timed partition and
//! crash-restart events.

use crate::config::{BurstLoss, FaultConfig, RetryConfig};
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A named network partition: while active (`start ≤ now < heal`), no
/// message may cross between `members` and the rest of the population.
/// Traffic inside either side is unaffected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Human-readable name, used in audit messages.
    pub name: String,
    /// Nodes on one side of the cut; everyone else is on the other side.
    pub members: Vec<NodeId>,
    /// When the cut happens.
    pub start: SimTime,
    /// When the partition heals (scheduled heal event).
    pub heal: SimTime,
}

/// A crash-restart fault: at `at`, the node's volatile protocol state
/// (ballot box, VoxPopuli cache, message dedup window, backoff state) is
/// wiped; persistent state (BarterCast graph, signed moderations, PSS
/// view) survives, per the paper's Tribler deployment model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The node that crashes and immediately restarts.
    pub node: NodeId,
    /// When it happens.
    pub at: SimTime,
}

/// A complete, replayable chaos scenario. Serializable so `rvs run
/// --faults FILE` can load one from JSON; deterministic given the run
/// seed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultSchedule {
    /// Link-level fault parameters.
    pub config: FaultConfig,
    /// Partition windows.
    pub partitions: Vec<PartitionSpec>,
    /// Crash-restart events.
    pub crashes: Vec<CrashSpec>,
}

impl FaultSchedule {
    /// A schedule that injects nothing — the default.
    pub fn inert() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when no fault of any kind is configured.
    pub fn is_inert(&self) -> bool {
        self.config.is_inert() && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Structural validation: partition windows must be ordered and crash
    /// times finite. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for p in &self.partitions {
            if p.heal < p.start {
                return Err(format!(
                    "partition `{}` heals at {} before it starts at {}",
                    p.name, p.heal, p.start
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.config.loss) {
            return Err(format!("loss {} outside [0, 1]", self.config.loss));
        }
        if !(0.0..=1.0).contains(&self.config.duplicate) {
            return Err(format!(
                "duplicate {} outside [0, 1]",
                self.config.duplicate
            ));
        }
        if !(0.0..=1.0).contains(&self.config.jitter_spread) {
            return Err(format!(
                "jitter_spread {} outside [0, 1]",
                self.config.jitter_spread
            ));
        }
        Ok(())
    }

    /// Parse a schedule from JSON (the `rvs run --faults FILE` format).
    pub fn from_json(s: &str) -> Result<FaultSchedule, String> {
        let schedule: FaultSchedule = serde_json::from_str(s).map_err(|e| e.to_string())?;
        schedule.validate()?;
        Ok(schedule)
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// A deterministic pseudo-random schedule for property tests: any seed
    /// yields a valid schedule over `n_nodes` nodes within `duration`,
    /// mixing latency, jitter, loss, duplication, burst loss, up to two
    /// partitions, and up to three crash-restarts.
    pub fn random(seed: u64, n_nodes: usize, duration: SimDuration) -> FaultSchedule {
        let mut rng = DetRng::new(seed ^ 0xFA01_75C4_EDB0_1E55);
        let span_ms = duration.as_millis().max(1);
        let config = FaultConfig {
            base_latency_ms: [0, 200, 1_000, 5_000][rng.index(4)],
            jitter_spread: rng.next_f64(),
            loss: 0.4 * rng.next_f64(),
            duplicate: 0.2 * rng.next_f64(),
            burst: rng.chance(0.5).then(|| {
                BurstLoss::with_overall_loss(0.4 * rng.next_f64(), 2.0 + 10.0 * rng.next_f64())
            }),
            retry: rng.chance(0.5).then(RetryConfig::default),
        };
        let mut partitions = Vec::new();
        for k in 0..rng.index(3) {
            if n_nodes < 2 {
                break;
            }
            let side = 1 + rng.index(n_nodes - 1);
            let members: Vec<NodeId> = rng
                .sample_indices(n_nodes, side)
                .into_iter()
                .map(NodeId::from_index)
                .collect();
            let start_ms = rng.below(span_ms);
            let len_ms = rng.below(span_ms / 4 + 1);
            partitions.push(PartitionSpec {
                name: format!("p{k}"),
                members,
                start: SimTime::from_millis(start_ms),
                heal: SimTime::from_millis(start_ms.saturating_add(len_ms)),
            });
        }
        let mut crashes = Vec::new();
        for _ in 0..rng.index(4) {
            if n_nodes == 0 {
                break;
            }
            crashes.push(CrashSpec {
                node: NodeId::from_index(rng.index(n_nodes)),
                at: SimTime::from_millis(rng.below(span_ms)),
            });
        }
        FaultSchedule {
            config,
            partitions,
            crashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_schedule_is_inert() {
        assert!(FaultSchedule::inert().is_inert());
    }

    #[test]
    fn json_roundtrips() {
        let s = FaultSchedule {
            config: FaultConfig {
                loss: 0.1,
                ..FaultConfig::default()
            },
            partitions: vec![PartitionSpec {
                name: "coast".into(),
                members: vec![NodeId(0), NodeId(3)],
                start: SimTime::from_hours(2),
                heal: SimTime::from_hours(6),
            }],
            crashes: vec![CrashSpec {
                node: NodeId(1),
                at: SimTime::from_hours(4),
            }],
        };
        let back = FaultSchedule::from_json(&s.to_json()).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn validation_rejects_inverted_partition_window() {
        let s = FaultSchedule {
            partitions: vec![PartitionSpec {
                name: "bad".into(),
                members: vec![NodeId(0)],
                start: SimTime::from_hours(6),
                heal: SimTime::from_hours(2),
            }],
            ..FaultSchedule::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn random_schedules_are_valid_and_deterministic() {
        for seed in 0..50u64 {
            let a = FaultSchedule::random(seed, 24, SimDuration::from_hours(12));
            let b = FaultSchedule::random(seed, 24, SimDuration::from_hours(12));
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate().expect("random schedule must validate");
            for p in &a.partitions {
                assert!(p.members.iter().all(|n| n.index() < 24));
            }
            for c in &a.crashes {
                assert!(c.node.index() < 24);
            }
        }
    }
}
