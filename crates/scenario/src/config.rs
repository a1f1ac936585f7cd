//! Scenario configuration: protocol tuning plus the cast of actors
//! (moderators, voters, pre-seeded core, flash crowd).

use rvs_bartercast::{AdaptiveThreshold, BarterCastConfig};
use rvs_bittorrent::NetConfig;
use rvs_modcast::{ContentQuality, LocalVote, ModerationCastConfig};
use rvs_sim::{ModeratorId, NodeId, SimDuration, SimTime, SwarmId};

/// Protocol-level tuning shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// BitTorrent substrate tuning.
    pub net: NetConfig,
    /// BarterCast tuning (2-hop maxflow, 50-record exchanges).
    pub bartercast: BarterCastConfig,
    /// ModerationCast tuning.
    pub modcast: ModerationCastConfig,
    /// BallotBox / VoxPopuli tuning (B_min, B_max, V_max, K, …).
    pub votes: rvs_core::VoteSamplingConfig,
    /// Period of the protocol gossip loop (PSS encounters for BarterCast,
    /// ModerationCast and vote sampling).
    pub gossip_every: SimDuration,
    /// Experience threshold `T` in MiB (paper: 5 MB).
    pub experience_t_mib: f64,
    /// When set, every node runs the §VII adaptive threshold instead of
    /// the fixed `T` (ablation A1).
    pub adaptive_t: Option<AdaptiveThreshold>,
    /// VoxPopuli bootstrap enabled (ablation A6 switches it off).
    pub vox_enabled: bool,
    /// Use the Newscast gossip PSS instead of the uniform oracle.
    pub use_newscast_pss: bool,
    /// Failure injection: probability that any given protocol encounter is
    /// lost entirely (timeout, NAT failure, crash mid-exchange). Applied
    /// per encounter, deterministically from the run's seed.
    pub message_loss: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            net: NetConfig::default(),
            bartercast: BarterCastConfig::default(),
            modcast: ModerationCastConfig::default(),
            votes: rvs_core::VoteSamplingConfig::default(),
            gossip_every: SimDuration::from_secs(60),
            experience_t_mib: 5.0,
            adaptive_t: None,
            vox_enabled: true,
            use_newscast_pss: false,
            message_loss: 0.0,
        }
    }
}

/// A moderator that publishes one moderation when it first appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeratorSpec {
    /// The publishing node.
    pub moderator: ModeratorId,
    /// The swarm its moderation describes.
    pub swarm: SwarmId,
    /// Ground-truth quality of the metadata.
    pub quality: ContentQuality,
    /// Publication time.
    pub publish_at: SimTime,
}

rvs_checkpoint::persist_struct!(ModeratorSpec {
    moderator,
    swarm,
    quality,
    publish_at
});

/// A voter assignment: `voter` casts `vote` on `moderator` as soon as it
/// has received one of the moderator's items ("voting nodes do not vote
/// until they receive the appropriate moderations", Fig 6 caption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoterSpec {
    /// The voting node.
    pub voter: NodeId,
    /// The moderator voted on.
    pub moderator: ModeratorId,
    /// Thumbs-up or thumbs-down.
    pub vote: LocalVote,
}

rvs_checkpoint::persist_struct!(VoterSpec {
    voter,
    moderator,
    vote
});

/// A pre-seeded experienced core (Figure 8 setup: "we fixed 30 nodes to be
/// part of the experienced core. At the start of the run the entire core
/// is converged on a top moderator M1").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreseededCore {
    /// Core members: treated as experienced by every node's `E`.
    pub members: Vec<NodeId>,
    /// The moderator the core has converged on.
    pub top_moderator: ModeratorId,
}

rvs_checkpoint::persist_struct!(PreseededCore {
    members,
    top_moderator
});

/// A flash crowd of colluding fresh identities promoting a spam moderator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrowdSpec {
    /// Number of colluding identities (appended after the trace peers).
    pub size: usize,
    /// When the crowd joins.
    pub join_at: SimTime,
    /// Swarm the spam moderation is attached to.
    pub spam_swarm: SwarmId,
    /// Honest moderator the crowd votes down, if any.
    pub demote: Option<ModeratorId>,
    /// Fraction of time each crowd identity is online (the crowd churns
    /// like the rest of the population; 1.0 = always on).
    pub duty_cycle: f64,
    /// On/off period for the crowd's duty cycle.
    pub churn_period: SimDuration,
}

impl CrowdSpec {
    /// A crowd of `size` nodes joining at `join_at` with ~50% presence,
    /// matching the traced population's churn.
    pub fn churning(size: usize, join_at: SimTime, spam_swarm: SwarmId) -> Self {
        CrowdSpec {
            size,
            join_at,
            spam_swarm,
            demote: None,
            duty_cycle: 0.5,
            churn_period: SimDuration::from_mins(80),
        }
    }
}

/// Stable binary encoding: size, join time, spam swarm, optional demote
/// target, duty cycle, churn period — declaration order.
impl rvs_checkpoint::Persist for CrowdSpec {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.usize(self.size);
        self.join_at.persist(enc);
        self.spam_swarm.persist(enc);
        self.demote.persist(enc);
        enc.f64(self.duty_cycle);
        self.churn_period.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let size = dec.usize()?;
        if size == 0 {
            return Err(rvs_checkpoint::DecodeError::Corrupt(
                "CrowdSpec size must be positive".into(),
            ));
        }
        Ok(CrowdSpec {
            size,
            join_at: SimTime::restore(dec)?,
            spam_swarm: SwarmId::restore(dec)?,
            demote: Option::restore(dec)?,
            duty_cycle: dec.f64()?,
            churn_period: SimDuration::restore(dec)?,
        })
    }
}

/// The full cast of a scenario.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSetup {
    /// Moderators publishing metadata.
    pub moderators: Vec<ModeratorSpec>,
    /// Voter assignments.
    pub voters: Vec<VoterSpec>,
    /// Pre-seeded experienced core, if the scenario fixes one.
    pub core: Option<PreseededCore>,
    /// Flash crowd, if the scenario is under attack.
    pub crowd: Option<CrowdSpec>,
}

rvs_checkpoint::persist_struct!(ScenarioSetup {
    moderators,
    voters,
    core,
    crowd
});

impl Default for PreseededCore {
    fn default() -> Self {
        PreseededCore {
            members: Vec::new(),
            top_moderator: NodeId(0),
        }
    }
}
