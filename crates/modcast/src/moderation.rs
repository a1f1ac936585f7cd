//! The moderation record: signed metadata bound to a moderator.

use crate::sign::{digest, KeyRegistry, Signature};
use rvs_sim::{ModeratorId, SimTime, SwarmId};

/// Ground-truth quality of a moderation's metadata. Only the evaluation
/// harness reads this label — protocols never see it (nodes judge
/// moderators through votes, exactly as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentQuality {
    /// Metadata faithfully describes the content.
    Genuine,
    /// Spam: metadata does not reflect the content it is attached to.
    Spam,
}

rvs_checkpoint::persist_enum!(ContentQuality { Genuine = 0, Spam = 1 });

/// Identity of a moderation: `(moderator, seq)` — each moderator numbers
/// its items sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModerationId {
    /// The creating moderator.
    pub moderator: ModeratorId,
    /// Per-moderator sequence number.
    pub seq: u32,
}

rvs_checkpoint::persist_struct!(ModerationId { moderator, seq });

/// A signed metadata item describing one swarm's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Moderation {
    /// Who created (and signed) this moderation.
    pub moderator: ModeratorId,
    /// Per-moderator sequence number.
    pub seq: u32,
    /// The swarm the metadata describes.
    pub swarm: SwarmId,
    /// Creation time (set by the moderator).
    pub created: SimTime,
    /// Ground-truth quality label (evaluation only).
    pub quality: ContentQuality,
    /// Moderator's signature over all fields above.
    pub sig: Signature,
}

impl Moderation {
    /// Create and sign a moderation.
    pub fn new(
        registry: &KeyRegistry,
        moderator: ModeratorId,
        seq: u32,
        swarm: SwarmId,
        created: SimTime,
        quality: ContentQuality,
    ) -> Self {
        let mut m = Moderation {
            moderator,
            seq,
            swarm,
            created,
            quality,
            sig: Signature(0),
        };
        m.sig = registry.sign(moderator, m.digest());
        m
    }

    /// Digest over the signed fields.
    pub fn digest(&self) -> u64 {
        digest(&[
            self.moderator.0 as u64,
            self.seq as u64,
            self.swarm.0 as u64,
            self.created.as_millis(),
            match self.quality {
                ContentQuality::Genuine => 0,
                ContentQuality::Spam => 1,
            },
        ])
    }

    /// Verify the signature against the PKI.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(self.moderator, self.digest(), self.sig)
    }

    /// The moderation's identity.
    pub fn id(&self) -> ModerationId {
        ModerationId {
            moderator: self.moderator,
            seq: self.seq,
        }
    }
}

// The signature is persisted verbatim (re-signing on restore would need
// the registry).
rvs_checkpoint::persist_struct!(Moderation {
    moderator,
    seq,
    swarm,
    created,
    quality,
    sig
});

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::NodeId;

    fn registry() -> KeyRegistry {
        KeyRegistry::new(8, 99)
    }

    fn sample(reg: &KeyRegistry) -> Moderation {
        Moderation::new(
            reg,
            NodeId(3),
            0,
            SwarmId(1),
            SimTime::from_hours(2),
            ContentQuality::Genuine,
        )
    }

    #[test]
    fn fresh_moderation_verifies() {
        let reg = registry();
        assert!(sample(&reg).verify(&reg));
    }

    #[test]
    fn altering_any_field_breaks_signature() {
        let reg = registry();
        let m = sample(&reg);
        let mut swapped_swarm = m;
        swapped_swarm.swarm = SwarmId(2);
        assert!(!swapped_swarm.verify(&reg));
        let mut swapped_quality = m;
        swapped_quality.quality = ContentQuality::Spam;
        assert!(!swapped_quality.verify(&reg));
        let mut swapped_seq = m;
        swapped_seq.seq = 7;
        assert!(!swapped_seq.verify(&reg));
    }

    #[test]
    fn identity_theft_fails() {
        let reg = registry();
        let mut m = sample(&reg);
        // Attacker re-attributes the item to another moderator.
        m.moderator = NodeId(5);
        assert!(!m.verify(&reg));
    }

    #[test]
    fn id_combines_moderator_and_seq() {
        let reg = registry();
        let m = sample(&reg);
        assert_eq!(
            m.id(),
            ModerationId {
                moderator: NodeId(3),
                seq: 0
            }
        );
    }
}
