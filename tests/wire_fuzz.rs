//! Wire-fuzz corpus (byzantine message plane): hostile bytes and
//! structured mutations against every inbound gate.
//!
//! Three properties, each proven over proptest-driven corpora:
//!
//! 1. **Decode totality** — `Persist::restore` over arbitrary or
//!    bit-flipped bytes returns a typed `DecodeError`, never panics,
//!    and never over-allocates (the decoder bounds every length claim
//!    by the bytes remaining).
//! 2. **Gate totality** — every `validate_*` gate classifies arbitrary
//!    structured payloads, including every `Malformer` mutation, into
//!    `Ok` or a typed `RejectReason`; it never panics and is
//!    deterministic (same input, same verdict).
//! 3. **No false positives** — honestly produced payloads always pass,
//!    so the gates reject attackers, not the protocol.

use proptest::prelude::*;
use robust_vote_sampling::attacks::{Flooder, Malformer};
use robust_vote_sampling::bartercast::{validate_records, Record};
use robust_vote_sampling::checkpoint::{Decoder, Encoder, Persist};
use robust_vote_sampling::core::{validate_topk, validate_vote_list, TopKList, Vote, VoteEntry};
use robust_vote_sampling::guard::{Governor, GuardConfig, MessageClass, RejectReason};
use robust_vote_sampling::modcast::{
    validate_moderation_list, ContentQuality, KeyRegistry, Moderation,
};
use robust_vote_sampling::pss::validate_view;
use robust_vote_sampling::scenario::Checkpoint;
use rvs_sim::{DetRng, ModeratorId, NodeId, SimTime, SwarmId};

/// Population every gate is parameterized with.
const POP: usize = 24;
/// VoxPopuli K used by the top-K gate.
const K: usize = 5;
/// Receiver-side "now" for timestamp checks.
const NOW: SimTime = SimTime::from_hours(12);

fn honest_votes(rng: &mut DetRng) -> Vec<VoteEntry> {
    let n = rng.below(8) as usize;
    (0..n)
        .map(|i| VoteEntry {
            moderator: ModeratorId::from_index(i),
            vote: if rng.below(2) == 0 {
                Vote::Positive
            } else {
                Vote::Negative
            },
            made_at: SimTime::from_millis(rng.below(NOW.as_millis())),
        })
        .collect()
}

fn honest_moderations(registry: &KeyRegistry, rng: &mut DetRng) -> Vec<Moderation> {
    let n = rng.below(5) as usize;
    (0..n)
        .map(|i| {
            Moderation::new(
                registry,
                ModeratorId::from_index(i),
                rng.below(100) as u32,
                SwarmId::from_index(rng.below(16) as usize),
                SimTime::from_millis(rng.below(NOW.as_millis())),
                if rng.below(4) == 0 {
                    ContentQuality::Spam
                } else {
                    ContentQuality::Genuine
                },
            )
        })
        .collect()
}

fn honest_records(reporter: NodeId, rng: &mut DetRng) -> Vec<Record> {
    let n = rng.below(6) as usize;
    (0..n)
        .map(|i| {
            let other = NodeId::from_index((reporter.index() + 1 + i) % POP);
            let kib = rng.below(1 << 20);
            if rng.below(2) == 0 {
                Record {
                    from: reporter,
                    to: other,
                    kib,
                }
            } else {
                Record {
                    from: other,
                    to: reporter,
                    kib,
                }
            }
        })
        .collect()
}

fn honest_topk(rng: &mut DetRng) -> TopKList {
    let n = rng.below(K as u64 + 1) as usize;
    TopKList {
        ranked: (0..n).map(ModeratorId::from_index).collect(),
    }
}

fn honest_view(rng: &mut DetRng) -> Vec<NodeId> {
    let n = rng.below(12) as usize;
    (0..n).map(NodeId::from_index).collect()
}

/// A structurally arbitrary (not merely malformed-from-honest) payload
/// generator: wild ids, wild timestamps, duplicates — everything the
/// wire could carry.
fn garbage_votes(rng: &mut DetRng) -> Vec<VoteEntry> {
    let n = rng.below(12) as usize;
    (0..n)
        .map(|_| VoteEntry {
            moderator: ModeratorId::from_index(rng.below(u32::MAX as u64) as usize),
            vote: if rng.below(2) == 0 {
                Vote::Positive
            } else {
                Vote::Negative
            },
            made_at: SimTime::from_millis(rng.below(u64::MAX / 2)),
        })
        .collect()
}

/// Run every gate over the given payloads; assert each verdict is
/// reproducible (the gates are pure). Returning at all is the totality
/// property — a panic fails the test.
fn classify(
    registry: &KeyRegistry,
    reporter: NodeId,
    votes: &[VoteEntry],
    mods: &[Moderation],
    recs: &[Record],
    topk: &TopKList,
    view: &[NodeId],
) -> [Result<(), RejectReason>; 5] {
    let gcfg = GuardConfig::active();
    let verdicts = [
        validate_vote_list(
            votes,
            POP,
            POP,
            NOW,
            gcfg.max_timestamp_skew,
            gcfg.replay_window,
        ),
        validate_moderation_list(mods, registry, 16, POP, NOW, gcfg.max_timestamp_skew),
        validate_records(recs, reporter, 2 * POP, POP, 1 << 20),
        validate_topk(topk, K, POP),
        validate_view(view, POP, 20),
    ];
    let again = [
        validate_vote_list(
            votes,
            POP,
            POP,
            NOW,
            gcfg.max_timestamp_skew,
            gcfg.replay_window,
        ),
        validate_moderation_list(mods, registry, 16, POP, NOW, gcfg.max_timestamp_skew),
        validate_records(recs, reporter, 2 * POP, POP, 1 << 20),
        validate_topk(topk, K, POP),
        validate_view(view, POP, 20),
    ];
    assert_eq!(verdicts, again, "a validation gate is nondeterministic");
    verdicts
}

proptest! {
    /// Arbitrary bytes through every `Persist::restore` the wire or the
    /// checkpoint file can reach: typed error or valid value, never a
    /// panic, never a hostile-length allocation.
    #[test]
    fn arbitrary_bytes_decode_to_typed_errors(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = GuardConfig::restore(&mut Decoder::new(&bytes));
        let _ = Governor::restore(&mut Decoder::new(&bytes));
        let _ = Flooder::restore(&mut Decoder::new(&bytes));
        let _ = Malformer::restore(&mut Decoder::new(&bytes));
        let _ = VoteEntry::restore(&mut Decoder::new(&bytes));
        let _ = Moderation::restore(&mut Decoder::new(&bytes));
        let _ = Record::restore(&mut Decoder::new(&bytes));
        let _ = TopKList::restore(&mut Decoder::new(&bytes));
        let _ = Checkpoint::from_bytes(bytes.clone());
    }

    /// A single flipped bit in an honest guard-plane encoding decodes to
    /// either a typed error or a structurally valid (if wrong) value —
    /// never a panic. This is the checkpoint-corruption surface.
    #[test]
    fn bit_flipped_guard_encoding_never_panics(seed in any::<u64>(), flip in any::<usize>()) {
        let mut governor = Governor::new(POP, GuardConfig::active());
        // Put real state behind the encoding: spent tokens, strikes, an
        // active quarantine.
        let offender = NodeId::from_index((seed % POP as u64) as usize);
        for _ in 0..12 {
            let _ = governor.admit(offender, MessageClass::VoteList, NOW);
        }
        for _ in 0..GuardConfig::active().strike_threshold {
            governor.note_rejection(offender, RejectReason::RateLimited, NOW);
        }
        let mut enc = Encoder::new();
        governor.persist(&mut enc);
        GuardConfig::active().persist(&mut enc);
        Flooder::new((0..4).map(NodeId::from_index), 12).persist(&mut enc);
        Malformer::new(100).persist(&mut enc);
        let mut bytes = enc.into_bytes();

        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);

        let mut dec = Decoder::new(&bytes);
        let _ = Governor::restore(&mut dec)
            .and_then(|_| GuardConfig::restore(&mut dec))
            .and_then(|_| Flooder::restore(&mut dec))
            .and_then(|_| Malformer::restore(&mut dec))
            .and_then(|_| dec.finish());
    }

    /// Every Malformer mutation of every honest payload shape, plus raw
    /// garbage payloads, through every gate: total classification.
    #[test]
    fn malformer_mutations_classify_totally(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let registry = KeyRegistry::new(POP, seed ^ 0x5EED);
        let malformer = Malformer::new(1000);
        let reporter = NodeId::from_index(rng.below(POP as u64) as usize);

        for _ in 0..8 {
            let mut votes = honest_votes(&mut rng);
            malformer.mutate_votes(&mut votes, NOW, &mut rng);
            let mut mods = honest_moderations(&registry, &mut rng);
            malformer.mutate_moderations(&mut mods, NOW, &mut rng);
            let mut recs = honest_records(reporter, &mut rng);
            malformer.mutate_records(&mut recs, reporter, &mut rng);
            let mut topk = honest_topk(&mut rng);
            malformer.mutate_topk(&mut topk, &mut rng);
            let view = honest_view(&mut rng);
            let _ = classify(&registry, reporter, &votes, &mods, &recs, &topk, &view);

            let wild = garbage_votes(&mut rng);
            let _ = classify(&registry, reporter, &wild, &mods, &recs, &topk, &view);
        }
    }

    /// Honest payloads always pass every gate: under an attack-free wire
    /// the guard plane is invisible.
    #[test]
    fn honest_payloads_always_pass(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let registry = KeyRegistry::new(POP, seed ^ 0x5EED);
        let reporter = NodeId::from_index(rng.below(POP as u64) as usize);
        let votes = honest_votes(&mut rng);
        let mods = honest_moderations(&registry, &mut rng);
        let recs = honest_records(reporter, &mut rng);
        let topk = honest_topk(&mut rng);
        let view = honest_view(&mut rng);
        for verdict in classify(&registry, reporter, &votes, &mods, &recs, &topk, &view) {
            prop_assert_eq!(verdict, Ok(()), "a gate rejected honest traffic");
        }
    }
}
