//! The malformed-message adversary.
//!
//! A `Malformer` sits on the wire and applies seeded structured
//! mutations to otherwise-honest messages: duplicate-entry stuffing,
//! field inflation, stale/future timestamps, bad signatures, hearsay and
//! self-loop records, truncation. Each mutated message should trip
//! exactly one `RejectReason` at the receiving gate (or, for mutations a
//! given config does not police — e.g. stale timestamps with the replay
//! window off, or truncation — be handled harmlessly), which is what the
//! wire-fuzz corpus and the byzantine chaos scenario assert.
//!
//! All draws come from the RNG lane the engine dedicates to malformation
//! (`rng_malform`), so arming the adversary never perturbs honest
//! protocol draws and the run stays byte-identical across thread counts.

use rvs_bartercast::Record;
use rvs_core::{TopKList, Vote, VoteEntry};
use rvs_modcast::Moderation;
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime};

/// How far a `Future` mutation pushes a timestamp past `now`.
const FUTURE_JUMP: SimDuration = SimDuration::from_days(30);

/// An id far outside any simulated population (`Inflate` mutations).
const WILD_ID: u32 = u32::MAX / 2;

/// A KiB claim far past any sane per-record bound (`Inflate` mutations).
const WILD_KIB: u64 = u64::MAX / 2;

/// A seeded structured mutator of wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformer {
    /// Mutation probability in per-mille (0 = never, 1000 = always).
    rate_pm: u32,
}

impl Malformer {
    /// A malformer mutating `rate_pm`‰ of the messages it sees.
    pub fn new(rate_pm: u32) -> Self {
        Malformer { rate_pm }
    }

    /// The configured per-mille mutation rate.
    pub fn rate_pm(&self) -> u32 {
        self.rate_pm
    }

    /// Decide whether to mutate the next message. Always draws exactly
    /// one value so the malformation RNG lane advances identically
    /// whatever the rate.
    pub fn should_mutate(&self, rng: &mut DetRng) -> bool {
        rng.below(1000) < u64::from(self.rate_pm)
    }

    /// Mutate a vote list in place. Returns true when a mutation was
    /// applied.
    pub fn mutate_votes(&self, list: &mut Vec<VoteEntry>, now: SimTime, rng: &mut DetRng) -> bool {
        if list.is_empty() {
            // Nothing honest to corrupt: forge a lone future-dated vote.
            list.push(VoteEntry {
                moderator: NodeId(0),
                vote: Vote::Positive,
                made_at: now.saturating_add(FUTURE_JUMP),
            });
            return true;
        }
        match rng.below(5) {
            // Duplicate-entry stuffing: repeat an existing entry.
            0 => {
                let dup = list[rng.index(list.len())];
                list.push(dup);
            }
            // Field inflation: moderator id far outside the population.
            1 => {
                let k = rng.index(list.len());
                list[k].moderator = NodeId(WILD_ID);
            }
            // Future timestamp.
            2 => {
                let k = rng.index(list.len());
                list[k].made_at = now.saturating_add(FUTURE_JUMP);
            }
            // Stale timestamp: rewound to the epoch.
            3 => {
                let k = rng.index(list.len());
                list[k].made_at = SimTime::ZERO;
            }
            // Truncation: the list arrives empty.
            _ => list.clear(),
        }
        true
    }

    /// Mutate a moderation list in place. Returns true when a mutation
    /// was applied (an empty list is left alone — there is no signature
    /// to forge without the registry).
    pub fn mutate_moderations(
        &self,
        list: &mut Vec<Moderation>,
        now: SimTime,
        rng: &mut DetRng,
    ) -> bool {
        if list.is_empty() {
            return false;
        }
        match rng.below(5) {
            // Duplicate-entry stuffing.
            0 => {
                let dup = list[rng.index(list.len())];
                list.push(dup);
            }
            // Field inflation: claimed moderator outside the population
            // (also invalidates the signature; the gate attributes the
            // structural cause first).
            1 => {
                let k = rng.index(list.len());
                list[k].moderator = NodeId(WILD_ID);
            }
            // Future creation time.
            2 => {
                let k = rng.index(list.len());
                list[k].created = now.saturating_add(FUTURE_JUMP);
            }
            // Bad signature: flip bits in the signature itself.
            3 => {
                let k = rng.index(list.len());
                list[k].sig.0 ^= 0xDEAD_BEEF_CAFE_F00D;
            }
            // Truncation.
            _ => list.clear(),
        }
        true
    }

    /// Mutate a record list from `reporter` in place. Returns true when
    /// a mutation was applied.
    pub fn mutate_records(
        &self,
        recs: &mut Vec<Record>,
        reporter: NodeId,
        rng: &mut DetRng,
    ) -> bool {
        match rng.below(5) {
            // Duplicate-entry stuffing (or a self-loop when empty).
            0 if !recs.is_empty() => {
                let dup = recs[rng.index(recs.len())];
                recs.push(dup);
            }
            // Field inflation: an absurd KiB claim.
            1 if !recs.is_empty() => {
                let k = rng.index(recs.len());
                recs[k].kib = WILD_KIB;
            }
            // Hearsay: a record between two *other* peers.
            2 => recs.push(Record {
                from: NodeId(reporter.0.wrapping_add(1)),
                to: NodeId(reporter.0.wrapping_add(2)),
                kib: 1,
            }),
            // Endpoint outside the population.
            3 => recs.push(Record {
                from: reporter,
                to: NodeId(WILD_ID),
                kib: 1,
            }),
            // Self-loop (covers the empty-list stuffing/inflation arms).
            _ => recs.push(Record {
                from: reporter,
                to: reporter,
                kib: 1,
            }),
        }
        true
    }

    /// Mutate a top-K response in place. Returns true when a mutation
    /// was applied.
    pub fn mutate_topk(&self, list: &mut TopKList, rng: &mut DetRng) -> bool {
        match rng.below(3) {
            // Duplicate-entry stuffing (first entry repeated; a fresh id
            // when the list is empty — still a dud response).
            0 => match list.ranked.first().copied() {
                Some(m) => list.ranked.push(m),
                None => list.ranked.push(NodeId(0)),
            },
            // Id inflation.
            1 => list.ranked.push(NodeId(WILD_ID)),
            // Length inflation: pad far past any plausible K with
            // distinct ids (trips the length bound before dedup).
            _ => {
                let base = list.ranked.len() as u32;
                for i in 0..64u32 {
                    list.ranked.push(NodeId(WILD_ID.wrapping_add(base + i)));
                }
            }
        }
        true
    }
}

rvs_checkpoint::persist_struct!(Malformer { rate_pm });

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_checkpoint::{Decoder, Encoder, Persist};

    const NOW: SimTime = SimTime::from_hours(12);

    fn votes(n: u32) -> Vec<VoteEntry> {
        (0..n)
            .map(|m| VoteEntry {
                moderator: NodeId(m),
                vote: Vote::Positive,
                made_at: SimTime::from_hours(1),
            })
            .collect()
    }

    #[test]
    fn rate_zero_never_mutates_but_still_draws() {
        let m = Malformer::new(0);
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        for _ in 0..100 {
            assert!(!m.should_mutate(&mut a));
        }
        // The lane advanced identically to one that saw a nonzero rate.
        let hot = Malformer::new(1000);
        for _ in 0..100 {
            assert!(hot.should_mutate(&mut b));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn rate_extremes() {
        let mut rng = DetRng::new(1);
        assert!(Malformer::new(1000).should_mutate(&mut rng));
        // ~10% rate: over 1000 trials expect a loose band around 100.
        let m = Malformer::new(100);
        let hits = (0..1000).filter(|_| m.should_mutate(&mut rng)).count();
        assert!((40..250).contains(&hits), "10% rate wildly off: {hits}");
    }

    #[test]
    fn vote_mutations_change_the_list() {
        let m = Malformer::new(1000);
        let mut rng = DetRng::new(2);
        for _ in 0..50 {
            let original = votes(5);
            let mut mutated = original.clone();
            assert!(m.mutate_votes(&mut mutated, NOW, &mut rng));
            assert_ne!(mutated, original);
        }
        // Empty lists become a forged future vote.
        let mut empty = Vec::new();
        assert!(m.mutate_votes(&mut empty, NOW, &mut rng));
        assert_eq!(empty.len(), 1);
        assert!(empty[0].made_at > NOW);
    }

    #[test]
    fn record_mutations_always_apply() {
        let m = Malformer::new(1000);
        let mut rng = DetRng::new(3);
        for _ in 0..50 {
            let original = vec![Record {
                from: NodeId(4),
                to: NodeId(1),
                kib: 10,
            }];
            let mut mutated = original.clone();
            assert!(m.mutate_records(&mut mutated, NodeId(4), &mut rng));
            assert_ne!(mutated, original);
        }
        // Works on empty lists too (forged record variants).
        let mut empty = Vec::new();
        assert!(m.mutate_records(&mut empty, NodeId(4), &mut rng));
        assert!(!empty.is_empty());
    }

    #[test]
    fn topk_mutations_always_apply() {
        let m = Malformer::new(1000);
        let mut rng = DetRng::new(4);
        for _ in 0..30 {
            let original = TopKList {
                ranked: vec![NodeId(1), NodeId(2)],
            };
            let mut mutated = original.clone();
            assert!(m.mutate_topk(&mut mutated, &mut rng));
            assert_ne!(mutated, original);
        }
        let mut empty = TopKList { ranked: Vec::new() };
        assert!(m.mutate_topk(&mut empty, &mut rng));
        assert!(!empty.ranked.is_empty());
    }

    #[test]
    fn empty_moderation_list_is_left_alone() {
        let m = Malformer::new(1000);
        let mut rng = DetRng::new(5);
        let mut list = Vec::new();
        assert!(!m.mutate_moderations(&mut list, NOW, &mut rng));
        assert!(list.is_empty());
    }

    #[test]
    fn persist_roundtrip() {
        let m = Malformer::new(100);
        let mut enc = Encoder::new();
        m.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Malformer::restore(&mut dec).unwrap(), m);
        assert_eq!(dec.remaining(), 0);
    }
}
