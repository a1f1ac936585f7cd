//! A Credence-style correlation baseline (paper §VIII, Walsh & Sirer).
//!
//! Credence attaches votes to *objects* (files), and a peer `X` weighs
//! peer `Y`'s votes by the correlation of their voting histories over
//! co-voted objects. The paper's critique: "users who don't vote, or do so
//! only minimally, have no way of distinguishing between honest and
//! malicious voters … nearly fifty percent of clients are isolated", while
//! vote sampling "works for all peers, regardless of their voting habits".
//!
//! This module implements the pairwise-correlation core of that scheme so
//! the `ablation_credence` experiment can quantify the isolation effect as
//! a function of voting participation and contrast it with BallotBox
//! (where even a never-voting node ranks moderators from sampled votes).

use rvs_sim::{DetRng, NodeId};
use std::collections::BTreeMap;

/// A vote on an object: genuine (+1) or spam (−1).
pub type ObjectVote = i8;

/// The voting histories of a Credence population: `peer → object → ±1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VoteHistories {
    votes: BTreeMap<NodeId, BTreeMap<u32, ObjectVote>>,
}

impl VoteHistories {
    /// Empty histories.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `peer`'s vote on `object`.
    pub fn record(&mut self, peer: NodeId, object: u32, vote: ObjectVote) {
        assert!(vote == 1 || vote == -1, "votes are ±1");
        self.votes.entry(peer).or_default().insert(object, vote);
    }

    /// Number of objects `peer` voted on.
    pub fn vote_count(&self, peer: NodeId) -> usize {
        self.votes.get(&peer).map(|m| m.len()).unwrap_or(0)
    }

    /// Pairwise correlation of two voting histories over co-voted objects:
    /// mean product of votes (`+1` full agreement, `−1` full disagreement).
    /// `None` when fewer than `min_overlap` objects were co-voted —
    /// Credence cannot relate the peers at all.
    pub fn correlation(&self, a: NodeId, b: NodeId, min_overlap: usize) -> Option<f64> {
        let va = self.votes.get(&a)?;
        let vb = self.votes.get(&b)?;
        let mut products = 0i64;
        let mut overlap = 0usize;
        // Iterate the smaller map for efficiency.
        let (small, large) = if va.len() <= vb.len() {
            (va, vb)
        } else {
            (vb, va)
        };
        for (obj, &v1) in small {
            if let Some(&v2) = large.get(obj) {
                products += (v1 as i64) * (v2 as i64);
                overlap += 1;
            }
        }
        if overlap < min_overlap.max(1) {
            None
        } else {
            Some(products as f64 / overlap as f64)
        }
    }

    /// Is `peer` *isolated*: unable to establish a correlation with any
    /// other peer in the population?
    pub fn is_isolated(&self, peer: NodeId, min_overlap: usize) -> bool {
        self.votes
            .keys()
            .filter(|&&other| other != peer)
            .all(|&other| self.correlation(peer, other, min_overlap).is_none())
    }

    /// Classify `judge`'s view of `subject` from correlation: positive ⇒
    /// trusted, negative ⇒ distrusted, `None` ⇒ cannot tell.
    pub fn classify(&self, judge: NodeId, subject: NodeId, min_overlap: usize) -> Option<bool> {
        self.correlation(judge, subject, min_overlap)
            .map(|c| c > 0.0)
    }
}

/// Outcome of one Credence population simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CredenceOutcome {
    /// Fraction of peers voting at all.
    pub participation: f64,
    /// Fraction of peers isolated (no correlations at all).
    pub isolated_fraction: f64,
    /// Among non-isolated honest peers: fraction of their classifications
    /// of malicious voters that are correct (distrust).
    pub malicious_detection: f64,
}

/// Simulate a Credence population: `n` peers, `objects` rated objects of
/// which a fraction are spam, `participation` of peers vote (on
/// `votes_per_voter` random objects each), `malicious_fraction` voters
/// vote inversely to promote spam, and honest voters err (flip their
/// vote) with probability `honest_error`.
#[allow(clippy::too_many_arguments)] // an experiment entry point: each knob is a sweep axis
pub fn simulate_credence(
    n: usize,
    objects: u32,
    spam_fraction: f64,
    participation: f64,
    votes_per_voter: usize,
    malicious_fraction: f64,
    honest_error: f64,
    min_overlap: usize,
    rng: &mut DetRng,
) -> (VoteHistories, CredenceOutcome) {
    let is_spam: Vec<bool> = (0..objects).map(|_| rng.chance(spam_fraction)).collect();
    let n_voters = ((n as f64) * participation).round() as usize;
    let voters = rng.sample_indices(n, n_voters);
    let n_malicious = ((n_voters as f64) * malicious_fraction).round() as usize;
    let mut histories = VoteHistories::new();
    let mut malicious = Vec::new();
    for (k, &v) in voters.iter().enumerate() {
        let peer = NodeId::from_index(v);
        let evil = k < n_malicious;
        if evil {
            malicious.push(peer);
        }
        for obj_idx in rng.sample_indices(objects as usize, votes_per_voter) {
            let truth: ObjectVote = if is_spam[obj_idx] { -1 } else { 1 };
            let mut vote = if evil { -truth } else { truth };
            if !evil && rng.chance(honest_error) {
                vote = -vote; // honest misjudgement
            }
            histories.record(peer, obj_idx as u32, vote);
        }
    }

    // Measure isolation over the whole population (non-voters are isolated
    // by definition: they have no history to correlate).
    let isolated = (0..n)
        .map(NodeId::from_index)
        .filter(|&p| histories.vote_count(p) == 0 || histories.is_isolated(p, min_overlap))
        .count();

    // Honest voters judging malicious voters.
    let honest: Vec<NodeId> = voters
        .iter()
        .enumerate()
        .filter(|&(k, _)| k >= n_malicious)
        .map(|(_, &v)| NodeId::from_index(v))
        .collect();
    let mut judged = 0usize;
    let mut correct = 0usize;
    for &h in &honest {
        for &m in &malicious {
            if let Some(trusted) = histories.classify(h, m, min_overlap) {
                judged += 1;
                if !trusted {
                    correct += 1;
                }
            }
        }
    }
    let outcome = CredenceOutcome {
        participation,
        isolated_fraction: isolated as f64 / n as f64,
        malicious_detection: if judged == 0 {
            0.0
        } else {
            correct as f64 / judged as f64
        },
    };
    (histories, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_of_identical_histories_is_one() {
        let mut h = VoteHistories::new();
        for o in 0..10 {
            h.record(NodeId(1), o, 1);
            h.record(NodeId(2), o, 1);
        }
        assert_eq!(h.correlation(NodeId(1), NodeId(2), 3), Some(1.0));
        assert_eq!(h.classify(NodeId(1), NodeId(2), 3), Some(true));
    }

    #[test]
    fn correlation_of_opposed_histories_is_minus_one() {
        let mut h = VoteHistories::new();
        for o in 0..10 {
            h.record(NodeId(1), o, 1);
            h.record(NodeId(2), o, -1);
        }
        assert_eq!(h.correlation(NodeId(1), NodeId(2), 3), Some(-1.0));
        assert_eq!(h.classify(NodeId(1), NodeId(2), 3), Some(false));
    }

    #[test]
    fn insufficient_overlap_means_no_relation() {
        let mut h = VoteHistories::new();
        h.record(NodeId(1), 0, 1);
        h.record(NodeId(2), 0, 1);
        assert_eq!(h.correlation(NodeId(1), NodeId(2), 2), None);
        // Disjoint votes: no overlap at all.
        let mut h2 = VoteHistories::new();
        h2.record(NodeId(1), 0, 1);
        h2.record(NodeId(2), 1, 1);
        assert_eq!(h2.correlation(NodeId(1), NodeId(2), 1), None);
    }

    #[test]
    fn non_voter_is_isolated() {
        let mut h = VoteHistories::new();
        h.record(NodeId(1), 0, 1);
        assert!(h.is_isolated(NodeId(5), 1));
        assert_eq!(h.vote_count(NodeId(5)), 0);
    }

    #[test]
    fn low_participation_isolates_many() {
        let mut rng = DetRng::new(3);
        let (_, low) = simulate_credence(200, 100, 0.3, 0.1, 5, 0.2, 0.1, 2, &mut rng);
        let (_, high) = simulate_credence(200, 100, 0.3, 0.9, 20, 0.2, 0.1, 2, &mut rng);
        assert!(
            low.isolated_fraction > 0.7,
            "10% participation should isolate most peers: {}",
            low.isolated_fraction
        );
        assert!(
            high.isolated_fraction < low.isolated_fraction,
            "heavy participation must reduce isolation"
        );
    }

    #[test]
    fn correlation_detects_malicious_voters_when_overlapping() {
        let mut rng = DetRng::new(5);
        let (_, out) = simulate_credence(100, 40, 0.3, 1.0, 25, 0.2, 0.1, 3, &mut rng);
        assert!(
            out.malicious_detection > 0.9,
            "dense voting should expose inverse voters: {}",
            out.malicious_detection
        );
    }

    #[test]
    #[should_panic(expected = "votes are ±1")]
    fn invalid_vote_rejected() {
        VoteHistories::new().record(NodeId(0), 0, 0);
    }
}
