//! The idealised PSS: uniform sampling over the exact online population.
//!
//! The paper's protocol analysis assumes the PSS "periodically returns a
//! random peer from the entire population of online peers". [`OraclePss`]
//! implements that assumption directly using global knowledge; it is the
//! default sampler for the reproduction experiments, while
//! [`crate::NewscastPss`] shows the decentralised realisation.

use crate::PeerSampler;
use rvs_sim::{DetRng, NodeId};

/// Uniform sampler over a maintained online set.
///
/// Internally keeps a dense membership vector plus an index list so that
/// sampling is O(1) and updates are O(1) (swap-remove), with deterministic
/// behaviour for a given update/draw sequence.
#[derive(Debug, Clone, Default)]
pub struct OraclePss {
    /// position[i] = Some(index into `online`) when node i is online.
    position: Vec<Option<u32>>,
    online: Vec<NodeId>,
}

impl OraclePss {
    /// An oracle over a population of `n` nodes, all initially offline.
    pub fn new(n: usize) -> Self {
        OraclePss {
            position: vec![None; n],
            online: Vec::with_capacity(n),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    fn ensure_capacity(&mut self, peer: NodeId) {
        if peer.index() >= self.position.len() {
            self.position.resize(peer.index() + 1, None);
        }
    }

    /// Mark `peer` online. Idempotent.
    pub fn set_online(&mut self, peer: NodeId) {
        self.ensure_capacity(peer);
        if self.position[peer.index()].is_none() {
            self.position[peer.index()] = Some(self.online.len() as u32);
            self.online.push(peer);
        }
    }

    /// Mark `peer` offline. Idempotent.
    pub fn set_offline(&mut self, peer: NodeId) {
        self.ensure_capacity(peer);
        if let Some(pos) = self.position[peer.index()].take() {
            let pos = pos as usize;
            let last = self.online.len() - 1;
            self.online.swap(pos, last);
            self.online.pop();
            if pos <= last && pos < self.online.len() {
                let moved = self.online[pos];
                self.position[moved.index()] = Some(pos as u32);
            }
        }
    }

    /// Is `peer` currently online?
    pub fn is_online(&self, peer: NodeId) -> bool {
        peer.index() < self.position.len() && self.position[peer.index()].is_some()
    }

    /// Number of online peers.
    pub fn online_count(&self) -> usize {
        self.online.len()
    }
}

impl OraclePss {
    /// Sample without mutating the sampler: the oracle's state only
    /// changes on churn, never on sampling, so each peer can draw from its
    /// own RNG lane and match the `&mut` trait path draw for draw.
    pub fn sample_from(&self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        match self.online.len() {
            0 => None,
            1 => {
                let only = self.online[0];
                (only != requester).then_some(only)
            }
            n => {
                // Rejection sampling over the requester: at most one extra
                // draw in expectation for any realistic population.
                loop {
                    let pick = self.online[rng.index(n)];
                    if pick != requester {
                        return Some(pick);
                    }
                }
            }
        }
    }
}

impl PeerSampler for OraclePss {
    fn sample(&mut self, requester: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        self.sample_from(requester, rng)
    }
}

/// Stable binary encoding: the dense position vector, then the online list
/// in its exact swap-remove order (the order feeds sampling draws, so it
/// must survive verbatim). Restore cross-checks the two against each other
/// — an inconsistent pair would make later churn updates index out of
/// bounds, so it is rejected as corrupt instead.
impl rvs_checkpoint::Persist for OraclePss {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        self.position.persist(enc);
        self.online.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let position: Vec<Option<u32>> = Vec::restore(dec)?;
        let online: Vec<NodeId> = Vec::restore(dec)?;
        let occupied = position.iter().filter(|p| p.is_some()).count();
        if occupied != online.len() {
            return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "OraclePss occupancy mismatch: {} positions vs {} online",
                occupied,
                online.len()
            )));
        }
        for (pos, peer) in online.iter().enumerate() {
            if position.get(peer.index()).copied().flatten() != Some(pos as u32) {
                return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                    "OraclePss position table disagrees with online list at {peer}"
                )));
            }
        }
        Ok(OraclePss { position, online })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_population_yields_none() {
        let mut pss = OraclePss::new(5);
        let mut rng = DetRng::new(1);
        assert_eq!(pss.sample(NodeId(0), &mut rng), None);
    }

    #[test]
    fn never_returns_requester() {
        let mut pss = OraclePss::new(3);
        pss.set_online(NodeId(0));
        let mut rng = DetRng::new(2);
        assert_eq!(pss.sample(NodeId(0), &mut rng), None);
        pss.set_online(NodeId(1));
        for _ in 0..100 {
            assert_eq!(pss.sample(NodeId(0), &mut rng), Some(NodeId(1)));
        }
    }

    #[test]
    fn online_offline_roundtrip() {
        let mut pss = OraclePss::new(4);
        pss.set_online(NodeId(2));
        pss.set_online(NodeId(3));
        assert!(pss.is_online(NodeId(2)));
        assert_eq!(pss.online_count(), 2);
        pss.set_offline(NodeId(2));
        assert!(!pss.is_online(NodeId(2)));
        assert_eq!(pss.online_count(), 1);
        let mut rng = DetRng::new(3);
        for _ in 0..50 {
            assert_eq!(pss.sample(NodeId(0), &mut rng), Some(NodeId(3)));
        }
    }

    #[test]
    fn set_operations_are_idempotent() {
        let mut pss = OraclePss::new(2);
        pss.set_online(NodeId(1));
        pss.set_online(NodeId(1));
        assert_eq!(pss.online_count(), 1);
        pss.set_offline(NodeId(1));
        pss.set_offline(NodeId(1));
        assert_eq!(pss.online_count(), 0);
    }

    #[test]
    fn grows_for_out_of_range_ids() {
        let mut pss = OraclePss::new(1);
        pss.set_online(NodeId(10));
        assert!(pss.is_online(NodeId(10)));
        assert!(!pss.is_online(NodeId(5)));
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut pss = OraclePss::new(11);
        for i in 1..=10 {
            pss.set_online(NodeId(i));
        }
        let mut rng = DetRng::new(7);
        let n = 100_000;
        let mut counts = [0usize; 11];
        for _ in 0..n {
            let p = pss.sample(NodeId(0), &mut rng).unwrap();
            counts[p.index()] += 1;
        }
        let expected = n as f64 / 10.0;
        for c in &counts[1..] {
            assert!(
                (*c as f64 - expected).abs() < expected * 0.1,
                "count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut pss = OraclePss::new(6);
        for i in 0..6 {
            pss.set_online(NodeId(i));
        }
        // Remove from the middle, then verify each remaining node is
        // still sampleable.
        pss.set_offline(NodeId(2));
        pss.set_offline(NodeId(0));
        let mut rng = DetRng::new(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1_000 {
            seen.insert(pss.sample(NodeId(5), &mut rng).unwrap());
        }
        let expect: std::collections::BTreeSet<NodeId> =
            [NodeId(1), NodeId(3), NodeId(4)].into_iter().collect();
        assert_eq!(seen, expect);
    }
}
