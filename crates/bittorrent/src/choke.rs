//! Choking: tit-for-tat reciprocation plus optimistic unchoking.
//!
//! Every rechoke interval (10 s in deployed clients) a leecher unchokes the
//! peers that uploaded to it fastest in the recent window (reciprocation),
//! plus one *optimistic* slot rotated randomly (every 30 s) so newcomers
//! with nothing to trade can bootstrap. Seeders have nothing to reciprocate
//! and rotate their slots across interested peers.

use rvs_sim::{DetRng, NodeId};
use std::cmp::Reverse;

/// Reciprocation slots of a deployed client.
pub const REGULAR_SLOTS: usize = 4;

/// Optimistic slots of a deployed client.
pub const OPTIMISTIC_SLOTS: usize = 1;

/// Outcome of a rechoke round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChokeDecision {
    /// Peers now unchoked (deterministic order).
    pub unchoked: Vec<NodeId>,
    /// The peer occupying the optimistic slot, if any.
    pub optimistic: Option<NodeId>,
}

/// Compute the unchoke set for one peer.
///
/// * `interested` — peers currently interested in us (deterministic order
///   expected from the caller);
/// * `recent_kib_from` — KiB we received from each candidate during the
///   last tit-for-tat window (ignored when `is_seeder`);
/// * `rotate_optimistic` — whether the optimistic slot should be re-rolled
///   this round (every third rechoke in deployed clients);
/// * `current_optimistic` — holder of the optimistic slot from last round.
pub fn rechoke(
    is_seeder: bool,
    interested: &[NodeId],
    recent_kib_from: impl Fn(NodeId) -> u64,
    rotate_optimistic: bool,
    current_optimistic: Option<NodeId>,
    rng: &mut DetRng,
) -> ChokeDecision {
    if interested.is_empty() {
        return ChokeDecision {
            unchoked: Vec::new(),
            optimistic: None,
        };
    }

    let mut unchoked: Vec<NodeId>;
    if is_seeder {
        // Seeders rotate slots uniformly across interested peers.
        let k = (REGULAR_SLOTS + OPTIMISTIC_SLOTS).min(interested.len());
        let idx = rng.sample_indices(interested.len(), k);
        unchoked = idx.into_iter().map(|i| interested[i]).collect();
        unchoked.sort_unstable();
        return ChokeDecision {
            unchoked,
            optimistic: None,
        };
    }

    // Reciprocation: best recent uploaders first; NodeId tie-break keeps the
    // ordering total and deterministic. Each candidate is asked for its
    // volume once; equal keys are equal entries, so an unstable sort ranks
    // them the one possible way.
    let mut ranked: Vec<(Reverse<u64>, NodeId)> = interested
        .iter()
        .map(|&p| (Reverse(recent_kib_from(p)), p))
        .collect();
    ranked.sort_unstable();
    unchoked = ranked.iter().map(|&(_, p)| p).take(REGULAR_SLOTS).collect();

    // Optimistic slot: keep the current holder unless rotating or invalid.
    let mut optimistic = current_optimistic
        .filter(|p| interested.contains(p) && !unchoked.contains(p) && !rotate_optimistic);
    if optimistic.is_none() {
        let pool: Vec<NodeId> = interested
            .iter()
            .copied()
            .filter(|p| !unchoked.contains(p))
            .collect();
        if !pool.is_empty() {
            optimistic = Some(pool[rng.index(pool.len())]);
        }
    }
    if let Some(p) = optimistic {
        unchoked.push(p);
    }
    unchoked.sort_unstable();
    ChokeDecision {
        unchoked,
        optimistic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn empty_interest_unchokes_nobody() {
        let mut rng = DetRng::new(1);
        let d = rechoke(false, &[], |_| 0, true, None, &mut rng);
        assert!(d.unchoked.is_empty());
        assert_eq!(d.optimistic, None);
    }

    #[test]
    fn best_uploaders_reciprocated() {
        let mut rng = DetRng::new(2);
        let interested = ids(&[1, 2, 3, 4, 5, 6, 7]);
        // Peer i uploaded i*100 KiB: best are 7,6,5,4.
        let d = rechoke(
            false,
            &interested,
            |p| p.0 as u64 * 100,
            false,
            None,
            &mut rng,
        );
        let opt = d.optimistic.expect("optimistic chosen");
        assert!(
            [1, 2, 3].contains(&opt.0),
            "optimistic {opt} took a regular slot"
        );
        let regular: Vec<NodeId> = d.unchoked.into_iter().filter(|&p| p != opt).collect();
        assert_eq!(regular, ids(&[4, 5, 6, 7]));
    }

    #[test]
    fn optimistic_slot_from_remaining_pool() {
        let mut rng = DetRng::new(3);
        let interested = ids(&[1, 2, 3, 4, 5, 6]);
        let d = rechoke(false, &interested, |p| p.0 as u64, true, None, &mut rng);
        assert_eq!(d.unchoked.len(), 5);
        let opt = d.optimistic.expect("optimistic chosen");
        // Regular slots took 3,4,5,6, so the optimistic one is 1 or 2.
        assert!(opt == NodeId(1) || opt == NodeId(2));
        assert!(d.unchoked.contains(&opt));
    }

    #[test]
    fn optimistic_holder_kept_until_rotation() {
        let mut rng = DetRng::new(4);
        let interested = ids(&[1, 2, 3, 4, 5, 6]);
        let d = rechoke(
            false,
            &interested,
            |p| p.0 as u64,
            false,
            Some(NodeId(1)),
            &mut rng,
        );
        assert_eq!(d.optimistic, Some(NodeId(1)));
    }

    #[test]
    fn rotation_may_replace_holder() {
        let interested = ids(&[1, 2, 3, 4, 5, 6, 7, 8]);
        // With rotation on, across many seeds the holder changes sometimes.
        let mut changed = false;
        for seed in 0..50 {
            let mut rng = DetRng::new(seed);
            let d = rechoke(
                false,
                &interested,
                |p| p.0 as u64,
                true,
                Some(NodeId(1)),
                &mut rng,
            );
            if d.optimistic != Some(NodeId(1)) {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn tie_break_is_by_node_id() {
        let mut rng = DetRng::new(5);
        // Nobody uploaded: the four lowest ids take the regular slots.
        let interested = ids(&[9, 3, 7, 12, 1, 5, 8]);
        let d = rechoke(false, &interested, |_| 0, false, None, &mut rng);
        let opt = d.optimistic.expect("optimistic chosen");
        assert!(
            [8, 9, 12].contains(&opt.0),
            "optimistic {opt} took a regular slot"
        );
        let regular: Vec<NodeId> = d.unchoked.into_iter().filter(|&p| p != opt).collect();
        assert_eq!(regular, ids(&[1, 3, 5, 7]));
    }

    #[test]
    fn seeder_rotates_among_interested() {
        let interested = ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let mut rng = DetRng::new(seed);
            let d = rechoke(true, &interested, |_| 0, true, None, &mut rng);
            assert_eq!(d.unchoked.len(), 5);
            seen.extend(d.unchoked.iter().copied());
        }
        assert!(seen.len() >= 9, "seeder rotation should reach most peers");
    }

    #[test]
    fn fewer_interested_than_slots() {
        let mut rng = DetRng::new(6);
        let interested = ids(&[2, 5]);
        let d = rechoke(false, &interested, |_| 10, true, None, &mut rng);
        assert_eq!(d.unchoked, ids(&[2, 5]));
    }
}
