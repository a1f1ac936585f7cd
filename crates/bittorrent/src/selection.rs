//! Piece selection: rarest-first with random tie-breaking.
//!
//! Standard BitTorrent policy: a leecher requests the piece that the fewest
//! swarm members hold (promoting piece diversity), breaking ties uniformly
//! at random. The very first piece is chosen uniformly at random instead,
//! so a newcomer gets *some* piece quickly and can start reciprocating.

use crate::bitfield::Bitfield;
use rvs_sim::DetRng;

/// Per-swarm piece availability counters, maintained incrementally as
/// members join, leave, and complete pieces.
#[derive(Debug, Clone, Default)]
pub struct Availability {
    counts: Vec<u32>,
}

impl Availability {
    /// Availability over `pieces` pieces, all initially zero.
    pub fn new(pieces: u32) -> Self {
        Availability {
            counts: vec![0; pieces as usize],
        }
    }

    /// Register a member's bitfield (join).
    pub fn add_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.ones() {
            self.counts[i as usize] += 1;
        }
    }

    /// Unregister a member's bitfield (leave).
    pub fn remove_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.ones() {
            debug_assert!(self.counts[i as usize] > 0);
            self.counts[i as usize] -= 1;
        }
    }

    /// A member gained one piece.
    pub fn add_piece(&mut self, piece: u32) {
        self.counts[piece as usize] += 1;
    }

    /// Copies of `piece` currently in the swarm.
    pub fn count(&self, piece: u32) -> u32 {
        self.counts[piece as usize]
    }
}

rvs_checkpoint::persist_struct!(Availability { counts });

/// Choose the next piece for `mine` to request from `theirs`.
///
/// * If `mine` is empty, pick uniformly at random among the pieces `theirs`
///   offers (random first piece).
/// * Otherwise pick the rarest candidate by `availability`, breaking ties
///   uniformly at random (reservoir over the minimum).
///
/// Returns `None` when `theirs` offers nothing new.
pub fn pick_piece(
    mine: &Bitfield,
    theirs: &Bitfield,
    availability: &Availability,
    rng: &mut DetRng,
) -> Option<u32> {
    if mine.count() == 0 {
        // Random first piece.
        let candidates: Vec<u32> = mine.missing_from(theirs).collect();
        if candidates.is_empty() {
            return None;
        }
        return Some(candidates[rng.index(candidates.len())]);
    }
    let mut best: Option<u32> = None;
    let mut best_avail = u32::MAX;
    let mut ties = 0u64;
    for piece in mine.missing_from(theirs) {
        let a = availability.count(piece);
        if a < best_avail {
            best_avail = a;
            best = Some(piece);
            ties = 1;
        } else if a == best_avail {
            // Reservoir sampling over equally-rare pieces keeps the choice
            // uniform without materialising the candidate list.
            ties += 1;
            if rng.below(ties) == 0 {
                best = Some(piece);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail_from(members: &[&Bitfield], pieces: u32) -> Availability {
        let mut a = Availability::new(pieces);
        for m in members {
            a.add_bitfield(m);
        }
        a
    }

    #[test]
    fn rarest_piece_wins() {
        let pieces = 4;
        let mut mine = Bitfield::empty(pieces);
        mine.set(0); // not a newcomer → rarest-first applies
        let theirs = Bitfield::full(pieces);
        // Piece 2 held by nobody else; pieces 1, 3 by one other member.
        let mut other = Bitfield::empty(pieces);
        other.set(1);
        other.set(3);
        let avail = avail_from(&[&theirs, &other, &mine], pieces);
        let mut rng = DetRng::new(1);
        for _ in 0..20 {
            assert_eq!(pick_piece(&mine, &theirs, &avail, &mut rng), Some(2));
        }
    }

    #[test]
    fn first_piece_is_random_not_rarest() {
        let pieces = 64;
        let mine = Bitfield::empty(pieces);
        let theirs = Bitfield::full(pieces);
        let avail = avail_from(&[&theirs], pieces);
        let mut rng = DetRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(pick_piece(&mine, &theirs, &avail, &mut rng).unwrap());
        }
        assert!(
            seen.len() > 20,
            "random first piece should spread; got {} distinct",
            seen.len()
        );
    }

    #[test]
    fn nothing_wanted_returns_none() {
        let pieces = 8;
        let mine = Bitfield::full(pieces);
        let theirs = Bitfield::full(pieces);
        let avail = avail_from(&[&mine, &theirs], pieces);
        let mut rng = DetRng::new(5);
        assert_eq!(pick_piece(&mine, &theirs, &avail, &mut rng), None);
    }

    #[test]
    fn ties_break_uniformly() {
        let pieces = 3;
        let mut mine = Bitfield::empty(pieces);
        mine.set(0);
        let theirs = Bitfield::full(pieces);
        let avail = avail_from(&[&theirs], pieces); // pieces 1,2 equally rare
        let mut rng = DetRng::new(7);
        let mut ones = 0;
        let n = 2_000;
        for _ in 0..n {
            match pick_piece(&mine, &theirs, &avail, &mut rng) {
                Some(1) => ones += 1,
                Some(2) => {}
                other => panic!("unexpected pick {other:?}"),
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((0.42..=0.58).contains(&frac), "tie split {frac}");
    }

    #[test]
    fn availability_tracks_joins_and_leaves() {
        let mut a = Availability::new(4);
        let mut bf = Bitfield::empty(4);
        bf.set(1);
        bf.set(2);
        a.add_bitfield(&bf);
        assert_eq!(a.count(1), 1);
        a.add_piece(1);
        assert_eq!(a.count(1), 2);
        a.remove_bitfield(&bf);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.count(2), 0);
    }
}
