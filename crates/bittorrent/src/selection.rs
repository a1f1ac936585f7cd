//! Piece selection: rarest-first with random tie-breaking.
//!
//! Standard BitTorrent policy: a leecher requests the piece that the fewest
//! swarm members hold (promoting piece diversity), breaking ties uniformly
//! at random. The very first piece is chosen uniformly at random instead,
//! so a newcomer gets *some* piece quickly and can start reciprocating.
//!
//! The tie-break is one draw: with `T` candidates on the rarest level the
//! pick is the `below(T)`-th of them in index order, and a lone rarest
//! candidate is taken without a draw. [`Availability`] keeps one bitset per
//! availability level, so finding the level, counting `T` and selecting
//! the winner are word operations (DESIGN.md §4).

use crate::bitfield::Bitfield;
use rvs_sim::DetRng;

/// Per-swarm piece availability, maintained incrementally as members join,
/// leave, and complete pieces: a count per piece and, derived from the
/// counts, one bitset per availability level.
#[derive(Debug, Clone, PartialEq)]
pub struct Availability {
    counts: Vec<u32>,
    /// Level-major bitsets, `words()` words per level: bit `p` of level `a`
    /// is set iff `counts[p] == a`.
    levels: Vec<u64>,
    /// Pieces on each level. Its length is the number of levels: one past
    /// the highest populated level, never less than one.
    level_pop: Vec<u32>,
}

impl Availability {
    /// Availability over `pieces` pieces, all initially zero.
    pub fn new(pieces: u32) -> Self {
        Availability {
            counts: vec![0; pieces as usize],
            levels: Bitfield::full(pieces).words().to_vec(),
            level_pop: vec![pieces],
        }
    }

    /// Rebuild the level index from per-piece counts. The table has
    /// `max(counts) + 1` levels, so counts must not come from outside the
    /// program: `SwarmSim::restore` counts them from the member bitfields.
    pub(crate) fn from_counts(counts: Vec<u32>) -> Self {
        let words = counts.len().div_ceil(64);
        let level_count = counts.iter().max().map_or(0, |&top| top as usize) + 1;
        let mut levels = vec![0u64; level_count * words];
        let mut level_pop = vec![0u32; level_count];
        for (piece, &a) in counts.iter().enumerate() {
            levels[a as usize * words + piece / 64] |= 1u64 << (piece % 64);
            level_pop[a as usize] += 1;
        }
        Availability {
            counts,
            levels,
            level_pop,
        }
    }

    fn words(&self) -> usize {
        self.counts.len().div_ceil(64)
    }

    fn level(&self, a: usize) -> &[u64] {
        let words = self.words();
        &self.levels[a * words..(a + 1) * words]
    }

    /// Move `piece` from its level to level `to` (one up or one down).
    fn move_piece(&mut self, piece: u32, to: u32) {
        let words = self.words();
        let (word, bit) = (piece as usize / 64, 1u64 << (piece % 64));
        let from = std::mem::replace(&mut self.counts[piece as usize], to) as usize;
        let to = to as usize;
        self.levels[from * words + word] &= !bit;
        self.level_pop[from] -= 1;
        if to == self.level_pop.len() {
            self.levels.resize((to + 1) * words, 0);
            self.level_pop.push(0);
        }
        self.levels[to * words + word] |= bit;
        self.level_pop[to] += 1;
    }

    /// Register a member's bitfield (join).
    pub fn add_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.ones() {
            self.add_piece(i);
        }
    }

    /// Unregister a member's bitfield (leave).
    pub fn remove_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.ones() {
            let a = self.counts[i as usize];
            debug_assert!(a > 0);
            self.move_piece(i, a - 1);
        }
        // Keep the table canonical: no empty levels above the highest count.
        while self.level_pop.len() > 1 && self.level_pop.last() == Some(&0) {
            self.level_pop.pop();
        }
        self.levels.truncate(self.level_pop.len() * self.words());
    }

    /// A member gained one piece.
    pub fn add_piece(&mut self, piece: u32) {
        self.move_piece(piece, self.counts[piece as usize] + 1);
    }

    /// Copies of `piece` currently in the swarm.
    pub fn count(&self, piece: u32) -> u32 {
        self.counts[piece as usize]
    }

    /// The pick over candidate words `cand` (one bit per requestable piece):
    /// uniform over the candidates on the lowest availability level that
    /// holds one. With `T` of them the winner is the `below(T)`-th in index
    /// order — one draw per pick, none when `T == 1`.
    fn pick(&self, cand: &[u64], random_first: bool, rng: &mut DetRng) -> Option<u32> {
        if cand.iter().all(|&w| w == 0) {
            return None;
        }
        if random_first {
            let n: u32 = cand.iter().map(|w| w.count_ones()).sum();
            return select(cand.iter().copied(), rng.index(n as usize) as u32);
        }
        // The level, and its first word that holds a candidate: the words
        // before it hold none, so the count and the selection start there.
        let (level, first) = self
            .level_pop
            .iter()
            .enumerate()
            .filter(|&(_, &pop)| pop > 0)
            .find_map(|(a, _)| {
                let level = self.level(a);
                let first = cand.iter().zip(level).position(|(c, l)| c & l != 0)?;
                Some((level, first))
            })?;
        let rarest = || {
            cand[first..]
                .iter()
                .zip(&level[first..])
                .map(|(c, l)| c & l)
        };
        let ties: u32 = rarest().map(|w| w.count_ones()).sum();
        let winner = if ties > 1 {
            rng.below(ties as u64) as u32
        } else {
            0
        };
        select(rarest(), winner).map(|piece| first as u32 * 64 + piece)
    }
}

/// Index of the `n`-th (0-based) set bit across `words`, if there are
/// that many.
fn select(words: impl Iterator<Item = u64>, mut n: u32) -> Option<u32> {
    for (wi, mut w) in words.enumerate() {
        let ones = w.count_ones();
        if n < ones {
            for _ in 0..n {
                w &= w - 1;
            }
            return Some(wi as u32 * 64 + w.trailing_zeros());
        }
        n -= ones;
    }
    None
}

/// Write the pieces `theirs` offers and `mine` lacks into `cand`.
fn candidates(mine: &Bitfield, theirs: &Bitfield, cand: &mut Vec<u64>) {
    debug_assert_eq!(mine.len(), theirs.len());
    cand.clear();
    cand.extend(
        mine.words()
            .iter()
            .zip(theirs.words())
            .map(|(mine, theirs)| !mine & theirs),
    );
}

/// Choose the next piece for `mine` to request from `theirs`.
///
/// * If `mine` is empty, pick uniformly at random among the pieces `theirs`
///   offers (random first piece).
/// * Otherwise pick the rarest candidate by `availability`, breaking ties
///   uniformly at random (one draw over the tied candidates).
///
/// Returns `None` when `theirs` offers nothing new.
pub fn pick_piece(
    mine: &Bitfield,
    theirs: &Bitfield,
    availability: &Availability,
    rng: &mut DetRng,
) -> Option<u32> {
    let mut cand = Vec::new();
    candidates(mine, theirs, &mut cand);
    availability.pick(&cand, mine.count() == 0, rng)
}

/// [`pick_piece`] for a downloader with requests outstanding: prefer a
/// piece not already `in_flight` from another source, and fall back to any
/// missing piece (endgame mode) so transfers never stall. `cand` is scratch
/// space the caller keeps across picks.
pub(crate) fn pick_piece_avoiding(
    mine: &Bitfield,
    theirs: &Bitfield,
    in_flight: impl Iterator<Item = u32>,
    availability: &Availability,
    rng: &mut DetRng,
    cand: &mut Vec<u64>,
) -> Option<u32> {
    candidates(mine, theirs, cand);
    let mut avoided = false;
    for piece in in_flight {
        cand[piece as usize / 64] &= !(1u64 << (piece % 64));
        avoided = true;
    }
    // A downloader with a request outstanding is no longer a newcomer.
    let pick = availability.pick(cand, mine.count() == 0 && !avoided, rng);
    if pick.is_some() || !avoided {
        return pick;
    }
    candidates(mine, theirs, cand);
    availability.pick(cand, mine.count() == 0, rng)
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

    /// Rarest-first as a walk over the pieces, the definition the indexed
    /// pick must match draw for draw: collect the candidates of the lowest
    /// availability in index order and draw once among them — not at all
    /// when there is one.
    fn pick_piece_scan(
        mine: &Bitfield,
        theirs: &Bitfield,
        availability: &Availability,
        rng: &mut DetRng,
    ) -> Option<u32> {
        let candidates: Vec<u32> = mine.missing_from(theirs).collect();
        if candidates.is_empty() {
            return None;
        }
        if mine.count() == 0 {
            return Some(candidates[rng.index(candidates.len())]);
        }
        let lowest = candidates.iter().map(|&p| availability.count(p)).min()?;
        let rarest: Vec<u32> = candidates
            .into_iter()
            .filter(|&p| availability.count(p) == lowest)
            .collect();
        match rarest[..] {
            [only] => Some(only),
            _ => Some(rarest[rng.below(rarest.len() as u64) as usize]),
        }
    }

    /// The swarm's pick as it was written: mask the in-flight pieces into a
    /// copy of `mine`, scan, and scan again unmasked when that finds nothing.
    fn pick_avoiding_scan(
        mine: &Bitfield,
        theirs: &Bitfield,
        in_flight: &[u32],
        availability: &Availability,
        rng: &mut DetRng,
    ) -> Option<u32> {
        let mut masked = mine.clone();
        for &p in in_flight {
            masked.set(p);
        }
        pick_piece_scan(&masked, theirs, availability, rng)
            .or_else(|| pick_piece_scan(mine, theirs, availability, rng))
    }

    /// Same piece, and the generator left in the same state, as the scans.
    fn assert_same_pick(
        mine: &Bitfield,
        theirs: &Bitfield,
        in_flight: &[u32],
        avail: &Availability,
        seed: u64,
    ) -> Option<u32> {
        let (mut indexed, mut scanned) = (DetRng::new(seed), DetRng::new(seed));
        let pick = pick_piece(mine, theirs, avail, &mut indexed);
        assert_eq!(pick, pick_piece_scan(mine, theirs, avail, &mut scanned));
        assert_eq!(indexed, scanned, "plain pick drew differently");
        let mut cand = Vec::new();
        let avoiding = pick_piece_avoiding(
            mine,
            theirs,
            in_flight.iter().copied(),
            avail,
            &mut indexed,
            &mut cand,
        );
        assert_eq!(
            avoiding,
            pick_avoiding_scan(mine, theirs, in_flight, avail, &mut scanned)
        );
        assert_eq!(indexed, scanned, "avoiding pick drew differently");
        pick
    }

    fn bitfield_of(pieces: u32, held: impl IntoIterator<Item = u32>) -> Bitfield {
        let mut bf = Bitfield::empty(pieces);
        for p in held {
            bf.set(p);
        }
        bf
    }

    #[test]
    fn indexed_pick_matches_the_scan_on_the_corner_cases() {
        let pieces = 130; // three words, the last one partial
        let seeder = Bitfield::full(pieces);
        let empty = Bitfield::empty(pieces);
        let started = bitfield_of(pieces, [5]);
        for seed in 0..20 {
            // Random first piece; with a request outstanding the newcomer
            // is no longer one, and avoiding everything falls back to it.
            let avail = avail_from(&[&seeder, &empty], pieces);
            assert!(assert_same_pick(&empty, &seeder, &[], &avail, seed).is_some());
            assert_same_pick(&empty, &seeder, &[7, 64, 129], &avail, seed);
            let all: Vec<u32> = (0..pieces).collect();
            assert_same_pick(&empty, &seeder, &all, &avail, seed);
            // Nothing to request, from either side of the first-piece rule.
            assert_eq!(assert_same_pick(&seeder, &seeder, &[], &avail, seed), None);
            assert_eq!(assert_same_pick(&empty, &empty, &[3], &avail, seed), None);
            // A single candidate, alone and as the only one not in flight.
            let all_but_last = bitfield_of(pieces, 0..pieces - 1);
            let avail = avail_from(&[&seeder, &all_but_last], pieces);
            assert_eq!(
                assert_same_pick(&all_but_last, &seeder, &[], &avail, seed),
                Some(pieces - 1)
            );
            assert_same_pick(&all_but_last, &seeder, &[pieces - 1], &avail, seed);
            // Every candidate on one level.
            let avail = avail_from(&[&seeder, &started], pieces);
            assert_same_pick(&started, &seeder, &[], &avail, seed);
            assert_same_pick(&started, &seeder, &[0, 1, 2, 63, 64, 128], &avail, seed);
            // The rarest level first appears in the last word, after two
            // words of commoner candidates that tie among themselves.
            let common = bitfield_of(pieces, 0..128);
            let avail = avail_from(&[&seeder, &common, &common, &started], pieces);
            let pick = assert_same_pick(&started, &seeder, &[], &avail, seed);
            assert!(pick >= Some(128), "rarest pieces are 128 and 129");
            assert_same_pick(&started, &seeder, &[128], &avail, seed);
            assert_same_pick(&started, &seeder, &[128, 129], &avail, seed);
        }
    }

    /// A leecher that holds piece 0, a seeder, and `ties` pieces (spread
    /// over the words of a 330-piece file) that nobody else holds; every
    /// other piece has a third holder and is commoner.
    fn swarm_with_ties(ties: u32) -> (Bitfield, Bitfield, Availability, Vec<u32>) {
        let pieces = 330;
        let rarest: Vec<u32> = (0..ties).map(|k| 1 + k * (pieces - 1) / ties).collect();
        let mine = bitfield_of(pieces, [0]);
        let seeder = Bitfield::full(pieces);
        let common = bitfield_of(pieces, (1..pieces).filter(|p| !rarest.contains(p)));
        let avail = avail_from(&[&mine, &seeder, &common], pieces);
        (mine, seeder, avail, rarest)
    }

    #[test]
    fn a_pick_draws_once_among_the_tied_and_never_for_a_lone_rarest() {
        for ties in [1, 2, 3, 64, 65, 300] {
            let (mine, seeder, avail, rarest) = swarm_with_ties(ties);
            for seed in 0..20 {
                let (mut rng, mut expected) = (DetRng::new(seed), DetRng::new(seed));
                let pick = pick_piece(&mine, &seeder, &avail, &mut rng);
                let nth = match ties {
                    1 => 0,
                    _ => expected.below(ties as u64) as usize,
                };
                assert_eq!(pick, Some(rarest[nth]), "{ties} ties, seed {seed}");
                assert_eq!(rng, expected, "{ties} ties: one `below({ties})`, or none");
            }
        }
    }

    #[test]
    fn the_one_draw_is_uniform_over_the_tied() {
        for ties in [2u32, 3, 64, 65, 300] {
            let (mine, seeder, avail, rarest) = swarm_with_ties(ties);
            let per_piece = 400;
            let mut rng = DetRng::new(ties as u64);
            let mut hits = std::collections::BTreeMap::new();
            for _ in 0..per_piece * ties {
                let pick = pick_piece(&mine, &seeder, &avail, &mut rng).expect("candidates");
                *hits.entry(pick).or_insert(0u32) += 1;
            }
            assert_eq!(
                hits.keys().copied().collect::<Vec<_>>(),
                rarest,
                "every tied piece is picked, nothing else is"
            );
            // Binomial(400 T, 1 / T): mean 400, deviation below 20; the
            // worst of 300 pieces stays well inside six of them.
            for (piece, &n) in &hits {
                assert!(
                    (280..=520).contains(&n),
                    "{ties} ties: piece {piece} hit {n}"
                );
            }
        }
    }

    #[test]
    fn level_index_is_the_one_rebuilt_from_the_counts() {
        let pieces = 70;
        let mut avail = Availability::new(pieces);
        assert_eq!(avail, Availability::from_counts(vec![0; pieces as usize]));
        let seeder = Bitfield::full(pieces);
        let part = bitfield_of(pieces, [0, 63, 64, 69]);
        avail.add_bitfield(&seeder);
        avail.add_bitfield(&part);
        avail.add_piece(1);
        assert_eq!(avail, Availability::from_counts(avail.counts.clone()));
        assert_eq!(avail.level_pop, vec![0, 65, 5]);
        // Leaving empties the top level, and the table shrinks with it.
        avail.remove_bitfield(&part);
        assert_eq!(avail, Availability::from_counts(avail.counts.clone()));
        assert_eq!(avail.level_pop, vec![0, 69, 1]);
        avail.remove_bitfield(&seeder);
        assert_eq!(avail.level_pop, vec![69, 1]);
        assert_eq!(Availability::new(0), Availability::from_counts(Vec::new()));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// A member of the given density (eighths of the file) joins.
            Join(u32),
            Leave(usize),
            /// Member gains a piece (no-op when it holds it already).
            AddPiece(usize, u32),
            /// `mine`, `theirs`, pieces in flight, generator seed.
            Pick(usize, usize, Vec<u32>, u64),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..9).prop_map(Op::Join),
                (0usize..8).prop_map(Op::Leave),
                (0usize..8, 0u32..300).prop_map(|(m, p)| Op::AddPiece(m, p)),
                (0usize..8, 0u32..300).prop_map(|(m, p)| Op::AddPiece(m, p)),
                (
                    0usize..8,
                    0usize..8,
                    prop::collection::vec(0u32..300, 0..5),
                    0u64..1_000_000
                )
                    .prop_map(|(a, b, f, s)| Op::Pick(a, b, f, s)),
                (
                    0usize..8,
                    0usize..8,
                    prop::collection::vec(0u32..300, 0..5),
                    0u64..1_000_000
                )
                    .prop_map(|(a, b, f, s)| Op::Pick(a, b, f, s)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Under any membership history the indexed pick is the scan:
            /// same piece, same generator state — plain, avoiding in-flight
            /// pieces, and through the endgame fallback — and the level
            /// index is what a rebuild from the counts gives.
            #[test]
            fn indexed_pick_is_the_scan(
                pieces in 1u32..301,
                fill in 0u64..1_000_000,
                ops in prop::collection::vec(arb_op(), 1..60),
            ) {
                let mut fill = DetRng::new(fill);
                let mut members: Vec<Bitfield> = vec![Bitfield::full(pieces)];
                let mut avail = avail_from(&[&members[0]], pieces);
                for op in ops {
                    match op {
                        Op::Join(eighths) => {
                            let held = (0..pieces).filter(|_| fill.below(8) < eighths as u64);
                            let bf = bitfield_of(pieces, held.collect::<Vec<_>>());
                            avail.add_bitfield(&bf);
                            members.push(bf);
                        }
                        Op::Leave(m) => {
                            if members.len() > 1 {
                                let bf = members.remove(m % members.len());
                                avail.remove_bitfield(&bf);
                            }
                        }
                        Op::AddPiece(m, p) => {
                            let m = m % members.len();
                            if members[m].set(p % pieces) {
                                avail.add_piece(p % pieces);
                            }
                        }
                        Op::Pick(a, b, in_flight, seed) => {
                            let (a, b) = (a % members.len(), b % members.len());
                            let in_flight: Vec<u32> =
                                in_flight.into_iter().map(|p| p % pieces).collect();
                            assert_same_pick(&members[a], &members[b], &in_flight, &avail, seed);
                        }
                    }
                    prop_assert_eq!(
                        &avail,
                        &Availability::from_counts(avail.counts.clone())
                    );
                }
            }
        }
    }
}
