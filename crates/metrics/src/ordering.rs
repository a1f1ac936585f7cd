//! Ranking-correctness measures (Figure 6).
//!
//! A node is counted *correct* when its current ranking places the
//! reference moderators in strictly the ground-truth order (for Figure 6:
//! `M1 > M2 > M3`). Moderators absent from a node's list are treated as
//! tied at rank `K+1`, so a node that cannot yet distinguish them is not
//! counted correct — matching the paper's "voting nodes do not vote until
//! they receive the appropriate moderations" dynamics where early nodes
//! simply have no opinion.

use rvs_sim::ModeratorId;

/// Rank lookup with the `K+1` convention for absent moderators.
fn effective_rank(list: &[ModeratorId], m: ModeratorId) -> usize {
    list.iter()
        .position(|&x| x == m)
        .map(|p| p + 1)
        .unwrap_or(list.len().max(1) + 1)
}

/// Does `list` rank `expected` (best first) without inversions?
///
/// Correct means: the best expected moderator actually appears in the
/// list, and no expected pair is ordered contrary to the ground truth
/// (absent moderators tie at rank `K+1`; a tie is not an inversion). This
/// matches how a VoxPopuli-bootstrapped node "knows the ordering": its
/// merged list may carry only the positively-recommended `M1`, which
/// correctly implies `M1 > M2` and `M1 > M3` while claiming nothing wrong
/// about `M2` vs `M3`. A node listing a net-negative moderator *above* an
/// unvoted one is inverted and counts as incorrect.
pub fn orders_correctly(list: &[ModeratorId], expected: &[ModeratorId]) -> bool {
    match expected.first() {
        None => return false,
        Some(&best) => {
            if !list.contains(&best) {
                return false;
            }
        }
    }
    expected.windows(2).all(|w| {
        let ra = effective_rank(list, w[0]);
        let rb = effective_rank(list, w[1]);
        ra <= rb
    })
}

/// Fraction of nodes whose ranking orders `expected` correctly.
///
/// `rankings` yields each node's current top-K list (as a slice of
/// moderators, best first).
pub fn correct_ordering_fraction<'a>(
    rankings: impl Iterator<Item = &'a [ModeratorId]>,
    expected: &[ModeratorId],
) -> f64 {
    let mut total = 0usize;
    let mut correct = 0usize;
    for list in rankings {
        total += 1;
        if orders_correctly(list, expected) {
            correct += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::NodeId;

    fn ids(v: &[u32]) -> Vec<ModeratorId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn exact_order_is_correct() {
        assert!(orders_correctly(&ids(&[1, 2, 3]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn extra_entries_do_not_hurt() {
        assert!(orders_correctly(&ids(&[9, 1, 7, 2, 3]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn swapped_pair_is_incorrect() {
        assert!(!orders_correctly(&ids(&[2, 1, 3]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn missing_tail_moderator_counts_as_k_plus_one() {
        // M3 missing: rank 4 > rank of M2 => still correct.
        assert!(orders_correctly(&ids(&[1, 2]), &ids(&[1, 2, 3])));
        // M2 missing while M3 is present: M2 (rank 4) > M3 (rank 2) =>
        // inversion => wrong.
        assert!(!orders_correctly(&ids(&[1, 3]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn empty_list_is_incorrect() {
        assert!(!orders_correctly(&ids(&[]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn best_moderator_alone_is_correct() {
        // Only M1 present (a VoxPopuli recommendation list): M2 and M3 tie
        // at K+1 — no inversion, so the ordering holds.
        assert!(orders_correctly(&ids(&[1]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn best_moderator_absent_is_incorrect() {
        // M2 present alone: M1 is missing, so the node does not know the
        // top moderator.
        assert!(!orders_correctly(&ids(&[2]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn fraction_counts_correct_nodes() {
        let a = ids(&[1, 2, 3]);
        let b = ids(&[3, 2, 1]);
        let c = ids(&[1, 2]);
        let rankings = [a.as_slice(), b.as_slice(), c.as_slice()];
        let f = correct_ordering_fraction(rankings.into_iter(), &ids(&[1, 2, 3]));
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_empty_population_is_zero() {
        let f = correct_ordering_fraction(std::iter::empty(), &ids(&[1, 2]));
        assert_eq!(f, 0.0);
    }
}
