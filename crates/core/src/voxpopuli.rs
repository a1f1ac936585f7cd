//! VoxPopuli rank-merging cache (paper §V-C).
//!
//! "Each node executing VoxPopuli maintains a local cache of the last
//! V_max top-K lists received and performs a merge operation to produce
//! its own top-K list … We apply simple averaging of the rank of each
//! moderator over all stored top-K lists. Where a moderator does not
//! appear in a list they are assumed to have rank K+1 for that list."

use crate::ranking::TopKList;
use rvs_sim::ModeratorId;
use std::collections::VecDeque;

/// How cached top-K lists are merged into one ranking. The paper applies
/// "simple averaging of the rank" but notes "any rank merging method could
/// be used"; the alternatives are compared by `ablation_rank_merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMethod {
    /// Mean rank over all lists, absent ⇒ rank `K+1` (the paper's method).
    MeanRank,
    /// Median rank over all lists, absent ⇒ rank `K+1`; robust to a
    /// minority of outlier (or fabricated) lists.
    MedianRank,
}

/// Bounded cache of received top-K lists with rank-average merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoxCache {
    v_max: usize,
    k: usize,
    lists: VecDeque<TopKList>,
}

impl VoxCache {
    /// A cache retaining the last `v_max` lists of length ≤ `k`.
    pub fn new(v_max: usize, k: usize) -> Self {
        assert!(v_max > 0, "V_max must be positive");
        assert!(k > 0, "K must be positive");
        VoxCache {
            v_max,
            k,
            lists: VecDeque::with_capacity(v_max),
        }
    }

    /// The configured `V_max`.
    pub fn v_max(&self) -> usize {
        self.v_max
    }

    /// The configured `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cached lists.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when nothing has been received yet.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Store a received list (truncated to K); the oldest list falls out
    /// beyond `V_max`.
    pub fn push(&mut self, mut list: TopKList) {
        list.ranked.truncate(self.k);
        if self.lists.len() == self.v_max {
            self.lists.pop_front();
        }
        self.lists.push_back(list);
    }

    /// Drop all cached lists (e.g. when graduating to BallotBox ranking).
    pub fn clear(&mut self) {
        self.lists.clear();
    }

    /// Rank-average merge of the cached lists (the paper's method):
    /// each moderator's score is its mean rank over all lists, counting
    /// rank `K+1` where absent; lower is better. Ties break by moderator
    /// id. Returns an empty list when no lists are cached.
    pub fn merged(&self) -> TopKList {
        self.merged_with(MergeMethod::MeanRank)
    }

    /// Merge the cached lists with an explicit [`MergeMethod`].
    pub fn merged_with(&self, method: MergeMethod) -> TopKList {
        if self.lists.is_empty() {
            return TopKList { ranked: Vec::new() };
        }
        let mentioned: Vec<ModeratorId> = {
            let mut v: Vec<ModeratorId> = self
                .lists
                .iter()
                .flat_map(|l| l.ranked.iter().copied())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let absent_rank = (self.k + 1) as f64;
        // Per-moderator score; lower is better for every method.
        let mut scored: Vec<(f64, ModeratorId)> = mentioned
            .into_iter()
            .map(|m| {
                let ranks: Vec<f64> = self
                    .lists
                    .iter()
                    .map(|l| {
                        l.ranked
                            .iter()
                            .position(|&x| x == m)
                            .map(|p| (p + 1) as f64)
                            .unwrap_or(absent_rank)
                    })
                    .collect();
                let score = match method {
                    MergeMethod::MeanRank => ranks.iter().sum::<f64>() / ranks.len() as f64,
                    MergeMethod::MedianRank => {
                        let mut sorted = ranks.clone();
                        // total_cmp: no panic path, and ranks are finite
                        // positive values so the IEEE total order agrees
                        // with the numeric one.
                        sorted.sort_by(f64::total_cmp);
                        let mid = sorted.len() / 2;
                        if sorted.len() % 2 == 1 {
                            sorted[mid]
                        } else {
                            (sorted[mid - 1] + sorted[mid]) / 2.0
                        }
                    }
                };
                (score, m)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        TopKList {
            ranked: scored.into_iter().take(self.k).map(|(_, m)| m).collect(),
        }
    }

    /// Iterate over the cached lists, oldest first.
    pub fn lists(&self) -> impl Iterator<Item = &TopKList> + '_ {
        self.lists.iter()
    }
}

/// Stable binary encoding: `V_max`, `K`, cached lists oldest-first.
/// Restore rejects zero bounds as corrupt rather than tripping the
/// constructor assertions.
impl rvs_checkpoint::Persist for VoxCache {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.usize(self.v_max);
        enc.usize(self.k);
        self.lists.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let v_max = dec.usize()?;
        let k = dec.usize()?;
        if v_max == 0 || k == 0 {
            return Err(rvs_checkpoint::DecodeError::Corrupt(
                "VoxCache V_max and K must be positive".to_string(),
            ));
        }
        Ok(VoxCache {
            v_max,
            k,
            lists: VecDeque::restore(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_sim::NodeId;

    fn list(ids: &[u32]) -> TopKList {
        TopKList {
            ranked: ids.iter().map(|&i| NodeId(i)).collect(),
        }
    }

    #[test]
    fn empty_cache_merges_to_empty() {
        let c = VoxCache::new(10, 3);
        assert!(c.merged().is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn single_list_is_identity() {
        let mut c = VoxCache::new(10, 3);
        c.push(list(&[2, 0, 1]));
        assert_eq!(c.merged(), list(&[2, 0, 1]));
    }

    #[test]
    fn unanimous_lists_agree() {
        let mut c = VoxCache::new(10, 3);
        for _ in 0..5 {
            c.push(list(&[0, 1, 2]));
        }
        assert_eq!(c.merged(), list(&[0, 1, 2]));
    }

    #[test]
    fn majority_wins_rank_average() {
        let mut c = VoxCache::new(10, 3);
        c.push(list(&[0, 1, 2]));
        c.push(list(&[0, 1, 2]));
        c.push(list(&[1, 0, 2]));
        // Mean ranks: M0 = (1+1+2)/3 = 4/3; M1 = (2+2+1)/3 = 5/3.
        assert_eq!(c.merged(), list(&[0, 1, 2]));
    }

    #[test]
    fn absent_moderator_counts_as_k_plus_one() {
        let mut c = VoxCache::new(10, 3);
        c.push(list(&[0])); // M1 absent: rank 4 for this list
        c.push(list(&[1, 0]));
        // M0: (1 + 2)/2 = 1.5. M1: (4 + 1)/2 = 2.5.
        assert_eq!(c.merged(), list(&[0, 1]));
    }

    #[test]
    fn vmax_evicts_oldest() {
        let mut c = VoxCache::new(2, 3);
        c.push(list(&[9, 8, 7])); // will be evicted
        c.push(list(&[0, 1, 2]));
        c.push(list(&[0, 1, 2]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.merged(), list(&[0, 1, 2]));
    }

    #[test]
    fn lists_longer_than_k_are_truncated() {
        let mut c = VoxCache::new(4, 2);
        c.push(list(&[0, 1, 2, 3]));
        assert_eq!(c.merged().len(), 2);
    }

    #[test]
    fn merged_truncates_to_k() {
        let mut c = VoxCache::new(4, 3);
        c.push(list(&[0, 1, 2]));
        c.push(list(&[3, 4, 5]));
        assert_eq!(c.merged().len(), 3);
    }

    #[test]
    fn tie_breaks_by_id() {
        let mut c = VoxCache::new(4, 2);
        c.push(list(&[5, 3]));
        c.push(list(&[3, 5]));
        // Equal mean rank 1.5 each: lower id first.
        assert_eq!(c.merged(), list(&[3, 5]));
    }

    #[test]
    fn clear_resets() {
        let mut c = VoxCache::new(2, 2);
        c.push(list(&[1]));
        c.clear();
        assert!(c.is_empty());
        assert!(c.merged().is_empty());
    }

    #[test]
    #[should_panic(expected = "V_max must be positive")]
    fn zero_vmax_rejected() {
        VoxCache::new(0, 3);
    }

    #[test]
    fn borda_rewards_breadth_of_mentions() {
        let mut c = VoxCache::new(10, 3);
        // M0 appears twice at rank 2; M1 once at rank 1.
        c.push(list(&[1, 0]));
        c.push(list(&[2, 0]));
        // Mean rank (absent = K+1 = 4): M0 = 2.0; M1 = M2 = 2.5.
        let merged = c.merged();
        assert_eq!(merged.top(), Some(NodeId(0)));
    }

    #[test]
    fn median_rank_resists_outlier_lists() {
        let mut c = VoxCache::new(10, 3);
        // Three honest lists rank M1 first; one fabricated list pushes M9.
        for _ in 0..3 {
            c.push(list(&[1, 2]));
        }
        c.push(list(&[9]));
        let median = c.merged_with(MergeMethod::MedianRank);
        assert_eq!(median.top(), Some(NodeId(1)));
        // M9's median rank is K+1 (absent from most lists): ranked last or
        // not at all ahead of the honest pair.
        assert_ne!(median.ranked.first(), Some(&NodeId(9)));
    }

    #[test]
    fn merge_methods_agree_on_unanimous_input() {
        let mut c = VoxCache::new(10, 3);
        for _ in 0..4 {
            c.push(list(&[0, 1, 2]));
        }
        for m in [MergeMethod::MeanRank, MergeMethod::MedianRank] {
            assert_eq!(c.merged_with(m), list(&[0, 1, 2]), "{m:?}");
        }
    }

    #[test]
    fn lists_iterates_in_insertion_order() {
        let mut c = VoxCache::new(3, 3);
        c.push(list(&[1]));
        c.push(list(&[2]));
        let got: Vec<_> = c.lists().cloned().collect();
        assert_eq!(got, vec![list(&[1]), list(&[2])]);
    }
}
