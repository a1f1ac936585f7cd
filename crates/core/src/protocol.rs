//! The population-wide vote-sampling protocol (paper Fig 3).
//!
//! Each PSS encounter between an active node `i` and a sampled node `j`
//! runs:
//!
//! 1. **BallotBox exchange** — both sides send their local vote lists
//!    (their *own* votes, drawn from their ModerationCast databases) and
//!    each merges the other's list only if the sender passes its
//!    experience function `E`.
//! 2. **VoxPopuli bootstrap** — if `i`'s ballot box still holds fewer than
//!    `B_min` unique voters, `i` requests a top-K list from `j`; `j`
//!    answers only when it is *not* itself bootstrapping ("this prevents
//!    nodes unwittingly passing potentially malicious top-K lists received
//!    from others"); `i` caches the response for rank-merging.
//!
//! The experience function is injected as a closure so the same encounter
//! code serves the fixed threshold, the adaptive threshold, and the
//! attack ablations.

use crate::ballot::BallotBox;
use crate::ranking::{rank_ballot, TopKList};
use crate::vote::{select_votes, VoteEntry, VoteListPolicy};
use crate::voxpopuli::VoxCache;
use rvs_modcast::ModerationCast;
use rvs_sim::{DetRng, NodeId, SimTime};
use rvs_telemetry::{VoteCounters, VoxPopuliCounters};

/// Protocol parameters (defaults are the paper's §VI-B operating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteSamplingConfig {
    /// Minimum unique voters before ballot statistics are used (paper: 5).
    pub b_min: usize,
    /// Maximum unique voters sampled (paper: 100).
    pub b_max: usize,
    /// VoxPopuli cache size (paper: 10).
    pub v_max: usize,
    /// Length of top-K lists (paper: 3).
    pub k: usize,
    /// Maximum votes per vote-list message (paper: 50).
    pub max_votes_per_msg: usize,
    /// Vote-list selection policy (paper: recency + random).
    pub policy: VoteListPolicy,
    /// Re-validation on contact: when a sender now *fails* the experience
    /// check, drop its previously accepted votes from the ballot. Off by
    /// default (the paper only specifies the accept path; with a fixed
    /// threshold contributions never shrink, so the question never
    /// arises). The adaptive-threshold ablation (A1) enables it — without
    /// shedding votes accepted while `T` was still low, an adaptive node
    /// could never recover from an early flood.
    pub revalidate: bool,
}

impl Default for VoteSamplingConfig {
    fn default() -> Self {
        VoteSamplingConfig {
            b_min: 5,
            b_max: 100,
            v_max: 10,
            k: 3,
            max_votes_per_msg: 50,
            policy: VoteListPolicy::RecencyAndRandom,
            revalidate: false,
        }
    }
}

/// Population-wide vote-sampling state: one ballot box and one VoxPopuli
/// cache per node.
#[derive(Debug, Clone)]
pub struct VoteSampling {
    cfg: VoteSamplingConfig,
    ballots: Vec<BallotBox>,
    vox: Vec<VoxCache>,
    counters: VoteCounters,
    vox_counters: VoxPopuliCounters,
}

impl VoteSampling {
    /// State for a population of `n` nodes.
    pub fn new(n: usize, cfg: VoteSamplingConfig) -> Self {
        VoteSampling {
            cfg,
            ballots: (0..n).map(|_| BallotBox::new(cfg.b_max)).collect(),
            vox: (0..n).map(|_| VoxCache::new(cfg.v_max, cfg.k)).collect(),
            counters: VoteCounters::default(),
            vox_counters: VoxPopuliCounters::default(),
        }
    }

    /// Population-wide vote-list and ballot-maintenance counters.
    pub fn counters(&self) -> &VoteCounters {
        &self.counters
    }

    /// Population-wide VoxPopuli traffic counters.
    pub fn vox_counters(&self) -> &VoxPopuliCounters {
        &self.vox_counters
    }

    /// The configuration in force.
    pub fn config(&self) -> VoteSamplingConfig {
        self.cfg
    }

    /// True when every per-node table (ballot boxes, VoxPopuli caches) has
    /// exactly `n` entries — what a restored instance must satisfy before
    /// it is indexed by node id.
    pub fn has_population(&self, n: usize) -> bool {
        self.ballots.len() == n && self.vox.len() == n
    }

    /// Node `i`'s ballot box.
    pub fn ballot(&self, i: NodeId) -> &BallotBox {
        &self.ballots[i.index()]
    }

    /// Mutable ballot access (attack models and tests).
    pub fn ballot_mut(&mut self, i: NodeId) -> &mut BallotBox {
        &mut self.ballots[i.index()]
    }

    /// Node `i`'s VoxPopuli cache.
    pub fn vox_cache(&self, i: NodeId) -> &VoxCache {
        &self.vox[i.index()]
    }

    /// Is `i` still bootstrapping (ballot below `B_min` unique voters)?
    pub fn needs_bootstrap(&self, i: NodeId) -> bool {
        self.ballots[i.index()].unique_voters() < self.cfg.b_min
    }

    /// Crash-restart node `i`: wipe its volatile vote-sampling state (the
    /// in-memory ballot box and VoxPopuli cache), returning it to the
    /// bootstrapping phase. Persistent state — the BarterCast graph and
    /// signed moderations, which Tribler keeps on disk across sessions —
    /// lives in other layers and is untouched by design.
    pub fn crash_reset(&mut self, i: NodeId) {
        self.ballots[i.index()] = BallotBox::new(self.cfg.b_max);
        self.vox[i.index()].clear();
    }

    /// Build node `i`'s outgoing local vote list from its ModerationCast
    /// database (its own first-hand votes), applying the per-message
    /// budget and selection policy.
    pub fn vote_list_of(&self, i: NodeId, mc: &ModerationCast, rng: &mut DetRng) -> Vec<VoteEntry> {
        let entries: Vec<VoteEntry> = mc
            .db(i)
            .opinions()
            .map(|(moderator, vote, made_at)| VoteEntry {
                moderator,
                vote: vote.into(),
                made_at,
            })
            .collect();
        select_votes(entries, self.cfg.max_votes_per_msg, self.cfg.policy, rng)
    }

    /// Deliver `from`'s vote list to `to`. `to` merges it only when its
    /// experience function accepts the sender (`experienced` is
    /// `E_to(from)` as computed by the caller).
    ///
    /// With [`VoteSamplingConfig::revalidate`] set, a *rejected* sender's
    /// earlier votes are additionally dropped from the ballot (see the
    /// config field for why the adaptive threshold needs this).
    pub fn deliver_vote_list(
        &mut self,
        from: NodeId,
        to: NodeId,
        list: &[VoteEntry],
        now: SimTime,
        experienced: bool,
    ) {
        if from == to {
            return;
        }
        if experienced {
            let outcome = self.ballots[to.index()].merge(from, list, now);
            self.counters.lists_accepted += 1;
            self.counters.votes_merged += outcome.merged as u64;
            self.counters.ballot_evictions += outcome.evicted_voters as u64;
        } else {
            self.counters.lists_rejected_inexperienced += 1;
            if self.cfg.revalidate {
                self.ballots[to.index()].forget_voter(from);
            }
        }
    }

    /// Honest VoxPopuli passive thread (Fig 3c): respond with the ballot's
    /// top-K — net-positively voted moderators only — and only when not
    /// bootstrapping ourselves.
    pub fn topk_response(&self, responder: NodeId) -> Option<TopKList> {
        if self.needs_bootstrap(responder) {
            None
        } else {
            Some(crate::ranking::rank_ballot_positive(
                &self.ballots[responder.index()],
                self.cfg.k,
            ))
        }
    }

    /// Cache a received top-K list at `i` (Fig 3a merge into topk_cache).
    pub fn deliver_topk(&mut self, i: NodeId, list: TopKList) {
        if !list.is_empty() {
            self.vox[i.index()].push(list);
        }
    }

    /// One counted VoxPopuli round trip: bootstrapping `i` requests `j`'s
    /// top-K, and `j` answers per [`Self::topk_response`]. Returns whether
    /// a response was served (declines while `j` is bootstrapping are
    /// counted separately).
    pub fn vox_request(&mut self, i: NodeId, j: NodeId) -> bool {
        self.vox_counters.requests += 1;
        match self.topk_response(j) {
            Some(list) => {
                self.vox_counters.responses += 1;
                self.deliver_topk(i, list);
                true
            }
            None => {
                self.vox_counters.declines_bootstrapping += 1;
                false
            }
        }
    }

    /// Count a VoxPopuli request that went unanswered (responder
    /// bootstrapping). Engines that intercept the response on the wire —
    /// validating it before delivery instead of calling
    /// [`Self::vox_request`] — use this to keep decline telemetry
    /// coherent with the uninstrumented path.
    pub fn note_vox_decline(&mut self) {
        self.vox_counters.requests += 1;
        self.vox_counters.declines_bootstrapping += 1;
    }

    /// Record a VoxPopuli request answered by an *external* responder —
    /// attack models fabricate their own top-K lists instead of consulting
    /// a ballot box. Counts the request/response pair and caches the list.
    pub fn deliver_external_topk(&mut self, i: NodeId, list: TopKList) {
        self.vox_counters.requests += 1;
        self.vox_counters.responses += 1;
        self.deliver_topk(i, list);
    }

    /// The ranking node `i` would display: ballot statistics once `B_min`
    /// unique voters are sampled, the VoxPopuli merge while bootstrapping.
    pub fn ranking_of(&self, i: NodeId) -> TopKList {
        if self.needs_bootstrap(i) {
            self.vox[i.index()].merged()
        } else {
            rank_ballot(&self.ballots[i.index()], self.cfg.k)
        }
    }

    /// Like [`Self::ranking_of`], but including zero-vote moderators known
    /// from the node's ModerationCast database.
    pub fn ranking_with_known(&self, i: NodeId, mc: &ModerationCast) -> TopKList {
        if self.needs_bootstrap(i) {
            self.vox[i.index()].merged()
        } else {
            crate::ranking::rank_ballot_with_known(
                &self.ballots[i.index()],
                mc.db(i).known_moderators(),
                self.cfg.k,
            )
        }
    }

    /// One full honest encounter (Fig 3): active node `i` with sampled
    /// node `j`. `experience(a, b)` must return `E_a(b)`.
    pub fn encounter(
        &mut self,
        i: NodeId,
        j: NodeId,
        mc: &ModerationCast,
        now: SimTime,
        experience: impl Fn(NodeId, NodeId) -> bool,
        rng: &mut DetRng,
    ) {
        if i == j {
            return;
        }
        // BallotBox: both directions, each side gated by its own E.
        let list_i = self.vote_list_of(i, mc, rng);
        let list_j = self.vote_list_of(j, mc, rng);
        self.deliver_vote_list(i, j, &list_i, now, experience(j, i));
        self.deliver_vote_list(j, i, &list_j, now, experience(i, j));
        // VoxPopuli: only while i is bootstrapping; j answers only when it
        // is not bootstrapping itself.
        if self.needs_bootstrap(i) {
            self.vox_request(i, j);
        }
    }
}

rvs_checkpoint::persist_struct!(VoteSamplingConfig {
    b_min,
    b_max,
    v_max,
    k,
    max_votes_per_msg,
    policy,
    revalidate
});

rvs_checkpoint::persist_struct!(VoteSampling {
    cfg,
    ballots,
    vox,
    counters,
    vox_counters
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::Vote;
    use rvs_modcast::{ContentQuality, KeyRegistry, LocalVote, ModerationCastConfig};
    use rvs_sim::SwarmId;

    const N: usize = 12;

    fn setup() -> (VoteSampling, ModerationCast, KeyRegistry, DetRng) {
        let vs = VoteSampling::new(N, VoteSamplingConfig::default());
        let mc = ModerationCast::new(N, ModerationCastConfig::default());
        let reg = KeyRegistry::new(N, 3);
        (vs, mc, reg, DetRng::new(17))
    }

    /// Give nodes 1..=count a positive opinion on moderator 0.
    fn seed_votes(mc: &mut ModerationCast, reg: &KeyRegistry, count: usize) {
        mc.publish(
            reg,
            NodeId(0),
            SwarmId(0),
            ContentQuality::Genuine,
            SimTime::ZERO,
        );
        for v in 1..=count {
            mc.set_opinion(
                NodeId::from_index(v),
                NodeId(0),
                LocalVote::Approve,
                SimTime::from_secs(v as u64),
            );
        }
    }

    #[test]
    fn encounter_merges_both_directions_when_experienced() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 4);
        vs.encounter(
            NodeId(1),
            NodeId(2),
            &mc,
            SimTime::from_mins(1),
            |_, _| true,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(1)).unique_voters(), 1);
        assert_eq!(vs.ballot(NodeId(2)).unique_voters(), 1);
        assert_eq!(vs.ballot(NodeId(1)).tally(NodeId(0)), (1, 0));
    }

    #[test]
    fn inexperienced_senders_are_ignored() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 4);
        // Node 2 is not experienced from node 1's standpoint (and vice
        // versa): nothing merges.
        vs.encounter(
            NodeId(1),
            NodeId(2),
            &mc,
            SimTime::from_mins(1),
            |_, _| false,
            &mut rng,
        );
        assert!(vs.ballot(NodeId(1)).is_empty());
        assert!(vs.ballot(NodeId(2)).is_empty());
    }

    #[test]
    fn asymmetric_experience_merges_one_way() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 4);
        // Only node 1 considers node 2 experienced.
        let e = |a: NodeId, b: NodeId| a == NodeId(1) && b == NodeId(2);
        vs.encounter(
            NodeId(1),
            NodeId(2),
            &mc,
            SimTime::from_mins(1),
            e,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(1)).unique_voters(), 1);
        assert!(vs.ballot(NodeId(2)).is_empty());
    }

    #[test]
    fn nodes_without_votes_send_empty_lists() {
        let (mut vs, mc, _reg, mut rng) = setup();
        vs.encounter(
            NodeId(3),
            NodeId(4),
            &mc,
            SimTime::from_mins(1),
            |_, _| true,
            &mut rng,
        );
        assert!(vs.ballot(NodeId(3)).is_empty());
        assert!(vs.ballot(NodeId(4)).is_empty());
    }

    #[test]
    fn bootstrap_ranking_uses_voxpopuli() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 6);
        // Fill node 9's ballot past B_min by meeting voters 1..=6.
        for v in 1..=6 {
            vs.encounter(
                NodeId(9),
                NodeId::from_index(v),
                &mc,
                SimTime::from_mins(v as u64),
                |_, _| true,
                &mut rng,
            );
        }
        assert!(!vs.needs_bootstrap(NodeId(9)));
        assert_eq!(vs.ranking_of(NodeId(9)).top(), Some(NodeId(0)));
        // Node 10 is new: one encounter with node 9 bootstraps its view via
        // the top-K response even though it has sampled only one voter.
        vs.encounter(
            NodeId(10),
            NodeId(9),
            &mc,
            SimTime::from_mins(30),
            |_, _| true,
            &mut rng,
        );
        assert!(vs.needs_bootstrap(NodeId(10)));
        assert_eq!(vs.ranking_of(NodeId(10)).top(), Some(NodeId(0)));
    }

    #[test]
    fn bootstrapping_nodes_do_not_answer_voxpopuli() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 2);
        // Node 5 has only 2 unique voters (< B_min): it must not answer.
        for v in 1..=2 {
            vs.encounter(
                NodeId(5),
                NodeId::from_index(v),
                &mc,
                SimTime::from_mins(v as u64),
                |_, _| true,
                &mut rng,
            );
        }
        assert!(vs.needs_bootstrap(NodeId(5)));
        assert_eq!(vs.topk_response(NodeId(5)), None);
        // And an encounter with it leaves the requester's cache empty.
        vs.encounter(
            NodeId(6),
            NodeId(5),
            &mc,
            SimTime::from_mins(9),
            |_, _| true,
            &mut rng,
        );
        assert!(vs.vox_cache(NodeId(6)).is_empty());
    }

    #[test]
    fn graduated_nodes_stop_requesting_topk() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 6);
        for v in 1..=6 {
            vs.encounter(
                NodeId(9),
                NodeId::from_index(v),
                &mc,
                SimTime::from_mins(v as u64),
                |_, _| true,
                &mut rng,
            );
        }
        // Node 9 is past B_min; further encounters must not grow its cache.
        let before = vs.vox_cache(NodeId(9)).len();
        vs.encounter(
            NodeId(9),
            NodeId(1),
            &mc,
            SimTime::from_mins(60),
            |_, _| true,
            &mut rng,
        );
        assert_eq!(vs.vox_cache(NodeId(9)).len(), before);
    }

    #[test]
    fn ranking_orders_m1_m2_m3_from_votes() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        // M0 gets positives, M1 nothing, M2 negatives — the Figure 6 shape.
        mc.publish(
            &reg,
            NodeId(0),
            SwarmId(0),
            ContentQuality::Genuine,
            SimTime::ZERO,
        );
        mc.publish(
            &reg,
            NodeId(1),
            SwarmId(0),
            ContentQuality::Genuine,
            SimTime::ZERO,
        );
        mc.publish(
            &reg,
            NodeId(2),
            SwarmId(0),
            ContentQuality::Genuine,
            SimTime::ZERO,
        );
        // Five voters so node 11's ballot reaches B_min = 5 unique voters.
        for v in 3..=7 {
            mc.set_opinion(
                NodeId(v),
                NodeId(0),
                LocalVote::Approve,
                SimTime::from_secs(v as u64),
            );
            mc.set_opinion(
                NodeId(v),
                NodeId(2),
                LocalVote::Disapprove,
                SimTime::from_secs(v as u64),
            );
        }
        for v in 3..=8 {
            vs.encounter(
                NodeId(11),
                NodeId(v),
                &mc,
                SimTime::from_mins(v as u64),
                |_, _| true,
                &mut rng,
            );
        }
        let ranking = vs.ranking_of(NodeId(11));
        assert_eq!(ranking.ranked.first(), Some(&NodeId(0)));
        assert_eq!(ranking.ranked.last(), Some(&NodeId(2)));
        // Votes tally: M0 has 5 positives, M2 has 5 negatives.
        assert_eq!(vs.ballot(NodeId(11)).tally(NodeId(0)), (5, 0));
        assert_eq!(vs.ballot(NodeId(11)).tally(NodeId(2)), (0, 5));
    }

    #[test]
    fn rejected_sender_keeps_votes_by_default() {
        let (mut vs, mut mc, reg, mut rng) = setup();
        seed_votes(&mut mc, &reg, 3);
        // First contact accepted, second rejected: without revalidation the
        // earlier votes survive.
        vs.encounter(
            NodeId(9),
            NodeId(1),
            &mc,
            SimTime::from_mins(1),
            |_, _| true,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(9)).unique_voters(), 1);
        vs.encounter(
            NodeId(9),
            NodeId(1),
            &mc,
            SimTime::from_mins(2),
            |_, _| false,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(9)).unique_voters(), 1);
    }

    #[test]
    fn revalidation_drops_rejected_senders_votes() {
        let cfg = VoteSamplingConfig {
            revalidate: true,
            ..Default::default()
        };
        let mut vs = VoteSampling::new(N, cfg);
        let mut mc = ModerationCast::new(N, ModerationCastConfig::default());
        let reg = KeyRegistry::new(N, 3);
        let mut rng = DetRng::new(17);
        seed_votes(&mut mc, &reg, 3);
        vs.encounter(
            NodeId(9),
            NodeId(1),
            &mc,
            SimTime::from_mins(1),
            |_, _| true,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(9)).unique_voters(), 1);
        // The sender no longer passes E (e.g. the node raised its adaptive
        // threshold): its earlier contribution is shed.
        vs.encounter(
            NodeId(9),
            NodeId(1),
            &mc,
            SimTime::from_mins(2),
            |_, _| false,
            &mut rng,
        );
        assert_eq!(vs.ballot(NodeId(9)).unique_voters(), 0);
    }

    #[test]
    fn self_encounter_is_noop() {
        let (mut vs, mc, _reg, mut rng) = setup();
        vs.encounter(
            NodeId(1),
            NodeId(1),
            &mc,
            SimTime::ZERO,
            |_, _| true,
            &mut rng,
        );
        assert!(vs.ballot(NodeId(1)).is_empty());
    }

    #[test]
    fn vote_list_respects_message_budget() {
        let cfg = VoteSamplingConfig {
            max_votes_per_msg: 3,
            ..Default::default()
        };
        let mut vs = VoteSampling::new(N, cfg);
        let mut mc = ModerationCast::new(N, ModerationCastConfig::default());
        for m in 1..10u32 {
            mc.set_opinion(
                NodeId(0),
                NodeId(m),
                LocalVote::Approve,
                SimTime::from_secs(m as u64),
            );
        }
        let mut rng = DetRng::new(5);
        let list = vs.vote_list_of(NodeId(0), &mc, &mut rng);
        assert_eq!(list.len(), 3);
        // And downstream merge sees exactly that many entries.
        vs.deliver_vote_list(NodeId(0), NodeId(1), &list, SimTime::from_mins(1), true);
        assert_eq!(vs.ballot(NodeId(1)).len(), 3);
        assert_eq!(
            vs.ballot(NodeId(1))
                .iter()
                .map(|(_, _, v, _)| v)
                .filter(|&v| v == Vote::Positive)
                .count(),
            3
        );
    }
}
