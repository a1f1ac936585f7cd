//! The protocol encounter (Figs 1–3): one exchange between two online
//! peers, with every sub-message passing [`System::gate`] first.

use super::System;
use rvs_attacks::Malformer;
use rvs_bartercast::validate_records;
use rvs_core::{validate_topk, validate_vote_list, BallotBox, TopKList, VoteEntry};
use rvs_faults::BackoffDecision;
use rvs_guard::{MessageClass, RejectReason};
use rvs_modcast::{validate_moderation_list, Moderation};
use rvs_sim::{DetRng, NodeId, SimTime};

/// Bound on each node's remembered VoxPopuli decliners (responder
/// rotation state). The message-id dedup window is bounded too, but its
/// cap is configurable — see [`GuardConfig::seen_window`] and
/// [`System::mark_seen`].
///
/// [`GuardConfig::seen_window`]: rvs_guard::GuardConfig
const DECLINER_WINDOW: usize = 8;

/// Number of vote entries `voter` currently holds in `ballot`.
pub(super) fn votes_from(ballot: &BallotBox, voter: NodeId) -> usize {
    ballot.iter().filter(|&(v, _, _, _)| v == voter).count()
}

impl System {
    /// A full protocol encounter between online nodes `i` (active) and
    /// `j`: BarterCast records, ModerationCast push/pull (Fig 1), vote
    /// lists gated by `E_i(j)` (Fig 3), VoxPopuli while `i` bootstraps.
    /// Every sub-message passes [`System::gate`]; the responding half of
    /// an exchange is sent only when the initiating half was accepted —
    /// a peer does not answer a message it refused.
    pub(super) fn encounter(&mut self, i: NodeId, j: NodeId) {
        // BarterCast: refresh own records, then swap them.
        self.bc.sync_own_records(i, self.net.ledger());
        self.bc.sync_own_records(j, self.net.ledger());
        self.bc.mark_exchange();
        if self.barter_half(i, j) {
            self.barter_half(j, i);
        }

        // ModerationCast push/pull: both lists are extracted (i's first,
        // both from the gossip stream) before either is delivered.
        let mods_i = self.mc.extract_from(i, &mut self.rng_gossip);
        let mods_j = self.mc.extract_from(j, &mut self.rng_gossip);
        if self.moderations_half(i, j, mods_i) {
            self.moderations_half(j, i, mods_j);
        }

        // Vote sampling: experience computed before any merge.
        let e_i_accepts_j = self.experienced(i, j);
        let e_j_accepts_i = self.experienced(j, i);
        // Audit pre-state: votes each side currently holds from the other.
        let pre = self.audit.is_some().then(|| {
            (
                votes_from(self.vs.ballot(i), j),
                votes_from(self.vs.ballot(j), i),
            )
        });
        let list_i = self.outgoing_vote_list(i);
        let list_j = self.outgoing_vote_list(j);
        let votes_i_to_j = self.votes_half(i, j, list_i, e_j_accepts_i);
        let votes_j_to_i = votes_i_to_j && self.votes_half(j, i, list_j, e_i_accepts_j);

        let vox_breach = self.vox_bootstrap(i, j);

        if let Some(pre) = pre {
            self.audit_encounter(
                i,
                j,
                (e_i_accepts_j, e_j_accepts_i),
                pre,
                (votes_j_to_i, votes_i_to_j),
                vox_breach,
            );
        }
    }

    /// The one gate every sub-message from `s` passes before delivery;
    /// returns whether `payload` may be delivered. Open while the guard
    /// plane is disabled: no wire crossing, no `rng_malform` draw, no
    /// counter. Armed, it runs four steps: the wire (an armed
    /// [`Malformer`] draws once per message and may corrupt `payload` in
    /// place via `mutate`), `s`'s admission budget for `class`, the
    /// class's typed `validate`, then attribution — `accepted`, or
    /// exactly one [`RejectReason`] counter (and a strike for offenses).
    fn gate<T>(
        &mut self,
        s: NodeId,
        class: MessageClass,
        payload: &mut T,
        mutate: impl FnOnce(&Malformer, &mut T, SimTime, &mut DetRng) -> bool,
        validate: impl FnOnce(&System, &T) -> Result<(), RejectReason>,
    ) -> bool {
        if !self.guard.enabled() {
            return true;
        }
        if let Some(m) = self.malformer {
            if m.should_mutate(&mut self.rng_malform)
                && mutate(&m, payload, self.now, &mut self.rng_malform)
            {
                self.guard.counters_mut().malformer_mutations += 1;
            }
        }
        let admitted = self.guard.admit(s, class, self.now);
        let verdict = admitted.and_then(|()| validate(self, payload));
        match verdict {
            Ok(()) => self.guard.note_accepted(),
            Err(reason) => self.guard.note_rejection(s, reason, self.now),
        }
        verdict.is_ok()
    }

    /// One BarterCast half: `s`'s own records into `r`. Returns whether
    /// the gate accepted it.
    fn barter_half(&mut self, s: NodeId, r: NodeId) -> bool {
        let mut recs = self.bc.own_records(s);
        let accepted = self.gate(
            s,
            MessageClass::BarterRecords,
            &mut recs,
            |m, p, _, rng| m.mutate_records(p, s, rng),
            // An honest record set holds at most two directed edges per
            // counterparty, hence the 2n length bound.
            |sys, p| {
                let max_kib = sys.guard.config().max_record_kib;
                validate_records(p, s, 2 * sys.n_total, sys.n_total, max_kib)
            },
        );
        if accepted {
            self.bc.deliver_records(r, s, &recs);
        }
        accepted
    }

    /// One ModerationCast half: `s`'s extracted list into `r`. Returns
    /// whether the gate accepted it.
    fn moderations_half(&mut self, s: NodeId, r: NodeId, mut list: Vec<Moderation>) -> bool {
        let accepted = self.gate(
            s,
            MessageClass::Moderations,
            &mut list,
            |m, p, now, rng| m.mutate_moderations(p, now, rng),
            |sys, p| {
                let max_list = sys.cfg.modcast.max_list;
                let skew = sys.guard.config().max_timestamp_skew;
                validate_moderation_list(p, &sys.registry, max_list, sys.n_total, sys.now, skew)
            },
        );
        if accepted {
            self.mc.deliver_list(&self.registry, r, &list, self.now);
        }
        accepted
    }

    /// One vote-list half: `s`'s local votes into `r`'s ballot
    /// (`experienced` is `E_r(s)`). Returns whether the gate accepted the
    /// message — the experience function then decides the merge.
    fn votes_half(
        &mut self,
        s: NodeId,
        r: NodeId,
        mut list: Vec<VoteEntry>,
        experienced: bool,
    ) -> bool {
        let accepted = self.gate(
            s,
            MessageClass::VoteList,
            &mut list,
            |m, p, now, rng| m.mutate_votes(p, now, rng),
            |sys, p| {
                let skew = sys.guard.config().max_timestamp_skew;
                let replay = sys.guard.config().replay_window;
                validate_vote_list(p, sys.n_total, sys.n_total, sys.now, skew, replay)
            },
        );
        if accepted {
            self.vs
                .deliver_vote_list(s, r, &list, self.now, experienced);
        }
        accepted
    }

    /// One top-K response from `s` to bootstrapping `r` (`s`'s honest
    /// ranking, or a crowd member's fabrication). Returns whether it was
    /// accepted and delivered.
    fn topk_half(&mut self, r: NodeId, s: NodeId, mut list: TopKList) -> bool {
        let accepted = self.gate(
            s,
            MessageClass::TopK,
            &mut list,
            |m, p, _, rng| m.mutate_topk(p, rng),
            |sys, p| validate_topk(p, sys.cfg.votes.k, sys.n_total),
        );
        if accepted {
            self.vs.deliver_external_topk(r, list);
        }
        accepted
    }

    /// One honest VoxPopuli round trip: `j` answers with its top-K
    /// unless it is bootstrapping itself (Fig 3c). Returns whether a
    /// response reached `i` — a decline and a gate rejection both read
    /// as "not answered" to the backoff logic.
    fn vox_exchange(&mut self, i: NodeId, j: NodeId) -> bool {
        match self.vs.topk_response(j) {
            Some(list) => self.topk_half(i, j, list),
            None => {
                self.vs.note_vox_decline();
                false
            }
        }
    }

    /// VoxPopuli bootstrap of `i` off `j`: crowd members answer with
    /// fabricated lists; honest nodes follow Fig 3c. Returns the breach
    /// the auditor looks for: a bootstrapping `j` answered anyway.
    fn vox_bootstrap(&mut self, i: NodeId, j: NodeId) -> bool {
        if !self.cfg.vox_enabled || self.is_crowd(i) || !self.vs.needs_bootstrap(i) {
            return false;
        }
        if self.is_crowd(j) {
            let crowd = self.crowd.as_ref().expect("crowd member implies crowd");
            let list = crowd.topk_response(&[], self.cfg.votes.k);
            self.topk_half(i, j, list);
            return false;
        }
        let j_bootstrapping = self.vs.needs_bootstrap(j);
        let Some(rc) = self.faults.config().retry else {
            // Retry-free schedule: ask whoever the encounter offers.
            return self.vox_exchange(i, j) && j_bootstrapping;
        };
        // Graceful degradation under faults: requests are gated by capped
        // exponential backoff, and recent decliners are skipped (responder
        // rotation) so a bootstrapping node does not hammer the same
        // unhelpful peer.
        let idx = i.index();
        if !self.vox_backoff[idx].ready(self.now) || self.vox_decliners[idx].contains(&j) {
            return false;
        }
        self.vox_backoff[idx].on_attempt(self.now, &rc);
        let answered = self.vox_exchange(i, j);
        if answered {
            self.vox_backoff[idx].on_success();
            self.vox_decliners[idx].clear();
        } else {
            let decliners = &mut self.vox_decliners[idx];
            decliners.insert(j);
            while decliners.len() > DECLINER_WINDOW {
                decliners.pop_first();
            }
            match self.vox_backoff[idx].on_failure(self.now, &rc) {
                BackoffDecision::Retry => self.faults.counters_mut().retries += 1,
                BackoffDecision::GaveUp => {
                    // The round is abandoned; after a cooldown a fresh
                    // round may query anyone again.
                    self.faults.counters_mut().backoff_gaveups += 1;
                    self.vox_decliners[idx].clear();
                }
            }
        }
        answered && j_bootstrapping
    }

    /// Post-encounter invariant checks (audit mode only): ballot bound,
    /// experience gating, and VoxPopuli bootstrap honesty. `delivered`
    /// marks which vote lists actually passed the gate (`(j→i, i→j)`) —
    /// the gating checks only constrain halves that were delivered.
    fn audit_encounter(
        &mut self,
        i: NodeId,
        j: NodeId,
        (e_i_accepts_j, e_j_accepts_i): (bool, bool),
        (pre_j_in_i, pre_i_in_j): (usize, usize),
        (delivered_j_to_i, delivered_i_to_j): (bool, bool),
        vox_breach: bool,
    ) {
        let b_max = self.cfg.votes.b_max;
        let revalidate = self.cfg.votes.revalidate;
        let now = self.now;
        let post_j_in_i = votes_from(self.vs.ballot(i), j);
        let post_i_in_j = votes_from(self.vs.ballot(j), i);
        let uv_i = self.vs.ballot(i).unique_voters();
        let uv_j = self.vs.ballot(j).unique_voters();
        let aud = self.audit.as_mut().expect("caller checked audit is on");
        aud.check(uv_i <= b_max, || {
            format!("{i}'s ballot holds {uv_i} unique voters > B_max {b_max} at {now}")
        });
        aud.check(uv_j <= b_max, || {
            format!("{j}'s ballot holds {uv_j} unique voters > B_max {b_max} at {now}")
        });
        // A rejected sender must not add votes: untouched without
        // revalidation, shed entirely with it.
        if delivered_j_to_i && !e_i_accepts_j {
            let ok = if revalidate {
                post_j_in_i == 0
            } else {
                post_j_in_i == pre_j_in_i
            };
            aud.check(ok, || {
                format!(
                    "inexperienced {j}'s votes in {i}'s ballot went \
                     {pre_j_in_i} -> {post_j_in_i} at {now}"
                )
            });
        }
        if delivered_i_to_j && !e_j_accepts_i {
            let ok = if revalidate {
                post_i_in_j == 0
            } else {
                post_i_in_j == pre_i_in_j
            };
            aud.check(ok, || {
                format!(
                    "inexperienced {i}'s votes in {j}'s ballot went \
                     {pre_i_in_j} -> {post_i_in_j} at {now}"
                )
            });
        }
        aud.check(!vox_breach, || {
            format!("bootstrapping {j} answered {i}'s VoxPopuli request at {now}")
        });
    }

    fn outgoing_vote_list(&mut self, node: NodeId) -> Vec<VoteEntry> {
        if self.is_crowd(node) {
            self.crowd
                .as_ref()
                .expect("crowd member implies crowd")
                .vote_list()
        } else {
            self.vs.vote_list_of(node, &self.mc, &mut self.rng_gossip)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VoteSamplingConfig;
    use rvs_core::Vote;
    use rvs_faults::FaultSchedule;
    use rvs_guard::GuardConfig;
    use rvs_sim::{ModeratorId, SimDuration};

    /// The fig6 cast on 8 peers over 2 h at `seed`, with `revalidate` set
    /// as given, and its moderators.
    fn small_cast(seed: u64, revalidate: bool) -> (System, [ModeratorId; 3]) {
        let mut cfg = VoteSamplingConfig::quick(8, SimDuration::from_hours(2));
        cfg.protocol.votes.revalidate = revalidate;
        cfg.system(seed, FaultSchedule::default())
    }

    /// Satellite regression: accept → quarantine → release. A vote list
    /// accepted before its sender was quarantined must be re-validated
    /// when the quarantine lifts — with `revalidate` on, entries no
    /// first-hand experience backs are shed and the shedding is
    /// attributed to `release_forgets`.
    #[test]
    fn quarantine_release_revalidates_unbacked_votes() {
        let (mut system, moderators) = small_cast(9, true);
        system.set_guard_config(GuardConfig::active());

        let observer = NodeId::from_index(0);
        let suspect = NodeId::from_index(5);
        // Accept: the suspect's list lands in the observer's ballot. The
        // delivery-time experience flag was true, but no transfer backs
        // it, so the post-release re-validation must find nothing
        // first-hand and shed the voter.
        let list = [VoteEntry {
            moderator: moderators[0],
            vote: Vote::Positive,
            made_at: system.now,
        }];
        system
            .vs
            .deliver_vote_list(suspect, observer, &list, system.now, true);
        assert_eq!(votes_from(system.vs.ballot(observer), suspect), 1);

        // Quarantine: strike the suspect up to the threshold.
        for _ in 0..system.guard.config().strike_threshold {
            system
                .guard
                .note_rejection(suspect, RejectReason::RateLimited, system.now);
        }
        assert!(system.guard.is_quarantined(suspect, system.now));
        assert_eq!(system.guard.counters().quarantines_started, 1);

        // Release: advance past the base quarantine and run the
        // per-round maintenance hook exactly as `gossip_round` does.
        system.now = system.now.saturating_add(SimDuration::from_hours(8));
        let released = system.guard.on_round(system.now);
        assert_eq!(released, vec![suspect]);
        for peer in released {
            system.revalidate_released(peer);
        }

        assert_eq!(
            votes_from(system.vs.ballot(observer), suspect),
            0,
            "unbacked votes must be shed on release"
        );
        assert_eq!(system.guard.counters().quarantines_released, 1);
        assert_eq!(system.guard.counters().release_revalidations, 1);
        assert_eq!(system.guard.counters().release_forgets, 1);
    }

    /// Without `revalidate`, release keeps previously accepted votes —
    /// the shedding is an explicit opt-in policy, not a side effect.
    #[test]
    fn quarantine_release_keeps_votes_without_revalidate() {
        let (mut system, moderators) = small_cast(9, false);
        system.set_guard_config(GuardConfig::active());

        let observer = NodeId::from_index(0);
        let suspect = NodeId::from_index(5);
        let list = [VoteEntry {
            moderator: moderators[0],
            vote: Vote::Positive,
            made_at: system.now,
        }];
        system
            .vs
            .deliver_vote_list(suspect, observer, &list, system.now, true);

        for _ in 0..system.guard.config().strike_threshold {
            system
                .guard
                .note_rejection(suspect, RejectReason::RateLimited, system.now);
        }
        system.now = system.now.saturating_add(SimDuration::from_hours(8));
        for peer in system.guard.on_round(system.now) {
            system.revalidate_released(peer);
        }

        assert_eq!(votes_from(system.vs.ballot(observer), suspect), 1);
        assert_eq!(system.guard.counters().release_revalidations, 1);
        assert_eq!(system.guard.counters().release_forgets, 0);
    }

    /// The fig6 cast on 12 peers, run for 6 h — long enough for the
    /// ledger to hold transfers — after `arm` configured it.
    fn warmed_system(seed: u64, arm: impl FnOnce(&mut System)) -> System {
        let span = SimDuration::from_hours(6);
        let (mut system, _) =
            VoteSamplingConfig::quick(12, span).system(seed, FaultSchedule::default());
        arm(&mut system);
        system.run_until(SimTime::ZERO + span, span, |_, _| {});
        system
    }

    /// A refused initiating half withholds the responding half: with
    /// `max_record_kib: 0` every non-empty record set is `Oversized`, so
    /// one encounter takes exactly one rejection on the BarterCast class,
    /// the responder's bucket is never debited, and its records never
    /// reach the initiator.
    #[test]
    fn refused_initiator_half_withholds_the_responder_half() {
        let mut system = warmed_system(5, |_| {});
        let ledger = system.net.ledger();
        for idx in 0..system.n_total {
            system.bc.sync_own_records(NodeId::from_index(idx), ledger);
        }
        // A pair whose responder half, if delivered, would teach the
        // initiator something — otherwise "nothing delivered" is vacuous.
        let nodes = || (0..12).map(NodeId::from_index);
        let (i, j) = nodes()
            .flat_map(|i| nodes().map(move |j| (i, j)))
            .find(|&(i, j)| {
                let mut probe = system.bc.clone();
                probe.deliver_records(i, j, &system.bc.own_records(j));
                i != j
                    && !system.bc.own_records(i).is_empty()
                    && probe.graph(i) != system.bc.graph(i)
            })
            .expect("6 h of swarming leaves some pair with news for each other");
        let (graph_i, graph_j) = (system.bc.graph(i).clone(), system.bc.graph(j).clone());

        let cfg = GuardConfig {
            max_record_kib: 0,
            ..GuardConfig::active()
        };
        system.set_guard_config(cfg);
        system.encounter(i, j);

        let g = system.guard.counters();
        assert_eq!(g.rejected_oversized, 1, "one rejection per encounter");
        assert_eq!(g.total() - g.accepted - g.strikes, 1, "and no other");
        let tokens = |p| system.guard.peer(p).tokens(MessageClass::BarterRecords);
        assert_eq!(tokens(i), cfg.bucket_capacity - 1);
        assert_eq!(tokens(j), cfg.bucket_capacity, "responder half was sent");
        assert_eq!(system.bc.graph(i), &graph_i, "responder half was delivered");
        assert_eq!(system.bc.graph(j), &graph_j, "refused half was delivered");
    }

    /// Malformer armed + guard disarmed ≡ no malformer: the open gate
    /// neither mutates nor draws, so the run is the same and the
    /// `rng_malform` lane is still the untouched fork 7 of the seed.
    #[test]
    fn malformer_behind_an_open_gate_changes_nothing() {
        let seed = 5;
        let armed = warmed_system(seed, |s| s.set_malformer(Malformer::new(1000)));
        let plain = warmed_system(seed, |_| {});
        assert_eq!(
            armed.telemetry_snapshot().counters_only(),
            plain.telemetry_snapshot().counters_only()
        );
        for idx in 0..armed.n_total {
            let peer = NodeId::from_index(idx);
            assert_eq!(armed.display_ranking(peer), plain.display_ranking(peer));
        }
        assert_eq!(armed.guard.counters().malformer_mutations, 0);
        assert_eq!(armed.rng_malform, DetRng::new(seed).fork(7));
    }
}
