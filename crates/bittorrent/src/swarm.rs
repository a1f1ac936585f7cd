//! One swarm: membership, choking, piece transfer, completions.
//!
//! The swarm simulator advances in fixed ticks. Each tick it (a) re-runs
//! the choker when the rechoke interval elapsed, (b) enumerates active
//! upload connections (unchoked + interested + connectable + both ends
//! online), (c) splits each peer's uplink across its active uploads and
//! each downloader's downlink across its active downloads, (d) advances
//! per-connection piece downloads by `rate × dt`, and (e) reports
//! completions. Members sit in one slice in ascending id order — a member's
//! index in it is its *slot*, and a tick works on slots — and all coin flips
//! come from the caller's [`DetRng`], so runs are reproducible.

use crate::bitfield::{Bitfield, MAX_PIECES};
use crate::choke::rechoke;
use crate::ledger::CreditSink;
use crate::selection::{pick_piece_avoiding, Availability};
use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::{DetRng, NodeId, SimDuration, SimTime, SwarmId};
use rvs_trace::SwarmSpec;

/// Role of a swarm member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberRole {
    /// Still downloading.
    Leecher,
    /// Has the complete file and uploads only.
    Seeder,
}

rvs_checkpoint::persist_enum!(MemberRole { Leecher = 0, Seeder = 1 });

/// How often the choker re-runs in a deployed client.
pub const RECHOKE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// The optimistic slot re-rolls every this many rechokes in a deployed
/// client (every 30 s).
pub const OPTIMISTIC_EVERY: u32 = 3;

/// A download that finished during a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The peer that completed.
    pub peer: NodeId,
    /// The swarm it completed in.
    pub swarm: SwarmId,
    /// Tick time at which completion was detected.
    pub time: SimTime,
}

/// Link capacities and reachability of a member, supplied at join time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Freely connectable (not firewalled)?
    pub connectable: bool,
    /// Upload capacity, KiB/s.
    pub uplink_kibps: u32,
    /// Download capacity, KiB/s.
    pub downlink_kibps: u32,
}

/// What a member keeps about one peer it has downloaded from. Each value is
/// there or not on its own, as the entry of a per-source map would be.
#[derive(Debug, Clone, PartialEq)]
struct Source {
    id: NodeId,
    /// Piece currently being fetched from it: (piece, KiB left).
    in_flight: Option<(u32, f64)>,
    /// KiB received from it during the current tit-for-tat window.
    window_recv: Option<u64>,
    /// Fractional KiB not yet credited to the ledger.
    uncredited: Option<f64>,
}

impl Source {
    fn new(id: NodeId) -> Self {
        Source {
            id,
            in_flight: None,
            window_recv: None,
            uncredited: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Member {
    bitfield: Bitfield,
    role: MemberRole,
    online: bool,
    link: LinkProfile,
    /// Peers this member currently uploads to.
    unchoked: Vec<NodeId>,
    optimistic: Option<NodeId>,
    rechokes: u32,
    /// Ascending by id, one record per peer something is kept about.
    sources: Vec<Source>,
}

impl Member {
    /// A member as it joins: a seeder's bitfield is complete, a leecher's
    /// empty; nothing unchoked, requested or received yet.
    fn joining(pieces: u32, role: MemberRole, link: LinkProfile, online: bool) -> Self {
        Member {
            bitfield: match role {
                MemberRole::Seeder => Bitfield::full(pieces),
                MemberRole::Leecher => Bitfield::empty(pieces),
            },
            role,
            online,
            link,
            unchoked: Vec::new(),
            optimistic: None,
            rechokes: 0,
            sources: Vec::new(),
        }
    }

    /// Where `peer`'s record sits in `sources`, or where it would be
    /// inserted.
    fn source_at(&self, peer: NodeId) -> Result<usize, usize> {
        self.sources.binary_search_by_key(&peer, |s| s.id)
    }
}

rvs_checkpoint::persist_struct!(LinkProfile {
    connectable,
    uplink_kibps,
    downlink_kibps
});

/// Which of a source record's values are there: bit 0 the piece in
/// flight, bit 1 the window receipts, bit 2 the uncredited fraction.
fn presence(s: &Source) -> u8 {
    u8::from(s.in_flight.is_some())
        | u8::from(s.window_recv.is_some()) << 1
        | u8::from(s.uncredited.is_some()) << 2
}

fn corrupt<T>(what: String) -> Result<T, DecodeError> {
    Err(DecodeError::Corrupt(format!("Member: {what}")))
}

/// Stable binary encoding: the fields in declaration order, `sources` as
/// one run of records — a [varint](Encoder::varint) count, then per record
/// the source's id [gap](Encoder::gap), a presence byte, and the values
/// present: the piece in flight as a varint and its KiB left as a raw
/// `f64`, the window receipts as a varint, the uncredited fraction as a
/// raw `f64`. A record with no value is not written. Gaps make the ids
/// strictly ascend, which the binary search over records needs.
impl Persist for Member {
    fn persist(&self, enc: &mut Encoder) {
        self.bitfield.persist(enc);
        self.role.persist(enc);
        self.online.persist(enc);
        self.link.persist(enc);
        self.unchoked.persist(enc);
        self.optimistic.persist(enc);
        self.rechokes.persist(enc);
        let kept = || self.sources.iter().filter(|s| presence(s) != 0);
        enc.varint(kept().count() as u64);
        let mut next = 0;
        for s in kept() {
            enc.gap(&mut next, u64::from(s.id.0));
            enc.u8(presence(s));
            if let Some((piece, left)) = s.in_flight {
                enc.varint(u64::from(piece));
                enc.f64(left);
            }
            if let Some(received) = s.window_recv {
                enc.varint(received);
            }
            if let Some(fraction) = s.uncredited {
                enc.f64(fraction);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bitfield = Bitfield::restore(dec)?;
        let role = MemberRole::restore(dec)?;
        let online = bool::restore(dec)?;
        let link = LinkProfile::restore(dec)?;
        let unchoked = Vec::restore(dec)?;
        let optimistic = Option::restore(dec)?;
        let rechokes = u32::restore(dec)?;
        // A record is at least its gap and its presence byte.
        let count = dec.varint()?;
        if count > (dec.remaining() / 2) as u64 {
            return corrupt(format!(
                "{count} source records claimed with {} bytes left",
                dec.remaining()
            ));
        }
        let mut sources = Vec::with_capacity(count as usize);
        let mut next = 0;
        for _ in 0..count {
            let id = NodeId(dec.gap_u32(&mut next, "Member: source")?);
            let present = dec.u8()?;
            if !(1..=7).contains(&present) {
                return corrupt(format!("source {id} has presence byte {present}"));
            }
            let in_flight = if present & 1 != 0 {
                let piece = dec.varint()?;
                let Ok(piece) = u32::try_from(piece) else {
                    return corrupt(format!("source {id} sends piece {piece}, past u32"));
                };
                Some((piece, dec.f64()?))
            } else {
                None
            };
            let window_recv = (present & 2 != 0).then(|| dec.varint()).transpose()?;
            let uncredited = (present & 4 != 0).then(|| dec.f64()).transpose()?;
            sources.push(Source {
                id,
                in_flight,
                window_recv,
                uncredited,
            });
        }
        Ok(Member {
            bitfield,
            role,
            online,
            link,
            unchoked,
            optimistic,
            rechokes,
            sources,
        })
    }
}

/// Simulation state of a single swarm.
#[derive(Debug, Clone)]
pub struct SwarmSim {
    spec: SwarmSpec,
    /// Ascending by id, one entry per member.
    members: Vec<(NodeId, Member)>,
    availability: Availability,
    next_rechoke: SimTime,
}

impl SwarmSim {
    /// A fresh swarm for `spec`; nobody has joined yet.
    pub fn new(spec: SwarmSpec) -> Self {
        let pieces = spec.piece_count();
        SwarmSim {
            spec,
            members: Vec::new(),
            availability: Availability::new(pieces),
            next_rechoke: spec.created,
        }
    }

    /// The swarm's static description.
    pub fn spec(&self) -> &SwarmSpec {
        &self.spec
    }

    /// Where `peer` sits in `members`, or where it would be inserted.
    fn slot(&self, peer: NodeId) -> Result<usize, usize> {
        self.members.binary_search_by_key(&peer, |&(id, _)| id)
    }

    fn member(&self, peer: NodeId) -> Option<&Member> {
        self.slot(peer).ok().map(|at| &self.members[at].1)
    }

    /// Add a member. Seeders start with a complete bitfield. No-op if the
    /// peer is already a member.
    pub fn join(&mut self, peer: NodeId, role: MemberRole, link: LinkProfile, online: bool) {
        let Err(at) = self.slot(peer) else {
            return;
        };
        let member = Member::joining(self.spec.piece_count(), role, link, online);
        self.availability.add_bitfield(&member.bitfield);
        self.members.insert(at, (peer, member));
    }

    /// Remove a member entirely (quit the swarm).
    pub fn leave(&mut self, peer: NodeId) {
        if let Ok(at) = self.slot(peer) {
            let (_, m) = self.members.remove(at);
            self.availability.remove_bitfield(&m.bitfield);
        }
        // Drop dangling references held by others, the per-source rows
        // included: a fraction left in `uncredited` would be checkpointed
        // for ever and handed to the peer if it joined again.
        for (_, m) in &mut self.members {
            m.unchoked.retain(|&p| p != peer);
            if m.optimistic == Some(peer) {
                m.optimistic = None;
            }
            if let Ok(at) = m.source_at(peer) {
                m.sources.remove(at);
            }
        }
    }

    /// Mark a member online/offline (churn). Offline members keep their
    /// bitfield but take no part in transfers; in-flight fetches pause.
    pub fn set_online(&mut self, peer: NodeId, online: bool) {
        if let Ok(at) = self.slot(peer) {
            self.members[at].1.online = online;
        }
    }

    /// Is `peer` currently a member?
    pub fn is_member(&self, peer: NodeId) -> bool {
        self.slot(peer).is_ok()
    }

    /// The member's role, if present.
    pub fn role(&self, peer: NodeId) -> Option<MemberRole> {
        self.member(peer).map(|m| m.role)
    }

    /// Download progress in `[0, 1]`, if a member.
    pub fn progress(&self, peer: NodeId) -> Option<f64> {
        self.member(peer).map(|m| m.bitfield.progress())
    }

    /// Number of members (online or not).
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// All member ids, ascending.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().map(|&(id, _)| id)
    }

    /// Number of online seeders.
    pub fn online_seeders(&self) -> usize {
        self.members
            .iter()
            .filter(|(_, m)| m.online && m.role == MemberRole::Seeder)
            .count()
    }

    /// Number of online leechers.
    pub fn online_leechers(&self) -> usize {
        self.members
            .iter()
            .filter(|(_, m)| m.online && m.role == MemberRole::Leecher)
            .count()
    }

    /// Advance the swarm by `dt`, crediting transfers to `ledger`.
    /// Returns completions detected this tick.
    pub fn tick(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        ledger: &mut impl CreditSink,
        rng: &mut DetRng,
    ) -> Vec<Completion> {
        if now >= self.next_rechoke {
            self.run_rechoke(rng);
            self.next_rechoke = now + RECHOKE_INTERVAL;
        }
        self.run_transfers(now, dt, ledger, rng)
    }

    fn run_rechoke(&mut self, rng: &mut DetRng) {
        let mut interested: Vec<NodeId> = Vec::new();
        for u in 0..self.members.len() {
            let (id, m) = &self.members[u];
            if !m.online {
                continue;
            }
            // Peers interested in u: online, connectable with u, lacking a
            // piece u has.
            interested.clear();
            interested.extend(
                self.members
                    .iter()
                    .filter(|(v, mv)| {
                        v != id
                            && mv.online
                            && can_connect(m.link, mv.link)
                            && mv.bitfield.interested_in(&m.bitfield)
                    })
                    .map(|&(v, _)| v),
            );
            let decision = rechoke(
                m.role == MemberRole::Seeder,
                &interested,
                |p| {
                    let received = m.source_at(p).ok().and_then(|at| m.sources[at].window_recv);
                    received.unwrap_or(0)
                },
                m.rechokes.is_multiple_of(OPTIMISTIC_EVERY),
                m.optimistic,
                rng,
            );
            let m = &mut self.members[u].1;
            m.unchoked = decision.unchoked;
            m.optimistic = decision.optimistic;
            m.rechokes += 1;
            m.sources.iter_mut().for_each(|s| s.window_recv = None);
        }
    }

    fn run_transfers(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        ledger: &mut impl CreditSink,
        rng: &mut DetRng,
    ) -> Vec<Completion> {
        // Phase 1: enumerate active connections (slot u uploads to slot v).
        // `unchoked` holds ids, so each entry is resolved to its slot here,
        // once; from then on the tick indexes.
        let mut conns: Vec<(usize, usize)> = Vec::new();
        for (u, (_, m)) in self.members.iter().enumerate() {
            if !m.online {
                continue;
            }
            for &peer in &m.unchoked {
                let Ok(v) = self.slot(peer) else {
                    continue;
                };
                let mv = &self.members[v].1;
                if mv.online
                    && can_connect(m.link, mv.link)
                    && mv.bitfield.interested_in(&m.bitfield)
                {
                    conns.push((u, v));
                }
            }
        }
        if conns.is_empty() {
            return Vec::new();
        }
        let mut up_count = vec![0u32; self.members.len()];
        let mut down_count = vec![0u32; self.members.len()];
        for &(u, v) in &conns {
            up_count[u] += 1;
            down_count[v] += 1;
        }

        // Phase 2: move bytes along each connection.
        let dt_secs = dt.as_secs_f64();
        let piece_kib = self.spec.piece_size_kib as f64;
        let mut completions = Vec::new();
        let mut completed: Vec<usize> = Vec::new();
        let mut cand = Vec::new();
        for (u, v) in conns {
            let (uid, vid) = (self.members[u].0, self.members[v].0);
            // A member is never interested in itself, so the two slots
            // differ; a connection that says otherwise ends here.
            let Some((member_u, member_v)) = pair_mut(&mut self.members, u, v) else {
                continue;
            };
            let up_rate = member_u.link.uplink_kibps as f64 / up_count[u] as f64;
            let down_rate = member_v.link.downlink_kibps as f64 / down_count[v] as f64;
            let mut budget = up_rate.min(down_rate) * dt_secs;
            if budget <= 0.0 {
                continue;
            }
            let was_complete = member_v.bitfield.is_complete();
            let mut received = 0.0f64;
            // v's record about u, looked up once; it is created with the
            // first piece v requests from u.
            let mut at = member_v.source_at(uid);
            loop {
                // Ensure v has an in-flight piece from u.
                let requested = match at {
                    Ok(at) if member_v.sources[at].in_flight.is_some() => at,
                    _ => {
                        // Prefer unrequested pieces; fall back to any missing
                        // piece (endgame mode) so transfers never stall.
                        let pick = pick_piece_avoiding(
                            &member_v.bitfield,
                            &member_u.bitfield,
                            member_v.sources.iter().filter_map(|s| Some(s.in_flight?.0)),
                            &self.availability,
                            rng,
                            &mut cand,
                        );
                        let Some(p) = pick else {
                            break; // nothing useful on this connection
                        };
                        let new = at.unwrap_or_else(|new| {
                            member_v.sources.insert(new, Source::new(uid));
                            new
                        });
                        at = Ok(new);
                        member_v.sources[new].in_flight = Some((p, piece_kib));
                        new
                    }
                };
                let in_flight = &mut member_v.sources[requested].in_flight;
                // Checked or set just above; treat a miss as "nothing useful
                // on this connection".
                let Some((piece, remaining)) = in_flight else {
                    break;
                };
                let step = budget.min(*remaining);
                *remaining -= step;
                budget -= step;
                received += step;
                if *remaining <= 1e-9 {
                    let done = *piece;
                    *in_flight = None;
                    if member_v.bitfield.set(done) {
                        self.availability.add_piece(done);
                    }
                } else {
                    break; // budget exhausted mid-piece
                }
                if budget <= 1e-9 {
                    break;
                }
            }
            // Bytes move only on a requested piece, so a connection that
            // received some has its record.
            if let (Ok(at), true) = (at, received > 0.0) {
                let source = &mut member_v.sources[at];
                *source.window_recv.get_or_insert(0) += received.round() as u64;
                let frac = source.uncredited.get_or_insert(0.0);
                *frac += received;
                let whole = frac.floor() as u64;
                if whole > 0 {
                    *frac -= whole as f64;
                    ledger.credit(uid, vid, whole);
                }
                if !was_complete && member_v.bitfield.is_complete() {
                    completed.push(v);
                    completions.push(Completion {
                        peer: vid,
                        swarm: self.spec.id,
                        time: now,
                    });
                }
            }
        }

        // Promote completed leechers to seeders; the caller decides whether
        // they stay (altruist) or leave (free-rider).
        for v in completed {
            let m = &mut self.members[v].1;
            m.role = MemberRole::Seeder;
            m.sources.iter_mut().for_each(|s| s.in_flight = None);
        }
        completions
    }
}

/// Stable binary encoding: members (a length, then id and member in
/// ascending id order), next rechoke. The spec is not written: it is the
/// trace's, and restore takes it from there. Slots are found by binary
/// search, so restore refuses ids that are not strictly ascending. The
/// availability counts are a function of the member bitfields and are not
/// written: restore checks that every bitfield is over the file's pieces,
/// counts the holders of each piece — a complete bitfield once, not piece
/// by piece — and builds the level index from that count, which is sized
/// by the highest count and so by the members. Both are
/// [allotted](Decoder::allot) before they are built.
impl SwarmSim {
    /// Write the swarm's state, all of it but the spec.
    pub fn persist(&self, enc: &mut Encoder) {
        self.members.persist(enc);
        self.next_rechoke.persist(enc);
    }

    /// The swarm of `spec` that [`SwarmSim::persist`] wrote.
    pub fn restore(spec: SwarmSpec, dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let corrupt = |what: String| Err(DecodeError::Corrupt(format!("SwarmSim: {what}")));
        if spec.piece_size_kib == 0 {
            return corrupt("piece size is zero".to_string());
        }
        let pieces = spec.piece_count();
        if pieces > MAX_PIECES {
            return corrupt(format!("{pieces} pieces, past {MAX_PIECES}"));
        }
        let members: Vec<(NodeId, Member)> = Vec::restore(dec)?;
        if let Some(w) = members.windows(2).find(|w| w[0].0 >= w[1].0) {
            return corrupt(format!(
                "member {} follows member {}, ids must ascend",
                w[1].0, w[0].0
            ));
        }
        for (peer, m) in &members {
            if m.bitfield.len() != pieces {
                return corrupt(format!(
                    "member {peer} has a bitfield over {} pieces, the file has {pieces}",
                    m.bitfield.len()
                ));
            }
            let requests = |s: &Source| s.in_flight.is_some_and(|(p, _)| p >= pieces);
            if m.sources.iter().any(requests) {
                return corrupt(format!("member {peer} requests a piece past {pieces}"));
            }
        }
        // The counts and their level index — a level per holder count, at
        // most one per member and one for none — are built, not read.
        let (pieces, levels) = (pieces as usize, members.len() + 1);
        dec.allot(
            pieces * 4 + levels * (pieces.div_ceil(64) * 8 + 4),
            "SwarmSim",
        )?;
        let (complete, partial): (Vec<_>, Vec<_>) =
            members.iter().partition(|(_, m)| m.bitfield.is_complete());
        let mut counts = vec![complete.len() as u32; pieces];
        for (_, m) in partial {
            for p in m.bitfield.ones() {
                counts[p as usize] += 1;
            }
        }
        Ok(SwarmSim {
            spec,
            members,
            availability: Availability::from_counts(counts),
            next_rechoke: SimTime::restore(dec)?,
        })
    }
}

/// BitTorrent reachability: at least one endpoint must be connectable.
#[inline]
fn can_connect(a: LinkProfile, b: LinkProfile) -> bool {
    a.connectable || b.connectable
}

/// The uploader in slot `u` (shared) and the downloader in slot `v`
/// (exclusive), borrowed at once from the two sides of a split.
fn pair_mut(
    members: &mut [(NodeId, Member)],
    u: usize,
    v: usize,
) -> Option<(&Member, &mut Member)> {
    let (lo, hi) = members.split_at_mut(u.max(v));
    let (below, above) = (&mut lo.get_mut(u.min(v))?.1, &mut hi.first_mut()?.1);
    Some(if u < v {
        (&*below, above)
    } else {
        (&*above, below)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::TransferLedger;

    mod oracle;

    fn spec(pieces_mib: u32) -> SwarmSpec {
        SwarmSpec {
            id: SwarmId(0),
            created: SimTime::ZERO,
            file_size_mib: pieces_mib,
            piece_size_kib: 256,
            initial_seeder: NodeId(0),
        }
    }

    fn link(connectable: bool, up: u32) -> LinkProfile {
        LinkProfile {
            connectable,
            uplink_kibps: up,
            downlink_kibps: up * 4,
        }
    }

    fn drive_from(
        sim: &mut SwarmSim,
        start_hour: u64,
        hours: u64,
        ledger: &mut TransferLedger,
    ) -> Vec<Completion> {
        let mut rng = DetRng::new(99);
        let mut out = Vec::new();
        let dt = SimDuration::from_secs(10);
        let mut now = SimTime::from_hours(start_hour);
        let end = SimTime::from_hours(start_hour + hours);
        while now < end {
            out.extend(sim.tick(now, dt, ledger, &mut rng));
            now += dt;
        }
        out
    }

    fn drive(sim: &mut SwarmSim, hours: u64, ledger: &mut TransferLedger) -> Vec<Completion> {
        drive_from(sim, 0, hours, ledger)
    }

    #[test]
    fn single_leecher_downloads_from_seeder() {
        let mut sim = SwarmSim::new(spec(10));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        let mut ledger = TransferLedger::new();
        let completions = drive(&mut sim, 1, &mut ledger);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].peer, NodeId(1));
        assert_eq!(sim.role(NodeId(1)), Some(MemberRole::Seeder));
        // 10 MiB moved from seeder to leecher (within 0.1 MiB of rounding).
        let moved = ledger.uploaded_kib(NodeId(0), NodeId(1));
        assert!(moved.abs_diff(10 * 1024) <= 102, "moved {moved} KiB");
    }

    #[test]
    fn transfer_respects_uplink_capacity() {
        // 64 KiB/s uplink, 1 hour => at most 225 MiB; file is 300 MiB.
        let mut sim = SwarmSim::new(spec(300));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 64), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        let mut ledger = TransferLedger::new();
        let completions = drive(&mut sim, 1, &mut ledger);
        assert!(completions.is_empty());
        let moved = ledger.uploaded_kib(NodeId(0), NodeId(1));
        let cap = 64 * 3600;
        assert!(moved <= cap, "moved {moved} KiB exceeds uplink cap {cap}");
        assert!(moved > cap / 2, "transfer unreasonably slow: {moved} KiB");
    }

    #[test]
    fn firewalled_pair_cannot_transfer() {
        let mut sim = SwarmSim::new(spec(5));
        sim.join(NodeId(0), MemberRole::Seeder, link(false, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(false, 512), true);
        let mut ledger = TransferLedger::new();
        let completions = drive(&mut sim, 1, &mut ledger);
        assert!(completions.is_empty());
        assert_eq!(ledger.total_kib(), 0);
    }

    #[test]
    fn one_connectable_endpoint_suffices() {
        let mut sim = SwarmSim::new(spec(5));
        sim.join(NodeId(0), MemberRole::Seeder, link(false, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        let mut ledger = TransferLedger::new();
        let completions = drive(&mut sim, 1, &mut ledger);
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn offline_members_make_no_progress() {
        let mut sim = SwarmSim::new(spec(5));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), false);
        let mut ledger = TransferLedger::new();
        assert!(drive(&mut sim, 1, &mut ledger).is_empty());
        assert_eq!(ledger.total_kib(), 0);
        // Coming online resumes the download (time continues forward).
        sim.set_online(NodeId(1), true);
        assert_eq!(drive_from(&mut sim, 1, 1, &mut ledger).len(), 1);
    }

    #[test]
    fn leechers_reciprocate_among_themselves() {
        // Seeder with slow uplink plus two fast leechers: leecher-to-leecher
        // trading should carry real volume.
        let mut sim = SwarmSim::new(spec(50));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 128), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        sim.join(NodeId(2), MemberRole::Leecher, link(true, 512), true);
        let mut ledger = TransferLedger::new();
        drive(&mut sim, 2, &mut ledger);
        let peer_to_peer =
            ledger.uploaded_kib(NodeId(1), NodeId(2)) + ledger.uploaded_kib(NodeId(2), NodeId(1));
        assert!(
            peer_to_peer > 1024,
            "leecher trading too small: {peer_to_peer} KiB"
        );
    }

    #[test]
    fn swarm_of_many_leechers_all_complete() {
        let mut sim = SwarmSim::new(spec(20));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        for i in 1..8 {
            sim.join(NodeId(i), MemberRole::Leecher, link(i % 2 == 0, 256), true);
        }
        let mut ledger = TransferLedger::new();
        let completions = drive(&mut sim, 8, &mut ledger);
        assert_eq!(completions.len(), 7, "all leechers should finish");
        for i in 1..8 {
            assert_eq!(sim.progress(NodeId(i)), Some(1.0));
        }
    }

    #[test]
    fn leave_removes_member_and_references() {
        let mut sim = SwarmSim::new(spec(10));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        let mut ledger = TransferLedger::new();
        let mut rng = DetRng::new(1);
        sim.tick(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            &mut ledger,
            &mut rng,
        );
        sim.leave(NodeId(0));
        assert!(!sim.is_member(NodeId(0)));
        assert_eq!(sim.member_count(), 1);
        // Downloader can no longer progress.
        let before = ledger.total_kib();
        sim.tick(
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            &mut ledger,
            &mut rng,
        );
        assert_eq!(ledger.total_kib(), before);
    }

    #[test]
    fn leave_drops_what_the_others_kept_per_source() {
        // 100 KiB/s for a third of a second is 33.3 KiB: the tick ends
        // mid-piece and leaves a fraction of a KiB uncredited.
        let mut sim = SwarmSim::new(spec(10));
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        let fresh = bytes(&sim).len();
        let mut ledger = TransferLedger::new();
        let mut rng = DetRng::new(1);
        let dt = SimDuration::from_millis(333);
        for (k, seeder) in [NodeId(0), NodeId(7), NodeId(9)].into_iter().enumerate() {
            sim.join(seeder, MemberRole::Seeder, link(true, 100), true);
            sim.tick(SimTime::from_secs(10 * k as u64), dt, &mut ledger, &mut rng);
            let downloader = sim.member(NodeId(1)).expect("member");
            let kept = &downloader.sources[downloader.source_at(seeder).expect("record")];
            let carried = kept.uncredited.expect("carried");
            assert!(carried > 0.0 && carried < 1.0, "a fraction: {carried}");
            assert!(kept.window_recv.is_some());
            sim.leave(seeder);
            // No record left: nothing in flight, received or uncredited.
            let downloader = sim.member(NodeId(1)).expect("member");
            assert!(downloader.sources.is_empty() && downloader.unchoked.is_empty());
        }
        // Three departed peers later the downloader encodes as on day one.
        assert_eq!(bytes(&sim).len(), fresh);
        // A peer that joins again starts from nothing carried.
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 100), true);
        assert!(sim.member(NodeId(1)).expect("member").sources.is_empty());
    }

    #[test]
    fn join_is_idempotent() {
        let mut sim = SwarmSim::new(spec(10));
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        sim.join(NodeId(1), MemberRole::Seeder, link(true, 512), true);
        assert_eq!(sim.role(NodeId(1)), Some(MemberRole::Leecher));
        assert_eq!(sim.member_count(), 1);
    }

    #[test]
    fn counts_reflect_roles_and_presence() {
        let mut sim = SwarmSim::new(spec(10));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        sim.join(NodeId(1), MemberRole::Leecher, link(true, 512), true);
        sim.join(NodeId(2), MemberRole::Leecher, link(true, 512), false);
        assert_eq!(sim.online_seeders(), 1);
        assert_eq!(sim.online_leechers(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = SwarmSim::new(spec(30));
            sim.join(NodeId(0), MemberRole::Seeder, link(true, 256), true);
            for i in 1..6 {
                sim.join(NodeId(i), MemberRole::Leecher, link(true, 256), true);
            }
            let mut ledger = TransferLedger::new();
            drive(&mut sim, 3, &mut ledger);
            ledger
        };
        assert_eq!(run(), run());
    }

    /// A swarm mid-download: a seeder, leechers at different stages, one
    /// member gone again.
    fn busy_swarm() -> SwarmSim {
        let mut sim = SwarmSim::new(spec(300));
        sim.join(NodeId(0), MemberRole::Seeder, link(true, 512), true);
        for i in 1..6 {
            sim.join(NodeId(i), MemberRole::Leecher, link(i % 2 == 0, 256), true);
        }
        let mut ledger = TransferLedger::new();
        let mut rng = DetRng::new(5);
        let dt = SimDuration::from_secs(10);
        for k in 0..40 {
            sim.tick(SimTime::from_secs(10 * k), dt, &mut ledger, &mut rng);
        }
        sim.leave(NodeId(3));
        sim
    }

    fn member_mut(sim: &mut SwarmSim, peer: NodeId) -> &mut Member {
        let at = sim.slot(peer).expect("member");
        &mut sim.members[at].1
    }

    fn bytes(sim: &SwarmSim) -> Vec<u8> {
        let mut enc = Encoder::new();
        sim.persist(&mut enc);
        enc.into_bytes()
    }

    /// `sim` written and restored against its own spec.
    fn roundtrip(sim: &SwarmSim) -> Result<SwarmSim, DecodeError> {
        let bytes = bytes(sim);
        let mut dec = Decoder::new(&bytes);
        let back = SwarmSim::restore(sim.spec, &mut dec)?;
        dec.finish()?;
        Ok(back)
    }

    fn corrupt_message(sim: &SwarmSim) -> String {
        match roundtrip(sim) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn restored_availability_is_the_incrementally_maintained_one() {
        let sim = busy_swarm();
        let progress = sim.progress(NodeId(1)).expect("member");
        assert!(progress > 0.0 && progress < 1.0, "mid-download: {progress}");
        let back = roundtrip(&sim).expect("roundtrip");
        assert_eq!(back.availability, sim.availability);
    }

    #[test]
    fn source_records_refuse_what_persist_never_writes() {
        // A member without records ends in a record count of 0; put the
        // crafted records in its place.
        let member = Member::joining(160, MemberRole::Leecher, link(true, 64), true);
        let with_records = |records: &dyn Fn(&mut Encoder)| {
            let mut enc = Encoder::new();
            let mut bytes = rvs_checkpoint::to_bytes(&member);
            assert_eq!(bytes.pop(), Some(0), "the record count");
            enc.raw(&bytes);
            records(&mut enc);
            rvs_checkpoint::from_bytes::<Member>(&enc.into_bytes())
        };
        let refused = |records: &dyn Fn(&mut Encoder)| match with_records(records) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // One record of source 5: its gap, presence byte, then values.
        let record = |presence: u8| {
            move |enc: &mut Encoder| {
                enc.varint(1);
                enc.varint(5);
                enc.u8(presence);
                enc.varint(7);
            }
        };
        let honest = with_records(&record(2)).expect("window receipts of 7 KiB");
        assert_eq!(honest.sources[0].window_recv, Some(7));
        for presence in [0, 8] {
            assert_eq!(
                refused(&record(presence)),
                format!("Member: source n5 has presence byte {presence}")
            );
        }
        assert_eq!(
            refused(&|enc| {
                enc.varint(9);
                enc.varint(5);
            }),
            "Member: 9 source records claimed with 1 bytes left"
        );
        assert_eq!(
            refused(&|enc| {
                enc.varint(1);
                enc.varint(1 << 32);
                enc.u8(2);
                enc.varint(7);
            }),
            "Member: source id overflows u32"
        );
        assert_eq!(
            refused(&|enc| {
                enc.varint(1);
                enc.varint(5);
                enc.u8(1);
                enc.varint(1 << 32);
                enc.f64(1.0);
            }),
            "Member: source n5 sends piece 4294967296, past u32"
        );
    }

    #[test]
    fn restore_checks_the_members_against_the_file() {
        let sim = busy_swarm();
        // A member whose bitfield is over another file's pieces.
        let mut alien = sim.clone();
        let pieces = sim.spec.piece_count();
        member_mut(&mut alien, NodeId(1)).bitfield = Bitfield::empty(pieces + 64);
        assert!(corrupt_message(&alien).contains("bitfield over"));
        // A request for a piece the file does not have.
        let mut beyond = sim.clone();
        let downloader = member_mut(&mut beyond, NodeId(1));
        let at = downloader.source_at(NodeId(0)).unwrap_or_else(|at| {
            downloader.sources.insert(at, Source::new(NodeId(0)));
            at
        });
        downloader.sources[at].in_flight = Some((pieces, 1.0));
        assert!(corrupt_message(&beyond).contains("requests a piece past"));
        // A piece size of zero has no piece count at all.
        let mut sizeless = sim.clone();
        sizeless.spec.piece_size_kib = 0;
        assert!(corrupt_message(&sizeless).contains("piece size is zero"));
        // A file whose bitfields would be a few bytes on disk each and
        // more than 256 KiB in memory.
        let mut huge = sim.clone();
        huge.spec.file_size_mib = MAX_PIECES / 4 + 1;
        assert!(corrupt_message(&huge).contains("pieces, past 2097152"));
    }
}
