//! The swarm as it was written before members moved into a slice and a
//! member's per-source state into one: a `BTreeMap` keyed by id, every step
//! of a tick a lookup in it, three more maps keyed by source in every
//! member, interest tested piece by piece. It is the reference the
//! slot-table swarm is held to, tick for tick, on its checkpoint bytes.

use super::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A member with a map per kind of per-source state.
#[derive(Debug, Clone)]
struct MapMember {
    bitfield: Bitfield,
    role: MemberRole,
    online: bool,
    link: LinkProfile,
    unchoked: Vec<NodeId>,
    optimistic: Option<NodeId>,
    rechokes: u32,
    /// Piece currently being fetched from each source: (piece, KiB left).
    in_flight: BTreeMap<NodeId, (u32, f64)>,
    /// KiB received per source during the current tit-for-tat window.
    window_recv: BTreeMap<NodeId, u64>,
    /// Fractional KiB not yet credited to the ledger, per source.
    uncredited: BTreeMap<NodeId, f64>,
}

impl MapMember {
    /// The member's checkpoint bytes: its fields in declaration order, then
    /// one record per source that any of the three maps holds — the id's
    /// gap, a presence byte, the values present.
    fn persist(&self, enc: &mut Encoder) {
        self.bitfield.persist(enc);
        self.role.persist(enc);
        self.online.persist(enc);
        self.link.persist(enc);
        self.unchoked.persist(enc);
        self.optimistic.persist(enc);
        self.rechokes.persist(enc);
        let ids: BTreeSet<NodeId> = (self.in_flight.keys())
            .chain(self.window_recv.keys())
            .chain(self.uncredited.keys())
            .copied()
            .collect();
        enc.varint(ids.len() as u64);
        let mut next = 0;
        for id in ids {
            enc.gap(&mut next, u64::from(id.0));
            let in_flight = self.in_flight.get(&id);
            let window_recv = self.window_recv.get(&id);
            let uncredited = self.uncredited.get(&id);
            enc.u8(u8::from(in_flight.is_some())
                | u8::from(window_recv.is_some()) << 1
                | u8::from(uncredited.is_some()) << 2);
            if let Some(&(piece, left)) = in_flight {
                enc.varint(u64::from(piece));
                enc.f64(left);
            }
            if let Some(&received) = window_recv {
                enc.varint(received);
            }
            if let Some(&fraction) = uncredited {
                enc.f64(fraction);
            }
        }
    }

    fn joining(pieces: u32, role: MemberRole, link: LinkProfile, online: bool) -> Self {
        MapMember {
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
            in_flight: BTreeMap::new(),
            window_recv: BTreeMap::new(),
            uncredited: BTreeMap::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct MapSwarm {
    spec: SwarmSpec,
    members: BTreeMap<NodeId, MapMember>,
    availability: Availability,
    next_rechoke: SimTime,
}

/// The interest rule as a walk over the pieces.
fn interested(mine: &Bitfield, theirs: &Bitfield) -> bool {
    mine.missing_from(theirs).next().is_some()
}

impl MapSwarm {
    fn new(spec: SwarmSpec) -> Self {
        MapSwarm {
            spec,
            members: BTreeMap::new(),
            availability: Availability::new(spec.piece_count()),
            next_rechoke: spec.created,
        }
    }

    fn join(&mut self, peer: NodeId, role: MemberRole, link: LinkProfile, online: bool) {
        if self.members.contains_key(&peer) {
            return;
        }
        let member = MapMember::joining(self.spec.piece_count(), role, link, online);
        self.availability.add_bitfield(&member.bitfield);
        self.members.insert(peer, member);
    }

    fn leave(&mut self, peer: NodeId) {
        if let Some(m) = self.members.remove(&peer) {
            self.availability.remove_bitfield(&m.bitfield);
        }
        for m in self.members.values_mut() {
            m.unchoked.retain(|&p| p != peer);
            if m.optimistic == Some(peer) {
                m.optimistic = None;
            }
            m.in_flight.remove(&peer);
            m.window_recv.remove(&peer);
            m.uncredited.remove(&peer);
        }
    }

    fn set_online(&mut self, peer: NodeId, online: bool) {
        if let Some(m) = self.members.get_mut(&peer) {
            m.online = online;
        }
    }

    fn tick(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        ledger: &mut TransferLedger,
        rng: &mut DetRng,
    ) -> Vec<Completion> {
        if now >= self.next_rechoke {
            self.run_rechoke(rng);
            self.next_rechoke = now + RECHOKE_INTERVAL;
        }
        self.run_transfers(now, dt, ledger, rng)
    }

    fn run_rechoke(&mut self, rng: &mut DetRng) {
        let ids: Vec<NodeId> = self.members.keys().copied().collect();
        for &u in &ids {
            let m = &self.members[&u];
            if !m.online {
                continue;
            }
            let interested: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|&v| v != u)
                .filter(|&v| {
                    let mv = &self.members[&v];
                    mv.online
                        && can_connect(m.link, mv.link)
                        && interested(&mv.bitfield, &m.bitfield)
                })
                .collect();
            let rotate = m.rechokes.is_multiple_of(OPTIMISTIC_EVERY);
            let window = m.window_recv.clone();
            let decision = rechoke(
                m.role == MemberRole::Seeder,
                &interested,
                |p| window.get(&p).copied().unwrap_or(0),
                rotate,
                m.optimistic,
                rng,
            );
            let m = self.members.get_mut(&u).expect("iterating the members");
            m.unchoked = decision.unchoked;
            m.optimistic = decision.optimistic;
            m.rechokes += 1;
            m.window_recv.clear();
        }
    }

    fn run_transfers(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        ledger: &mut TransferLedger,
        rng: &mut DetRng,
    ) -> Vec<Completion> {
        let mut conns: Vec<(NodeId, NodeId)> = Vec::new();
        let mut up_count: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut down_count: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (&u, m) in &self.members {
            if !m.online {
                continue;
            }
            for &v in &m.unchoked {
                let Some(mv) = self.members.get(&v) else {
                    continue;
                };
                if !mv.online || !can_connect(m.link, mv.link) {
                    continue;
                }
                if !interested(&mv.bitfield, &m.bitfield) {
                    continue;
                }
                conns.push((u, v));
                *up_count.entry(u).or_insert(0) += 1;
                *down_count.entry(v).or_insert(0) += 1;
            }
        }

        let dt_secs = dt.as_secs_f64();
        let piece_kib = self.spec.piece_size_kib as f64;
        let mut completions = Vec::new();
        let mut cand = Vec::new();
        for (u, v) in conns {
            let nu = up_count[&u] as f64;
            let mv = down_count[&v] as f64;
            let member_u = self.members[&u].clone();
            let member_v = self.members.get_mut(&v).expect("enumerated");
            let up_rate = member_u.link.uplink_kibps as f64 / nu;
            let down_rate = member_v.link.downlink_kibps as f64 / mv;
            let mut budget = up_rate.min(down_rate) * dt_secs;
            if budget <= 0.0 {
                continue;
            }
            let was_complete = member_v.bitfield.is_complete();
            let mut received = 0.0f64;
            loop {
                if !member_v.in_flight.contains_key(&u) {
                    let pick = pick_piece_avoiding(
                        &member_v.bitfield,
                        &member_u.bitfield,
                        member_v.in_flight.values().map(|&(p, _)| p),
                        &self.availability,
                        rng,
                        &mut cand,
                    );
                    match pick {
                        Some(p) => {
                            member_v.in_flight.insert(u, (p, piece_kib));
                        }
                        None => break,
                    }
                }
                let (piece, remaining) = member_v.in_flight.get_mut(&u).expect("just inserted");
                let step = budget.min(*remaining);
                *remaining -= step;
                budget -= step;
                received += step;
                if *remaining <= 1e-9 {
                    let done = *piece;
                    member_v.in_flight.remove(&u);
                    if member_v.bitfield.set(done) {
                        self.availability.add_piece(done);
                    }
                } else {
                    break;
                }
                if budget <= 1e-9 {
                    break;
                }
            }
            if received > 0.0 {
                *member_v.window_recv.entry(u).or_insert(0) += received.round() as u64;
                let frac = member_v.uncredited.entry(u).or_insert(0.0);
                *frac += received;
                let whole = frac.floor() as u64;
                if whole > 0 {
                    *frac -= whole as f64;
                    ledger.credit(u, v, whole);
                }
                if !was_complete && member_v.bitfield.is_complete() {
                    completions.push(Completion {
                        peer: v,
                        swarm: self.spec.id,
                        time: now,
                    });
                }
            }
        }

        for c in &completions {
            if let Some(m) = self.members.get_mut(&c.peer) {
                m.role = MemberRole::Seeder;
                m.in_flight.clear();
            }
        }
        completions
    }

    /// The checkpoint bytes, written from the maps.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.usize(self.members.len());
        for (id, m) in &self.members {
            id.persist(&mut enc);
            m.persist(&mut enc);
        }
        self.next_rechoke.persist(&mut enc);
        enc.into_bytes()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Peer, seeder?, connectable?, uplink KiB/s.
    Join(u32, bool, bool, u32),
    Leave(u32),
    SetOnline(u32, bool),
    Tick(u8),
    /// Checkpoint the slot-table swarm and carry on from the restored one.
    Roundtrip,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let join = || {
        (0u32..12, prop::bool::ANY, prop::bool::ANY, 32u32..512)
            .prop_map(|(p, seeder, connectable, up)| Op::Join(p, seeder, connectable, up))
    };
    let tick = || (1u8..20).prop_map(Op::Tick);
    // No weights in this proptest: an arm listed twice is drawn twice as often.
    prop_oneof![
        join(),
        join(),
        join(),
        (0u32..12).prop_map(Op::Leave),
        (0u32..12, prop::bool::ANY).prop_map(|(p, on)| Op::SetOnline(p, on)),
        (0u32..12, prop::bool::ANY).prop_map(|(p, on)| Op::SetOnline(p, on)),
        tick(),
        tick(),
        tick(),
        tick(),
        Just(Op::Roundtrip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any join / leave / online-flip history, firewalled pairs
    /// included, the slot-table swarm is the map-based one after every
    /// step: its checkpoint is the bytes written from the maps — every
    /// member's whole state, the next rechoke — and restores to a swarm
    /// that carries on alike; the availability index, the ledger, the
    /// completions and the generator are the same.
    #[test]
    fn slot_table_swarm_is_the_map_based_one(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        // 160 pieces: three words, the last one partial.
        let spec = SwarmSpec {
            id: SwarmId(3),
            created: SimTime::ZERO,
            file_size_mib: 5,
            piece_size_kib: 32,
            initial_seeder: NodeId(0),
        };
        let mut sim = SwarmSim::new(spec);
        let mut oracle = MapSwarm::new(spec);
        let (mut ledger, mut oracle_ledger) = (TransferLedger::new(), TransferLedger::new());
        let (mut rng, mut oracle_rng) = (DetRng::new(seed), DetRng::new(seed));
        let dt = SimDuration::from_secs(10);
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Join(p, seeder, connectable, up) => {
                    let role = if seeder { MemberRole::Seeder } else { MemberRole::Leecher };
                    let link = LinkProfile {
                        connectable,
                        uplink_kibps: up,
                        downlink_kibps: up * 4,
                    };
                    sim.join(NodeId(p), role, link, true);
                    oracle.join(NodeId(p), role, link, true);
                }
                Op::Leave(p) => {
                    sim.leave(NodeId(p));
                    oracle.leave(NodeId(p));
                }
                Op::SetOnline(p, on) => {
                    sim.set_online(NodeId(p), on);
                    oracle.set_online(NodeId(p), on);
                }
                Op::Tick(k) => {
                    for _ in 0..k {
                        prop_assert_eq!(
                            sim.tick(now, dt, &mut ledger, &mut rng),
                            oracle.tick(now, dt, &mut oracle_ledger, &mut oracle_rng)
                        );
                        now += dt;
                    }
                }
                Op::Roundtrip => {
                    sim = super::roundtrip(&sim).expect("own checkpoint");
                }
            }
            prop_assert_eq!(super::bytes(&sim), oracle.to_bytes());
            prop_assert_eq!(&sim.availability, &oracle.availability);
            prop_assert_eq!(&ledger, &oracle_ledger);
            prop_assert_eq!(&rng, &oracle_rng);
        }
    }
}
