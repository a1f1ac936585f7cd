//! Property-based proofs of the *system-level* checkpoint contract, on top
//! of the per-codec properties in `crates/checkpoint/tests/proptests.rs`:
//!
//! * restore → re-checkpoint is byte-identical across random small systems
//!   (the encoding has one canonical form per state);
//! * truncating a real checkpoint anywhere yields a typed error from
//!   `Checkpoint::from_bytes` or `System::restore` — never a panic, never
//!   a silently half-restored system;
//! * flipping any bit of a real checkpoint never panics: either a typed
//!   error surfaces, or the blob still describes a consistent system whose
//!   re-encoding is a canonical fixed point;
//! * version skew is a typed `WrongVersion` before any payload is trusted;
//! * crafted blobs whose sections each decode but describe different
//!   populations — a shortened per-node vector, a layer spliced in from a
//!   smaller run — are `Corrupt`, not a system that panics a round later;
//! * so are a zero BitTorrent tick and a `net`, `bartercast`, `modcast` or
//!   `votes` section run under another config than `cfg`'s copy;
//! * and whatever no program state encodes to — one defect per case, each
//!   a `Corrupt` naming its type:
//!   * a bitfield with a shape byte past 2, a partial one holding no piece
//!     or every piece, or a bit set past its length;
//!   * a swarm's members out of order or twice;
//!   * swarms whose availability, rebuilt on restore, is more memory than
//!     the blob's length allows — a thousand empty swarms over big files;
//!   * a member's source record with a presence byte of 0 or past 7, a
//!     record count past the bytes left, or an id written out of order or
//!     twice (ids are varint gaps, so that is a gap past `u32`);
//!   * a ledger entry of 0 KiB, a self-edge, an empty row, weights whose
//!     sum overflows `u64`, an id past `u32` — out of order or twice is one
//!     — or a row count or row length past the bytes left;
//!   * a dedup window id written out of order or twice (a gap past `u64`),
//!     or a window length past the bytes left;
//!   * a `bartercast` section that no population of graphs writes: a
//!     source with no targets or a target with no values, a self-loop
//!     record, a record no graph holds, a graph holding two records of one
//!     edge, an index past the table, a gap past `u32` (a source or a
//!     target) or past `u64` (an index or a value, which is how a value run
//!     that does not ascend is spelled), a count past the bytes left, a
//!     varint spelled longer than it needs (rows the blob cannot pay for
//!     are the crate's own test, `graph::table`);
//! * `rvs ckpt diff`'s report names the node and the edge when
//!   `bartercast` is the first section two blobs differ in.

use proptest::prelude::*;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{Checkpoint, ProtocolConfig, System, VoteSamplingConfig};
use robust_vote_sampling::trace::SwarmSpec;
use rvs_checkpoint::DecodeError;
use rvs_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

fn build(peers: usize, hours: u64, seed: u64) -> System {
    build_with(peers, hours, seed, ProtocolConfig::default())
}

fn build_with(peers: usize, hours: u64, seed: u64, protocol: ProtocolConfig) -> System {
    let cfg = VoteSamplingConfig {
        protocol: ProtocolConfig {
            experience_t_mib: 1.0,
            ..protocol
        },
        ..VoteSamplingConfig::quick(peers, SimDuration::from_hours(hours))
    };
    cfg.system(seed, FaultSchedule::default()).0
}

/// One mid-run checkpoint, shared by the mutation properties so the
/// (comparatively expensive) simulation runs once.
fn base_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut system = build(10, 6, 7);
        system.run_until(
            SimTime::from_hours(3),
            SimDuration::from_hours(1),
            |_, _| {},
        );
        system.checkpoint().into_bytes()
    })
}

/// Decode + restore, all the way to a `System`, with typed errors.
fn try_restore(bytes: &[u8]) -> Result<System, DecodeError> {
    let ckpt = Checkpoint::from_bytes(bytes.to_vec())?;
    System::restore(&ckpt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Restoring a checkpoint and immediately re-encoding it reproduces
    /// the original bytes exactly, across random small systems and
    /// checkpoint times.
    #[test]
    fn restore_reencode_is_byte_identical(
        seed in 1u64..500,
        peers in 6usize..11,
        stop_frac in 0.25f64..0.95,
    ) {
        let hours = 4u64;
        let mut system = build(peers, hours, seed);
        let stop = SimTime::from_secs((hours as f64 * 3600.0 * stop_frac) as u64);
        system.run_until(stop, SimDuration::from_hours(1), |_, _| {});
        let bytes = system.checkpoint().into_bytes();
        let restored = try_restore(&bytes)
            .map_err(|e| TestCaseError::fail(format!("self-produced checkpoint failed: {e}")))?;
        prop_assert_eq!(restored.checkpoint().into_bytes(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any truncation of a real checkpoint is rejected with a typed error.
    #[test]
    fn truncation_never_panics_and_errors(frac in 0.0f64..1.0) {
        let bytes = base_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(
            try_restore(&bytes[..cut]).is_err(),
            "checkpoint truncated to {} of {} bytes restored cleanly",
            cut,
            bytes.len()
        );
    }

    /// A single bit-flip anywhere in a real checkpoint never panics. When
    /// the damaged blob still restores (the flip landed in a value any
    /// system could hold), its re-encoding must be a canonical fixed
    /// point: restore → checkpoint → restore → checkpoint is byte-stable.
    #[test]
    fn bit_flip_never_panics(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = base_bytes().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(restored) = try_restore(&bytes) {
            let canon = restored.checkpoint().into_bytes();
            let again = try_restore(&canon)
                .map_err(|e| TestCaseError::fail(format!("canonical re-restore failed: {e}")))?;
            prop_assert_eq!(again.checkpoint().into_bytes(), canon);
        }
    }

    /// A version-skewed header is a typed `WrongVersion` before any of the
    /// payload is trusted, and the strict `info()` reports the same.
    #[test]
    fn wrong_version_is_typed(version in 0u32..u32::MAX) {
        prop_assume!(version != rvs_checkpoint::FORMAT_VERSION);
        let mut bytes = base_bytes().to_vec();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match try_restore(&bytes) {
            Ok(_) => return Err(TestCaseError::fail("skewed version restored")),
            Err(err) => prop_assert_eq!(
                err,
                DecodeError::WrongVersion {
                    found: version,
                    supported: rvs_checkpoint::FORMAT_VERSION
                }
            ),
        }
    }
}

/// A 6-hour run of `peers` peers under `protocol`, checkpointed at 3 h.
fn mid_run(peers: usize, protocol: ProtocolConfig) -> Checkpoint {
    let mut system = build_with(peers, 6, 7, protocol);
    system.run_until(
        SimTime::from_hours(3),
        SimDuration::from_hours(1),
        |_, _| {},
    );
    system.checkpoint()
}

/// `host` with its section `name` replaced by `donor`'s.
fn splice(host: &Checkpoint, donor: &Checkpoint, name: &str) -> Vec<u8> {
    let range = |ckpt: &Checkpoint| {
        let sections = ckpt.sections().expect("self-produced checkpoint indexes");
        let (_, range) = sections.into_iter().find(|(n, _)| n == name).expect(name);
        range
    };
    let (at, from) = (range(host), range(donor));
    let mut bytes = host.as_bytes()[..at.start].to_vec();
    bytes.extend_from_slice(&donor.as_bytes()[from]);
    bytes.extend_from_slice(&host.as_bytes()[at.end..]);
    bytes
}

/// The blob must be refused as `Corrupt` with a message naming `what`.
fn assert_corrupt(bytes: &[u8], what: &str) {
    match try_restore(bytes) {
        Err(DecodeError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: got `{msg}`"),
        Err(other) => panic!("{what}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{what}: crafted blob restored"),
    }
}

fn adaptive() -> ProtocolConfig {
    ProtocolConfig {
        adaptive_t: Some(Default::default()),
        ..ProtocolConfig::default()
    }
}

#[test]
fn short_adaptive_vector_is_corrupt_not_a_later_panic() {
    // `scenario` section of a fig6 cast (no crowd, no core): tag, one
    // bool, two empty length-prefixed collections, then the
    // `Option<Vec<AdaptiveThreshold>>` — presence byte, length, and one
    // 48-byte entry per node. Claim one entry and drop the other nine.
    let ckpt = mid_run(10, adaptive());
    let sections = ckpt.sections().expect("indexes");
    let (_, scenario) = sections.iter().find(|(n, _)| n == "scenario").unwrap();
    let len_at = scenario.start + (1 + "scenario".len()) + 1 + 8 + 8 + 1;
    let mut bytes = ckpt.as_bytes().to_vec();
    assert_eq!(bytes[len_at - 1], 1, "presence byte");
    assert_eq!(bytes[len_at..len_at + 8], 10u64.to_le_bytes());
    bytes[len_at..len_at + 8].copy_from_slice(&1u64.to_le_bytes());
    bytes.drain(len_at + 8 + 48..len_at + 8 + 10 * 48);
    assert_corrupt(&bytes, "adaptive thresholds 1 != total nodes 10");
}

#[test]
fn adaptive_state_must_match_the_configuration() {
    let (with, without) = (
        mid_run(10, adaptive()),
        mid_run(10, ProtocolConfig::default()),
    );
    assert_corrupt(&splice(&with, &without, "cfg"), "adaptive_t");
    assert_corrupt(&splice(&without, &with, "cfg"), "adaptive_t");
}

#[test]
fn a_zero_tick_is_corrupt_not_a_resumed_run_that_never_advances() {
    let stalled = ProtocolConfig {
        net: robust_vote_sampling::bittorrent::NetConfig {
            tick: SimDuration::ZERO,
        },
        ..ProtocolConfig::default()
    };
    let ckpt = build_with(10, 6, 7, stalled).checkpoint();
    assert_corrupt(ckpt.as_bytes(), "zero BitTorrent tick");
}

#[test]
fn a_layer_run_under_another_config_than_cfg_is_corrupt() {
    let host = mid_run(10, ProtocolConfig::default());
    let base = ProtocolConfig::default();
    let mut other = base;
    other.net.tick = SimDuration::from_secs(20);
    other.bartercast.max_records_per_exchange = 7;
    other.modcast.max_list = 1;
    other.votes.max_votes_per_msg = 7;
    let donor = mid_run(10, other);
    for section in ["net", "bartercast", "modcast", "votes"] {
        let what = format!("`{section}` runs under a config other than `cfg`'s copy");
        assert_corrupt(&splice(&host, &donor, section), &what);
    }
    // And the other way round: `cfg` from the donor, every layer the host's.
    assert_corrupt(&splice(&host, &donor, "cfg"), "`net` runs under a config");
}

#[test]
fn a_layer_from_a_smaller_run_is_corrupt_not_a_later_panic() {
    for newscast in [false, true] {
        let protocol = ProtocolConfig {
            use_newscast_pss: newscast,
            ..ProtocolConfig::default()
        };
        let (host, donor) = (mid_run(10, protocol), mid_run(8, protocol));
        for (section, what) in [
            ("net", "BitTorrent substrate"),
            ("pss", "PSS population 8 != total nodes 10"),
            ("bartercast", "bartercast tables"),
            ("modcast", "modcast tables"),
            ("votes", "votes tables"),
            ("guard", "guard records 8 != total nodes 10"),
        ] {
            assert_corrupt(&splice(&host, &donor, section), what);
        }
    }
}

/// Where `needle` — the encoding of one component of the system — sits in
/// the checkpoint.
fn locate(bytes: &[u8], needle: &[u8]) -> usize {
    let at = bytes.windows(needle.len()).position(|w| w == needle);
    at.expect("the component's encoding is part of the checkpoint")
}

/// The swarm of the honest checkpoint with the most members.
fn busiest_swarm(system: &System) -> &rvs_bittorrent::SwarmSim {
    let net = system.net();
    (0..net.swarm_count())
        .map(|i| net.swarm(rvs_sim::SwarmId::from_index(i)))
        .max_by_key(|swarm| swarm.member_count())
        .expect("the trace has swarms")
}

/// An unsigned LEB128 varint, as the checkpoint spells one.
fn varint(v: u64) -> Vec<u8> {
    let mut enc = rvs_checkpoint::Encoder::new();
    enc.varint(v);
    enc.into_bytes()
}

/// `bytes` with the range `at` replaced by `with`.
fn spliced(bytes: &[u8], at: Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut crafted = bytes[..at.start].to_vec();
    crafted.extend_from_slice(with);
    crafted.extend_from_slice(&bytes[at.end..]);
    crafted
}

/// The varint that makes an id gap spell `id` right after `prev`, taken
/// modulo 2³², the width of a node id: for `id <= prev` it is the only way
/// a `u32` id can be written out of order or twice.
fn gap_to(prev: u32, id: u32) -> Vec<u8> {
    varint((u64::from(id) + (1 << 32)) - (u64::from(prev) + 1))
}

/// A varint field of a component's encoding: where it sits in the
/// checkpoint and what it holds.
type Field = (Range<usize>, u64);

/// The node id a gap field spells after `next`, moving `next` past it.
fn gap_id(gap: &Field, next: &mut u64) -> u32 {
    let id = *next + gap.1;
    *next = id + 1;
    u32::try_from(id).expect("a node id")
}

/// Reads a component's encoding field by field, giving each field's place
/// in the checkpoint the component sits in.
struct Fields<'a> {
    dec: rvs_checkpoint::Decoder<'a>,
    end: usize,
}

impl<'a> Fields<'a> {
    /// The fields of `encoded`, which starts at byte `at` of the checkpoint.
    fn new(encoded: &'a [u8], at: usize) -> Self {
        Fields {
            dec: rvs_checkpoint::Decoder::new(encoded),
            end: at + encoded.len(),
        }
    }

    fn at(&self) -> usize {
        self.end - self.dec.remaining()
    }

    fn varint(&mut self) -> Field {
        let start = self.at();
        let v = self.dec.varint().expect("honest varint");
        (start..self.at(), v)
    }
}

/// One member of a swarm as the checkpoint holds it: where its bitfield
/// starts, the bitfield, its record count, and per source record the gap
/// field, the source id and where its presence byte sits.
struct MemberBytes {
    bitfield_at: usize,
    bitfield: rvs_bittorrent::Bitfield,
    count: Field,
    records: Vec<(Field, u32, usize)>,
}

/// Every member of `swarm` in the checkpoint `honest`.
fn members_in(honest: &[u8], swarm: &rvs_bittorrent::SwarmSim) -> Vec<MemberBytes> {
    use rvs_bittorrent::swarm::{LinkProfile, MemberRole};
    use rvs_checkpoint::Persist;
    use rvs_sim::NodeId;
    let sim = rvs_checkpoint::to_bytes(swarm);
    let members_at = rvs_checkpoint::to_bytes(swarm.spec()).len();
    let mut f = Fields::new(&sim[members_at..], locate(honest, &sim) + members_at);
    let count = f.dec.usize().expect("member count");
    (0..count)
        .map(|_| {
            NodeId::restore(&mut f.dec).expect("id");
            let bitfield_at = f.at();
            let bitfield = rvs_bittorrent::Bitfield::restore(&mut f.dec).expect("bitfield");
            MemberRole::restore(&mut f.dec).expect("role");
            bool::restore(&mut f.dec).expect("online");
            LinkProfile::restore(&mut f.dec).expect("link");
            Vec::<NodeId>::restore(&mut f.dec).expect("unchoked");
            Option::<NodeId>::restore(&mut f.dec).expect("optimistic");
            u32::restore(&mut f.dec).expect("rechokes");
            let count = f.varint();
            let mut next = 0;
            let records = (0..count.1)
                .map(|_| {
                    let gap = f.varint();
                    next += gap.1;
                    let id = u32::try_from(next).expect("a node id");
                    next += 1;
                    let presence_at = f.at();
                    let presence = f.dec.u8().expect("presence");
                    if presence & 1 != 0 {
                        f.varint();
                        f.dec.f64().expect("KiB left");
                    }
                    if presence & 2 != 0 {
                        f.varint();
                    }
                    if presence & 4 != 0 {
                        f.dec.f64().expect("fraction");
                    }
                    (gap, id, presence_at)
                })
                .collect();
            MemberBytes {
                bitfield_at,
                bitfield,
                count,
                records,
            }
        })
        .collect()
}

/// Every member of every swarm of the honest checkpoint.
fn all_members(system: &System) -> Vec<MemberBytes> {
    let net = system.net();
    (0..net.swarm_count())
        .flat_map(|i| members_in(base_bytes(), net.swarm(rvs_sim::SwarmId::from_index(i))))
        .collect()
}

#[test]
fn bitfields_no_member_can_hold_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    // A member mid-download over a length that is not whole words: its
    // bitfield is the shape byte 2, the length, and the words.
    let members = all_members(&system);
    let partial = members.iter().find(|m| {
        let bf = &m.bitfield;
        bf.count() > 0 && !bf.is_complete() && bf.len() % 64 != 0
    });
    let m = partial.expect("a member part of the way through a file");
    let len = m.bitfield.len();
    let at = m.bitfield_at;
    assert_eq!(honest[at], 2, "the partial shape");
    let words_at = at + 1 + varint(u64::from(len)).len();
    let words = (len as usize).div_ceil(64);
    let with_words = |words_of: &dyn Fn(usize) -> u64| {
        let words: Vec<u8> = (0..words).flat_map(|w| words_of(w).to_le_bytes()).collect();
        spliced(&honest, words_at..words_at + words.len(), &words)
    };
    let mut shape = honest.clone();
    shape[at] = 3;
    assert_corrupt(&shape, "Bitfield: shape byte 3");
    // A partial bitfield that holds no piece, or every piece.
    assert_corrupt(
        &with_words(&|_| 0),
        &format!("Bitfield: partial with 0 of {len} pieces"),
    );
    let all = |w: usize| match (w + 1 == words, len % 64) {
        (true, tail) => (1u64 << tail) - 1,
        _ => u64::MAX,
    };
    assert_corrupt(
        &with_words(&all),
        &format!("Bitfield: partial with {len} of {len} pieces"),
    );
    // A piece past the end of the file in the last word.
    let last_at = words_at + 8 * (words - 1);
    let mut beyond = honest;
    beyond[last_at + 7] |= 0x80;
    assert_corrupt(&beyond, "Bitfield: bits set beyond its length");
}

#[test]
fn swarm_members_out_of_order_or_duplicated_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let swarm = busiest_swarm(&system);
    let ids: Vec<rvs_sim::NodeId> = swarm.members().collect();
    assert!(ids.len() >= 2, "two members to put out of order");
    // A `SwarmSim` opens with its spec; the members follow as a length
    // and, first of all, the first member's id.
    let sim = rvs_checkpoint::to_bytes(swarm);
    let honest = base_bytes().to_vec();
    let len_at = locate(&honest, &sim) + rvs_checkpoint::to_bytes(swarm.spec()).len();
    let first_at = len_at + 8;
    assert_eq!(honest[len_at..first_at], (ids.len() as u64).to_le_bytes());
    assert_eq!(honest[first_at..first_at + 4], ids[0].0.to_le_bytes());
    // The second member's id twice, then the first member behind the second.
    for first in [ids[1].0, ids[1].0 + 1] {
        let mut crafted = honest.clone();
        crafted[first_at..first_at + 4].copy_from_slice(&first.to_le_bytes());
        assert_corrupt(&crafted, "ids must ascend");
    }
}

#[test]
fn swarms_that_would_build_more_than_the_blob_pays_for_are_corrupt() {
    use rvs_checkpoint::Persist;
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let net = system.net();
    let honest = base_bytes();
    // The net's swarms are a count, then per swarm its `SwarmSim`, its
    // coin and its seeding budgets.
    let first = net.swarm(rvs_sim::SwarmId::from_index(0));
    let runners_at = locate(honest, &rvs_checkpoint::to_bytes(first));
    let count_at = runners_at - 8;
    assert_eq!(
        honest[count_at..runners_at],
        (net.swarm_count() as u64).to_le_bytes()
    );
    let mut dec = rvs_checkpoint::Decoder::new(&honest[runners_at..]);
    for _ in 0..net.swarm_count() {
        rvs_bittorrent::SwarmSim::restore(&mut dec).expect("swarm");
        rvs_sim::DetRng::restore(&mut dec).expect("coin");
        BTreeMap::<rvs_sim::NodeId, SimDuration>::restore(&mut dec).expect("budgets");
    }
    let end = honest.len() - dec.remaining();
    // A swarm with no member over a file of 2¹⁸ pieces is some 100 bytes
    // here and more than 1 MiB of availability once restored; a thousand
    // of them would be a GiB.
    let spec = SwarmSpec {
        file_size_mib: 1 << 16,
        piece_size_kib: 256,
        ..*first.spec()
    };
    let empty = rvs_bittorrent::SwarmSim::new(spec);
    let mut runner = rvs_checkpoint::to_bytes(&empty);
    runner.extend(rvs_checkpoint::to_bytes(&rvs_sim::DetRng::new(1)));
    runner.extend(rvs_checkpoint::to_bytes(&BTreeMap::<
        rvs_sim::NodeId,
        SimDuration,
    >::new()));
    let runners = 1000;
    let mut swarms = (runners as u64).to_le_bytes().to_vec();
    (0..runners).for_each(|_| swarms.extend_from_slice(&runner));
    assert!(
        swarms.len() < 128 * runners,
        "{} bytes a swarm",
        runner.len()
    );
    let crafted = spliced(honest, count_at..end, &swarms);
    assert_corrupt(&crafted, "SwarmSim: ");
    assert_corrupt(&crafted, "left to allot");
}

#[test]
fn per_source_entries_out_of_order_or_duplicated_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    // Two source records in a row, the first past id 0 so that an id below
    // it exists. Ids are gaps, so the second can only be written out of
    // order — or as the first again — as a gap that carries it past `u32`.
    let members = all_members(&system);
    let pair = members.iter().find_map(|m| {
        let pair = m.records.windows(2).find(|w| w[0].1 > 0)?;
        Some((pair[0].1, pair[1].0.clone()))
    });
    let (first, (second_gap, _)) = pair.expect("a member with two sources");
    for id in [first, first - 1] {
        assert_corrupt(
            &spliced(&honest, second_gap.clone(), &gap_to(first, id)),
            "Member: source id overflows u32",
        );
    }
}

#[test]
fn source_records_no_member_keeps_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    let members = all_members(&system);
    let m = members.iter().find(|m| !m.records.is_empty());
    let m = m.expect("a member with a source");
    let (_, id, presence_at) = m.records[0];
    // A record that keeps nothing, and one that claims a fourth value.
    for presence in [0, 8] {
        let mut crafted = honest.clone();
        crafted[presence_at] = presence;
        assert_corrupt(
            &crafted,
            &format!("Member: source n{id} has presence byte {presence}"),
        );
    }
    assert_corrupt(
        &spliced(&honest, m.count.0.clone(), &varint(1 << 40)),
        "Member: 1099511627776 source records claimed",
    );
}

/// One target of the record table as the checkpoint holds it: its
/// source's id, its gap and id, its value count, and its values' fields.
struct TargetBytes {
    from: u32,
    gap: Field,
    to: u32,
    count: Field,
    values: Vec<Field>,
}

/// The `bartercast` section of the honest checkpoint, field by field. It is
/// varints: the record table — the source count, per source its gap and
/// target count, per target its gap, value count and values — then the
/// graph count and, per graph, its entry count and the entries' table
/// indices as gaps.
struct CastBytes {
    sources: Field,
    /// Per source: its gap, its id and its target count.
    source_fields: Vec<(Field, u32, Field)>,
    targets: Vec<TargetBytes>,
    /// Where the graphs start: one past the table.
    table_end: usize,
    graphs: Field,
    /// Per graph: its entry count and, per entry, its index's gap and the
    /// index.
    picks: Vec<(Field, Vec<(Field, u64)>)>,
}

impl CastBytes {
    fn of(honest: &[u8]) -> CastBytes {
        let ckpt = Checkpoint::from_bytes(honest.to_vec()).expect("honest checkpoint");
        let sections = ckpt.sections().expect("self-produced checkpoint indexes");
        let (_, range) = sections
            .into_iter()
            .find(|(n, _)| n == "bartercast")
            .unwrap();
        // The tag, then the `BarterCastConfig`.
        let cfg = rvs_checkpoint::to_bytes(&rvs_bartercast::BarterCastConfig::default());
        let at = range.start + 1 + "bartercast".len() + cfg.len();
        let mut f = Fields::new(&honest[at..range.end], at);
        let sources = f.varint();
        let (mut source_fields, mut targets) = (Vec::new(), Vec::new());
        let mut next_from = 0;
        for _ in 0..sources.1 {
            let gap = f.varint();
            let from = gap_id(&gap, &mut next_from);
            let count = f.varint();
            let mut next_to = 0;
            for _ in 0..count.1 {
                let gap = f.varint();
                let to = gap_id(&gap, &mut next_to);
                let count = f.varint();
                let values = (0..count.1).map(|_| f.varint()).collect();
                targets.push(TargetBytes {
                    from,
                    gap,
                    to,
                    count,
                    values,
                });
            }
            source_fields.push((gap, from, count));
        }
        let table_end = f.at();
        let graphs = f.varint();
        let picks = (0..graphs.1)
            .map(|_| {
                let count = f.varint();
                let mut next = 0;
                let gaps = (0..count.1)
                    .map(|_| {
                        let gap = f.varint();
                        let at = next + gap.1;
                        next = at + 1;
                        (gap, at)
                    })
                    .collect();
                (count, gaps)
            })
            .collect();
        assert_eq!(f.at(), range.end - 16, "two counters close the section");
        CastBytes {
            sources,
            source_fields,
            targets,
            table_end,
            graphs,
            picks,
        }
    }

    /// The table's records as `(from, to)`, in table order.
    fn edges(&self) -> Vec<(u32, u32)> {
        let each = |t: &TargetBytes| vec![(t.from, t.to); t.values.len()];
        self.targets.iter().flat_map(each).collect()
    }
}

#[test]
fn a_diff_inside_bartercast_names_the_node_and_the_edge() {
    use robust_vote_sampling::scenario::checkpoint::first_divergence;
    // The same run at 3 h, with its graphs and counters as they were at 4 h:
    // `bartercast` is the only section that differs.
    let early = mid_run(10, ProtocolConfig::default());
    let mut system = build(10, 6, 7);
    system.run_until(
        SimTime::from_hours(4),
        SimDuration::from_hours(1),
        |_, _| {},
    );
    let late = Checkpoint::from_bytes(splice(&early, &system.checkpoint(), "bartercast"))
        .expect("the spliced blob has a header");
    let report = first_divergence(&early, &late).expect("the graphs moved");
    assert!(
        report.contains("first differing section: `bartercast`"),
        "{report}"
    );
    let (a, b) = (try_restore(early.as_bytes()), try_restore(late.as_bytes()));
    let (a, b) = (a.expect("early"), b.expect("late"));
    let what = a
        .bartercast()
        .first_difference(b.bartercast())
        .expect("differs");
    assert!(what.starts_with("graph of node "), "{what}");
    assert!(
        report.ends_with(&format!("\nbartercast: {what}")),
        "{report}"
    );
}

#[test]
fn graph_rows_no_report_can_store_are_corrupt() {
    let honest = base_bytes().to_vec();
    let cast = CastBytes::of(&honest);
    let with = |field: &Field, bytes: &[u8]| spliced(&honest, field.0.clone(), bytes);
    let (first_gap, first, target_count) = &cast.source_fields[0];
    let target = &cast.targets[0];
    let past_u32 = varint(1 << 32);
    for (crafted, what) in [
        (
            with(&cast.sources, &varint(1 << 40)),
            "BarterCast: 1099511627776 sources claimed",
        ),
        (with(target_count, &varint(0)), "has no targets"),
        (with(&target.count, &varint(0)), "has no values"),
        (
            with(&target.count, &varint(1 << 40)),
            "BarterCast: 1099511627776 values of",
        ),
        (
            with(first_gap, &past_u32),
            "BarterCast: source id overflows u32",
        ),
        (
            with(&target.gap, &past_u32),
            "BarterCast: target id overflows u32",
        ),
        // A source's first target counts from −1 as the first source does,
        // so the source's gap spells the source as a target.
        (
            with(&target.gap, &varint(u64::from(*first))),
            "BarterCast: self-loop",
        ),
        (
            with(&cast.graphs, &varint(1 << 40)),
            "BarterCast: 1099511627776 graphs claimed",
        ),
        (
            with(&cast.picks[0].0, &varint(1 << 40)),
            "BarterCast: 1099511627776 entries of the graph of node 0 claimed",
        ),
    ] {
        assert_corrupt(&crafted, what);
    }
    // Values are gaps: the only way a run can fail to ascend is a gap that
    // carries it past `u64`.
    let run = cast.targets.iter().find(|t| t.values.len() >= 2);
    let run = run.expect("an edge with two weights in the table");
    assert_corrupt(
        &with(&run.values[1], &varint(u64::MAX)),
        &format!(
            "BarterCast: the values of n{} -> n{} pass u64",
            run.from, run.to
        ),
    );
    // The same weight spelled one byte longer than it needs.
    let mut padded = varint(target.values[0].1);
    *padded.last_mut().expect("a varint has a byte") |= 0x80;
    padded.push(0);
    assert_corrupt(&with(&target.values[0], &padded), "varint is not minimal");
}

#[test]
fn graphs_holding_records_no_population_holds_are_corrupt() {
    let honest = base_bytes().to_vec();
    let cast = CastBytes::of(&honest);
    let records = cast.edges();
    let (node, (_, picks)) = cast
        .picks
        .iter()
        .enumerate()
        .find(|(_, (_, picks))| picks.len() >= 2)
        .expect("a graph of two entries");
    let with = |field: &Field, bytes: &[u8]| spliced(&honest, field.0.clone(), bytes);
    // An index past the table, and a gap past `u64`.
    let (last_gap, last) = picks.last().expect("entries");
    let past = records.len() as u64 - last + last_gap.1;
    assert_corrupt(
        &with(last_gap, &varint(past)),
        &format!(
            "BarterCast: the graph of node {node} holds record {}",
            records.len()
        ),
    );
    assert_corrupt(
        &with(&picks[1].0, &varint(u64::MAX)),
        &format!("BarterCast: the graph of node {node}: index gap overflows u64"),
    );
    // A record no graph holds: one more source past the last, with one
    // target and one value, appended to the table.
    let (_, last_source, _) = cast.source_fields.last().expect("a source");
    let spare = [varint(0), varint(1), varint(0), varint(1), varint(7)].concat();
    let mut crafted = honest.clone();
    crafted.splice(cast.table_end..cast.table_end, spare);
    let crafted = spliced(
        &crafted,
        cast.sources.0.clone(),
        &varint(cast.sources.1 + 1),
    );
    assert_corrupt(
        &crafted,
        &format!(
            "BarterCast: record {} (n{} -> n0, 7 KiB) is in no graph",
            records.len(),
            last_source + 1
        ),
    );
    // Two records of one edge in one graph: a graph that holds the first
    // weight of an edge with two is made to hold the second as well.
    let twice = cast
        .picks
        .iter()
        .enumerate()
        .find_map(|(node, (count, picks))| {
            let k = picks.iter().position(|&(_, at)| {
                let at = at as usize;
                records.get(at + 1) == Some(&records[at])
                    && picks.iter().all(|&(_, other)| other != at as u64 + 1)
            })?;
            Some((node, count, picks, k))
        });
    let (node, count, picks, k) = twice.expect("a graph holding one of two weights of an edge");
    let at = picks[k].1;
    let (from, to) = records[at as usize];
    // `at + 1` right after `at` is a gap of 0; the entry after it, if any,
    // is one closer.
    let mut crafted = honest.clone();
    if let Some((gap, _)) = picks.get(k + 1) {
        crafted = spliced(&crafted, gap.0.clone(), &varint(gap.1 - 1));
    }
    let after = picks[k].0 .0.end;
    crafted.insert(after, 0);
    let crafted = spliced(&crafted, count.0.clone(), &varint(count.1 + 1));
    assert_corrupt(
        &crafted,
        &format!("BarterCast: the graph of node {node} holds two records of n{from} -> n{to}"),
    );
}

#[test]
fn dedup_window_ids_out_of_order_or_duplicated_are_corrupt() {
    use robust_vote_sampling::faults::FaultConfig;
    use rvs_sim::NodeId;
    // Scheduled delivery is what fills the windows.
    let schedule = FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            ..FaultConfig::default()
        },
        ..FaultSchedule::default()
    };
    let (mut system, _) =
        VoteSamplingConfig::quick(10, SimDuration::from_hours(6)).system(7, schedule);
    system.run_until(
        SimTime::from_hours(3),
        SimDuration::from_hours(1),
        |_, _| {},
    );
    let honest = system.checkpoint().into_bytes();
    // The windows are a node count, then per node a varint length and the
    // ids as varint gaps.
    let windows: Vec<Vec<u64>> = (0..system.total_nodes())
        .map(|i| system.dedup_window(NodeId::from_index(i)).collect())
        .collect();
    let mut enc = rvs_checkpoint::Encoder::new();
    enc.usize(windows.len());
    for window in &windows {
        enc.varint(window.len() as u64);
        let mut next = 0;
        window.iter().for_each(|&id| enc.gap(&mut next, id));
    }
    let encoded = enc.into_bytes();
    let mut f = Fields::new(&encoded, locate(&honest, &encoded));
    f.dec.usize().expect("node count");
    let k = windows.iter().position(|w| w.len() >= 2);
    let k = k.expect("a window of two ids");
    let fields = windows[..=k].iter().map(|window| {
        let len = f.varint();
        let gaps: Vec<Field> = (0..window.len()).map(|_| f.varint()).collect();
        (len, gaps)
    });
    let (len, gaps) = fields.last().expect("window k");
    let (first, second) = (windows[k][0], windows[k][1]);
    assert_eq!((gaps[0].1, first + 1 + gaps[1].1), (first, second));
    // The first id again in the second place, then the one below it: ids
    // are gaps, so each is a gap that carries it past `u64`.
    let what = format!("dedup window of node {k}: id gap overflows u64");
    for id in [first, first.wrapping_sub(1)] {
        let wrapped = id.wrapping_sub(first + 1);
        assert_corrupt(
            &spliced(&honest, gaps[1].0.clone(), &varint(wrapped)),
            &what,
        );
    }
    // A length the bytes left cannot hold.
    assert_corrupt(
        &spliced(&honest, len.0, &varint(1 << 40)),
        &format!("dedup window of node {k}: 1099511627776 ids claimed"),
    );
}

/// One row of the ledger as the checkpoint holds it: the uploader's gap
/// and id, the row length, and per entry the downloader's gap and id and
/// the KiB.
struct LedgerRow {
    from: (Field, u32),
    len: Field,
    entries: Vec<(Field, u32, Field)>,
}

/// The ledger of the honest checkpoint: its row count and its rows.
fn ledger_rows(system: &System) -> (Field, Vec<LedgerRow>) {
    let encoded = rvs_checkpoint::to_bytes(system.net().ledger());
    let mut f = Fields::new(&encoded, locate(base_bytes(), &encoded));
    let count = f.varint();
    let mut next_from = 0;
    let rows = (0..count.1)
        .map(|_| {
            let gap = f.varint();
            let from = gap_id(&gap, &mut next_from);
            let len = f.varint();
            let mut next_to = 0;
            let entries = (0..len.1)
                .map(|_| {
                    let gap = f.varint();
                    let to = gap_id(&gap, &mut next_to);
                    (gap, to, f.varint())
                })
                .collect();
            LedgerRow {
                from: (gap, from),
                len,
                entries,
            }
        })
        .collect();
    (count, rows)
}

#[test]
fn ledger_rows_no_credit_books_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    // The ledger is varints: the uploader count, then per uploader its id
    // gap and row length, then per entry the downloader's gap and the KiB.
    // The transpose and every total are rebuilt, not read.
    let (count, rows) = ledger_rows(&system);
    let row = rows.iter().find(|r| r.entries.len() >= 2);
    let row = row.expect("an uploader with two downloaders");
    let (first_kib, second_kib) = (&row.entries[0].2, &row.entries[1].2);
    // An empty row: its length 0 and its entries cut.
    let end = row.entries.last().expect("entries").2 .0.end;
    let empty = spliced(&honest, row.len.0.start..end, &varint(0));
    assert_corrupt(&empty, "TransferLedger: empty row");
    // Weights whose sum does not fit a `u64`.
    let mut huge = spliced(&honest, second_kib.0.clone(), &varint(u64::MAX));
    huge = spliced(&huge, first_kib.0.clone(), &varint(u64::MAX));
    assert_corrupt(&huge, "TransferLedger: the KiB sum overflows u64");
    // An uploader past `u32`, and counts the bytes left cannot hold.
    for (field, with, what) in [
        (
            &row.from.0,
            varint(1 << 32),
            "TransferLedger: uploader id overflows u32",
        ),
        (
            &count,
            varint(1 << 40),
            "TransferLedger: 1099511627776 rows claimed",
        ),
        (
            &row.len,
            varint(1 << 40),
            "TransferLedger: row of 1099511627776 entries claimed",
        ),
    ] {
        assert_corrupt(&spliced(&honest, field.0.clone(), &with), what);
    }
}

#[test]
fn ledger_entries_out_of_order_zero_or_looped_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    let (_, rows) = ledger_rows(&system);
    // Two downloaders in a row, the first past id 0 so that an id below it
    // exists. Ids are gaps, so the second can only be written out of order
    // — or as the first again — as a gap that carries it past `u32`.
    let pair = rows.iter().find_map(|r| {
        let pair = r.entries.windows(2).find(|w| w[0].1 > 0)?;
        Some((pair[0].1, pair[1].0 .0.clone()))
    });
    let (first, second_gap) = pair.expect("an uploader with two downloaders");
    for id in [first, first - 1] {
        assert_corrupt(
            &spliced(&honest, second_gap.clone(), &gap_to(first, id)),
            "TransferLedger: downloader id overflows u32",
        );
    }
    // Entries no credit books: nothing moved, and a peer uploading to
    // itself — a row's first downloader counts from 0 as its uploader does,
    // so the uploader's gap spells the uploader.
    let row = &rows[0];
    let (gap, _, kib) = &row.entries[0];
    assert_corrupt(
        &spliced(&honest, kib.0.clone(), &varint(0)),
        "TransferLedger: zero entry",
    );
    assert_corrupt(
        &spliced(&honest, gap.0.clone(), &varint(u64::from(row.from.1))),
        "TransferLedger: self-edge",
    );
}
