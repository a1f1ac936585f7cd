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
//!   populations — a section spliced in from a smaller run, be it a layer,
//!   a per-node vector or the BitTorrent substrate — are `Corrupt`, not a
//!   system that panics a round later;
//! * so are a zero BitTorrent tick and a `net`, `bartercast`, `modcast` or
//!   `votes` section run under another config than `cfg`'s copy;
//! * so are a cast voter outside the population, and a `faults` queue
//!   that disagrees with the rest of the system: a queued delivery to or
//!   from a node outside the population, an inbox gauge other than the
//!   queued copies addressed to its node, an in-flight count other than
//!   the queued primaries;
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
//!
//! A crafted case names a section and a defect, not a byte position: a
//! walker per section reads its payload ([`Fields`]), stepping over what
//! precedes the damaged field by restoring its type, so a format bump that
//! moves a field is an edit to that section's walker.

#[expect(dead_code, reason = "each suite uses only some of the shared fixtures")]
mod common;

use common::with_version;
use proptest::prelude::*;
use robust_vote_sampling::faults::{Backoff, FaultPlane, FaultSchedule};
use robust_vote_sampling::scenario::{
    Checkpoint, ModeratorSpec, ProtocolConfig, System, VoteSamplingConfig,
};
use robust_vote_sampling::trace::{PeerProfile, SwarmSpec};
use rvs_bittorrent::swarm::{LinkProfile, MemberRole};
use rvs_bittorrent::{Bitfield, Completion, NetConfig, SwarmSim};
use rvs_checkpoint::{DecodeError, Decoder, Encoder, Persist};
use rvs_sim::{DetRng, Engine, NodeId, SimDuration, SimTime};
use rvs_telemetry::SharedCounter;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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

/// One mid-run checkpoint, shared by the mutation properties and the
/// crafted-blob cases so the (comparatively expensive) simulation runs
/// once.
fn base() -> &'static Sections {
    static BASE: OnceLock<Sections> = OnceLock::new();
    BASE.get_or_init(|| mid_run(10, ProtocolConfig::default()))
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
        let bytes = &base().bytes;
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
        let mut bytes = base().bytes.clone();
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
        match try_restore(&with_version(&base().bytes, version)) {
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
fn mid_run(peers: usize, protocol: ProtocolConfig) -> Sections {
    cut(build_with(peers, 6, 7, protocol), 3)
}

/// `system` run to `hours` and checkpointed there.
fn cut(mut system: System, hours: u64) -> Sections {
    let end = SimTime::from_hours(hours);
    system.run_until(end, SimDuration::from_hours(1), |_, _| {});
    Sections::of(system.checkpoint())
}

/// A range of a section's payload and the bytes to put in its place.
type Edit = (Range<usize>, Vec<u8>);

/// A checkpoint cut into its tagged sections, each addressed by its
/// payload: the bytes after its tag. A crafted blob is this one with a
/// section's payload taken from a donor, or edited, and spliced back in.
struct Sections {
    bytes: Vec<u8>,
    /// Per section: its name and where its payload sits in the blob.
    payloads: Vec<(String, Range<usize>)>,
}

impl Sections {
    fn of(ckpt: Checkpoint) -> Sections {
        let index = ckpt.sections().expect("self-produced checkpoint indexes");
        let payloads = index.into_iter().map(|(name, range)| {
            let mut dec = Decoder::new(&ckpt.as_bytes()[range.clone()]);
            dec.tag(&name).expect("a section opens with its tag");
            (name, range.end - dec.remaining()..range.end)
        });
        let payloads = payloads.collect();
        let bytes = ckpt.into_bytes();
        Sections { bytes, payloads }
    }

    fn range(&self, name: &str) -> Range<usize> {
        let found = self.payloads.iter().find(|(n, _)| n == name);
        found.expect(name).1.clone()
    }

    /// The blob with section `name`'s payload replaced by `payload`.
    fn with(&self, name: &str, payload: &[u8]) -> Vec<u8> {
        let at = self.range(name);
        [&self.bytes[..at.start], payload, &self.bytes[at.end..]].concat()
    }

    /// The blob with section `name` as `donor` wrote it.
    fn from(&self, donor: &Sections, name: &str) -> Vec<u8> {
        self.with(name, &donor.bytes[donor.range(name)])
    }

    /// The blob with `edits` made to section `name`'s payload must be
    /// refused as `Corrupt` with a message naming `what`. The edits' ranges
    /// are places in the payload as [`Fields`] reports them and do not
    /// overlap; an empty one inserts.
    fn refuses(&self, name: &str, edits: impl IntoIterator<Item = Edit>, what: &str) {
        let mut edits: Vec<Edit> = edits.into_iter().collect();
        // Back to front, so each range still means what it meant.
        edits.sort_by_key(|(at, _)| Reverse((at.start, at.end)));
        let mut payload = self.bytes[self.range(name)].to_vec();
        for (at, with) in edits {
            payload.splice(at, with);
        }
        assert_corrupt(&self.with(name, &payload), what);
    }

    /// A reader over section `name`'s payload from byte `at` of it.
    fn fields(&self, name: &str, at: usize) -> Fields<'_> {
        let payload = &self.bytes[self.range(name)];
        let dec = Decoder::new(&payload[at..]);
        Fields { payload, dec }
    }
}

/// A number in a section's payload: where it sits, what it holds, and
/// whether it is a varint or fixed-width.
#[derive(Clone)]
struct Field {
    at: Range<usize>,
    value: u64,
    varint: bool,
}

impl Field {
    /// The edit that puts `value` in this field's place, spelled as it is.
    fn to(&self, value: u64) -> Edit {
        let bytes = if self.varint {
            varint(value)
        } else {
            value.to_le_bytes()[..self.at.len()].to_vec()
        };
        (self.at.clone(), bytes)
    }
}

/// Reads a section's payload field by field, each at its place in the
/// payload. What a case damages is read as a [`Field`]; what comes before
/// it is stepped over by restoring its type.
struct Fields<'a> {
    payload: &'a [u8],
    dec: Decoder<'a>,
}

impl Fields<'_> {
    fn at(&self) -> usize {
        self.payload.len() - self.dec.remaining()
    }

    fn get<T: Persist>(&mut self) -> T {
        T::restore(&mut self.dec).expect("an honest field")
    }

    fn skip<T: Persist>(&mut self) {
        self.get::<T>();
    }

    fn varint(&mut self) -> Field {
        let start = self.at();
        let value = self.dec.varint().expect("an honest varint");
        let at = start..self.at();
        Field {
            at,
            value,
            varint: true,
        }
    }

    /// The next `T`, a number the codec writes fixed-width little-endian.
    fn fixed<T: Persist>(&mut self) -> Field {
        let start = self.at();
        self.skip::<T>();
        let at = start..self.at();
        let mut le = [0; 8];
        le[..at.len()].copy_from_slice(&self.payload[at.clone()]);
        let value = u64::from_le_bytes(le);
        Field {
            at,
            value,
            varint: false,
        }
    }

    /// The whole payload has been read.
    fn done(self) {
        let left = self.dec.remaining();
        assert_eq!(left, 0, "the walker leaves {left} bytes of the section");
    }
}

/// The node id a gap field spells after `next`, moving `next` past it.
fn gap_id(gap: &Field, next: &mut u64) -> u32 {
    let id = *next + gap.value;
    *next = id + 1;
    u32::try_from(id).expect("a node id")
}

/// The gap that spells `id` right after `prev`, taken modulo 2³², the
/// width of a node id: for `id <= prev` it is the only way a `u32` id can
/// be written out of order or twice.
fn gap_to(prev: u32, id: u32) -> u64 {
    (u64::from(id) + (1 << 32)) - (u64::from(prev) + 1)
}

/// An unsigned LEB128 varint, as the checkpoint spells one.
fn varint(v: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.varint(v);
    enc.into_bytes()
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
    // `scenario` of a run with no crowd and no core: the crowd flag, two
    // empty collections, then the `Option<Vec<AdaptiveThreshold>>` —
    // presence byte, length, one entry per node. Claim one entry and drop
    // the other nine.
    let ckpt = mid_run(10, adaptive());
    let mut f = ckpt.fields("scenario", 0);
    f.skip::<(bool, Vec<bool>, BTreeSet<NodeId>)>();
    assert_eq!(f.fixed::<u8>().value, 1, "presence byte");
    let len = f.fixed::<usize>();
    assert_eq!(len.value, 10);
    f.skip::<rvs_bartercast::AdaptiveThreshold>();
    let rest = f.at();
    for _ in 1..10 {
        f.skip::<rvs_bartercast::AdaptiveThreshold>();
    }
    let dropped = (rest..f.at(), Vec::new());
    let what = "adaptive thresholds 1 != total nodes 10";
    ckpt.refuses("scenario", [len.to(1), dropped], what);
}

#[test]
fn adaptive_state_must_match_the_configuration() {
    let (with, without) = (
        mid_run(10, adaptive()),
        mid_run(10, ProtocolConfig::default()),
    );
    assert_corrupt(&with.from(&without, "cfg"), "adaptive_t");
    assert_corrupt(&without.from(&with, "cfg"), "adaptive_t");
}

#[test]
fn a_zero_tick_is_corrupt_not_a_resumed_run_that_never_advances() {
    let stalled = ProtocolConfig {
        net: NetConfig {
            tick: SimDuration::ZERO,
        },
        ..ProtocolConfig::default()
    };
    let ckpt = build_with(10, 6, 7, stalled).checkpoint();
    assert_corrupt(ckpt.as_bytes(), "zero BitTorrent tick");
}

#[test]
fn a_layer_run_under_another_config_than_cfg_is_corrupt() {
    let mut other = ProtocolConfig::default();
    other.net.tick = SimDuration::from_secs(20);
    other.bartercast.max_records_per_exchange = 7;
    other.modcast.max_list = 1;
    other.votes.max_votes_per_msg = 7;
    let donor = mid_run(10, other);
    for section in ["net", "bartercast", "modcast", "votes"] {
        let what = format!("`{section}` runs under a config other than `cfg`'s copy");
        assert_corrupt(&base().from(&donor, section), &what);
    }
    // And the other way round: `cfg` from the donor, every layer the host's.
    assert_corrupt(&base().from(&donor, "cfg"), "`net` runs under a config");
}

#[test]
fn a_layer_from_a_smaller_run_is_corrupt_not_a_later_panic() {
    for newscast in [false, true] {
        let protocol = ProtocolConfig {
            use_newscast_pss: newscast,
            ..adaptive()
        };
        let (host, donor) = (mid_run(10, protocol), mid_run(8, protocol));
        for (section, what) in [
            ("net", "BitTorrent substrate"),
            ("pss", "PSS population 8 != total nodes 10"),
            ("bartercast", "bartercast tables"),
            ("modcast", "modcast tables"),
            ("votes", "votes tables"),
            ("scenario", "adaptive thresholds 8 != total nodes 10"),
            ("rng", "send RNG lanes 8 != total nodes 10"),
            (
                "bt",
                "BitTorrent substrate or its online snapshot (8) is not sized for the trace \
                 (10 peers, 3 swarms)",
            ),
            ("faults", "dedup windows 8 != total nodes 10"),
            ("guard", "guard records 8 != total nodes 10"),
        ] {
            assert_corrupt(&host.from(&donor, section), what);
        }
    }
}

/// One member of a swarm as `net` holds it: its id, where its bitfield
/// starts and the bitfield, its record count, and per source record the
/// gap, the source id and the presence byte.
struct MemberBytes {
    id: Field,
    bitfield_at: usize,
    bitfield: Bitfield,
    count: Field,
    records: Vec<(Field, u32, Field)>,
}

/// The member at `f`: its id, then the `Member` — bitfield, role, online
/// flag, link, unchoked peers, optimistic slot, rechoke count — then its
/// source records, a varint count and per record its id's gap, a presence
/// byte and the values the byte flags.
fn member(f: &mut Fields) -> MemberBytes {
    let id = f.fixed::<NodeId>();
    let bitfield_at = f.at();
    let bitfield = f.get();
    f.skip::<(MemberRole, bool, LinkProfile)>();
    f.skip::<(Vec<NodeId>, Option<NodeId>, u32)>();
    let count = f.varint();
    let mut next = 0;
    let records = (0..count.value)
        .map(|_| {
            let gap = f.varint();
            let id = gap_id(&gap, &mut next);
            let presence = f.fixed::<u8>();
            if presence.value & 1 != 0 {
                f.varint();
                f.skip::<f64>();
            }
            if presence.value & 2 != 0 {
                f.varint();
            }
            if presence.value & 4 != 0 {
                f.skip::<f64>();
            }
            (gap, id, presence)
        })
        .collect();
    MemberBytes {
        id,
        bitfield_at,
        bitfield,
        count,
        records,
    }
}

/// One row of the ledger: the uploader's gap and id, the row length, and
/// per entry the downloader's gap and id and the KiB.
struct LedgerRow {
    from: (Field, u32),
    len: Field,
    entries: Vec<(Field, u32, Field)>,
}

/// The `net` section, field by field: the `NetConfig` and the peer
/// profiles; the swarm count, then per swarm its runner — the `SwarmSim`
/// (spec, member count, the members, next rechoke), its coin and its
/// seeding budgets; the online flags; the ledger, all varints — the
/// uploader count, per uploader its gap and row length, per entry the
/// downloader's gap and the KiB — and the completions.
struct NetBytes {
    swarm_count: Field,
    /// From the first runner's first byte to one past the last's.
    runners: Range<usize>,
    /// Per swarm: its spec and its members.
    swarms: Vec<(SwarmSpec, Vec<MemberBytes>)>,
    ledger_count: Field,
    ledger: Vec<LedgerRow>,
}

impl NetBytes {
    fn of(ckpt: &Sections) -> NetBytes {
        let mut f = ckpt.fields("net", 0);
        f.skip::<(NetConfig, Arc<Vec<PeerProfile>>)>();
        let swarm_count = f.fixed::<usize>();
        let first = f.at();
        let swarms = (0..swarm_count.value)
            .map(|_| {
                let spec = f.get();
                let members = f.fixed::<usize>();
                let members = (0..members.value).map(|_| member(&mut f)).collect();
                f.skip::<(SimTime, DetRng, BTreeMap<NodeId, SimDuration>)>();
                (spec, members)
            })
            .collect();
        let runners = first..f.at();
        f.skip::<Vec<bool>>();
        let ledger_count = f.varint();
        let mut next_from = 0;
        let ledger = (0..ledger_count.value)
            .map(|_| {
                let gap = f.varint();
                let from = gap_id(&gap, &mut next_from);
                let len = f.varint();
                let mut next_to = 0;
                let entries = (0..len.value)
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
        f.skip::<Vec<Completion>>();
        f.done();
        NetBytes {
            swarm_count,
            runners,
            swarms,
            ledger_count,
            ledger,
        }
    }

    /// A runner as `net` holds one: `sim`, a coin and no seeding budget.
    fn runner(sim: SwarmSim) -> Vec<u8> {
        let budgets = BTreeMap::<NodeId, SimDuration>::new();
        rvs_checkpoint::to_bytes(&(sim, DetRng::new(1), budgets))
    }

    fn members(&self) -> impl Iterator<Item = &MemberBytes> {
        self.swarms.iter().flat_map(|(_, members)| members)
    }
}

#[test]
fn bitfields_no_member_can_hold_are_corrupt() {
    // A member mid-download over a length that is not whole words: its
    // bitfield is the shape byte 2, the length, and the words.
    let net = NetBytes::of(base());
    let partial = net.members().find(|m| {
        let bf = &m.bitfield;
        bf.count() > 0 && !bf.is_complete() && bf.len() % 64 != 0
    });
    let m = partial.expect("a member part of the way through a file");
    let mut f = base().fields("net", m.bitfield_at);
    let (shape, len) = (f.fixed::<u8>(), m.bitfield.len());
    assert_eq!((shape.value, f.varint().value), (2, u64::from(len)));
    let words: Vec<Field> = (0..len.div_ceil(64)).map(|_| f.fixed::<u64>()).collect();
    let with_words = |word: &dyn Fn(usize) -> u64, what: &str| {
        let edits = words.iter().enumerate().map(|(w, field)| field.to(word(w)));
        base().refuses("net", edits, what);
    };
    base().refuses("net", [shape.to(3)], "Bitfield: shape byte 3");
    // A partial bitfield that holds no piece, or every piece.
    with_words(&|_| 0, &format!("Bitfield: partial with 0 of {len} pieces"));
    let all = |w: usize| match (w + 1 == words.len(), len % 64) {
        (true, tail) => (1u64 << tail) - 1,
        _ => u64::MAX,
    };
    with_words(
        &all,
        &format!("Bitfield: partial with {len} of {len} pieces"),
    );
    // A piece past the end of the file in the last word.
    let last = words.last().expect("words");
    let beyond = last.to(last.value | 1 << 63);
    base().refuses("net", [beyond], "Bitfield: bits set beyond its length");
}

#[test]
fn swarm_members_out_of_order_or_duplicated_are_corrupt() {
    let net = NetBytes::of(base());
    let swarm = net.swarms.iter().max_by_key(|(_, members)| members.len());
    let (_, members) = swarm.expect("the trace has swarms");
    assert!(members.len() >= 2, "two members to put out of order");
    // The second member's id twice, then the first member behind the second.
    let (first, second) = (&members[0].id, members[1].id.value);
    for id in [second, second + 1] {
        base().refuses("net", [first.to(id)], "ids must ascend");
    }
}

#[test]
fn swarms_that_would_build_more_than_the_blob_pays_for_are_corrupt() {
    let net = NetBytes::of(base());
    // A swarm with no member over a file of 2¹⁸ pieces is some 100 bytes
    // here and more than 1 MiB of availability once restored; a thousand
    // of them would be a GiB.
    let spec = SwarmSpec {
        file_size_mib: 1 << 16,
        piece_size_kib: 256,
        ..net.swarms[0].0
    };
    let runner = NetBytes::runner(SwarmSim::new(spec));
    let runners = 1000;
    assert!(runner.len() < 128, "{} bytes a swarm", runner.len());
    let swarms = [
        net.swarm_count.to(runners as u64),
        (net.runners, runner.repeat(runners)),
    ];
    for what in ["SwarmSim: ", "left to allot"] {
        base().refuses("net", swarms.clone(), what);
    }
}

#[test]
fn per_source_entries_out_of_order_or_duplicated_are_corrupt() {
    // Two source records in a row, the first past id 0 so that an id below
    // it exists. Ids are gaps, so the second can only be written out of
    // order — or as the first again — as a gap that carries it past `u32`.
    let net = NetBytes::of(base());
    let pair = net.members().find_map(|m| {
        let pair = m.records.windows(2).find(|w| w[0].1 > 0)?;
        Some((pair[0].1, &pair[1].0))
    });
    let (first, second) = pair.expect("a member with two sources");
    for id in [first, first - 1] {
        let edit = second.to(gap_to(first, id));
        base().refuses("net", [edit], "Member: source id overflows u32");
    }
}

#[test]
fn source_records_no_member_keeps_are_corrupt() {
    let net = NetBytes::of(base());
    let m = net.members().find(|m| !m.records.is_empty());
    let m = m.expect("a member with a source");
    let (_, id, presence) = &m.records[0];
    // A record that keeps nothing, and one that claims a fourth value.
    for byte in [0, 8] {
        let what = format!("Member: source n{id} has presence byte {byte}");
        base().refuses("net", [presence.to(byte)], &what);
    }
    let what = "Member: 1099511627776 source records claimed";
    base().refuses("net", [m.count.to(1 << 40)], what);
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

/// The `bartercast` section, field by field: the `BarterCastConfig`, then
/// varints — the record table (the source count, per source its gap and
/// target count, per target its gap, value count and values), then the
/// graph count and, per graph, its entry count and the entries' table
/// indices as gaps — and the two counters.
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
    fn of(ckpt: &Sections) -> CastBytes {
        let mut f = ckpt.fields("bartercast", 0);
        f.skip::<rvs_bartercast::BarterCastConfig>();
        let sources = f.varint();
        let (mut source_fields, mut targets) = (Vec::new(), Vec::new());
        let mut next_from = 0;
        for _ in 0..sources.value {
            let gap = f.varint();
            let from = gap_id(&gap, &mut next_from);
            let count = f.varint();
            let mut next_to = 0;
            for _ in 0..count.value {
                let gap = f.varint();
                let to = gap_id(&gap, &mut next_to);
                let count = f.varint();
                let values = (0..count.value).map(|_| f.varint()).collect();
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
        let picks = (0..graphs.value)
            .map(|_| {
                let count = f.varint();
                let mut next = 0;
                let gaps = (0..count.value)
                    .map(|_| {
                        let gap = f.varint();
                        let at = next + gap.value;
                        next = at + 1;
                        (gap, at)
                    })
                    .collect();
                (count, gaps)
            })
            .collect();
        f.skip::<(SharedCounter, SharedCounter)>();
        f.done();
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
    let spliced = base().from(&cut(build(10, 6, 7), 4), "bartercast");
    let late = Checkpoint::from_bytes(spliced).expect("the spliced blob has a header");
    let early = Checkpoint::from_bytes(base().bytes.clone()).expect("the honest blob has one");
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
    let cast = CastBytes::of(base());
    let (first_gap, first, target_count) = &cast.source_fields[0];
    let target = &cast.targets[0];
    for (edit, what) in [
        (
            cast.sources.to(1 << 40),
            "BarterCast: 1099511627776 sources claimed",
        ),
        (target_count.to(0), "has no targets"),
        (target.count.to(0), "has no values"),
        (
            target.count.to(1 << 40),
            "BarterCast: 1099511627776 values of",
        ),
        (first_gap.to(1 << 32), "BarterCast: source id overflows u32"),
        (
            target.gap.to(1 << 32),
            "BarterCast: target id overflows u32",
        ),
        // A source's first target counts from −1 as the first source does,
        // so the source's gap spells the source as a target.
        (target.gap.to(u64::from(*first)), "BarterCast: self-loop"),
        (
            cast.graphs.to(1 << 40),
            "BarterCast: 1099511627776 graphs claimed",
        ),
        (
            cast.picks[0].0.to(1 << 40),
            "BarterCast: 1099511627776 entries of the graph of node 0 claimed",
        ),
    ] {
        base().refuses("bartercast", [edit], what);
    }
    // Values are gaps: the only way a run can fail to ascend is a gap that
    // carries it past `u64`.
    let run = cast.targets.iter().find(|t| t.values.len() >= 2);
    let run = run.expect("an edge with two weights in the table");
    let what = format!(
        "BarterCast: the values of n{} -> n{} pass u64",
        run.from, run.to
    );
    base().refuses("bartercast", [run.values[1].to(u64::MAX)], &what);
    // The same weight spelled one byte longer than it needs.
    let value = &target.values[0];
    let mut padded = varint(value.value);
    *padded.last_mut().expect("a varint has a byte") |= 0x80;
    padded.push(0);
    let padded = (value.at.clone(), padded);
    base().refuses("bartercast", [padded], "varint is not minimal");
}

#[test]
fn graphs_holding_records_no_population_holds_are_corrupt() {
    let cast = CastBytes::of(base());
    let records = cast.edges();
    let (node, (_, picks)) = cast
        .picks
        .iter()
        .enumerate()
        .find(|(_, (_, picks))| picks.len() >= 2)
        .expect("a graph of two entries");
    let refuses = |edits: Vec<Edit>, what: &str| base().refuses("bartercast", edits, what);
    // An index past the table, and a gap past `u64`.
    let (last_gap, last) = picks.last().expect("entries");
    let past = records.len() as u64 - last + last_gap.value;
    refuses(
        vec![last_gap.to(past)],
        &format!(
            "BarterCast: the graph of node {node} holds record {}",
            records.len()
        ),
    );
    refuses(
        vec![picks[1].0.to(u64::MAX)],
        &format!("BarterCast: the graph of node {node}: index gap overflows u64"),
    );
    // A record no graph holds: one more source past the last, with one
    // target and one value, appended to the table.
    let (_, last_source, _) = cast.source_fields.last().expect("a source");
    let spare = [0, 1, 0, 1, 7].map(varint).concat();
    refuses(
        vec![
            cast.sources.to(cast.sources.value + 1),
            (cast.table_end..cast.table_end, spare),
        ],
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
    let (gap, at) = &picks[k];
    let (from, to) = records[*at as usize];
    // `at + 1` right after `at` is a gap of 0; the entry after it, if any,
    // is one closer.
    let after = gap.at.end;
    let mut edits = vec![count.to(count.value + 1), (after..after, varint(0))];
    edits.extend(picks.get(k + 1).map(|(gap, _)| gap.to(gap.value - 1)));
    refuses(
        edits,
        &format!("BarterCast: the graph of node {node} holds two records of n{from} -> n{to}"),
    );
}

/// A fault-plane event as `faults` holds it. The event type is private to
/// the scenario, so this steps over its encoding — a discriminant, then the
/// variant's fields — by their types.
struct FaultEventBytes;

impl Persist for FaultEventBytes {
    fn persist(&self, _: &mut Encoder) {
        unreachable!("only read");
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => <(u64, (NodeId, NodeId), (u32, bool))>::restore(dec).map(|_| ()),
            1 => <(NodeId, NodeId, u32)>::restore(dec).map(|_| ()),
            2 | 3 => usize::restore(dec).map(|_| ()),
            _ => NodeId::restore(dec).map(|_| ()),
        }?;
        Ok(FaultEventBytes)
    }
}

/// The dedup windows of a `faults` section, per node its length and its
/// ids' gaps. The section is the `FaultPlane`, the event engine, the
/// message-id counters, the windows — a node count, then per node a
/// varint length and the ids as varint gaps — and the VoxPopuli backoff
/// states and decliner windows.
fn dedup_windows(ckpt: &Sections) -> Vec<(Field, Vec<Field>)> {
    let mut f = ckpt.fields("faults", 0);
    f.skip::<(FaultPlane, Engine<FaultEventBytes>)>();
    f.skip::<(u64, u64, u64)>();
    let nodes = f.fixed::<usize>();
    let windows = (0..nodes.value)
        .map(|_| {
            let len = f.varint();
            let gaps = (0..len.value).map(|_| f.varint()).collect();
            (len, gaps)
        })
        .collect();
    f.skip::<(Vec<Backoff>, Vec<BTreeSet<NodeId>>)>();
    f.done();
    windows
}

#[test]
fn dedup_window_ids_out_of_order_or_duplicated_are_corrupt() {
    use robust_vote_sampling::faults::FaultConfig;
    // Scheduled delivery is what fills the windows.
    let schedule = FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            ..FaultConfig::default()
        },
        ..FaultSchedule::default()
    };
    let quick = VoteSamplingConfig::quick(10, SimDuration::from_hours(6));
    let honest = cut(quick.system(7, schedule).0, 3);
    let windows = dedup_windows(&honest);
    let k = windows.iter().position(|(_, gaps)| gaps.len() >= 2);
    let k = k.expect("a window of two ids");
    let (len, gaps) = &windows[k];
    let first = gaps[0].value;
    // The first id again in the second place, then the one below it: ids
    // are gaps, so each is a gap that carries it past `u64`.
    let what = format!("dedup window of node {k}: id gap overflows u64");
    for id in [first, first.wrapping_sub(1)] {
        let wrapped = id.wrapping_sub(first + 1);
        honest.refuses("faults", [gaps[1].to(wrapped)], &what);
    }
    // A length the bytes left cannot hold.
    let what = format!("dedup window of node {k}: 1099511627776 ids claimed");
    honest.refuses("faults", [len.to(1 << 40)], &what);
}

/// A run cut just past its gossip round at 3 h, whose copies are still
/// queued: delivery takes 5 s.
fn queued() -> Sections {
    use robust_vote_sampling::faults::FaultConfig;
    let schedule = FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            ..FaultConfig::default()
        },
        ..FaultSchedule::default()
    };
    let quick = VoteSamplingConfig::quick(10, SimDuration::from_hours(6));
    let mut system = quick.system(7, schedule).0;
    let end = SimTime::from_hours(3) + SimDuration::from_millis(1);
    system.run_until(end, SimDuration::from_hours(1), |_, _| {});
    Sections::of(system.checkpoint())
}

/// The queued deliveries of a `faults` section, per copy its sender,
/// receiver and primary flag, and the in-flight count written after the
/// queue. The event engine is a clock, a processed count and the queue: a
/// sequence counter, an entry count, per entry a time, a sequence number
/// and the event; then come the next message id and the in-flight count.
fn fault_queue(ckpt: &Sections) -> (Vec<[Field; 3]>, Field) {
    let mut f = ckpt.fields("faults", 0);
    f.skip::<(FaultPlane, (SimTime, u64, u64))>();
    let entries = f.fixed::<usize>().value;
    let mut deliveries = Vec::new();
    for _ in 0..entries {
        f.skip::<(SimTime, u64)>();
        match f.fixed::<u8>().value {
            0 => {
                f.skip::<u64>();
                let (from, to) = (f.fixed::<NodeId>(), f.fixed::<NodeId>());
                f.skip::<u32>();
                deliveries.push([from, to, f.fixed::<bool>()]);
            }
            1 => f.skip::<(NodeId, NodeId, u32)>(),
            2 | 3 => f.skip::<usize>(),
            _ => f.skip::<NodeId>(),
        }
    }
    f.skip::<u64>();
    let in_flight = f.fixed::<u64>();
    assert!(!deliveries.is_empty(), "no delivery queued at the cut");
    (deliveries, in_flight)
}

#[test]
fn a_queued_delivery_naming_a_node_outside_the_population_is_corrupt() {
    let ckpt = queued();
    let (deliveries, _) = fault_queue(&ckpt);
    let [from, to, _] = &deliveries[0];
    for end in [from, to] {
        let what = "names a node outside the 10 nodes";
        ckpt.refuses("faults", [end.to(50_000)], what);
    }
}

#[test]
fn inbox_gauges_other_than_the_queued_copies_are_corrupt() {
    // A copy readdressed to a third node: the gauges still count it at its
    // first receiver.
    let ckpt = queued();
    let (deliveries, _) = fault_queue(&ckpt);
    let [from, to, _] = &deliveries[0];
    let third = (0..).find(|n| ![from.value, to.value].contains(n));
    let what = "inbox gauge of node";
    ckpt.refuses("faults", [to.to(third.expect("a third node"))], what);
}

#[test]
fn an_in_flight_count_other_than_the_queued_primaries_is_corrupt() {
    let ckpt = queued();
    let (deliveries, in_flight) = fault_queue(&ckpt);
    let primaries = deliveries.iter().filter(|[.., p]| p.value == 1).count();
    assert_eq!(in_flight.value, primaries as u64);
    // A count that took in none of the queued primaries.
    let what = format!("0 deliveries in flight with {primaries} primaries queued");
    ckpt.refuses("faults", [in_flight.to(0)], &what);
}

#[test]
fn a_voter_outside_the_population_is_corrupt() {
    // `setup`: the moderators, then the voters — a count, and per voter its
    // id, the moderator voted on and the vote.
    let mut f = base().fields("setup", 0);
    f.skip::<Vec<ModeratorSpec>>();
    assert!(f.fixed::<usize>().value > 0, "a cast with voters");
    let voter = f.fixed::<NodeId>();
    let what = "voter n50000 is outside the 10 nodes";
    base().refuses("setup", [voter.to(50_000)], what);
}

#[test]
fn ledger_rows_no_credit_books_are_corrupt() {
    // The transpose and every total are rebuilt, not read.
    let net = NetBytes::of(base());
    let row = net.ledger.iter().find(|r| r.entries.len() >= 2);
    let row = row.expect("an uploader with two downloaders");
    let (first_kib, second_kib) = (&row.entries[0].2, &row.entries[1].2);
    // An empty row: its length 0 and its entries cut.
    let end = row.entries.last().expect("entries").2.at.end;
    let (at, zero) = row.len.to(0);
    let empty = (at.start..end, zero);
    // Weights whose sum does not fit a `u64`.
    let huge = vec![first_kib.to(u64::MAX), second_kib.to(u64::MAX)];
    for (edits, what) in [
        (vec![empty], "TransferLedger: empty row"),
        (huge, "TransferLedger: the KiB sum overflows u64"),
        // An uploader past `u32`, and counts the bytes left cannot hold.
        (
            vec![row.from.0.to(1 << 32)],
            "TransferLedger: uploader id overflows u32",
        ),
        (
            vec![net.ledger_count.to(1 << 40)],
            "TransferLedger: 1099511627776 rows claimed",
        ),
        (
            vec![row.len.to(1 << 40)],
            "TransferLedger: row of 1099511627776 entries claimed",
        ),
    ] {
        base().refuses("net", edits, what);
    }
}

#[test]
fn ledger_entries_out_of_order_zero_or_looped_are_corrupt() {
    let net = NetBytes::of(base());
    // Two downloaders in a row, the first past id 0 so that an id below it
    // exists. Ids are gaps, so the second can only be written out of order
    // — or as the first again — as a gap that carries it past `u32`.
    let pair = net.ledger.iter().find_map(|r| {
        let pair = r.entries.windows(2).find(|w| w[0].1 > 0)?;
        Some((pair[0].1, &pair[1].0))
    });
    let (first, second) = pair.expect("an uploader with two downloaders");
    for id in [first, first - 1] {
        let edit = second.to(gap_to(first, id));
        base().refuses("net", [edit], "TransferLedger: downloader id overflows u32");
    }
    // Entries no credit books: nothing moved, and a peer uploading to
    // itself — a row's first downloader counts from 0 as its uploader does,
    // so the uploader's gap spells the uploader.
    let row = &net.ledger[0];
    let (gap, _, kib) = &row.entries[0];
    base().refuses("net", [kib.to(0)], "TransferLedger: zero entry");
    let looped = gap.to(u64::from(row.from.1));
    base().refuses("net", [looped], "TransferLedger: self-edge");
}
