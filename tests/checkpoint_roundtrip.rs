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
//! * so are blobs whose stored *derived* values disagree with what they
//!   are derived from: a swarm's availability counts against its members'
//!   bitfields, the ledger's transpose against its forward map;
//! * and whatever is found by binary search but not in strictly ascending
//!   order — a swarm's members, a member's per-source entries, the
//!   ledger's entries, a node's dedup window — or holds an entry the program never writes (a
//!   self-edge, a zero credit);
//! * a subjective graph's varint rows that no report can store: an empty
//!   row, a count past the bytes left, an id past `u32`, a self-loop, a
//!   varint spelled longer than it needs.

use proptest::prelude::*;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::{Checkpoint, ProtocolConfig, System, VoteSamplingConfig};
use rvs_checkpoint::DecodeError;
use rvs_sim::{SimDuration, SimTime};
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

#[test]
fn availability_counts_that_disagree_with_the_members_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let swarm = busiest_swarm(&system);
    assert!(swarm.member_count() > 0, "someone holds a piece");
    // A `SwarmSim` ends with its counts — a length and one `u32` per piece
    // — and the 8 bytes of its next rechoke.
    let pieces = swarm.spec().piece_count() as usize;
    let sim = rvs_checkpoint::to_bytes(swarm);
    let honest = base_bytes().to_vec();
    let counts_at = locate(&honest, &sim) + sim.len() - 8 - 4 * pieces;
    let len_at = counts_at - 8;
    assert_eq!(honest[len_at..counts_at], (pieces as u64).to_le_bytes());
    let count = |p: usize| {
        let at = counts_at + 4 * p;
        (
            at,
            u32::from_le_bytes(honest[at..at + 4].try_into().unwrap()),
        )
    };

    // One count decremented: restores today, wraps below zero on `leave`.
    let (at, held) = (0..pieces)
        .map(count)
        .find(|&(_, c)| c > 0)
        .expect("held piece");
    let mut low = honest.clone();
    low[at..at + 4].copy_from_slice(&(held - 1).to_le_bytes());
    assert_corrupt(&low, "is counted");

    // The vector shortened by its last entry.
    let mut short = honest.clone();
    short[len_at..counts_at].copy_from_slice(&(pieces as u64 - 1).to_le_bytes());
    short.drain(counts_at + 4 * (pieces - 1)..counts_at + 4 * pieces);
    assert_corrupt(&short, "availability counts for");
}

#[test]
fn swarm_members_out_of_order_or_duplicated_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let swarm = busiest_swarm(&system);
    let ids: Vec<rvs_sim::NodeId> = swarm.members().collect();
    assert!(ids.len() >= 2, "two members to put out of order");
    // A `SwarmSim` opens with its spec and its configuration; the members
    // follow as a length and, first of all, the first member's id.
    let sim = rvs_checkpoint::to_bytes(swarm);
    let honest = base_bytes().to_vec();
    let len_at = locate(&honest, &sim)
        + rvs_checkpoint::to_bytes(swarm.spec()).len()
        + rvs_checkpoint::to_bytes(&rvs_bittorrent::swarm::SwarmConfig::default()).len();
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
fn per_source_entries_out_of_order_or_duplicated_are_corrupt() {
    use rvs_bittorrent::swarm::{LinkProfile, MemberRole, SwarmConfig};
    use rvs_checkpoint::{Decoder, Persist};
    use rvs_sim::NodeId;
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let honest = base_bytes().to_vec();
    // Walk every member of every swarm up to its three per-source maps —
    // pieces in flight (12-byte values), window receipts and uncredited
    // fractions (8-byte values) — for one that holds two entries.
    let net = system.net();
    let two_entries = (0..net.swarm_count()).find_map(|i| {
        let swarm = net.swarm(rvs_sim::SwarmId::from_index(i));
        let sim = rvs_checkpoint::to_bytes(swarm);
        let members_at = rvs_checkpoint::to_bytes(swarm.spec()).len()
            + rvs_checkpoint::to_bytes(&SwarmConfig::default()).len();
        let mut dec = Decoder::new(&sim[members_at..]);
        for _ in 0..dec.usize().expect("member count") {
            NodeId::restore(&mut dec).expect("id");
            rvs_bittorrent::Bitfield::restore(&mut dec).expect("bitfield");
            MemberRole::restore(&mut dec).expect("role");
            bool::restore(&mut dec).expect("online");
            LinkProfile::restore(&mut dec).expect("link");
            Vec::<NodeId>::restore(&mut dec).expect("unchoked");
            Option::<NodeId>::restore(&mut dec).expect("optimistic");
            u32::restore(&mut dec).expect("rechokes");
            for value in [12, 8, 8] {
                let map_at = sim.len() - dec.remaining();
                let entries = dec.usize().expect("entry count");
                dec.take(entries * (4 + value)).expect("entries");
                if entries >= 2 {
                    return Some((locate(&honest, &sim) + map_at + 8, 4 + value));
                }
            }
        }
        None
    });
    let (first_at, entry) = two_entries.expect("a member with two sources");
    let id = |at: usize| u32::from_le_bytes(honest[at..at + 4].try_into().unwrap());
    assert!(id(first_at) < id(first_at + entry), "honest ids ascend");
    // The first entry's id again in the second, then the first two swapped.
    let mut twice = honest.clone();
    twice.copy_within(first_at..first_at + 4, first_at + entry);
    assert_corrupt(&twice, "per-source ids must ascend");
    let mut swapped = honest.clone();
    swapped.copy_within(first_at + entry..first_at + 2 * entry, first_at);
    swapped[first_at + entry..first_at + 2 * entry]
        .copy_from_slice(&honest[first_at..first_at + entry]);
    assert_corrupt(&swapped, "per-source ids must ascend");
}

#[test]
fn graph_rows_no_report_can_store_are_corrupt() {
    use rvs_checkpoint::{Decoder, Encoder};
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let bc = system.bartercast();
    let graph = (0..system.total_nodes())
        .map(|i| bc.graph(rvs_sim::NodeId::from_index(i)))
        .max_by_key(|graph| graph.edge_count())
        .expect("a population");
    assert!(graph.edge_count() > 0, "an edge to damage");
    // A graph is varints: the row count, then per row the source's gap
    // and the row length, then per entry the target's gap and the KiB.
    // Read the head of the first row back out of the graph's encoding, as
    // `(start, end, value)` in the checkpoint.
    let encoded = rvs_checkpoint::to_bytes(graph);
    let honest = base_bytes().to_vec();
    let at = locate(&honest, &encoded);
    let mut dec = Decoder::new(&encoded);
    let mut field = || {
        let start = at + encoded.len() - dec.remaining();
        let value = dec.varint().expect("honest varint");
        (start, at + encoded.len() - dec.remaining(), value)
    };
    let [count, source, len, target, kib] = [(); 5].map(|()| field());
    let varint = |v: u64| {
        let mut enc = Encoder::new();
        enc.varint(v);
        enc.into_bytes()
    };
    let with = |(start, end, _): (usize, usize, u64), bytes: &[u8]| {
        let mut crafted = honest[..start].to_vec();
        crafted.extend_from_slice(bytes);
        crafted.extend_from_slice(&honest[end..]);
        crafted
    };
    // The same weight, spelled one byte longer than it needs.
    let mut padded = varint(kib.2);
    *padded.last_mut().expect("a varint has a byte") |= 0x80;
    padded.push(0);
    let past_u32 = varint(1 << 32);
    for (crafted, what) in [
        (
            with(count, &varint(1 << 40)),
            "SubjectiveGraph: 1099511627776 rows claimed",
        ),
        (with(len, &varint(0)), "SubjectiveGraph: empty row"),
        (
            with(len, &varint(1 << 40)),
            "SubjectiveGraph: row of 1099511627776 entries claimed",
        ),
        (
            with(source, &past_u32),
            "SubjectiveGraph: source id overflows u32",
        ),
        (
            with(target, &past_u32),
            "SubjectiveGraph: target id overflows u32",
        ),
        // A row's first target counts from −1 as its first source does, so
        // the source's gap is the target's too.
        (
            with(target, &varint(source.2)),
            "SubjectiveGraph: self-loop",
        ),
        (with(kib, &padded), "varint is not minimal"),
    ] {
        assert_corrupt(&crafted, what);
    }
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
    // The windows are one vector of `(length, ids…)`, every number 8 bytes.
    let windows: Vec<Vec<u64>> = (0..system.total_nodes())
        .map(|i| system.dedup_window(NodeId::from_index(i)).collect())
        .collect();
    let k = windows.iter().position(|w| w.len() >= 2);
    let k = k.expect("a window of two ids");
    let first_at = locate(&honest, &rvs_checkpoint::to_bytes(&windows))
        + 8
        + windows[..k].iter().map(|w| 8 + 8 * w.len()).sum::<usize>()
        + 8;
    let id = |at: usize| u64::from_le_bytes(honest[at..at + 8].try_into().unwrap());
    assert_eq!(
        (id(first_at), id(first_at + 8)),
        (windows[k][0], windows[k][1])
    );
    let what = format!("dedup window of node {k}: ids must ascend");
    // The second id twice, then the first two swapped.
    let mut twice = honest.clone();
    twice.copy_within(first_at + 8..first_at + 16, first_at);
    assert_corrupt(&twice, &what);
    let mut swapped = twice;
    swapped[first_at + 8..first_at + 16].copy_from_slice(&honest[first_at..first_at + 8]);
    assert_corrupt(&swapped, &what);
}

#[test]
fn a_ledger_whose_transpose_disagrees_is_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let ledger = system.net().ledger();
    let rows = ledger.edge_count();
    assert!(rows > 0, "something was transferred");
    // Two maps of `rows` 16-byte entries behind a length each, then the total.
    let encoded = rvs_checkpoint::to_bytes(ledger);
    assert_eq!(encoded.len(), 2 * (8 + 16 * rows) + 8);
    let honest = base_bytes().to_vec();
    let incoming_at = locate(&honest, &encoded) + 8 + 16 * rows;
    let mut altered = honest.clone();
    altered[incoming_at + 8 + 8] ^= 1; // low byte of the first row's KiB
    assert_corrupt(&altered, "transpose");
    let mut total = honest;
    total[incoming_at + 8 + 16 * rows] ^= 1;
    assert_corrupt(&total, "sum");
}

#[test]
fn ledger_entries_out_of_order_zero_or_looped_are_corrupt() {
    let system = try_restore(base_bytes()).expect("the honest checkpoint restores");
    let ledger = system.net().ledger();
    assert!(ledger.edge_count() >= 2, "two entries to put out of order");
    // The forward map leads: a length and 16-byte `((from, to), kib)`
    // entries. The maps it used to be let the last of two equal keys win,
    // sorted the rest and carried a zero for ever.
    let encoded = rvs_checkpoint::to_bytes(ledger);
    let honest = base_bytes().to_vec();
    let first_at = locate(&honest, &encoded) + 8;
    // The first entry's key again in the second, then the first two swapped.
    let mut twice = honest.clone();
    twice.copy_within(first_at..first_at + 8, first_at + 16);
    assert_corrupt(&twice, "entries must ascend");
    let mut swapped = honest.clone();
    swapped.copy_within(first_at + 16..first_at + 32, first_at);
    swapped[first_at + 16..first_at + 32].copy_from_slice(&honest[first_at..first_at + 16]);
    assert_corrupt(&swapped, "entries must ascend");
    // Entries no credit books: nothing moved, and a peer uploading to itself.
    let mut zero = honest.clone();
    zero[first_at + 8..first_at + 16].fill(0);
    assert_corrupt(&zero, "zero entry");
    let mut looped = honest;
    looped.copy_within(first_at..first_at + 4, first_at + 4);
    assert_corrupt(&looped, "self-edge");
}
