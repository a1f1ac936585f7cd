//! Property-based proofs of the encoding contract:
//!
//! * encode → decode → encode is byte-identical (canonical encoding);
//! * decoding arbitrary, truncated, or bit-flipped bytes never panics —
//!   every failure is a typed [`DecodeError`];
//! * any blob that decodes cleanly re-encodes to a canonical fixed point
//!   (one normalization step, then byte-stable forever);
//! * the varint and id-gap codecs have one spelling per value: any value
//!   (any strictly ascending run of ids) round-trips, and whatever
//!   arbitrary bytes decode to re-encodes to exactly the bytes consumed.

use proptest::prelude::*;
use rvs_checkpoint::{
    from_bytes, peek_version, read_header, to_bytes, DecodeError, Decoder, Encoder, Persist,
    FORMAT_VERSION, MAGIC,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

fn assert_canonical<T: Persist + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = to_bytes(v);
    let back: T = from_bytes(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&back, v);
    prop_assert_eq!(to_bytes(&back), bytes);
    Ok(())
}

/// A composite value exercising every primitive and container codec.
type Composite = (
    Vec<(u64, String)>,
    (BTreeMap<u32, Vec<u8>>, BTreeSet<u64>, VecDeque<bool>),
    (Option<f64>, [u32; 3], usize),
);

/// Strings over the non-surrogate BMP: covers 1-, 2-, and 3-byte UTF-8.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(1u32..0xD800, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_composite() -> impl Strategy<Value = Composite> {
    let pairs = prop::collection::vec((0u64..u64::MAX, arb_string()), 0..8);
    let map = prop::collection::btree_map(0u32..1000, prop::collection::vec(0u8..255, 0..6), 0..6);
    let set = prop::collection::vec(0u64..u64::MAX, 0..8).prop_map(|v| v.into_iter().collect());
    let dq = prop::collection::vec(prop::bool::ANY, 0..8).prop_map(VecDeque::from);
    let opt = prop_oneof![
        Just(None),
        (0u64..u64::MAX).prop_map(|b| Some(f64::from_bits(b))),
    ];
    let arr = (0u32..99, 0u32..99, 0u32..99).prop_map(|(a, b, c)| [a, b, c]);
    (pairs, (map, set, dq), (opt, arr, 0usize..1_000_000))
}

/// Compare composites by f64 *bit pattern* (NaN-safe), everything else by Eq.
fn composite_key(c: &Composite) -> impl PartialEq + std::fmt::Debug {
    (
        c.0.clone(),
        c.1.clone(),
        (c.2 .0.map(f64::to_bits), c.2 .1, c.2 .2),
    )
}

/// Decode a framed blob (header + one tagged payload) exactly.
fn decode_framed(bytes: &[u8]) -> Result<Composite, DecodeError> {
    let mut dec = Decoder::new(bytes);
    read_header(&mut dec)?;
    dec.tag("payload")?;
    let v = Composite::restore(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

fn encode_framed(v: &Composite) -> Vec<u8> {
    let mut enc = Encoder::new();
    rvs_checkpoint::write_header(&mut enc);
    enc.tag("payload");
    enc.put(v);
    enc.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every composite value round-trips with byte-identical re-encoding.
    #[test]
    fn composite_roundtrip_is_canonical(v in arb_composite()) {
        let bytes = to_bytes(&v);
        let back: Composite = from_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(composite_key(&back), composite_key(&v));
        prop_assert_eq!(to_bytes(&back), bytes);
    }

    /// Simple values (no NaN subtleties) use the generic canonical check.
    #[test]
    fn container_roundtrip_is_canonical(
        v in prop::collection::vec((0u64..u64::MAX, arb_string()), 0..10),
        set in prop::collection::vec(0u32..u32::MAX, 0..10),
    ) {
        assert_canonical(&v)?;
        let set: BTreeSet<u32> = set.into_iter().collect();
        assert_canonical(&set)?;
    }

    /// Decoding a *truncated* valid encoding yields a typed error, never a
    /// panic and never a silently short value.
    #[test]
    fn truncation_always_errors(v in arb_composite(), frac in 0.0f64..1.0) {
        let bytes = to_bytes(&v);
        prop_assume!(!bytes.is_empty());
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        let result = from_bytes::<Composite>(&bytes[..cut]);
        prop_assert!(result.is_err(), "prefix of {} bytes decoded cleanly", cut);
    }

    /// Decoding arbitrary bytes never panics; on success the decoded value
    /// is canonical: re-encoding it reaches a byte-stable fixed point in
    /// one step. (The input itself may differ — e.g. a map encoded with
    /// unsorted keys decodes fine but re-encodes sorted.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        match from_bytes::<Composite>(&bytes) {
            Ok(v) => {
                let canon = to_bytes(&v);
                let v2: Composite = from_bytes(&canon)
                    .map_err(|e| TestCaseError::fail(format!("canonical re-decode failed: {e}")))?;
                prop_assert_eq!(composite_key(&v2), composite_key(&v));
                prop_assert_eq!(to_bytes(&v2), canon);
            }
            Err(
                DecodeError::Truncated { .. }
                | DecodeError::Corrupt(_)
                | DecodeError::TrailingBytes { .. },
            ) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// A bit-flip anywhere in a framed blob (header + tag + payload)
    /// either surfaces as a typed error or still decodes to a value whose
    /// canonical re-encoding is stable; it never panics.
    #[test]
    fn bit_flips_never_panic(v in arb_composite(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode_framed(&v);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(back) = decode_framed(&bytes) {
            let canon = encode_framed(&back);
            let again = decode_framed(&canon)
                .map_err(|e| TestCaseError::fail(format!("canonical re-decode failed: {e}")))?;
            prop_assert_eq!(composite_key(&again), composite_key(&back));
            prop_assert_eq!(encode_framed(&again), canon);
        }
    }

    /// Header checks: any version other than the supported one is a typed
    /// `WrongVersion` (strict read) while `peek_version` still reports it.
    #[test]
    fn version_skew_is_typed(version in 0u32..u32::MAX) {
        prop_assume!(version != FORMAT_VERSION);
        let mut enc = Encoder::new();
        enc.raw(&MAGIC);
        enc.u32(version);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(
            read_header(&mut dec),
            Err(DecodeError::WrongVersion { found: version, supported: FORMAT_VERSION })
        );
        prop_assert_eq!(peek_version(&bytes), Ok(version));
    }
}

/// Values spread over every varint width, not just the wide ones a uniform
/// `u64` almost always is.
fn arb_varint_value() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

// No explicit case count: `PROPTEST_CASES` sets the depth (CI runs 2000).
proptest! {
    /// Any `u64` round-trips through the varint codec, and the encoding is
    /// as long as its value needs: ⌈bits / 7⌉ bytes, at least one.
    #[test]
    fn varint_roundtrip_is_canonical(v in arb_varint_value()) {
        let mut enc = Encoder::new();
        enc.varint(v);
        let bytes = enc.into_bytes();
        let bits = 64 - v.leading_zeros();
        prop_assert_eq!(bytes.len() as u32, bits.div_ceil(7).max(1));
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.varint(), Ok(v));
        prop_assert_eq!(dec.remaining(), 0);
    }

    /// Arbitrary bytes either fail to decode as a varint, or decode to a
    /// value whose encoding is exactly the prefix consumed: no second
    /// spelling of any value is accepted.
    #[test]
    fn a_decoded_varint_reencodes_to_the_bytes_it_read(
        bytes in prop::collection::vec(0u8..=255, 0..12),
        high in prop::collection::vec(0x80u8..=255, 0..10),
    ) {
        // Runs of continuation bytes first, so long varints occur.
        let input: Vec<u8> = high.into_iter().chain(bytes).collect();
        let mut dec = Decoder::new(&input);
        match dec.varint() {
            Ok(v) => {
                let used = input.len() - dec.remaining();
                let mut enc = Encoder::new();
                enc.varint(v);
                prop_assert_eq!(enc.into_bytes(), input[..used].to_vec());
            }
            Err(DecodeError::Truncated { .. } | DecodeError::Corrupt(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }
}

/// Strictly ascending runs of ids below `u64::MAX`, their gaps spread over
/// every varint width; a gap that would reach `u64::MAX` ends the run.
fn arb_ascending_run() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(arb_varint_value(), 0..24).prop_map(|gaps| {
        let mut next = 0u64;
        let mut run = Vec::new();
        for gap in gaps {
            match next.checked_add(gap).filter(|&id| id < u64::MAX) {
                Some(id) => {
                    run.push(id);
                    next = id + 1;
                }
                None => break,
            }
        }
        run
    })
}

proptest! {
    /// Any strictly ascending run of ids below `u64::MAX` round-trips
    /// through the gap codec, each id in the varint of its gap.
    #[test]
    fn an_ascending_run_round_trips_through_gaps(run in arb_ascending_run()) {
        let mut enc = Encoder::new();
        let mut next = 0;
        for &id in &run {
            enc.gap(&mut next, id);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut next = 0;
        for &id in &run {
            prop_assert_eq!(dec.gap(&mut next), Ok(id));
        }
        prop_assert_eq!(dec.remaining(), 0);
    }

    /// Arbitrary bytes read as a run of gaps either fail, or decode to ids
    /// that strictly ascend and re-encode to exactly the prefix consumed:
    /// no run is spelled two ways, and none out of order.
    #[test]
    fn decoded_gaps_reencode_to_the_bytes_they_read(
        bytes in prop::collection::vec(0u8..=255, 0..40),
        high in prop::collection::vec(0x80u8..=255, 0..10),
    ) {
        let input: Vec<u8> = high.into_iter().chain(bytes).collect();
        let mut dec = Decoder::new(&input);
        let mut next = 0;
        let (mut run, mut used) = (Vec::new(), 0);
        while dec.remaining() > 0 {
            match dec.gap(&mut next) {
                Ok(id) => {
                    run.push(id);
                    used = input.len() - dec.remaining();
                }
                Err(DecodeError::Truncated { .. } | DecodeError::Corrupt(_)) => break,
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
        prop_assert!(run.windows(2).all(|w| w[0] < w[1]));
        let mut enc = Encoder::new();
        let mut next = 0;
        for &id in &run {
            enc.gap(&mut next, id);
        }
        prop_assert_eq!(enc.into_bytes(), input[..used].to_vec());
    }
}
