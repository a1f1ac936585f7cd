//! Piece possession bitmaps.

use std::fmt;

/// A fixed-size bitmap recording which pieces of a file a peer holds.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitfield {
    words: Vec<u64>,
    len: u32,
    count: u32,
}

impl Bitfield {
    /// An empty bitfield over `len` pieces.
    pub fn empty(len: u32) -> Self {
        Bitfield {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// A complete bitfield (all `len` pieces present) — a seeder's map.
    pub fn full(len: u32) -> Self {
        let mut bf = Bitfield::empty(len);
        for w in bf.words.iter_mut() {
            *w = u64::MAX;
        }
        // Mask off the bits beyond `len` in the last word.
        let tail = (len % 64) as u64;
        if tail != 0 {
            if let Some(last) = bf.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        bf.count = len;
        bf
    }

    /// Total number of pieces in the file.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the file has zero pieces (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces currently held.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True when all pieces are held.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.count == self.len
    }

    /// Completion ratio in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.count as f64 / self.len as f64
        }
    }

    /// Does the peer hold piece `i`?
    #[inline]
    pub fn has(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Mark piece `i` as held. Returns `true` when this was new.
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// The backing words, 64 pieces each; bits beyond `len` are zero.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate over the indices of pieces present in `other` but missing
    /// here — the pieces this peer could request from `other`.
    pub fn missing_from<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = u32> + 'a {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(other.words.iter())
            .enumerate()
            .flat_map(|(wi, (mine, theirs))| {
                let mut bits = !mine & theirs;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        Some(wi as u32 * 64 + b)
                    }
                })
            })
            .filter(move |&i| i < self.len)
    }

    /// True when `other` holds at least one piece this peer lacks — i.e.
    /// this peer is *interested* in `other` (BitTorrent interest rule).
    /// The counts settle most pairs: a complete peer wants nothing, an
    /// empty one offers nothing, and a peer holding more pieces than this
    /// one must hold one it lacks. Only the rest compare words (bits past
    /// `len` are zero on both sides).
    pub fn interested_in(&self, other: &Bitfield) -> bool {
        debug_assert_eq!(self.len, other.len);
        if self.is_complete() || other.count == 0 {
            return false;
        }
        other.count > self.count
            || self
                .words
                .iter()
                .zip(&other.words)
                .any(|(mine, theirs)| !mine & theirs != 0)
    }

    /// Iterate over all held piece indices.
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

/// The most pieces a restored bitfield may span: 2²¹, the ceiling
/// libtorrent puts on a torrent. A checkpoint is outside input and an
/// empty or full bitfield is a few bytes whatever its length, so this
/// bounds what one of them may ask for (256 KiB); the decoder's
/// [allowance](rvs_checkpoint::Decoder::allot) bounds what all of them
/// ask for together.
pub(crate) const MAX_PIECES: u32 = 1 << 21;

/// The shape byte of an encoded bitfield: no piece, every piece, or some.
const EMPTY: u8 = 0;
const FULL: u8 = 1;
const PARTIAL: u8 = 2;

fn corrupt<T>(what: String) -> Result<T, rvs_checkpoint::DecodeError> {
    Err(rvs_checkpoint::DecodeError::Corrupt(format!(
        "Bitfield: {what}"
    )))
}

/// Stable binary encoding: a shape byte — empty, full or partial — and
/// the length as a [varint](rvs_checkpoint::Encoder::varint); only a
/// partial bitfield then writes its words, with no length prefix, since
/// the length fixes their number. The count is the popcount and is not
/// written. A bitfield of length 0 is empty. Restore takes only what
/// persist writes: a known shape, a length of at most [`MAX_PIECES`]
/// (and above 0 when full), words the bytes left can hold, no bit past
/// the length, and a partial popcount strictly between 0 and the length.
/// The words of an empty or full bitfield are
/// [allotted](rvs_checkpoint::Decoder::allot) before they are built.
impl rvs_checkpoint::Persist for Bitfield {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        let shape = match self.count {
            0 => EMPTY,
            c if c == self.len => FULL,
            _ => PARTIAL,
        };
        enc.u8(shape);
        enc.varint(u64::from(self.len));
        if shape == PARTIAL {
            self.words.iter().for_each(|&w| enc.u64(w));
        }
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let shape = dec.u8()?;
        let len = dec.varint()?;
        let len = match u32::try_from(len) {
            Ok(len) if len <= MAX_PIECES => len,
            _ => return corrupt(format!("length {len} is past {MAX_PIECES} pieces")),
        };
        let n = (len as usize).div_ceil(64);
        match shape {
            EMPTY => {
                dec.allot(n * 8, "Bitfield")?;
                Ok(Bitfield::empty(len))
            }
            FULL if len > 0 => {
                dec.allot(n * 8, "Bitfield")?;
                Ok(Bitfield::full(len))
            }
            PARTIAL => {
                if n * 8 > dec.remaining() {
                    return corrupt(format!(
                        "{n} words claimed with {} bytes left",
                        dec.remaining()
                    ));
                }
                let words = (0..n).map(|_| dec.u64()).collect::<Result<Vec<_>, _>>()?;
                let tail = len % 64;
                if tail != 0 && words.last().is_some_and(|&w| w >> tail != 0) {
                    return corrupt("bits set beyond its length".to_string());
                }
                let count: u32 = words.iter().map(|w| w.count_ones()).sum();
                if count == 0 || count == len {
                    return corrupt(format!("partial with {count} of {len} pieces"));
                }
                Ok(Bitfield { words, len, count })
            }
            _ => corrupt(format!("shape byte {shape} for length {len}")),
        }
    }
}

impl fmt::Debug for Bitfield {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitfield({}/{})", self.count, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvs_checkpoint::{DecodeError, Encoder};

    #[test]
    fn empty_has_nothing() {
        let bf = Bitfield::empty(130);
        assert_eq!(bf.count(), 0);
        assert!(!bf.is_complete());
        assert_eq!(bf.progress(), 0.0);
        for i in 0..130 {
            assert!(!bf.has(i));
        }
    }

    #[test]
    fn full_has_everything_and_no_phantom_bits() {
        let bf = Bitfield::full(130);
        assert_eq!(bf.count(), 130);
        assert!(bf.is_complete());
        assert_eq!(bf.ones().count(), 130);
        assert_eq!(bf.ones().max(), Some(129));
    }

    #[test]
    fn full_word_aligned() {
        let bf = Bitfield::full(128);
        assert_eq!(bf.count(), 128);
        assert_eq!(bf.ones().count(), 128);
    }

    #[test]
    fn set_is_idempotent() {
        let mut bf = Bitfield::empty(10);
        assert!(bf.set(3));
        assert!(!bf.set(3));
        assert_eq!(bf.count(), 1);
        assert!(bf.has(3));
    }

    #[test]
    fn setting_all_completes() {
        let mut bf = Bitfield::empty(65);
        for i in 0..65 {
            bf.set(i);
        }
        assert!(bf.is_complete());
        assert_eq!(bf.progress(), 1.0);
    }

    #[test]
    fn missing_from_finds_only_gaps() {
        let mut a = Bitfield::empty(100);
        let mut b = Bitfield::empty(100);
        a.set(1);
        a.set(70);
        b.set(1); // both have
        b.set(2); // only b
        b.set(99); // only b
        let missing: Vec<u32> = a.missing_from(&b).collect();
        assert_eq!(missing, vec![2, 99]);
    }

    #[test]
    fn interest_rule() {
        let mut a = Bitfield::empty(10);
        let mut b = Bitfield::empty(10);
        assert!(!a.interested_in(&b));
        b.set(4);
        assert!(a.interested_in(&b));
        a.set(4);
        assert!(!a.interested_in(&b));
    }

    #[test]
    fn seeder_not_interested_in_anyone() {
        let seeder = Bitfield::full(50);
        let leecher = Bitfield::empty(50);
        assert!(!seeder.interested_in(&leecher));
        assert!(leecher.interested_in(&seeder));
    }

    #[test]
    fn zero_length_is_degenerate_complete() {
        let bf = Bitfield::empty(0);
        assert!(bf.is_empty());
        assert!(bf.is_complete());
        assert_eq!(bf.progress(), 1.0);
    }

    /// Restore of `shape`, `len` and `words` written as persist would.
    fn restored(shape: u8, len: u64, words: &[u64]) -> Result<Bitfield, DecodeError> {
        let mut enc = Encoder::new();
        enc.u8(shape);
        enc.varint(len);
        words.iter().for_each(|&w| enc.u64(w));
        rvs_checkpoint::from_bytes(&enc.into_bytes())
    }

    #[test]
    fn shapes_write_only_the_words_of_a_partial_bitfield() {
        assert_eq!(rvs_checkpoint::to_bytes(&Bitfield::empty(130)), [0, 130, 1]);
        assert_eq!(rvs_checkpoint::to_bytes(&Bitfield::full(130)), [1, 130, 1]);
        assert_eq!(rvs_checkpoint::to_bytes(&Bitfield::full(0)), [0, 0]);
        let mut some = Bitfield::empty(70);
        some.set(3);
        some.set(69);
        let bytes = rvs_checkpoint::to_bytes(&some);
        assert_eq!(bytes[..2], [2, 70]);
        assert_eq!(bytes.len(), 2 + 2 * 8);
        let back: Bitfield = rvs_checkpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!((back.count(), back), (2, some));
    }

    #[test]
    fn restore_refuses_what_persist_never_writes() {
        let refused = |shape, len, words: &[u64]| match restored(shape, len, words) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert_eq!(refused(3, 8, &[]), "Bitfield: shape byte 3 for length 8");
        assert_eq!(refused(1, 0, &[]), "Bitfield: shape byte 1 for length 0");
        assert_eq!(refused(2, 8, &[0]), "Bitfield: partial with 0 of 8 pieces");
        assert_eq!(
            refused(2, 8, &[0xFF]),
            "Bitfield: partial with 8 of 8 pieces"
        );
        assert_eq!(
            refused(2, 8, &[0x100 | 1]),
            "Bitfield: bits set beyond its length"
        );
        assert_eq!(
            refused(2, 130, &[1, 0]),
            "Bitfield: 3 words claimed with 16 bytes left"
        );
        let past = u64::from(MAX_PIECES) + 1;
        assert_eq!(
            refused(0, past, &[]),
            format!("Bitfield: length {past} is past {MAX_PIECES} pieces")
        );
        assert!(refused(1, 1 << 32, &[]).contains("length 4294967296 is past"));
        // The longest length is a length: full over all of it.
        let full = restored(1, u64::from(MAX_PIECES), &[]).expect("full");
        assert!(full.is_complete() && full.len() == MAX_PIECES);
    }

    #[test]
    fn empty_bitfields_together_build_no_more_than_the_input_allows() {
        // Five bytes each, 256 KiB each once restored: 4,096 would be a GiB.
        let mut enc = Encoder::new();
        enc.usize(4096);
        for _ in 0..4096 {
            enc.u8(EMPTY);
            enc.varint(u64::from(MAX_PIECES));
        }
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 8 + 4096 * 5);
        match rvs_checkpoint::from_bytes::<Vec<Bitfield>>(&bytes) {
            Err(DecodeError::Corrupt(msg)) => {
                assert!(msg.starts_with("Bitfield: 262144 bytes to build"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Lengths of every kind: none, a partial last word, whole words.
    fn arb_len() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..200, (1u32..5).prop_map(|words| 64 * words)]
    }

    proptest! {
        /// Every shape — empty, full, partial, over lengths that are and
        /// are not multiples of 64 — round-trips byte-identically.
        #[test]
        fn every_shape_round_trips_byte_identically(
            len in arb_len(),
            shape in 0u8..3,
            picks in prop::collection::vec(any::<u32>(), 0..40),
        ) {
            let mut bf = match shape {
                1 => Bitfield::full(len),
                _ => Bitfield::empty(len),
            };
            if shape == 2 && len > 0 {
                for p in picks {
                    bf.set(p % len);
                }
            }
            let bytes = rvs_checkpoint::to_bytes(&bf);
            let back: Bitfield = rvs_checkpoint::from_bytes(&bytes)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back.count(), bf.ones().count() as u32);
            prop_assert_eq!(rvs_checkpoint::to_bytes(&back), bytes);
            prop_assert_eq!(back, bf);
        }
    }

    #[test]
    fn debug_format() {
        let mut bf = Bitfield::empty(8);
        bf.set(0);
        assert_eq!(format!("{bf:?}"), "Bitfield(1/8)");
    }
}
