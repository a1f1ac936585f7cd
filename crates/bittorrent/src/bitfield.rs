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

/// Stable binary encoding: words, piece count, set-bit count. Restore
/// cross-validates word length, phantom bits, and the popcount so a corrupt
/// bitfield is rejected instead of breaking availability accounting.
impl rvs_checkpoint::Persist for Bitfield {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        self.words.persist(enc);
        enc.u32(self.len);
        enc.u32(self.count);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let words: Vec<u64> = Vec::restore(dec)?;
        let len = dec.u32()?;
        let count = dec.u32()?;
        if words.len() != (len as usize).div_ceil(64) {
            return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "Bitfield word count {} inconsistent with length {len}",
                words.len()
            )));
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return Err(rvs_checkpoint::DecodeError::Corrupt(
                        "Bitfield has bits set beyond its length".to_string(),
                    ));
                }
            }
        }
        let popcount: u32 = words.iter().map(|w| w.count_ones()).sum();
        if popcount != count {
            return Err(rvs_checkpoint::DecodeError::Corrupt(format!(
                "Bitfield count {count} does not match popcount {popcount}"
            )));
        }
        Ok(Bitfield { words, len, count })
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

    #[test]
    fn debug_format() {
        let mut bf = Bitfield::empty(8);
        bf.set(0);
        assert_eq!(format!("{bf:?}"), "Bitfield(1/8)");
    }
}
