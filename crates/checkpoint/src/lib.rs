//! Versioned binary checkpoint encoding for the robust-vote-sampling
//! workspace.
//!
//! Long chaos and experiment runs (and the ROADMAP's production-scale
//! ambitions) need to survive process restarts: run to round R, write a
//! checkpoint, and later resume **byte-identically** to a run that never
//! stopped. That bar rules out `derive`-based serialization — the layout
//! would follow declaration order silently, and a reordered field would
//! still compile — so persistence here is explicit:
//!
//! * [`Persist`] — the trait each stateful type implements *in the owning
//!   crate*, next to the private fields it serializes. A type whose
//!   encoding is its fields in a fixed order states that order once, with
//!   [`persist_struct!`] (or [`persist_enum!`] for an enum): the
//!   one list expands to both `persist` and `restore`, so the halves
//!   cannot disagree, and the compiler rejects a list that forgets,
//!   misspells or repeats a field. Each field's wire width follows its
//!   declared type; the committed golden checkpoints pin those widths.
//!   Only a type whose halves genuinely differ implements the trait by
//!   hand — a `restore` that validates what it read, an encoder that
//!   first sorts into canonical order — and a
//!   resume differential over a state that holds the type is what checks
//!   it (DESIGN.md §12 names one per impl).
//! * [`Encoder`] / [`Decoder`] — little-endian primitive codecs with
//!   length-prefixed collections, `f64::to_bits` floats (bit-exact, no
//!   text roundtrip), and section [tags](Encoder::tag) that turn a
//!   misaligned decode into a diagnosable [`DecodeError::Corrupt`] instead
//!   of garbage state. Two codecs are not fixed-width: an unsigned LEB128
//!   [varint](Encoder::varint), minimal encodings only, which a
//!   hand-written impl may choose for small numbers, and the id
//!   [gap](Encoder::gap) built on it, which spells a strictly ascending
//!   run of ids as varint differences — the subjective graphs, the
//!   transfer ledger, a swarm member's per-source records and the dedup
//!   windows are written with them (DESIGN.md §12). No `Persist` impl in
//!   this crate uses either.
//! * [`DecodeError`] — decoding adversarial or damaged bytes must *never*
//!   panic (this crate's root denies the panic lints, DESIGN.md §9); every
//!   failure mode is a typed error. Memory a restore builds beyond what
//!   it reads is [allotted](Decoder::allot) from an allowance tied to the
//!   input's length, so forged lengths cannot make it exhaust memory.
//!
//! The file-level container is [`write_header`] / [`read_header`]: a magic
//! number plus [`FORMAT_VERSION`]. Any change to any `Persist`
//! implementation's field order or meaning MUST bump [`FORMAT_VERSION`]
//! and document the bump in DESIGN.md §12 (a CI cross-check enforces the
//! documentation half).

// DESIGN.md §9, `panic-surface`: this crate handles adversarial input, so
// outside tests a malformed message or an edge case degrades, never aborts.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Current checkpoint format version. Bump on ANY encoding change and
/// document the new layout in DESIGN.md §12.
pub const FORMAT_VERSION: u32 = 10;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"RVSCKPT\0";

/// A typed decoding failure. Decoding never panics: damaged, truncated,
/// or version-skewed input always surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a value could be read in full.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The bytes decoded but violate the format (bad magic, bad section
    /// tag, out-of-range discriminant, impossible length, ...).
    Corrupt(String),
    /// The checkpoint was written by a different format version.
    WrongVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Decoding finished but unread bytes remain — the payload is from a
    /// richer (or misframed) encoding.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => write!(
                f,
                "checkpoint truncated: needed {needed} bytes, {remaining} remaining"
            ),
            DecodeError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            DecodeError::WrongVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} not supported (this build reads version \
                 {supported}); regenerate with `rvs ckpt regen` or use a matching build"
            ),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "checkpoint has {remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Stable, versioned binary persistence with explicit field order.
///
/// Contract (checked by the workspace roundtrip property tests):
/// `restore(persist(x)) == x` and re-encoding the restored value yields
/// byte-identical output. `restore` must never panic on arbitrary input.
pub trait Persist: Sized {
    /// Append this value's canonical encoding to `enc`.
    fn persist(&self, enc: &mut Encoder);
    /// Read one value back, consuming exactly the bytes `persist` wrote.
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Implement [`Persist`] for a struct from one list of its fields:
/// `persist` writes them in the listed order, `restore` reads them back in
/// the same order into the struct literal. The list *is* the layout — any
/// change to it is a format change and bumps [`FORMAT_VERSION`]. A tuple
/// struct lists its fields by index.
///
/// ```
/// struct Window { start: u64, open: bool, seen: Vec<u32> }
/// rvs_checkpoint::persist_struct!(Window { start, open, seen });
///
/// let w = Window { start: 7, open: true, seen: vec![1, 2] };
/// let bytes = rvs_checkpoint::to_bytes(&w);
/// let back: Window = rvs_checkpoint::from_bytes(&bytes).unwrap();
/// assert_eq!((back.start, back.open, back.seen), (7, true, vec![1, 2]));
/// ```
///
/// The list must name every field exactly once — a forgotten field is a
/// compile error, not a silently shorter checkpoint:
///
/// ```compile_fail
/// struct Window { start: u64, open: bool }
/// rvs_checkpoint::persist_struct!(Window { start });
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::Persist for $ty {
            fn persist(&self, enc: &mut $crate::Encoder) {
                $( $crate::Persist::persist(&self.$field, enc); )+
            }

            fn restore(dec: &mut $crate::Decoder<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($ty { $( $field: $crate::Persist::restore(dec)?, )+ })
            }
        }
    };
}

/// Implement [`Persist`] for an enum from one `Variant = byte` table: a
/// `u8` discriminant, then the variant's fields in declaration order. A
/// variant with fields lists them as its pattern does — `Named { a, b }`
/// by field name, `Tuple(x, y)` with one binding per field. An unlisted
/// variant or field does not compile; an unlisted byte restores as
/// [`DecodeError::Corrupt`].
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Role { Leecher, Seeder }
/// rvs_checkpoint::persist_enum!(Role { Leecher = 0, Seeder = 1 });
///
/// assert_eq!(rvs_checkpoint::to_bytes(&Role::Seeder), [1]);
/// assert_eq!(rvs_checkpoint::from_bytes::<Role>(&[0]), Ok(Role::Leecher));
/// assert!(rvs_checkpoint::from_bytes::<Role>(&[2]).is_err());
///
/// #[derive(Debug, PartialEq)]
/// enum Event { Tick, Move { to: u32, hops: u8 }, Crash(u32) }
/// rvs_checkpoint::persist_enum!(Event { Tick = 0, Move { to, hops } = 1, Crash(node) = 2 });
///
/// let moved = Event::Move { to: 7, hops: 2 };
/// assert_eq!(rvs_checkpoint::to_bytes(&moved), [1, 7, 0, 0, 0, 2]);
/// assert_eq!(rvs_checkpoint::from_bytes::<Event>(&[2, 9, 0, 0, 0]), Ok(Event::Crash(9)));
/// ```
///
/// ```compile_fail
/// enum Event { Move { to: u32, hops: u8 } }
/// rvs_checkpoint::persist_enum!(Event { Move { to } = 0 });
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident { $(
        $variant:ident $( ( $($tf:ident),+ $(,)? ) )? $( { $($nf:ident),+ $(,)? } )? = $byte:literal
    ),+ $(,)? }) => {
        impl $crate::Persist for $ty {
            fn persist(&self, enc: &mut $crate::Encoder) {
                match self {
                    $( $ty::$variant $( ( $($tf),+ ) )? $( { $($nf),+ } )? => {
                        enc.u8($byte);
                        $( $( $crate::Persist::persist($tf, enc); )+ )?
                        $( $( $crate::Persist::persist($nf, enc); )+ )?
                    } )+
                }
            }

            fn restore(dec: &mut $crate::Decoder<'_>) -> Result<Self, $crate::DecodeError> {
                match dec.u8()? {
                    $( $byte => {
                        $( $( let $tf = $crate::Persist::restore(dec)?; )+ )?
                        $( $( let $nf = $crate::Persist::restore(dec)?; )+ )?
                        Ok($ty::$variant $( ( $($tf),+ ) )? $( { $($nf),+ } )?)
                    } )+
                    d => Err($crate::DecodeError::Corrupt(format!(
                        concat!("invalid ", stringify!($ty), " discriminant {}"),
                        d
                    ))),
                }
            }
        }
    };
}

/// Appends little-endian primitives and [`Persist`] values to a byte
/// buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
    sections: Vec<(String, usize)>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an unsigned LEB128 varint: seven bits per byte, low group
    /// first, the high bit set on every byte but the last — 1 byte below
    /// 2⁷, 10 for `u64::MAX`. For counts, gaps and weights that are mostly
    /// small; a full-entropy word is shorter as [`u64`](Encoder::u64).
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append `id` as a [varint](Encoder::varint) gap past `next`, the
    /// least id a strictly ascending run still allows (0 before its first
    /// id), and move `next` past `id`: the gap is `id − previous − 1`. A
    /// run written this way cannot spell an id out of order or twice;
    /// [`Decoder::gap`] reads it back. Ids stay below `u64::MAX`, so the
    /// cursor past the last one fits.
    pub fn gap(&mut self, next: &mut u64, id: u64) {
        debug_assert!(
            *next <= id && id < u64::MAX,
            "gap ids ascend below u64::MAX"
        );
        self.varint(id.wrapping_sub(*next));
        *next = id.wrapping_add(1);
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append raw bytes with no length prefix (caller frames them).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.raw(s.as_bytes());
    }

    /// Append a short section tag marking the start of a named region.
    /// [`Decoder::tag`] verifies it, turning any framing drift into a
    /// [`DecodeError::Corrupt`] naming the expected section.
    pub fn tag(&mut self, name: &str) {
        debug_assert!(name.len() <= u8::MAX as usize, "section tag too long");
        self.sections.push((name.to_string(), self.buf.len()));
        self.u8(name.len() as u8);
        self.raw(name.as_bytes());
    }

    /// Every section written so far, in order: the [`tag`](Encoder::tag)
    /// name and the offset its tag starts at. A section runs to the next
    /// one's offset (the last to the end), which is what lets
    /// `rvs ckpt diff` name the first section two blobs disagree in.
    pub fn sections(&self) -> &[(String, usize)] {
        &self.sections
    }

    /// Append any [`Persist`] value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        v.persist(self);
    }
}

/// Reads values back out of a byte slice, tracking position and surfacing
/// every failure as a [`DecodeError`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Bytes [`allot`](Decoder::allot) may still hand out.
    allowance: usize,
}

/// Bytes of memory every decode may [allot](Decoder::allot), whatever
/// its input's length.
pub const ALLOT_FLOOR: usize = 4 << 20;

/// Bytes of memory a decode may [allot](Decoder::allot) per byte of its
/// input, on top of [`ALLOT_FLOOR`].
pub const ALLOT_PER_BYTE: usize = 16;

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start, with an allowance of
    /// [`ALLOT_FLOOR`] plus [`ALLOT_PER_BYTE`] bytes per byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            allowance: buf
                .len()
                .saturating_mul(ALLOT_PER_BYTE)
                .saturating_add(ALLOT_FLOOR),
        }
    }

    /// Draw `bytes` from the decode's allowance before building memory the
    /// input does not spell out byte for byte — a bitfield rebuilt from
    /// its shape, availability counted from the members. What one restore
    /// builds this way is then bounded by its input's length, however the
    /// lengths inside were forged; a draw past the allowance is `Corrupt`,
    /// with `what` in front.
    pub fn allot(&mut self, bytes: usize, what: &str) -> Result<(), DecodeError> {
        match self.allowance.checked_sub(bytes) {
            Some(left) => {
                self.allowance = left;
                Ok(())
            }
            None => Err(DecodeError::Corrupt(format!(
                "{what}: {bytes} bytes to build, {} left to allot",
                self.allowance
            ))),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a `usize` (stored as `u64`), rejecting values that cannot fit.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Corrupt(format!("usize {v} overflows")))
    }

    /// Read a varint written by [`Encoder::varint`]. Only the minimal
    /// encoding is accepted, so encode → decode → encode stays
    /// byte-identical: a last byte of 0 after the first (padding) and a
    /// 10th byte above 1 (past 64 bits) are `Corrupt`, and input that ends
    /// inside the varint is `Truncated`.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(DecodeError::Corrupt("varint is not minimal".into()));
                }
                return Ok(v);
            }
        }
        // The 10th byte is at most 1, so it always ends the varint.
        Err(DecodeError::Corrupt("varint overflows u64".into()))
    }

    /// Read an id written by [`Encoder::gap`] and move `next` past it. A
    /// gap that carries the id to `u64::MAX` or beyond is `Corrupt`: the
    /// cursor past it would not fit. Ids that are `u32` are read by
    /// [`gap_u32`](Decoder::gap_u32).
    pub fn gap(&mut self, next: &mut u64) -> Result<u64, DecodeError> {
        let id = next
            .checked_add(self.varint()?)
            .filter(|&id| id < u64::MAX)
            .ok_or_else(|| DecodeError::Corrupt("id gap overflows u64".into()))?;
        *next = id + 1;
        Ok(id)
    }

    /// Read a `u32` id written by [`Encoder::gap`] and move `next` past
    /// it. An id past `u32` — a gap past `u64` too — is `Corrupt` as
    /// "`{what}` id overflows u32", so `what`, the caller's type and the
    /// id's role, names the refusal.
    pub fn gap_u32(&mut self, next: &mut u64, what: &str) -> Result<u32, DecodeError> {
        let id = next
            .checked_add(self.varint()?)
            .and_then(|id| u32::try_from(id).ok())
            .ok_or_else(|| DecodeError::Corrupt(format!("{what} id overflows u32")))?;
        *next = u64::from(id) + 1;
        Ok(id)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Read a collection length, rejecting lengths that exceed the bytes
    /// remaining (every element costs at least one byte, so a larger claim
    /// is either corruption or a denial-of-service attempt).
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(DecodeError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.seq_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Corrupt("invalid UTF-8 in string".to_string()))
    }

    /// Verify a section tag written by [`Encoder::tag`].
    pub fn tag(&mut self, expected: &str) -> Result<(), DecodeError> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        if bytes != expected.as_bytes() {
            let found = String::from_utf8_lossy(bytes).into_owned();
            return Err(DecodeError::Corrupt(format!(
                "expected section `{expected}`, found `{found}`"
            )));
        }
        Ok(())
    }

    /// Read any [`Persist`] value.
    pub fn get<T: Persist>(&mut self) -> Result<T, DecodeError> {
        T::restore(self)
    }

    /// Assert the input is fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Write the checkpoint file header: magic bytes plus [`FORMAT_VERSION`].
pub fn write_header(enc: &mut Encoder) {
    enc.raw(&MAGIC);
    enc.u32(FORMAT_VERSION);
}

/// Read and validate the checkpoint file header, returning the version
/// (always [`FORMAT_VERSION`] on success).
pub fn read_header(dec: &mut Decoder<'_>) -> Result<u32, DecodeError> {
    let magic = dec.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(DecodeError::Corrupt("bad magic bytes".to_string()));
    }
    let version = dec.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::WrongVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(version)
}

/// Peek a checkpoint header's version without requiring it to match
/// [`FORMAT_VERSION`] (for `rvs ckpt inspect` on foreign files).
pub fn peek_version(bytes: &[u8]) -> Result<u32, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(DecodeError::Corrupt("bad magic bytes".to_string()));
    }
    dec.u32()
}

// ---------------------------------------------------------------------------
// Persist implementations for primitives and std containers
// ---------------------------------------------------------------------------

macro_rules! persist_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl Persist for $t {
            fn persist(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$get()
            }
        }
    };
}

persist_prim!(u8, u8, u8);
persist_prim!(u32, u32, u32);
persist_prim!(u64, u64, u64);
persist_prim!(usize, usize, usize);
persist_prim!(bool, bool, bool);
persist_prim!(f64, f64, f64);

impl Persist for String {
    fn persist(&self, enc: &mut Encoder) {
        enc.str(self);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.str()
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, enc: &mut Encoder) {
        self.0.persist(enc);
        self.1.persist(enc);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::restore(dec)?, B::restore(dec)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn persist(&self, enc: &mut Encoder) {
        self.0.persist(enc);
        self.1.persist(enc);
        self.2.persist(enc);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::restore(dec)?, B::restore(dec)?, C::restore(dec)?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.persist(enc);
            }
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(dec)?)),
            other => Err(DecodeError::Corrupt(format!("Option discriminant {other}"))),
        }
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn persist(&self, enc: &mut Encoder) {
        for v in self {
            v.persist(enc);
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::restore(dec)?);
        }
        items
            .try_into()
            .map_err(|_| DecodeError::Corrupt("array length".to_string()))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for v in self {
            v.persist(enc);
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(dec)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        // Front-to-back: insertion order is semantic for bounded caches.
        for v in self {
            v.persist(enc);
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.seq_len()?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::restore(dec)?);
        }
        Ok(out)
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        // BTreeMap iterates in ascending key order: canonical by nature.
        for (k, v) in self {
            k.persist(enc);
            v.persist(enc);
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.seq_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::restore(dec)?;
            let v = V::restore(dec)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn persist(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for v in self {
            v.persist(enc);
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.seq_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::restore(dec)?);
        }
        Ok(out)
    }
}

/// Shared immutable state is written through the pointer and comes back
/// unshared: sharing is an optimization, not semantics.
impl<T: Persist> Persist for Arc<T> {
    fn persist(&self, enc: &mut Encoder) {
        (**self).persist(enc);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(T::restore(dec)?))
    }
}

/// Encode `value` as a standalone byte vector (no file header).
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.persist(&mut enc);
    enc.into_bytes()
}

/// Decode a standalone value written by [`to_bytes`], requiring the input
/// to be consumed exactly.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let v = T::restore(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(&back, v);
        assert_eq!(to_bytes(&back), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u8::MAX);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&1.5f64);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&-0.0f64);
        roundtrip(&"héllo".to_string());
        roundtrip(&String::new());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_bytes(&v);
        let back: f64 = from_bytes(&bytes).expect("decode");
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&(1u32, "x".to_string()));
        roundtrip(&(1u32, 2u64, false));
        roundtrip(&[1u64, 2, 3, 4]);
        let map: BTreeMap<u32, String> = [(1, "a".into()), (9, "b".into())].into();
        roundtrip(&map);
        let set: BTreeSet<u64> = [3, 1, 4].into();
        roundtrip(&set);
        let dq: VecDeque<u32> = [5, 6, 7].into_iter().collect();
        roundtrip(&dq);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Mixed {
        a: u8,
        b: u32,
        c: u64,
        d: usize,
        e: bool,
        f: f64,
        g: Option<u32>,
        h: Vec<u64>,
        i: BTreeMap<u32, String>,
    }

    /// What `Mixed` would have been written as before the macro existed.
    #[derive(Debug, PartialEq)]
    struct ByHand(Mixed);

    impl Persist for ByHand {
        fn persist(&self, enc: &mut Encoder) {
            enc.u8(self.0.a);
            enc.u32(self.0.b);
            enc.u64(self.0.c);
            enc.usize(self.0.d);
            enc.bool(self.0.e);
            enc.f64(self.0.f);
            self.0.g.persist(enc);
            self.0.h.persist(enc);
            self.0.i.persist(enc);
        }
        fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            Ok(ByHand(Mixed {
                a: dec.u8()?,
                b: dec.u32()?,
                c: dec.u64()?,
                d: dec.usize()?,
                e: dec.bool()?,
                f: dec.f64()?,
                g: Option::restore(dec)?,
                h: Vec::restore(dec)?,
                i: BTreeMap::restore(dec)?,
            }))
        }
    }

    persist_struct!(Mixed {
        a,
        b,
        c,
        d,
        e,
        f,
        g,
        h,
        i
    });

    #[test]
    fn persist_struct_writes_what_the_hand_written_impl_wrote() {
        let v = Mixed {
            a: 7,
            b: 0xDEAD_BEEF,
            c: u64::MAX - 1,
            d: 12_345,
            e: true,
            f: -0.0,
            g: Some(9),
            h: vec![1, 2, 3],
            i: [(1, "a".into()), (9, "b".into())].into(),
        };
        let bytes = to_bytes(&v);
        assert_eq!(bytes, to_bytes(&ByHand(v.clone())));
        // Field for field, through either impl.
        roundtrip(&v);
        assert_eq!(from_bytes::<ByHand>(&bytes), Ok(ByHand(v)));
    }

    #[test]
    fn persist_struct_takes_tuple_fields_by_index() {
        #[derive(Debug, PartialEq)]
        struct Millis(u64);
        persist_struct!(Millis { 0 });
        roundtrip(&Millis(86_400_000));
        assert_eq!(to_bytes(&Millis(5)), to_bytes(&5u64));
    }

    #[test]
    fn shared_values_persist_as_their_contents() {
        let inner = vec![3u32, 1, 4];
        roundtrip(&Arc::new(inner.clone()));
        assert_eq!(to_bytes(&Arc::new(inner.clone())), to_bytes(&inner));
    }

    #[test]
    fn sections_record_where_each_tag_starts() {
        let mut enc = Encoder::new();
        enc.u64(1);
        enc.tag("net");
        enc.u32(2);
        enc.tag("pss");
        assert_eq!(
            enc.sections(),
            [("net".to_string(), 8), ("pss".to_string(), 8 + 4 + 4)]
        );
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let mut enc = Encoder::new();
        write_header(&mut enc);
        enc.tag("demo");
        enc.put(&vec![(1u64, "abc".to_string()), (2, "def".to_string())]);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let result = read_header(&mut dec)
                .and_then(|_| dec.tag("demo"))
                .and_then(|()| Vec::<(u64, String)>::restore(&mut dec));
            assert!(result.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut enc = Encoder::new();
        enc.raw(&MAGIC);
        enc.u32(FORMAT_VERSION + 41);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            read_header(&mut dec),
            Err(DecodeError::WrongVersion {
                found: FORMAT_VERSION + 41,
                supported: FORMAT_VERSION,
            })
        );
        assert_eq!(peek_version(&bytes), Ok(FORMAT_VERSION + 41));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let bytes = b"NOTCKPT\0\x01\0\0\0".to_vec();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            read_header(&mut dec),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&42u64);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u64>(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        // Claims 2^60 elements with 0 bytes of backing data.
        let mut enc = Encoder::new();
        enc.u64(1 << 60);
        let bytes = enc.into_bytes();
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
    }

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.varint(v);
        enc.into_bytes()
    }

    fn read_varint(bytes: &[u8]) -> Result<u64, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let v = dec.varint()?;
        dec.finish()?;
        Ok(v)
    }

    #[test]
    fn varint_round_trips_at_every_width_boundary() {
        // A varint of w bytes holds 7·w bits: 2^(7w) − 1 is the last value
        // of width w and 2^(7w) the first of width w + 1.
        assert_eq!(varint_bytes(0), [0]);
        for width in 1..10 {
            let first_wider = 1u64 << (7 * width);
            for (v, len) in [(first_wider - 1, width), (first_wider, width + 1)] {
                let bytes = varint_bytes(v);
                assert_eq!(bytes.len(), len as usize, "{v}");
                assert_eq!(read_varint(&bytes), Ok(v));
            }
        }
        assert_eq!(varint_bytes(127), [0x7F]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(1 << 63).len(), 10);
        let max = varint_bytes(u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(max[9], 1);
        assert_eq!(read_varint(&max), Ok(u64::MAX));
    }

    #[test]
    fn non_minimal_and_oversized_varints_are_corrupt() {
        // 0 padded with a continuation byte, and 128 padded the same way.
        for padded in [&[0x80, 0x00][..], &[0x80, 0x81, 0x00]] {
            assert_eq!(
                read_varint(padded),
                Err(DecodeError::Corrupt("varint is not minimal".into()))
            );
        }
        // Ten bytes whose last carries bits past 64, with or without a
        // continuation bit of its own.
        for last in [0x02, 0x7F, 0x80, 0xFF] {
            let mut wide = vec![0xFF; 9];
            wide.push(last);
            wide.push(0x00);
            assert_eq!(
                read_varint(&wide),
                Err(DecodeError::Corrupt("varint overflows u64".into()))
            );
        }
    }

    #[test]
    fn a_varint_cut_short_is_truncated() {
        for v in [128, 1 << 40, u64::MAX] {
            let bytes = varint_bytes(v);
            for cut in 0..bytes.len() {
                assert_eq!(
                    read_varint(&bytes[..cut]),
                    Err(DecodeError::Truncated {
                        needed: 1,
                        remaining: 0
                    }),
                    "{v} cut to {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn gaps_spell_an_ascending_run_and_nothing_past_u64() {
        let run = [0, 1, 5, 1 << 40, u64::MAX - 1];
        let mut enc = Encoder::new();
        let mut next = 0;
        for id in run {
            enc.gap(&mut next, id);
        }
        let bytes = enc.into_bytes();
        // 0 and 1 follow their predecessors directly: gaps of zero.
        assert_eq!(bytes[..2], [0, 0]);
        let mut dec = Decoder::new(&bytes);
        let mut next = 0;
        for id in run {
            assert_eq!(dec.gap(&mut next), Ok(id));
        }
        assert_eq!(dec.remaining(), 0);
        // After `u64::MAX − 1` every gap reaches `u64::MAX` or beyond.
        let mut next = u64::MAX - 1;
        for gap in [1, 2, u64::MAX] {
            let bytes = varint_bytes(gap);
            assert_eq!(
                Decoder::new(&bytes).gap(&mut next),
                Err(DecodeError::Corrupt("id gap overflows u64".into()))
            );
        }
    }

    #[test]
    fn narrow_gaps_name_the_caller_past_u32() {
        let mut enc = Encoder::new();
        let mut next = 0;
        for id in [3, u64::from(u32::MAX)] {
            enc.gap(&mut next, id);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut next = 0;
        assert_eq!(dec.gap_u32(&mut next, "T: x"), Ok(3));
        assert_eq!(dec.gap_u32(&mut next, "T: x"), Ok(u32::MAX));
        assert_eq!(next, 1 << 32);
        let refused = Err(DecodeError::Corrupt("T: x id overflows u32".into()));
        for (from, gap) in [(0, 1 << 32), (1 << 32, 0), (u64::MAX - 1, u64::MAX)] {
            let bytes = varint_bytes(gap);
            assert_eq!(Decoder::new(&bytes).gap_u32(&mut { from }, "T: x"), refused);
        }
    }

    #[test]
    fn allotments_draw_on_an_allowance_the_input_pays_for() {
        let bytes = [0u8; 3];
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.allot(ALLOT_FLOOR, "T"), Ok(()));
        assert_eq!(dec.allot(3 * ALLOT_PER_BYTE - 1, "T"), Ok(()));
        assert_eq!(dec.allot(1, "T"), Ok(()));
        assert_eq!(dec.allot(0, "T"), Ok(()));
        assert_eq!(
            dec.allot(1, "T"),
            Err(DecodeError::Corrupt(
                "T: 1 bytes to build, 0 left to allot".into()
            ))
        );
        let mut empty = Decoder::new(&[]);
        assert!(empty.allot(ALLOT_FLOOR + 1, "T").is_err());
        assert_eq!(empty.allot(ALLOT_FLOOR, "T"), Ok(()));
    }

    #[test]
    fn tag_mismatch_names_sections() {
        let mut enc = Encoder::new();
        enc.tag("net");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let err = dec.tag("pss").expect_err("tag mismatch");
        assert!(matches!(&err, DecodeError::Corrupt(m) if m.contains("pss") && m.contains("net")));
    }

    #[test]
    fn invalid_discriminants_are_corrupt() {
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(DecodeError::Corrupt(_))
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_errors_render() {
        for e in [
            DecodeError::Truncated {
                needed: 8,
                remaining: 3,
            },
            DecodeError::Corrupt("x".into()),
            DecodeError::WrongVersion {
                found: 2,
                supported: 1,
            },
            DecodeError::TrailingBytes { remaining: 5 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
