//! A tiny, dependency-free binary codec for durable on-disk state.
//!
//! Everything written to disk by the workspace that must survive a
//! crash goes through this crate: a little-endian [`Wire`] codec whose
//! decoder ([`Dec`]) is bounds-checked and never panics on hostile
//! bytes, plus a versioned, checksummed [`envelope`] that rejects any
//! truncation or bit-flip before a single payload byte is interpreted.
//! The crate also owns the workspace's one FNV-1a byte hasher
//! ([`Fnv1a`]): the envelope and journal checksums, the checkpoint
//! config fingerprint and the campaign fingerprint all use it.
//!
//! The durable-structure correctness criterion (after any crash,
//! recovery observes a fully-applied record or none of it — never a
//! corrupt result served as truth) is only as strong as the decode
//! path, so the decoder's contract is strict: every read is
//! length-checked, every length field is validated against the bytes
//! actually present, and [`from_bytes`] rejects trailing garbage.

use std::collections::BinaryHeap;

pub mod envelope;

/// Incremental 64-bit FNV-1a.
///
/// The per-byte step (xor, then multiply by the odd FNV prime) is a
/// bijection on `u64`, so any single-byte substitution anywhere in the
/// input changes the digest — the property the [`envelope`] checksum
/// and the corruption test matrix rely on. Feeding the input in pieces
/// gives the same digest as one [`fnv1a`] call over their
/// concatenation.
#[derive(Copy, Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes into the running hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// 64-bit FNV-1a over `bytes`: the one-shot form of [`Fnv1a`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// Decode failure: the bytes do not describe a value of the requested
/// type. Always a clean error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field held a value outside its type's domain.
    Invalid(&'static str),
    /// Decoding finished with bytes left over.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remaining")
            }
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encode buffer. All integers are little-endian.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string: its length as a `u64`,
    /// then the bytes verbatim. [`Dec::take_blob`] reads it back.
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Consumes the encoder and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked cursor over untrusted bytes. Every read either
/// returns a value or a [`WireError`]; no input can make it panic.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Takes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Takes a length-prefixed byte string written by
    /// [`Enc::put_blob`], borrowed from the input. A length beyond the
    /// bytes present is an error, never an allocation.
    pub fn take_blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.take_u64()?)
            .map_err(|_| WireError::Invalid("blob length overflow"))?;
        self.take(len)
    }

    /// Asserts the buffer is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

/// A type with a canonical little-endian binary form.
///
/// `enc` must be deterministic and canonical (equal values encode to
/// equal bytes); `dec` must accept exactly what `enc` produces and
/// reject everything else with a [`WireError`], never a panic.
pub trait Wire: Sized {
    /// Appends this value's encoding to `e`.
    fn enc(&self, e: &mut Enc);
    /// Decodes one value from the cursor.
    fn dec(d: &mut Dec) -> Result<Self, WireError>;
}

/// Encodes `v` to a standalone byte vector.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.into_bytes()
}

/// Decodes exactly one `T` from `bytes`, rejecting trailing garbage.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

impl Wire for u8 {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.take_u8()
    }
}

impl Wire for u16 {
    fn enc(&self, e: &mut Enc) {
        e.put_u16(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.take_u16()
    }
}

impl Wire for u32 {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.take_u32()
    }
}

impl Wire for u64 {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.take_u64()
    }
}

impl Wire for i16 {
    fn enc(&self, e: &mut Enc) {
        e.put_u16(*self as u16);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(d.take_u16()? as i16)
    }
}

// usize travels as u64 so the encoding is identical across platforms.
impl Wire for usize {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(*self as u64);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        usize::try_from(d.take_u64()?).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for bool {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(*self as u8);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

// A string travels as a length-prefixed blob of its UTF-8 bytes.
impl Wire for String {
    fn enc(&self, e: &mut Enc) {
        e.put_blob(self.as_bytes());
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        std::str::from_utf8(d.take_blob()?)
            .map(str::to_owned)
            .map_err(|_| WireError::Invalid("string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let len =
            usize::try_from(d.take_u64()?).map_err(|_| WireError::Invalid("vec len overflow"))?;
        // A hostile length cannot force an allocation larger than the
        // bytes actually present: every element consumes at least one.
        let mut out = Vec::with_capacity(len.min(d.remaining()));
        for _ in 0..len {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn enc(&self, e: &mut Enc) {
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::dec(d)?);
        }
        out.try_into()
            .map_err(|_| WireError::Invalid("array length"))
    }
}

// Canonical form: sorted ascending. `into_sorted_vec` makes equal heaps
// (same elements, different internal layout) encode identically.
impl<T: Wire + Ord + Clone> Wire for BinaryHeap<T> {
    fn enc(&self, e: &mut Enc) {
        self.clone().into_sorted_vec().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(BinaryHeap::from(Vec::<T>::dec(d)?))
    }
}

/// Derives [`Wire`] for a struct from its field list, in declaration
/// order. Expand it in the module that defines the struct so private
/// fields are reachable:
///
/// ```
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// nosq_wire::wire_struct!(Point { x, y });
/// let p = Point { x: 3, y: 9 };
/// let q: Point = nosq_wire::from_bytes(&nosq_wire::to_bytes(&p)).unwrap();
/// assert_eq!((q.x, q.y), (3, 9));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn enc(&self, e: &mut $crate::Enc) {
                $( $crate::Wire::enc(&self.$field, e); )+
            }
            fn dec(d: &mut $crate::Dec) -> Result<Self, $crate::WireError> {
                Ok(Self { $( $field: $crate::Wire::dec(d)? ),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u64,
        b: Option<u32>,
        c: Vec<u16>,
        d: [bool; 3],
        e: (usize, i16),
    }
    wire_struct!(Sample { a, b, c, d, e });

    fn sample() -> Sample {
        Sample {
            a: 0xdead_beef_0042,
            b: Some(7),
            c: vec![1, 2, 3],
            d: [true, false, true],
            e: (99, -3),
        }
    }

    #[test]
    fn roundtrip_struct() {
        let bytes = to_bytes(&sample());
        let back: Sample = from_bytes(&bytes).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<Sample>(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert_eq!(from_bytes::<Sample>(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_vec_length_cannot_overallocate() {
        let mut e = Enc::new();
        e.put_u64(u64::MAX); // claims 2^64-1 elements
        let err = from_bytes::<Vec<u8>>(&e.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated { .. } | WireError::Invalid(_)
        ));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9, 0]).is_err());
    }

    #[test]
    fn binary_heap_is_canonical() {
        let mut h1 = BinaryHeap::new();
        let mut h2 = BinaryHeap::new();
        for v in [5u64, 1, 9, 3] {
            h1.push(v);
        }
        for v in [9u64, 3, 5, 1] {
            h2.push(v);
        }
        assert_eq!(to_bytes(&h1), to_bytes(&h2));
        let back: BinaryHeap<u64> = from_bytes(&to_bytes(&h1)).unwrap();
        assert_eq!(back.into_sorted_vec(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn blobs_and_strings_roundtrip() {
        let mut e = Enc::new();
        e.put_blob(&[1, 2, 3]);
        e.put_blob(&[]);
        "h\u{e9}llo".to_owned().enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_blob().unwrap(), &[1, 2, 3]);
        assert_eq!(d.take_blob().unwrap(), &[] as &[u8]);
        assert_eq!(String::dec(&mut d).unwrap(), "h\u{e9}llo");
        d.finish().unwrap();
    }

    #[test]
    fn hostile_blob_length_is_rejected() {
        for len in [4u64, u64::MAX] {
            let mut e = Enc::new();
            e.put_u64(len);
            e.put_bytes(&[0; 3]);
            let bytes = e.into_bytes();
            assert!(matches!(
                Dec::new(&bytes).take_blob(),
                Err(WireError::Truncated { .. } | WireError::Invalid(_))
            ));
        }
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut e = Enc::new();
        e.put_blob(&[0xff, 0xfe]);
        assert_eq!(
            from_bytes::<String>(&e.into_bytes()),
            Err(WireError::Invalid("string is not UTF-8"))
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Feeding the input in pieces changes nothing.
        assert_eq!(
            Fnv1a::new()
                .update(b"foo")
                .update(b"")
                .update(b"bar")
                .finish(),
            fnv1a(b"foobar")
        );
    }

    #[test]
    fn fnv1a_single_byte_sensitivity() {
        let base = vec![0u8; 64];
        let h0 = fnv1a(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 1;
            assert_ne!(fnv1a(&m), h0, "flip at {i} not detected");
        }
    }
}
