//! A tiny little-endian byte codec and a stable content hash.
//!
//! Every persisted record — result records, DSE cell outcomes,
//! checkpoints and cache-tag snapshots — is serialized with this codec so
//! the workspace stays free of external serialization crates. The format
//! is deliberately dumb: fixed-width little-endian integers plus
//! length-prefixed byte runs. The framing rule is the same for every
//! record: an 8-byte magic and a `u32` version word
//! ([`ByteWriter::put_header`] / [`ByteReader::header`]), the fields, and
//! nothing after them ([`ByteReader::finish`]). Every malformation
//! surfaces as one [`DecodeError`].
//!
//! [`fnv1a64`] is the content hash used for content-addressed checkpoint
//! and result keys; [`Fnv1a64`] computes it over text as it is written.
//! Unlike [`crate::FibHasher`] (a hot-path map hasher with no
//! stability promise), FNV-1a here is a *format* commitment: the digest
//! of a given byte string must never change across releases, or every
//! stored checkpoint key would silently rot.

use core::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable FNV-1a 64-bit hash of a byte string.
///
/// ```
/// // The empty string hashes to the offset basis — a format constant.
/// assert_eq!(dda_stats::fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(dda_stats::fnv1a64(b"a"), dda_stats::fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a64`] as a streaming [`fmt::Write`] sink: text written into it
/// is hashed as it is produced, so a rendering can be fingerprinted
/// without ever being built. The digest of everything written equals
/// [`fnv1a64`] of the concatenated bytes, however the writes split it.
///
/// ```
/// use std::fmt::Write as _;
/// let mut h = dda_stats::Fnv1a64::new();
/// write!(h, "{}-{:04x}", "key", 42).unwrap();
/// assert_eq!(h.finish(), dda_stats::fnv1a64(b"key-002a"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher that has seen no bytes (its digest is the offset basis).
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(FNV_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of every byte fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

impl fmt::Write for Fnv1a64 {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Why a record failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended mid-field.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Number of bytes the read needed.
        wanted: usize,
    },
    /// The input does not open with the record's magic (named here, so
    /// the message says which format was expected).
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
    },
    /// The version word names a layout this build does not read.
    BadVersion(u32),
    /// A structurally invalid field.
    Corrupt(&'static str),
    /// A well-formed record followed by this many trailing bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { at, wanted } => {
                write!(f, "truncated input: wanted {wanted} bytes at offset {at}")
            }
            DecodeError::BadMagic { expected } => {
                write!(f, "bad magic: not a \"{}\" record", expected.escape_ascii())
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt record: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the record"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian byte encoder.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Creates a writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    ///
    /// Round-trips every value bit-exactly (NaN payloads included) —
    /// result records must decode to *identical* floats, not nearly-equal
    /// ones, for cached-vs-fresh differential checks to be meaningful.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Opens a record: its 8-byte magic, then its `u32` version word.
    pub fn put_header(&mut self, magic: &[u8; 8], version: u32) {
        self.put_raw(magic);
        self.put_u32(version);
    }

    /// Appends raw bytes with no framing.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends bytes prefixed with their `u32` length.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX` — checkpoint sections
    /// are orders of magnitude smaller.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let n = u32::try_from(bytes.len());
        let n = match n {
            Ok(n) => n,
            Err(_) => panic!("byte run of {} exceeds u32 framing", bytes.len()),
        };
        self.put_u32(n);
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential little-endian byte decoder over a borrowed slice.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader at offset 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a 0/1 flag byte; any other value is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("flag byte not 0 or 1")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64` written by [`ByteWriter::put_f64`], bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte run (written by
    /// [`ByteWriter::put_bytes`]).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Checks a header written by [`ByteWriter::put_header`]. An input
    /// shorter than the magic has bad magic, not a truncated one.
    pub fn header(&mut self, magic: &[u8; 8], version: u32) -> Result<(), DecodeError> {
        if self.get_raw(8).ok() != Some(&magic[..]) {
            return Err(DecodeError::BadMagic { expected: *magic });
        }
        match self.get_u32()? {
            v if v == version => Ok(()),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    /// Ends a record: every byte of the input must have been read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut w = ByteWriter::new();
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE] {
            w.put_f64(v);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE] {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bytes(b"hello");
        w.put_raw(&[1, 2, 3]);
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.get_bytes(), Ok(&b"hello"[..]));
        assert_eq!(r.get_raw(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf);
        assert!(r.get_u32().is_err());
        // A failed read consumes nothing.
        assert_eq!(r.position(), 0);
        assert_eq!(r.get_u8(), Ok(1));
    }

    #[test]
    fn length_prefix_larger_than_input_is_an_error() {
        let mut w = ByteWriter::new();
        w.put_u32(1000); // claims 1000 bytes follow
        w.put_u8(7);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn header_flags_and_finish() {
        let mut w = ByteWriter::new();
        w.put_header(b"DDATEST1", 3);
        w.put_u8(1);
        w.put_u8(2);
        let buf = w.into_vec();
        // The header is the magic's bytes followed by the version word.
        assert_eq!(&buf[..8], b"DDATEST1");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.header(b"DDATEST1", 3), Ok(()));
        assert_eq!(r.get_bool(), Ok(true));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(1)));
        assert_eq!(
            r.get_bool(),
            Err(DecodeError::Corrupt("flag byte not 0 or 1"))
        );
        assert_eq!(r.finish(), Ok(()));

        let other = DecodeError::BadMagic {
            expected: *b"DDAOTHER",
        };
        assert_eq!(ByteReader::new(&buf).header(b"DDAOTHER", 3), Err(other));
        assert_eq!(ByteReader::new(b"DDA").header(b"DDAOTHER", 3), Err(other));
        assert_eq!(
            ByteReader::new(&buf).header(b"DDATEST1", 4),
            Err(DecodeError::BadVersion(3))
        );
        assert_eq!(other.to_string(), "bad magic: not a \"DDAOTHER\" record");
    }

    #[test]
    fn fnv_is_stable() {
        // Known-answer vectors: these digests are a format commitment.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_fnv_matches_the_one_shot_digest() {
        use std::fmt::Write as _;
        let mut h = Fnv1a64::new();
        write!(h, "foo").unwrap();
        h.write_char('b').unwrap();
        h.update(b"ar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }
}
