//! Byte-level encoding helpers shared by the BGP message codec.
//!
//! BGP is big-endian throughout. The reader returns structured errors rather
//! than panicking, so malformed input (fuzzed or truncated) is always
//! surfaced as a [`CodecError`] that the session layer converts into a
//! NOTIFICATION.

use std::fmt;
use std::net::Ipv4Addr;

use crate::types::{Prefix, PrefixError};

/// Decoding/encoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete field.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Header length field out of the RFC 4271 bounds or inconsistent.
    BadLength(u16),
    /// Unknown message type code.
    BadMessageType(u8),
    /// Unsupported BGP version in OPEN.
    BadVersion(u8),
    /// Malformed path attribute.
    BadAttribute {
        /// Attribute type code.
        code: u8,
        /// Explanation.
        reason: &'static str,
    },
    /// Malformed NLRI prefix.
    BadPrefix(PrefixError),
    /// Trailing bytes after a complete message body.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated while reading {what}"),
            CodecError::BadMarker => write!(f, "bad header marker"),
            CodecError::BadLength(l) => write!(f, "bad message length {l}"),
            CodecError::BadMessageType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadVersion(v) => write!(f, "unsupported BGP version {v}"),
            CodecError::BadAttribute { code, reason } => {
                write!(f, "bad path attribute {code}: {reason}")
            }
            CodecError::BadPrefix(e) => write!(f, "bad NLRI: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<PrefixError> for CodecError {
    fn from(e: PrefixError) -> Self {
        CodecError::BadPrefix(e)
    }
}

/// Big-endian cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an IPv4 address.
    pub fn ipv4(&mut self, what: &'static str) -> Result<Ipv4Addr, CodecError> {
        Ok(Ipv4Addr::from(self.u32(what)?))
    }

    /// Read one RFC 4271 NLRI entry: length byte + ceil(len/8) prefix bytes.
    pub fn nlri_prefix(&mut self) -> Result<Prefix, CodecError> {
        let len = self.u8("nlri length")?;
        if len > 32 {
            return Err(CodecError::BadPrefix(PrefixError::BadLength(len)));
        }
        let nbytes = len.div_ceil(8) as usize;
        let bytes = self.take(nbytes, "nlri prefix bytes")?;
        let mut octets = [0u8; 4];
        octets[..nbytes].copy_from_slice(bytes);
        // RFC: trailing bits are irrelevant; mask them off.
        Ok(Prefix::new_masked(Ipv4Addr::from(octets), len)?)
    }

    /// Split off a sub-reader over the next `n` bytes.
    pub(crate) fn sub(&mut self, n: usize, what: &'static str) -> Result<Reader<'a>, CodecError> {
        Ok(Reader::new(self.take(n, what)?))
    }
}

/// Growable big-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Fresh writer with `capacity` bytes pre-reserved — the right
    /// constructor for an encode scratch that will be cleared and reused.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Drop the contents, keeping the allocation for reuse.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    // detlint: allow len_without_is_empty companion of the public len
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, without consuming the writer. Scratch
    /// users copy these out and `clear` for the next
    /// message.
    // detlint: allow test-oracle read-only view proptest_codec compares with a fresh encoding
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an IPv4 address.
    pub fn ipv4(&mut self, ip: Ipv4Addr) {
        self.buf.extend_from_slice(&ip.octets());
    }

    /// Append one NLRI entry (length byte + minimal prefix bytes).
    pub fn nlri_prefix(&mut self, p: Prefix) {
        self.u8(p.len());
        let nbytes = p.len().div_ceil(8) as usize;
        self.buf.extend_from_slice(&p.network().octets()[..nbytes]);
    }

    /// Overwrite the big-endian u16 at `pos` (for back-patching lengths).
    pub fn patch_u16(&mut self, pos: usize, v: u16) {
        self.buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Overwrite the byte at `pos` (for back-patching one-byte lengths).
    pub(crate) fn patch_u8(&mut self, pos: usize, v: u8) {
        self.buf[pos] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pfx;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEADBEEF);
        w.ipv4(Ipv4Addr::new(10, 1, 2, 3));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert_eq!(r.u16("b").unwrap(), 0x1234);
        assert_eq!(r.u32("c").unwrap(), 0xDEADBEEF);
        assert_eq!(r.ipv4("d").unwrap(), Ipv4Addr::new(10, 1, 2, 3));
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(r.u16("field"), Err(CodecError::Truncated { what: "field" }));
    }

    #[test]
    fn nlri_roundtrip_various_lengths() {
        for p in [
            pfx("0.0.0.0/0"),
            pfx("10.0.0.0/8"),
            pfx("10.32.0.0/11"),
            pfx("192.168.7.0/24"),
            pfx("1.2.3.4/32"),
        ] {
            let mut w = Writer::new();
            w.nlri_prefix(p);
            // Encoded size is 1 + ceil(len/8)
            assert_eq!(w.len(), 1 + p.len().div_ceil(8) as usize);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.nlri_prefix().unwrap(), p);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn nlri_rejects_overlong() {
        let mut r = Reader::new(&[40, 1, 2, 3, 4, 5]);
        assert!(matches!(r.nlri_prefix(), Err(CodecError::BadPrefix(_))));
    }

    #[test]
    fn nlri_masks_trailing_bits() {
        // /4 with low bits set in the single prefix byte: must be masked.
        let mut r = Reader::new(&[4, 0xFF]);
        assert_eq!(r.nlri_prefix().unwrap(), pfx("240.0.0.0/4"));
    }

    #[test]
    fn sub_reader_bounds() {
        let bytes = [1, 2, 3, 4, 5];
        let mut r = Reader::new(&bytes);
        let mut s = r.sub(3, "sub").unwrap();
        assert_eq!(s.take(3, "x").unwrap(), &[1, 2, 3]);
        assert!(s.is_empty());
        assert_eq!(r.remaining(), 2);
        assert!(r.sub(3, "sub2").is_err());
    }

    #[test]
    fn patch_u16_back_patches() {
        let mut w = Writer::new();
        w.u16(0);
        w.u8(7);
        w.patch_u16(0, 0x0102);
        assert_eq!(w.into_bytes(), vec![1, 2, 7]);
    }
}
