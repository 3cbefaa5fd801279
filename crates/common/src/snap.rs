//! Versioned binary snapshot codec and cross-component state digest.
//!
//! The checkpoint format (see `rcc-sim`'s `checkpoint` module) is a
//! little-endian byte stream written with [`SnapWriter`] and read back
//! with [`SnapReader`]. The workspace carries no serialization
//! dependencies, so the codec is deliberately tiny: fixed-width integers,
//! length-prefixed strings and byte blobs, and `Result`-based decoding so
//! a truncated or corrupted snapshot surfaces as a typed error instead of
//! a panic.
//!
//! [`StateDigest`] is the companion attestation primitive: an FNV-1a
//! 64-bit accumulator every simulated component folds its
//! architectural state into. Two `System`s built from the same inputs and
//! stepped to the same cycle produce the same digest; checkpoint restore
//! verifies the digest before continuing, and hang-dumps embed it so a
//! replay can prove it reconstructed the stuck state.

/// Error produced when decoding a snapshot fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for SnapError {}

/// Little-endian binary writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer into its byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// Little-endian binary reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError(format!(
                "truncated reading {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool (rejecting anything but 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `Option<u64>` written by [`SnapWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.u32()? as usize;
        let b = self.take(n, "string")?;
        String::from_utf8(b.to_vec()).map_err(|e| SnapError(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.u32()? as usize;
        Ok(self.take(n, "bytes")?.to_vec())
    }

    /// Asserts the whole payload was consumed.
    pub fn done(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError(format!(
                "{} trailing bytes after snapshot payload",
                self.remaining()
            )))
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit accumulator for cross-component state attestation.
///
/// Components fold their state in via the typed `write_*` methods;
/// [`StateDigest::write_debug`] streams a value's `Debug` rendering
/// through the hash without allocating, which covers deep structures
/// (controllers, MSHR files, PRNG streams) in one line. `Debug` output is
/// stable for a given binary, and the in-repo hash maps iterate in
/// insertion order under deterministic replay, so equal histories imply
/// equal digests. A digest costs the bytes it is fed, so input that never
/// changes during a run is fed as a kept hash of itself rather than
/// rendered again at every digest (a core's warp programs enter as one
/// `u64` each; see `rcc_gpu::core::Core::digest_state`).
#[must_use = "a digest is only useful compared against another"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    h: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

impl StateDigest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        StateDigest { h: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a string (with a terminator so concatenations can't
    /// collide) into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff]);
    }

    /// Streams `value`'s `Debug` rendering through the digest without
    /// building the intermediate string.
    pub fn write_debug<T: std::fmt::Debug + ?Sized>(&mut self, value: &T) {
        use std::fmt::Write as _;
        let mut sink = FnvSink(self);
        let _ = write!(sink, "{value:?}");
        self.write_bytes(&[0xff]);
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

struct FnvSink<'a>(&'a mut StateDigest);

impl std::fmt::Write for FnvSink<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(1.5);
        w.opt_u64(Some(42));
        w.opt_u64(None);
        w.str("hello snapshot");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello snapshot");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.done().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = SnapWriter::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        let err = r.u64().unwrap_err();
        assert!(err.0.contains("truncated"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.done().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_errors() {
        let mut r = SnapReader::new(&[9]);
        assert!(r.bool().is_err());
        // length 1, invalid UTF-8 byte
        let mut r = SnapReader::new(&[1, 0, 0, 0, 0xff]);
        assert!(r.str().is_err());
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = StateDigest::new();
        a.write_u64(1);
        a.write_str("x");
        let mut b = StateDigest::new();
        b.write_str("x");
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = StateDigest::new();
        c.write_u64(1);
        c.write_str("x");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn debug_digest_matches_string_hash() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields are read via the Debug rendering
        struct S {
            x: u64,
            label: &'static str,
        }
        let s = S { x: 3, label: "hi" };
        let mut a = StateDigest::new();
        a.write_debug(&s);
        let mut b = StateDigest::new();
        b.write_str(&format!("{s:?}"));
        assert_eq!(a.finish(), b.finish());
    }
}
