//! Minimal little-endian binary codec plus the two hashes the subsystem
//! needs: CRC-32 (IEEE) for on-disk integrity and FNV-1a 64 for
//! configuration fingerprints.
//!
//! Checkpoint sections and WAL payloads are small and written rarely, so
//! the codec favours obviousness over speed: every value is encoded
//! little-endian at a byte granularity with explicit length prefixes.

use xmap_addr::Prefix;

use crate::error::StateError;

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends an `Option` as a presence tag followed by the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a sequence length (`u32`); the caller then encodes each item.
    pub fn seq(&mut self, len: usize) {
        self.u32(len as u32);
    }

    /// Appends a prefix as its address bits (`u128`) and length (`u8`).
    pub fn prefix(&mut self, p: &Prefix) {
        self.u128(p.addr().bits());
        self.u8(p.len());
    }
}

/// Sequential decoder over a byte slice. All reads are bounds-checked and
/// return [`StateError::Corrupt`] on underflow.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder; `what` names the artifact for error messages.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self { buf, pos: 0, what }
    }

    /// Reads `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.buf.len() - self.pos < n {
            return Err(StateError::Corrupt(format!(
                "{}: truncated at byte {} (wanted {n} more)",
                self.what, self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the input was fully consumed (guards against garbage
    /// trailing a well-formed prefix).
    pub fn expect_end(&self) -> Result<(), StateError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StateError::Corrupt(format!(
                "{}: {} trailing bytes after decoded value",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, StateError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StateError::Corrupt(format!(
                "{}: invalid bool byte {b:#x}",
                self.what
            ))),
        }
    }

    /// Reads an `Option<u64>` written by [`Encoder::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            b => Err(StateError::Corrupt(format!(
                "{}: invalid option tag {b:#x}",
                self.what
            ))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StateError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StateError::Corrupt(format!("{}: invalid UTF-8 string", self.what)))
    }

    /// Reads raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self) -> Result<Vec<u8>, StateError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a sequence length written by [`Encoder::seq`], rejecting
    /// lengths that could not possibly fit in the remaining input (each
    /// item occupies at least one byte).
    pub fn seq(&mut self) -> Result<usize, StateError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(StateError::Corrupt(format!(
                "{}: sequence length {n} exceeds remaining {} bytes",
                self.what,
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Reads a prefix written by [`Encoder::prefix`]; a length above 128
    /// is corruption.
    pub fn prefix(&mut self) -> Result<Prefix, StateError> {
        let addr = self.u128()?;
        let len = self.u8()?;
        if len > 128 {
            return Err(StateError::Corrupt(format!(
                "{}: invalid prefix length {len}",
                self.what
            )));
        }
        Ok(Prefix::new(addr.into(), len))
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Table-free bitwise implementation: integrity checks run on kilobyte
/// sections at checkpoint cadence, never on the probe hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher used for configuration fingerprints.
///
/// Fingerprints only need to be stable across runs of the same build and
/// sensitive to any field change; FNV-1a is tiny and dependency-free.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds raw bytes into the fingerprint.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string (length-delimited so `ab`+`c` != `a`+`bc`).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    /// Folds a `u64`.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds a `u128`.
    pub fn push_u128(&mut self, v: u128) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_is_length_delimited() {
        let mut a = Fingerprint::new();
        a.push_str("ab").push_str("c");
        let mut b = Fingerprint::new();
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn roundtrip_primitives() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.u128(u128::MAX / 3);
        e.f64_bits(-0.125);
        e.bool(true);
        e.opt_u64(None);
        e.opt_u64(Some(42));
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.u128().unwrap(), u128::MAX / 3);
        assert_eq!(d.f64_bits().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.opt_u64().unwrap(), Some(42));
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        d.expect_end().unwrap();
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing() {
        let mut e = Encoder::new();
        e.u64(1);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..7], "test");
        assert!(d.u64().is_err());
        let mut d = Decoder::new(&buf, "test");
        d.u32().unwrap();
        assert!(d.expect_end().is_err());
    }
}
