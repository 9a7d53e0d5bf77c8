//! Arbitrary bit-range scan spaces — XMap's target notation.

use std::fmt;
use std::str::FromStr;

use crate::error::{ErrorKind, ParseAddrError};
use crate::ip6::Ip6;
use crate::prefix::Prefix;

/// A scan space addressing an arbitrary bit range of a prefix, written
/// `2001:db8::/32-64`.
///
/// This is the key generalization XMap makes over ZMap: ZMap can only permute
/// the *rear* segment of a 32-bit IPv4 address, while XMap permutes the bits
/// between `start_bit` and `end_bit` of any base prefix, leaving bits above
/// `start_bit` fixed and bits below `end_bit` to be filled by an IID
/// generator.
///
/// For the paper's periphery scans, `2001:db8::/32-64` enumerates all 2³²
/// /64 sub-prefixes of the ISP block `2001:db8::/32`; one probe is sent to a
/// (random-IID) address inside each.
///
/// A plain prefix string like `2001:db8::/32` parses as the range
/// `/32-64` when the prefix is shorter than 64 bits, and `/len-128`
/// otherwise, mirroring XMap's default of probing /64 subnets.
///
/// # Examples
///
/// ```
/// use xmap_addr::ScanRange;
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let r: ScanRange = "2001:db8::/32-64".parse()?;
/// assert_eq!(r.space_size(), 1u128 << 32);
/// let target = r.nth(0x1234_5678).expect("in range");
/// assert_eq!(target.to_string(), "2001:db8:1234:5678::/64");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanRange {
    base: Prefix,
    end_bit: u8,
}

impl ScanRange {
    /// Creates a scan range over the bits `base.len()..end_bit`.
    ///
    /// # Errors
    ///
    /// Fails when `end_bit` is not in `base.len()+1 ..= 128` or when the
    /// permuted space is wider than 64 bits (wider spaces are infeasible to
    /// enumerate and unsupported).
    pub fn new(base: Prefix, end_bit: u8) -> Result<Self, ParseAddrError> {
        if end_bit <= base.len() || end_bit > 128 || end_bit - base.len() > 64 {
            return Err(ParseAddrError::new(
                ErrorKind::BitRange,
                &format!("{base}-{end_bit}"),
            ));
        }
        Ok(ScanRange { base, end_bit })
    }

    /// The fixed base prefix (bits above `start_bit`).
    pub const fn base(&self) -> Prefix {
        self.base
    }

    /// First permuted bit position (== `base().len()`).
    pub const fn start_bit(&self) -> u8 {
        self.base.len()
    }

    /// One past the last permuted bit position.
    pub const fn end_bit(&self) -> u8 {
        self.end_bit
    }

    /// Number of permuted bits.
    pub const fn space_bits(&self) -> u8 {
        self.end_bit - self.base.len()
    }

    /// Number of enumerable targets, `2^space_bits()`.
    pub const fn space_size(&self) -> u128 {
        1u128 << self.space_bits()
    }

    /// The `index`-th target sub-prefix (of length `end_bit`), or `None` when
    /// `index >= space_size()`.
    pub fn nth(&self, index: u64) -> Option<Prefix> {
        if (index as u128) >= self.space_size() {
            return None;
        }
        Some(self.base.subprefix(self.end_bit, index as u128))
    }

    /// The index of the target sub-prefix containing `addr`, or `None` when
    /// `addr` lies outside the base prefix.
    pub fn index_of(&self, addr: Ip6) -> Option<u64> {
        self.base
            .subprefix_index(self.end_bit, addr)
            .map(|i| i as u64)
    }

    /// Restricts this range to a narrower sub-space: the `index`-th of
    /// `count` contiguous slices. Used to scale experiments down (DESIGN.md
    /// §1) and to split work across shards by space rather than by stride.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, not a power of two, larger than the space,
    /// or `index >= count`.
    pub fn slice(&self, index: u64, count: u64) -> ScanRange {
        assert!(
            count.is_power_of_two(),
            "slice count must be a power of two"
        );
        assert!(index < count, "slice index out of range");
        let slice_bits = count.trailing_zeros() as u8;
        assert!(
            slice_bits <= self.space_bits(),
            "slice count larger than space"
        );
        let new_base_len = self.base.len() + slice_bits;
        let base = self.base.subprefix(new_base_len, index as u128);
        ScanRange {
            base,
            end_bit: self.end_bit,
        }
    }
}

impl FromStr for ScanRange {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, rest) = s
            .split_once('/')
            .ok_or_else(|| ParseAddrError::new(ErrorKind::BitRange, s))?;
        // Dual-stack, like the real XMap: an IPv4 expression such as
        // `192.168.0.0/20-25` scans the corresponding bit range of the
        // v4-mapped space `::ffff:192.168.0.0/116-121`.
        if addr_part.contains('.') {
            let v4: std::net::Ipv4Addr = addr_part
                .parse()
                .map_err(|_| ParseAddrError::new(ErrorKind::Address, s))?;
            let mapped = Ip6::new(0xffff_0000_0000 | u32::from(v4) as u128);
            let (len_str, end_str) = match rest.split_once('-') {
                Some((l, e)) => (l, Some(e)),
                None => (rest, None),
            };
            let len: u8 = len_str
                .parse()
                .map_err(|_| ParseAddrError::new(ErrorKind::PrefixLen, s))?;
            if len > 32 {
                return Err(ParseAddrError::new(ErrorKind::PrefixLen, s));
            }
            let end: u8 = match end_str {
                Some(e) => {
                    let e: u8 = e
                        .parse()
                        .map_err(|_| ParseAddrError::new(ErrorKind::BitRange, s))?;
                    if e > 32 {
                        return Err(ParseAddrError::new(ErrorKind::BitRange, s));
                    }
                    e
                }
                None => 32,
            };
            let base = Prefix::new(mapped, 96 + len);
            return ScanRange::new(base, 96 + end)
                .map_err(|_| ParseAddrError::new(ErrorKind::BitRange, s));
        }
        let addr: Ip6 = addr_part.parse()?;
        let (len_str, end_str) = match rest.split_once('-') {
            Some((l, e)) => (l, Some(e)),
            None => (rest, None),
        };
        let len: u8 = len_str
            .parse()
            .map_err(|_| ParseAddrError::new(ErrorKind::PrefixLen, s))?;
        if len > 128 {
            return Err(ParseAddrError::new(ErrorKind::PrefixLen, s));
        }
        let base = Prefix::new(addr, len);
        let end_bit: u8 = match end_str {
            Some(e) => e
                .parse()
                .map_err(|_| ParseAddrError::new(ErrorKind::BitRange, s))?,
            // Default: probe /64 subnets, or single addresses for long bases.
            None => {
                if len < 64 {
                    64
                } else {
                    128
                }
            }
        };
        ScanRange::new(base, end_bit).map_err(|_| ParseAddrError::new(ErrorKind::BitRange, s))
    }
}

impl fmt::Display for ScanRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.base, self.end_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> ScanRange {
        s.parse().unwrap()
    }

    #[test]
    fn parse_explicit_range() {
        let sr = r("2001:db8::/32-64");
        assert_eq!(sr.start_bit(), 32);
        assert_eq!(sr.end_bit(), 64);
        assert_eq!(sr.space_bits(), 32);
        assert_eq!(sr.to_string(), "2001:db8::/32-64");
    }

    #[test]
    fn parse_default_end_bit() {
        assert_eq!(r("2001:db8::/32").end_bit(), 64);
        assert_eq!(r("2001:db8::/28").end_bit(), 64);
        assert_eq!(r("2001:db8:1:2:3::/80").end_bit(), 128);
    }

    #[test]
    fn rejects_invalid_ranges() {
        assert!("2001:db8::/64-32".parse::<ScanRange>().is_err());
        assert!("2001:db8::/32-32".parse::<ScanRange>().is_err());
        assert!("2001:db8::/32-129".parse::<ScanRange>().is_err());
        // wider than 64 permuted bits
        assert!("2001:db8::/32-128".parse::<ScanRange>().is_err());
        assert!("::/0-128".parse::<ScanRange>().is_err());
    }

    #[test]
    fn nth_and_index_roundtrip() {
        let sr = r("2001:db8::/32-64");
        let target = sr.nth(0xdead_beef).unwrap();
        assert_eq!(target.to_string(), "2001:db8:dead:beef::/64");
        assert_eq!(sr.index_of(target.addr()), Some(0xdead_beef));
        assert_eq!(sr.index_of(target.addr().with_iid(42)), Some(0xdead_beef));
        assert_eq!(sr.index_of("2001:db9::".parse().unwrap()), None);
        assert_eq!(sr.nth(u64::MAX), None);
    }

    #[test]
    fn mid_position_range() {
        // Permute bits 20..25 of 2001:d00::/20 — the example from Section IV-B.
        let base = Prefix::new("2001:d00::".parse().unwrap(), 20);
        let sr = ScanRange::new(base, 25).unwrap();
        assert_eq!(sr.space_size(), 32);
        let all: Vec<_> = (0..32).map(|i| sr.nth(i).unwrap()).collect();
        // All distinct and all inside the base.
        for w in all.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        for p in &all {
            assert!(base.covers(*p));
        }
    }

    #[test]
    fn slice_partitions_space() {
        let sr = r("2001:db8::/32-64");
        let s0 = sr.slice(0, 4);
        let s3 = sr.slice(3, 4);
        assert_eq!(s0.space_size(), sr.space_size() / 4);
        assert_eq!(s0.base().to_string(), "2001:db8::/34");
        assert_eq!(s3.base().to_string(), "2001:db8:c000::/34");
        assert_eq!(s0.end_bit(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn slice_rejects_non_power_of_two() {
        r("2001:db8::/32-64").slice(0, 3);
    }

    #[test]
    fn ipv4_expressions_map_into_v4mapped_space() {
        // The XMap paper's own example: 192.168.0.0/20-25.
        let sr = r("192.168.0.0/20-25");
        assert_eq!(sr.start_bit(), 116);
        assert_eq!(sr.end_bit(), 121);
        assert_eq!(sr.space_size(), 32);
        let first = sr.nth(0).unwrap();
        assert!(first.addr().to_string().contains("192.168.0.0"), "{first}");
        // A plain v4 prefix scans down to single addresses (/32 = bit 128).
        let hosts = r("10.0.0.0/24");
        assert_eq!(hosts.space_bits(), 8);
        assert_eq!(hosts.end_bit(), 128);
        let h5 = hosts.nth(5).unwrap();
        assert!(h5.addr().to_string().ends_with("10.0.0.5"), "{h5}");
    }

    #[test]
    fn ipv4_expressions_reject_bad_lengths() {
        assert!("10.0.0.0/33".parse::<ScanRange>().is_err());
        assert!("10.0.0.0/8-40".parse::<ScanRange>().is_err());
        assert!("10.0.0.999/8".parse::<ScanRange>().is_err());
    }
}
