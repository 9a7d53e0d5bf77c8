//! CIDR prefixes.

use std::fmt;
use std::str::FromStr;

use crate::error::{ErrorKind, ParseAddrError};
use crate::ip6::{mask, Ip6};

/// An IPv6 CIDR prefix, e.g. `2001:db8::/32`.
///
/// The network address is always stored in canonical form (host bits zero).
///
/// # Examples
///
/// ```
/// use xmap_addr::{Ip6, Prefix};
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let p: Prefix = "2001:db8::/32".parse()?;
/// assert!(p.contains("2001:db8:ffff::1".parse::<Ip6>()?));
/// assert!(!p.contains("2001:db9::".parse::<Ip6>()?));
/// assert_eq!(p.len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ip6,
    len: u8,
}

impl Prefix {
    /// The whole address space, `::/0`.
    pub const ALL: Prefix = Prefix {
        addr: Ip6::UNSPECIFIED,
        len: 0,
    };

    /// Creates a prefix, canonicalizing the address by zeroing host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    pub fn new(addr: Ip6, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Prefix {
            addr: addr.network(len),
            len,
        }
    }

    /// Creates a prefix from eight 16-bit segments (most significant first)
    /// in a `const` context, canonicalizing like [`Prefix::new`] — the
    /// constructor for prefix tables that are data rather than text.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128` (at compile time when evaluated in a `const`).
    pub const fn from_segments(seg: [u16; 8], len: u8) -> Self {
        assert!(len <= 128, "prefix length out of range");
        Prefix {
            addr: Ip6::from_segments(seg).network(len),
            len,
        }
    }

    /// Creates a prefix only if `addr` already has all host bits zero.
    pub fn new_strict(addr: Ip6, len: u8) -> Result<Self, ParseAddrError> {
        if len > 128 {
            return Err(ParseAddrError::new(ErrorKind::PrefixLen, &len.to_string()));
        }
        if addr.network(len) != addr {
            return Err(ParseAddrError::new(ErrorKind::HostBits, &addr.to_string()));
        }
        Ok(Prefix { addr, len })
    }

    /// The canonical network address.
    pub const fn addr(&self) -> Ip6 {
        self.addr
    }

    /// The prefix length in bits.
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// Whether this prefix covers the whole address space (`::/0`).
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ip6) -> bool {
        addr.bits() & mask(self.len) == self.addr.bits()
    }

    /// Tests whether `other` is fully contained in this prefix.
    pub fn covers(&self, other: Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The first address of the prefix (the network address).
    pub const fn first(&self) -> Ip6 {
        self.addr
    }

    /// The last address of the prefix.
    pub fn last(&self) -> Ip6 {
        Ip6::new(self.addr.bits() | !mask(self.len))
    }

    /// The number of `sub_len`-length sub-prefixes, or `None` when that count
    /// does not fit in a `u128` (only possible for `::/0` split into /128s...
    /// never in practice) or `sub_len < self.len`.
    pub fn subprefix_count(&self, sub_len: u8) -> Option<u128> {
        if sub_len < self.len || sub_len > 128 {
            return None;
        }
        let bits = sub_len - self.len;
        if bits >= 128 {
            None
        } else {
            Some(1u128 << bits)
        }
    }

    /// Returns the `index`-th sub-prefix of length `sub_len`.
    ///
    /// # Panics
    ///
    /// Panics if `sub_len` is not in `self.len()..=128` or `index` is out of
    /// range.
    pub fn subprefix(&self, sub_len: u8, index: u128) -> Prefix {
        let count = self
            .subprefix_count(sub_len)
            .unwrap_or_else(|| panic!("invalid sub-prefix length {sub_len} for /{}", self.len));
        assert!(
            index < count,
            "sub-prefix index {index} out of range (count {count})"
        );
        let shift = 128 - sub_len as u32;
        Prefix {
            addr: Ip6::new(self.addr.bits() | (index << shift)),
            len: sub_len,
        }
    }

    /// The index of `addr`'s enclosing `sub_len` sub-prefix within this prefix,
    /// or `None` if `addr` is outside the prefix.
    pub fn subprefix_index(&self, sub_len: u8, addr: Ip6) -> Option<u128> {
        if !self.contains(addr) || sub_len < self.len || sub_len > 128 {
            return None;
        }
        let shift = 128 - sub_len as u32;
        Some((addr.bits() & !mask(self.len)) >> shift)
    }

    /// Iterates over all `sub_len` sub-prefixes in address order.
    ///
    /// # Panics
    ///
    /// Panics if `sub_len` is not in `self.len()..=128`.
    pub fn subprefixes(&self, sub_len: u8) -> Subprefixes {
        let count = self
            .subprefix_count(sub_len)
            .unwrap_or_else(|| panic!("invalid sub-prefix length {sub_len} for /{}", self.len));
        Subprefixes {
            base: *self,
            sub_len,
            next: 0,
            count,
        }
    }
}

/// Iterator over the sub-prefixes of a [`Prefix`], created by
/// [`Prefix::subprefixes`].
#[derive(Debug, Clone)]
pub struct Subprefixes {
    base: Prefix,
    sub_len: u8,
    next: u128,
    count: u128,
}

impl Iterator for Subprefixes {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        if self.next >= self.count {
            return None;
        }
        let p = self.base.subprefix(self.sub_len, self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.count - self.next;
        if rem > usize::MAX as u128 {
            (usize::MAX, None)
        } else {
            (rem as usize, Some(rem as usize))
        }
    }
}

impl FromStr for Prefix {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| ParseAddrError::new(ErrorKind::PrefixLen, s))?;
        let addr: Ip6 = addr_part.parse()?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| ParseAddrError::new(ErrorKind::PrefixLen, s))?;
        if len > 128 {
            return Err(ParseAddrError::new(ErrorKind::PrefixLen, s));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "2001:db8::/32",
            "::/0",
            "2001:db8:1234:5678::/64",
            "ff00::/8",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_canonicalizes_host_bits() {
        assert_eq!(p("2001:db8::1/32"), p("2001:db8::/32"));
    }

    #[test]
    fn from_segments_is_const_and_canonical() {
        const P: Prefix = Prefix::from_segments([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1], 32);
        assert_eq!(P, p("2001:db8::/32"));
        assert_eq!(P.to_string(), "2001:db8::/32");
    }

    #[test]
    fn strict_rejects_host_bits() {
        assert!(Prefix::new_strict(a("2001:db8::1"), 32).is_err());
        assert!(Prefix::new_strict(a("2001:db8::"), 32).is_ok());
    }

    #[test]
    fn parse_rejects_bad_len() {
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
        assert!("2001:db8::/x".parse::<Prefix>().is_err());
        assert!("2001:db8::".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let block = p("2001:db8::/32");
        assert!(block.contains(a("2001:db8::")));
        assert!(block.contains(a("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff")));
        assert!(!block.contains(a("2001:db9::")));
        assert!(Prefix::ALL.contains(a("::")));
        assert!(Prefix::ALL.contains(a("ffff::")));
    }

    #[test]
    fn covers_relation() {
        assert!(p("2001:db8::/32").covers(p("2001:db8:1::/48")));
        assert!(p("2001:db8::/32").covers(p("2001:db8::/32")));
        assert!(!p("2001:db8:1::/48").covers(p("2001:db8::/32")));
        assert!(!p("2001:db8::/32").covers(p("2001:db9::/48")));
    }

    #[test]
    fn first_last() {
        let p64 = p("2001:db8:1:2::/64");
        assert_eq!(p64.first(), a("2001:db8:1:2::"));
        assert_eq!(p64.last(), a("2001:db8:1:2:ffff:ffff:ffff:ffff"));
    }

    #[test]
    fn subprefix_count_and_indexing() {
        let block = p("2001:db8::/32");
        assert_eq!(block.subprefix_count(64), Some(1u128 << 32));
        assert_eq!(block.subprefix_count(32), Some(1));
        assert_eq!(block.subprefix_count(16), None);
        let sp = block.subprefix(64, 0x1234_5678);
        assert_eq!(sp, p("2001:db8:1234:5678::/64"));
        assert_eq!(block.subprefix_index(64, sp.addr()), Some(0x1234_5678));
        assert_eq!(block.subprefix_index(64, a("2001:db9::")), None);
    }

    #[test]
    fn subprefixes_iterate_in_order() {
        let block = p("2001:db8::/62");
        let subs: Vec<_> = block.subprefixes(64).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0], p("2001:db8::/64"));
        assert_eq!(subs[3], p("2001:db8:0:3::/64"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subprefix_index_bounds() {
        p("2001:db8::/32").subprefix(33, 2);
    }
}
