//! Prefix blocklist/allowlist — a binary radix trie over IPv6 prefixes.
//!
//! ZMap-family scanners refuse to probe destinations on a blocklist
//! (reserved space, opted-out networks) and optionally restrict probing to
//! an allowlist. XMap rewrote ZMap's 32-bit constraint-tree for 128-bit
//! addresses; this module is that structure: a path-compressed-enough
//! binary trie where each leaf carries an allow/deny verdict and lookups
//! walk at most 128 bits.

use xmap_addr::{Ip6, Prefix};

/// Verdict attached to a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Destination may be probed.
    #[default]
    Allow,
    /// Destination must be skipped.
    Deny,
}

#[derive(Debug, Clone)]
struct TrieNode {
    /// Verdict set by the most specific terminating prefix at this node.
    verdict: Option<Verdict>,
    children: [Option<Box<TrieNode>>; 2],
}

impl TrieNode {
    fn new() -> Self {
        TrieNode {
            verdict: None,
            children: [None, None],
        }
    }
}

/// A longest-prefix-match allow/deny filter.
///
/// Later insertions of the *same* prefix overwrite earlier ones; a more
/// specific prefix always wins over a covering one, matching ZMap's
/// blocklist-file semantics.
///
/// # Examples
///
/// ```
/// use xmap::blocklist::{Blocklist, Verdict};
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let mut bl = Blocklist::new(Verdict::Allow);
/// bl.insert("2001:db8::/32".parse()?, Verdict::Deny);
/// bl.insert("2001:db8:feed::/48".parse()?, Verdict::Allow);
/// assert!(!bl.is_allowed("2001:db8::1".parse()?));
/// assert!(bl.is_allowed("2001:db8:feed::1".parse()?));
/// assert!(bl.is_allowed("2600::1".parse()?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Blocklist {
    root: TrieNode,
    default: Verdict,
    entries: usize,
}

impl Blocklist {
    /// Creates a filter with a default verdict for unmatched destinations.
    pub fn new(default: Verdict) -> Self {
        Blocklist {
            root: TrieNode::new(),
            default,
            entries: 0,
        }
    }

    /// A filter that allows everything (no entries).
    pub fn allow_all() -> Self {
        Blocklist::new(Verdict::Allow)
    }

    /// Number of prefixes inserted.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the filter has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts a prefix with a verdict.
    pub fn insert(&mut self, prefix: Prefix, verdict: Verdict) {
        let bits = prefix.addr().bits();
        let mut node = &mut self.root;
        for depth in 0..prefix.len() {
            let bit = ((bits >> (127 - depth as u32)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(|| Box::new(TrieNode::new()));
        }
        if node.verdict.replace(verdict).is_none() {
            self.entries += 1;
        }
    }

    /// The verdict for `addr` by longest-prefix match (default when no
    /// entry covers it).
    pub fn verdict(&self, addr: Ip6) -> Verdict {
        let best = self.root.verdict.unwrap_or(self.default);
        descend(&self.root, 0, addr.bits(), best)
    }

    /// Whether `addr` may be probed.
    pub fn is_allowed(&self, addr: Ip6) -> bool {
        self.verdict(addr) == Verdict::Allow
    }

    /// This filter narrowed to the addresses of `prefix`: the walk over
    /// the prefix's own bits is done here, once, so each lookup inside
    /// it walks only the bits below — none at all when no entry lies
    /// strictly inside `prefix`. A scan scopes its range's base prefix.
    ///
    /// # Examples
    ///
    /// ```
    /// use xmap::blocklist::{Blocklist, Verdict};
    ///
    /// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
    /// let mut bl = Blocklist::with_standard_reserved();
    /// bl.insert("2405:200:dead::/48".parse()?, Verdict::Deny);
    /// let scope = bl.scope("2405:200::/32".parse()?);
    /// assert!(scope.is_allowed("2405:200::1".parse()?));
    /// assert!(!scope.is_allowed("2405:200:dead::1".parse()?));
    /// # Ok(())
    /// # }
    /// ```
    pub fn scope(&self, prefix: Prefix) -> ScopedBlocklist<'_> {
        let verdict = self.root.verdict.unwrap_or(self.default);
        narrow(self, Some(&self.root), 0, verdict, prefix)
    }

    /// A deterministic fingerprint of the filter's complete semantics: the
    /// default verdict, entry count, and every (depth, path, verdict)
    /// triple reached by a depth-first walk of the trie. Two blocklists
    /// that classify every address identically — built from the same
    /// prefix/verdict set in any insertion order — fingerprint equal;
    /// checkpoint resume compares this against the stored value to refuse
    /// resuming under a different filter.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a 64, matching xmap-state's config fingerprinting.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(PRIME);
            }
        }
        fn walk(node: &TrieNode, depth: u8, path: u128, h: &mut u64) {
            if let Some(v) = node.verdict {
                mix(h, &[depth, v as u8]);
                mix(h, &path.to_be_bytes());
            }
            for (bit, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    walk(child, depth + 1, (path << 1) | bit as u128, h);
                }
            }
        }
        let mut h = OFFSET;
        mix(&mut h, &[self.default as u8]);
        mix(&mut h, &(self.entries as u64).to_be_bytes());
        walk(&self.root, 0, 0, &mut h);
        h
    }

    /// Loads the standard never-probe set: unspecified/loopback, multicast,
    /// link-local, unique-local and documentation space.
    pub fn with_standard_reserved() -> Self {
        let mut bl = Blocklist::allow_all();
        for p in [
            "::/128",
            "::1/128",
            "ff00::/8",
            "fe80::/10",
            "fc00::/7",
            "2001:db8::/32",
        ] {
            bl.insert(p.parse().expect("static reserved prefix"), Verdict::Deny);
        }
        bl
    }
}

/// The longest-prefix walk from `node`, which sits at `depth` on the
/// path of `bits` with `best` the verdict decided above it.
fn descend(mut node: &TrieNode, depth: u32, bits: u128, mut best: Verdict) -> Verdict {
    for depth in depth..128 {
        let bit = ((bits >> (127 - depth)) & 1) as usize;
        match &node.children[bit] {
            Some(child) => {
                node = child;
                best = node.verdict.unwrap_or(best);
            }
            None => break,
        }
    }
    best
}

/// The scope of `prefix` in `list`, walking `prefix`'s bits from
/// `depth` on: `node` is the trie node at that depth (`None` when the
/// trie ends above it) and `verdict` the most specific one so far.
fn narrow<'a>(
    list: &'a Blocklist,
    mut node: Option<&'a TrieNode>,
    depth: u32,
    mut verdict: Verdict,
    prefix: Prefix,
) -> ScopedBlocklist<'a> {
    let bits = prefix.addr().bits();
    for depth in depth..u32::from(prefix.len()) {
        let bit = ((bits >> (127 - depth)) & 1) as usize;
        node = node.and_then(|n| n.children[bit].as_deref());
        match node {
            Some(n) => verdict = n.verdict.unwrap_or(verdict),
            None => break,
        }
    }
    ScopedBlocklist {
        list,
        prefix,
        verdict,
        below: node.filter(|n| n.children.iter().any(Option::is_some)),
    }
}

/// A [`Blocklist`] narrowed to one prefix by [`Blocklist::scope`].
#[derive(Debug, Clone, Copy)]
pub struct ScopedBlocklist<'a> {
    list: &'a Blocklist,
    prefix: Prefix,
    /// The verdict of the most specific entry covering all of `prefix`
    /// (the default when none does).
    verdict: Verdict,
    /// The trie node at `prefix`, kept only when entries lie below it.
    below: Option<&'a TrieNode>,
}

impl<'a> ScopedBlocklist<'a> {
    /// This scope narrowed further, to `prefix`: the same as
    /// [`Blocklist::scope`]`(prefix)`, but the walk starts at this
    /// scope's depth — and takes no step when no entry lies below it. A
    /// `prefix` this scope does not cover takes the full walk.
    ///
    /// # Examples
    ///
    /// ```
    /// use xmap::blocklist::{Blocklist, Verdict};
    ///
    /// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
    /// let mut bl = Blocklist::with_standard_reserved();
    /// bl.insert("2405:200:dead::/48".parse()?, Verdict::Deny);
    /// let block = bl.scope("2405:200::/32".parse()?);
    /// let unit = block.scope("2405:200:de00::/40".parse()?);
    /// assert!(unit.is_allowed("2405:200:de00::1".parse()?));
    /// assert!(!unit.is_allowed("2405:200:dead::1".parse()?));
    /// # Ok(())
    /// # }
    /// ```
    pub fn scope(&self, prefix: Prefix) -> ScopedBlocklist<'a> {
        if !self.prefix.covers(prefix) {
            return self.list.scope(prefix);
        }
        let depth = u32::from(self.prefix.len());
        narrow(self.list, self.below, depth, self.verdict, prefix)
    }

    /// The verdict for `addr`, the same as [`Blocklist::verdict`]'s. An
    /// address outside the scoped prefix takes the full walk.
    pub fn verdict(&self, addr: Ip6) -> Verdict {
        if !self.prefix.contains(addr) {
            return self.list.verdict(addr);
        }
        match self.below {
            None => self.verdict,
            Some(node) => descend(
                node,
                u32::from(self.prefix.len()),
                addr.bits(),
                self.verdict,
            ),
        }
    }

    /// Whether `addr` may be probed.
    pub fn is_allowed(&self, addr: Ip6) -> bool {
        self.verdict(addr) == Verdict::Allow
    }
}

/// Linear-scan reference implementation with identical semantics — kept for
/// differential testing and as the baseline in the `blocklist` ablation
/// bench.
#[derive(Debug, Clone, Default)]
pub struct LinearBlocklist {
    entries: Vec<(Prefix, Verdict)>,
    default: Verdict,
}

impl LinearBlocklist {
    /// Creates an empty linear filter.
    pub fn new(default: Verdict) -> Self {
        LinearBlocklist {
            entries: Vec::new(),
            default,
        }
    }

    /// Inserts a prefix (replacing an identical one).
    pub fn insert(&mut self, prefix: Prefix, verdict: Verdict) {
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            e.1 = verdict;
        } else {
            self.entries.push((prefix, verdict));
        }
    }

    /// Longest-prefix-match verdict.
    pub fn verdict(&self, addr: Ip6) -> Verdict {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, v)| *v)
            .unwrap_or(self.default)
    }

    /// Whether `addr` may be probed.
    pub fn is_allowed(&self, addr: Ip6) -> bool {
        self.verdict(addr) == Verdict::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_uses_default() {
        assert!(Blocklist::new(Verdict::Allow).is_allowed(a("2001::1")));
        assert!(!Blocklist::new(Verdict::Deny).is_allowed(a("2001::1")));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut bl = Blocklist::allow_all();
        bl.insert(p("2001::/16"), Verdict::Deny);
        bl.insert(p("2001:db8::/32"), Verdict::Allow);
        bl.insert(p("2001:db8:dead::/48"), Verdict::Deny);
        assert!(!bl.is_allowed(a("2001::1")));
        assert!(bl.is_allowed(a("2001:db8::1")));
        assert!(!bl.is_allowed(a("2001:db8:dead::1")));
    }

    #[test]
    fn reinsert_overwrites_without_double_count() {
        let mut bl = Blocklist::allow_all();
        bl.insert(p("2001::/16"), Verdict::Deny);
        bl.insert(p("2001::/16"), Verdict::Allow);
        assert_eq!(bl.len(), 1);
        assert!(bl.is_allowed(a("2001::1")));
    }

    #[test]
    fn default_route_entry() {
        let mut bl = Blocklist::allow_all();
        bl.insert(p("::/0"), Verdict::Deny);
        bl.insert(p("2600::/12"), Verdict::Allow);
        assert!(!bl.is_allowed(a("2001::1")));
        assert!(bl.is_allowed(a("2601::1")));
    }

    #[test]
    fn standard_reserved_set() {
        let bl = Blocklist::with_standard_reserved();
        for blocked in ["::1", "ff02::1", "fe80::1", "fd00::1", "2001:db8::1"] {
            assert!(!bl.is_allowed(a(blocked)), "{blocked}");
        }
        assert!(bl.is_allowed(a("2600::1")));
    }

    #[test]
    fn host_route_match() {
        let mut bl = Blocklist::allow_all();
        bl.insert(p("2001:db8::42/128"), Verdict::Deny);
        assert!(!bl.is_allowed(a("2001:db8::42")));
        assert!(bl.is_allowed(a("2001:db8::43")));
    }

    #[test]
    fn fingerprint_tracks_semantics_not_insertion_order() {
        let entries = [
            ("2400::/12", Verdict::Deny),
            ("2405:200::/32", Verdict::Allow),
            ("2600::/12", Verdict::Deny),
        ];
        let mut fwd = Blocklist::allow_all();
        for (s, v) in entries {
            fwd.insert(p(s), v);
        }
        let mut rev = Blocklist::allow_all();
        for (s, v) in entries.iter().rev() {
            rev.insert(p(s), *v);
        }
        assert_eq!(fwd.fingerprint(), rev.fingerprint());

        // Any semantic change moves the fingerprint.
        let mut extra = fwd.clone();
        extra.insert(p("2601::/24"), Verdict::Allow);
        assert_ne!(fwd.fingerprint(), extra.fingerprint());
        let mut flipped = fwd.clone();
        flipped.insert(p("2600::/12"), Verdict::Allow);
        assert_ne!(fwd.fingerprint(), flipped.fingerprint());
        assert_ne!(
            Blocklist::new(Verdict::Allow).fingerprint(),
            Blocklist::new(Verdict::Deny).fingerprint()
        );
    }

    #[test]
    fn trie_matches_linear_reference() {
        let prefixes = [
            ("2400::/12", Verdict::Deny),
            ("2405:200::/32", Verdict::Allow),
            ("2405:200:8::/48", Verdict::Deny),
            ("2600::/12", Verdict::Deny),
            ("2601::/24", Verdict::Allow),
            ("::/0", Verdict::Allow),
        ];
        let mut trie = Blocklist::allow_all();
        let mut lin = LinearBlocklist::new(Verdict::Allow);
        for (s, v) in prefixes {
            trie.insert(p(s), v);
            lin.insert(p(s), v);
        }
        for addr in [
            "2400::1",
            "2405:200::1",
            "2405:200:8::1",
            "2405:201::1",
            "2600:abcd::1",
            "2601::1",
            "9999::1",
        ] {
            assert_eq!(trie.verdict(a(addr)), lin.verdict(a(addr)), "{addr}");
        }
    }

    #[test]
    fn scope_with_nothing_below_walks_nothing() {
        let bl = Blocklist::with_standard_reserved();
        let scope = bl.scope(p("2405:200::/32"));
        assert!(scope.below.is_none());
        assert!(scope.is_allowed(a("2405:200::1")));
        let denied = bl.scope(p("2001:db8:1::/48"));
        assert!(denied.below.is_none());
        assert!(!denied.is_allowed(a("2001:db8:1::1")));
        // Outside the scope the full walk answers.
        assert!(!scope.is_allowed(a("fe80::1")));
        assert!(denied.is_allowed(a("2600::1")));
    }

    /// A prefix of `len` bits on the path of `bits`.
    fn prefix_of(bits: u128, len: u8) -> Prefix {
        Prefix::new(Ip6::new(bits), len)
    }

    /// The bits below a prefix of `len` bits.
    fn host_mask(len: u8) -> u128 {
        u128::MAX.checked_shr(u32::from(len)).unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A scope answers every address inside its prefix as the linear
        /// reference does, whatever mix of entries equal to the prefix,
        /// containing it, inside it and disjoint from it the filter
        /// holds — and answers addresses outside it too.
        #[test]
        fn scope_matches_linear_reference(
            scope_bits in any::<u128>(),
            scope_len in 0u8..=128,
            outer_len in any::<u8>(),
            entry_bits in prop::collection::vec(any::<u128>(), 0..12),
            entry_shapes in prop::collection::vec(any::<u32>(), 12),
            default_deny in any::<bool>(),
            addrs in prop::collection::vec(any::<u128>(), 1..32),
        ) {
            let scoped = prefix_of(scope_bits, scope_len);
            let default = if default_deny { Verdict::Deny } else { Verdict::Allow };
            let mut trie = Blocklist::new(default);
            let mut lin = LinearBlocklist::new(default);
            for (&bits, &shape) in entry_bits.iter().zip(&entry_shapes) {
                let (kind, len, deny) = (shape % 4, (shape >> 8) as u8, shape >> 16 & 1 == 1);
                let entry = match kind {
                    // Equal to the scoped prefix.
                    0 => scoped,
                    // Containing it: a prefix of its own bits.
                    1 => prefix_of(scope_bits, len % (scope_len + 1)),
                    // Inside it: its bits, then any below.
                    2 => {
                        let len = scope_len + len % (129 - scope_len);
                        prefix_of(scoped.addr().bits() | (bits & host_mask(scope_len)), len)
                    }
                    // Anywhere, mostly disjoint from it.
                    _ => prefix_of(bits, len % 129),
                };
                let verdict = if deny { Verdict::Deny } else { Verdict::Allow };
                trie.insert(entry, verdict);
                lin.insert(entry, verdict);
            }
            let scope = trie.scope(scoped);
            // Narrowing a coarser scope, or one elsewhere, lands on the
            // same verdict and the same walk below.
            for outer in [prefix_of(scope_bits, outer_len % (scope_len + 1)), prefix_of(!scope_bits, scope_len)] {
                let narrowed = trie.scope(outer).scope(scoped);
                prop_assert_eq!(narrowed.verdict, scope.verdict);
                prop_assert_eq!(narrowed.below.map(std::ptr::from_ref), scope.below.map(std::ptr::from_ref));
            }
            for bits in addrs {
                let inside = Ip6::new(scoped.addr().bits() | (bits & host_mask(scope_len)));
                prop_assert!(scoped.contains(inside));
                prop_assert_eq!(scope.verdict(inside), lin.verdict(inside));
                prop_assert_eq!(scope.is_allowed(inside), lin.is_allowed(inside));
                let anywhere = Ip6::new(bits);
                prop_assert_eq!(scope.verdict(anywhere), lin.verdict(anywhere));
            }
        }
    }
}
