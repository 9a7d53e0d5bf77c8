//! The global BGP table — substrate for the Internet-wide loop survey.
//!
//! Section VI-B scans the 16-bit sub-prefix space of every globally
//! advertised IPv6 BGP prefix (gathered from Routeviews) and finds ~4.0M
//! last hops across 6,911 ASes and 170 countries, of which ~128k across
//! 3,877 ASes and 132 countries are loop-vulnerable (Table IX, Figure 5).
//!
//! Routeviews data is not available offline, so [`BgpTable::generate`]
//! synthesizes a table with the same macro-structure: thousands of ASes
//! with a heavy-tailed prefix-count distribution, country skew matching
//! Figure 5, per-AS activity and loop-propensity factors, and hotspot ASes
//! that dominate the loop population.

use xmap_addr::{Ip6, Prefix};

use crate::geo::{self, TOP_LOOP_ASNS};
use crate::rng::DetHash;

/// One advertised BGP prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpEntry {
    /// The advertised prefix (always a /32 in the synthetic table).
    pub prefix: Prefix,
    /// Origin AS.
    pub asn: u32,
}

/// Per-AS behavioural parameters derived at generation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsParams {
    /// AS number.
    pub asn: u32,
    /// Relative density of responding last hops in this AS's prefixes.
    pub activity: f64,
    /// Multiplier on the per-IID-class loop probability (0 = AS fully
    /// deploys correct routes; 56% of ASes have a nonzero multiplier,
    /// matching 3,877 of 6,911 in Table IX).
    pub loop_multiplier: f64,
}

/// Baseline last-hop density per advertised prefix's 16-bit sub-space:
/// ~4.0M last hops / (~101k prefixes × 2¹⁶ probes).
pub const BASE_DENSITY: f64 = 6.1e-4;

/// IID-class mix of BGP-zone last hops, per-mille, in [`xmap_addr::IidClass::ALL`]
/// order (EUI-64, Embed-IPv4, Low-byte, Byte-pattern, Randomized). BGP-visible
/// infrastructure routers are often manually numbered, hence the large
/// low-byte share relative to the periphery scans.
pub const BGP_IID_MIX: [u32; 5] = [100, 100, 50, 50, 700];

/// Per-IID-class loop probability (same order), calibrated so the pooled
/// loop rate is ~3.2% of last hops and the *loop* population's IID mix
/// reproduces Table X (18.0% EUI-64, 2.4% embed-IPv4, 31.7% low-byte,
/// 0.7% byte-pattern, 46.7% randomized): manually numbered routers carry
/// most of the misconfigured routes.
pub const LOOP_RATE_BY_CLASS: [f64; 5] = [0.0576, 0.0077, 0.203, 0.0045, 0.0214];

/// Table slot `i` past the catalog holds AS `SYNTHETIC_ASN_BASE + i`, above
/// every catalog ASN.
const SYNTHETIC_ASN_BASE: u32 = 100_000;

/// A synthetic global BGP table.
#[derive(Debug, Clone)]
pub struct BgpTable {
    seed: u64,
    entries: Vec<BgpEntry>,
    ases: Vec<AsParams>,
}

impl BgpTable {
    /// Generates a table with `n_ases` autonomous systems under the seed.
    ///
    /// The paper's table has 6,911 responding ASes; pass smaller values for
    /// cheap tests. Prefixes are allocated under `2a00::/12`, disjoint from
    /// the fifteen sample ISP blocks.
    pub fn generate(seed: u64, n_ases: usize) -> Self {
        let mut entries = Vec::new();
        let mut ases = Vec::with_capacity(n_ases);
        let mut next_index: u128 = 0;

        for i in 0..n_ases {
            // The first ASes are the known catalog; the rest are synthetic.
            let asn = if i < geo::KNOWN_ASES.len() {
                geo::KNOWN_ASES[i].asn
            } else {
                SYNTHETIC_ASN_BASE + i as u32
            };
            let h = DetHash::new(seed).mix(b"as").mix_u64(asn as u64);
            let is_hotspot = TOP_LOOP_ASNS.contains(&asn);

            // Heavy-tailed prefix count: most ASes advertise 1-3 prefixes,
            // hotspots tens (so their loop populations dominate Figure 5).
            let n_prefixes = if is_hotspot {
                24 + h.mix(b"np").bounded(24) as usize
            } else {
                let u = h.mix(b"np").unit();
                // ~Pareto: 60% one prefix, tail up to 12.
                (1.0 / (1.0 - 0.92 * u)).min(12.0) as usize
            };

            let activity = if is_hotspot {
                2.0 + h.mix(b"act").unit() * 3.0
            } else {
                0.2 + h.mix(b"act").unit() * 2.2
            };

            // 44% of non-hotspot ASes deploy correct routes everywhere.
            let loop_multiplier = if is_hotspot {
                4.0 + h.mix(b"loop").unit() * 4.0
            } else if h.mix(b"clean").chance(0.44) {
                0.0
            } else {
                0.3 + h.mix(b"loop").unit() * 2.7
            };

            ases.push(AsParams {
                asn,
                activity,
                loop_multiplier,
            });

            for _ in 0..n_prefixes {
                const BASE: Prefix = Prefix::from_segments([0x2a00, 0, 0, 0, 0, 0, 0, 0], 12);
                // Spread allocations across the /12 deterministically.
                let prefix = BASE.subprefix(32, next_index);
                next_index += 1;
                entries.push(BgpEntry { prefix, asn });
            }
        }
        entries.sort_by_key(|e| e.prefix.addr());
        BgpTable {
            seed,
            entries,
            ases,
        }
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All advertised prefixes, sorted by address.
    pub fn entries(&self) -> &[BgpEntry] {
        &self.entries
    }

    /// Per-AS parameters.
    pub fn ases(&self) -> &[AsParams] {
        &self.ases
    }

    /// Parameters for one AS, in constant time: generation fills slot `i`
    /// with catalog AS `i` while the catalog lasts and with AS
    /// `100_000 + i` after it, so an ASN names its own slot.
    pub fn as_params(&self, asn: u32) -> Option<&AsParams> {
        let i = match asn.checked_sub(SYNTHETIC_ASN_BASE) {
            Some(i) => i as usize,
            None => geo::KNOWN_ASES.iter().position(|a| a.asn == asn)?,
        };
        self.ases.get(i).filter(|a| a.asn == asn)
    }

    /// Finds the advertised prefix containing `addr`, if any.
    pub fn locate(&self, addr: Ip6) -> Option<&BgpEntry> {
        let idx = self.entries.partition_point(|e| e.prefix.addr() <= addr);
        if idx == 0 {
            return None;
        }
        let entry = &self.entries[idx - 1];
        entry.prefix.contains(addr).then_some(entry)
    }

    /// The country of an entry's origin AS.
    pub fn country_of(&self, asn: u32) -> &'static str {
        geo::country_of(asn, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_addr::IidClass;

    #[test]
    fn generation_is_deterministic() {
        let a = BgpTable::generate(11, 100);
        let b = BgpTable::generate(11, 100);
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn entry_counts_scale_with_ases() {
        let t = BgpTable::generate(1, 500);
        assert_eq!(t.ases().len(), 500);
        // Heavy tail: more prefixes than ASes, but far fewer than 12x.
        assert!(t.entries().len() > 500, "{}", t.entries().len());
        assert!(t.entries().len() < 4000, "{}", t.entries().len());
    }

    #[test]
    fn locate_finds_containing_prefix() {
        let t = BgpTable::generate(3, 200);
        for e in t.entries().iter().step_by(17) {
            let inside = e.prefix.addr().with_iid(0x1234);
            let found = t.locate(inside).expect("inside an advertised prefix");
            assert_eq!(found.prefix, e.prefix);
            assert_eq!(found.asn, e.asn);
        }
        assert!(t.locate("2001:db8::1".parse().unwrap()).is_none());
        assert!(t.locate("2405:200::1".parse().unwrap()).is_none());
    }

    #[test]
    fn prefixes_are_disjoint() {
        let t = BgpTable::generate(5, 300);
        for w in t.entries().windows(2) {
            assert!(!w[0].prefix.covers(w[1].prefix));
            assert!(!w[1].prefix.covers(w[0].prefix));
        }
    }

    #[test]
    fn hotspot_ases_advertise_more_and_loop_more() {
        let t = BgpTable::generate(7, 2000);
        let hotspot = t.as_params(28573).expect("Claro present");
        assert!(hotspot.loop_multiplier >= 4.0);
        let hotspot_prefixes = t.entries().iter().filter(|e| e.asn == 28573).count();
        assert!(hotspot_prefixes >= 24, "{hotspot_prefixes}");
        // A majority of non-hotspot ASes still have loops (3877/6911 ≈ 56%).
        let loopy = t.ases().iter().filter(|a| a.loop_multiplier > 0.0).count();
        let frac = loopy as f64 / t.ases().len() as f64;
        assert!((0.45..0.75).contains(&frac), "loopy fraction {frac}");
    }

    #[test]
    fn as_params_resolves_every_generated_asn_and_nothing_else() {
        let t = BgpTable::generate(7, 2000);
        for a in t.ases() {
            assert_eq!(t.as_params(a.asn), Some(a), "AS{}", a.asn);
        }
        for e in t.entries() {
            assert_eq!(t.as_params(e.asn).map(|a| a.asn), Some(e.asn));
        }
        for asn in TOP_LOOP_ASNS {
            assert!(t.as_params(asn).is_some(), "hotspot AS{asn}");
        }
        // Unknown: below the catalog, a synthetic slot the catalog holds,
        // one past the table, and the far end of the ASN space.
        for asn in [1, SYNTHETIC_ASN_BASE, SYNTHETIC_ASN_BASE + 2000, u32::MAX] {
            assert_eq!(t.as_params(asn), None, "AS{asn}");
        }
        // A table shorter than the catalog knows only its own ASes.
        let short = BgpTable::generate(7, 5);
        assert!(short.as_params(geo::KNOWN_ASES[4].asn).is_some());
        assert_eq!(short.as_params(geo::KNOWN_ASES[5].asn), None);
    }

    #[test]
    fn class_constants_consistent() {
        assert_eq!(BGP_IID_MIX.len(), IidClass::ALL.len());
        assert_eq!(BGP_IID_MIX.iter().sum::<u32>(), 1000);
        // Pooled loop rate ~3.2%.
        let pooled: f64 = BGP_IID_MIX
            .iter()
            .zip(LOOP_RATE_BY_CLASS)
            .map(|(m, r)| *m as f64 / 1000.0 * r)
            .sum();
        assert!((0.025..0.04).contains(&pooled), "pooled {pooled}");
        // Loop-population mix must reproduce Table X's low-byte dominance.
        let low_share = (BGP_IID_MIX[2] as f64 / 1000.0 * LOOP_RATE_BY_CLASS[2]) / pooled;
        assert!(
            (0.28..0.36).contains(&low_share),
            "low-byte share {low_share}"
        );
    }
}
