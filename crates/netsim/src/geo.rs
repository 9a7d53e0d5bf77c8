//! ASN and country metadata — the offline stand-in for MaxMind GeoIP and
//! Routeviews AS names.
//!
//! The paper geolocates loop-vulnerable last hops to 3,877 ASes in 132
//! countries (of 6,911 ASes / 170 countries observed overall) and reports
//! the top loop ASNs and countries in Figure 5. This module carries:
//!
//! * a catalog of *named* ASes, including the measurement ISPs of Table I
//!   and the loop hotspots of Figure 5,
//! * a 170-entry country universe with weights so procedurally generated
//!   ASes land in countries with a realistic skew.

use crate::rng::{weighted_pick, DetHash};

/// A named autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsInfo {
    /// AS number.
    pub asn: u32,
    /// Operator name.
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
}

/// Named ASes: the twelve measurement ISPs (Table I) plus the routing-loop
/// hotspot ASes that dominate Figure 5.
pub const KNOWN_ASES: &[AsInfo] = &[
    AsInfo {
        asn: 209,
        name: "CenturyLink",
        country: "US",
    },
    AsInfo {
        asn: 3320,
        name: "Deutsche Telekom",
        country: "DE",
    },
    AsInfo {
        asn: 4134,
        name: "China Telecom",
        country: "CN",
    },
    AsInfo {
        asn: 4812,
        name: "China Telecom Shanghai",
        country: "CN",
    },
    AsInfo {
        asn: 4837,
        name: "China Unicom",
        country: "CN",
    },
    AsInfo {
        asn: 5089,
        name: "Virgin Media",
        country: "GB",
    },
    AsInfo {
        asn: 5610,
        name: "O2 Czech Republic",
        country: "CZ",
    },
    AsInfo {
        asn: 6730,
        name: "Sunrise",
        country: "CH",
    },
    AsInfo {
        asn: 7018,
        name: "AT&T",
        country: "US",
    },
    AsInfo {
        asn: 7922,
        name: "Comcast",
        country: "US",
    },
    AsInfo {
        asn: 9808,
        name: "China Mobile",
        country: "CN",
    },
    AsInfo {
        asn: 9829,
        name: "BSNL",
        country: "IN",
    },
    AsInfo {
        asn: 20057,
        name: "AT&T Mobility",
        country: "US",
    },
    AsInfo {
        asn: 20115,
        name: "Charter",
        country: "US",
    },
    AsInfo {
        asn: 24445,
        name: "Henan Mobile",
        country: "CN",
    },
    AsInfo {
        asn: 27947,
        name: "Telconet",
        country: "EC",
    },
    AsInfo {
        asn: 28573,
        name: "Claro Brasil",
        country: "BR",
    },
    AsInfo {
        asn: 30036,
        name: "Mediacom",
        country: "US",
    },
    AsInfo {
        asn: 38266,
        name: "Vodafone India",
        country: "IN",
    },
    AsInfo {
        asn: 45609,
        name: "Bharti Airtel",
        country: "IN",
    },
    AsInfo {
        asn: 45899,
        name: "VNPT",
        country: "VN",
    },
    AsInfo {
        asn: 55836,
        name: "Reliance Jio",
        country: "IN",
    },
    AsInfo {
        asn: 58952,
        name: "Frontiir",
        country: "MM",
    },
];

/// The ten routing-loop hotspot ASNs of Figure 5, largest first.
pub const TOP_LOOP_ASNS: [u32; 10] = [
    28573, 4134, 27947, 45899, 7922, 58952, 55836, 5089, 3320, 6730,
];

/// The routing-loop top countries of Figure 5, largest first.
pub const TOP_LOOP_COUNTRIES: [&str; 11] = [
    "BR", "CN", "EC", "VN", "US", "MM", "IN", "GB", "DE", "CH", "CZ",
];

/// 170 ISO country codes — the country universe of Table IX.
pub const COUNTRIES: &[&str] = &[
    "AD", "AE", "AF", "AG", "AL", "AM", "AO", "AR", "AT", "AU", "AZ", "BA", "BB", "BD", "BE", "BF",
    "BG", "BH", "BI", "BJ", "BN", "BO", "BR", "BS", "BT", "BW", "BY", "BZ", "CA", "CD", "CF", "CG",
    "CH", "CI", "CL", "CM", "CN", "CO", "CR", "CU", "CV", "CY", "CZ", "DE", "DJ", "DK", "DM", "DO",
    "DZ", "EC", "EE", "EG", "ER", "ES", "ET", "FI", "FJ", "FM", "FR", "GA", "GB", "GD", "GE", "GH",
    "GM", "GN", "GQ", "GR", "GT", "GW", "GY", "HN", "HR", "HT", "HU", "ID", "IE", "IL", "IN", "IQ",
    "IR", "IS", "IT", "JM", "JO", "JP", "KE", "KG", "KH", "KI", "KM", "KN", "KR", "KW", "KZ", "LA",
    "LB", "LC", "LI", "LK", "LR", "LS", "LT", "LU", "LV", "LY", "MA", "MC", "MD", "ME", "MG", "MK",
    "ML", "MM", "MN", "MR", "MT", "MU", "MV", "MW", "MX", "MY", "MZ", "NA", "NE", "NG", "NI", "NL",
    "NO", "NP", "NZ", "OM", "PA", "PE", "PG", "PH", "PK", "PL", "PT", "PY", "QA", "RO", "RS", "RU",
    "RW", "SA", "SB", "SC", "SD", "SE", "SG", "SI", "SK", "SL", "SN", "SO", "SR", "SV", "SY", "SZ",
    "TD", "TG", "TH", "TJ", "TL", "TM", "TN", "TR", "US", "VN",
];

/// Looks up a named AS.
pub fn known_as(asn: u32) -> Option<&'static AsInfo> {
    KNOWN_ASES.iter().find(|a| a.asn == asn)
}

/// The country of an AS: named ASes resolve from [`KNOWN_ASES`]; synthetic
/// ASes are assigned deterministically with a skew toward the Figure 5
/// countries so that the loop-hotspot geography reproduces.
pub fn country_of(asn: u32, seed: u64) -> &'static str {
    if let Some(info) = known_as(asn) {
        return info.country;
    }
    let h = DetHash::new(seed).mix(b"country").mix_u64(asn as u64);
    // 45% of synthetic ASes land in the eleven hotspot countries, the rest
    // uniformly across the universe.
    if h.mix(b"hot").chance(0.45) {
        // Weighted toward the front of the hotspot list.
        let weights: [u32; 11] = [30, 24, 14, 12, 10, 8, 7, 5, 4, 3, 2];
        TOP_LOOP_COUNTRIES[weighted_pick(h.mix(b"which"), weights.iter().copied())]
    } else {
        COUNTRIES[h.mix(b"any").bounded(COUNTRIES.len() as u64) as usize]
    }
}

/// A display name for an AS (synthetic ASes get a generated name).
pub fn name_of(asn: u32) -> String {
    match known_as(asn) {
        Some(info) => info.name.to_owned(),
        None => format!("AS{asn}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_universe_size_and_uniqueness() {
        assert_eq!(COUNTRIES.len(), 170);
        let mut sorted = COUNTRIES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 170, "duplicate country codes");
    }

    #[test]
    fn known_ases_resolve() {
        assert_eq!(known_as(4134).unwrap().name, "China Telecom");
        assert_eq!(known_as(4134).unwrap().country, "CN");
        assert!(known_as(1).is_none());
    }

    #[test]
    fn top_loop_asns_are_known() {
        for asn in TOP_LOOP_ASNS {
            assert!(known_as(asn).is_some(), "AS{asn} must be in KNOWN_ASES");
        }
    }

    #[test]
    fn hotspot_countries_in_universe() {
        for c in TOP_LOOP_COUNTRIES {
            assert!(COUNTRIES.contains(&c), "{c}");
        }
    }

    #[test]
    fn country_of_is_deterministic_and_skewed() {
        assert_eq!(country_of(99999, 7), country_of(99999, 7));
        assert_eq!(country_of(4134, 7), "CN");
        // The hotspot skew: BR should be the most common synthetic country.
        let mut br = 0;
        let mut total_hot = 0;
        for asn in 100_000..104_000u32 {
            let c = country_of(asn, 7);
            if c == "BR" {
                br += 1;
            }
            if TOP_LOOP_COUNTRIES.contains(&c) {
                total_hot += 1;
            }
        }
        assert!(br > 300, "BR count {br}");
        assert!(total_hot > 1500, "hotspot count {total_hot}");
    }

    #[test]
    fn name_of_falls_back() {
        assert_eq!(name_of(9808), "China Mobile");
        assert_eq!(name_of(123456), "AS123456");
    }
}
