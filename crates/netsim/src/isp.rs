//! The twelve ISPs / fifteen sample IPv6 blocks of Tables I and II.
//!
//! Each [`IspProfile`] bundles the paper's published per-block facts:
//! the WHOIS block and inferred sub-prefix length (Table I), the scan range
//! and discovery statistics (Table II), the per-service exposure rates
//! (Table VII), the routing-loop prevalence and its same/diff split
//! (Table XI), and a vendor mix consistent with Table IV and Figures 2/3/6.
//!
//! The procedural world ([`crate::world`]) draws device populations from
//! these parameters, so re-running the paper's scans over the simulated
//! Internet reproduces the tables' *shape* (and, after scale correction,
//! their magnitudes). Block prefixes are synthetic stand-ins documented in
//! DESIGN.md — WHOIS data is not available offline.

use xmap_addr::{Prefix, ScanRange};

/// Network type of a block (Table I "Network" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Fixed-line broadband.
    Broadband,
    /// Cellular/mobile.
    Mobile,
    /// Enterprise access.
    Enterprise,
}

impl std::fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetworkKind::Broadband => "Broadband",
            NetworkKind::Mobile => "Mobile",
            NetworkKind::Enterprise => "Enterprise",
        };
        f.write_str(s)
    }
}

/// Static description of one sample IPv6 block within an ISP.
#[derive(Debug, Clone)]
pub struct IspProfile {
    /// Row id P1..=P15 as used in Table VII.
    pub id: u8,
    /// ISO country code (`IN`, `US`, `CN`).
    pub country: &'static str,
    /// Network type.
    pub network: NetworkKind,
    /// ISP display name.
    pub name: &'static str,
    /// Autonomous system number (Table I).
    pub asn: u32,
    /// Length of the ISP's WHOIS block (Table I "Block").
    pub block_len: u8,
    /// The sample prefix actually scanned (base of the scan range).
    pub scan_base: Prefix,
    /// Inferred sub-prefix length assigned to end users (Table I "Length").
    pub assigned_len: u8,
    /// Fraction of sub-prefixes with an active periphery
    /// (Table II "# uniq" / scan-space size).
    pub occupancy: f64,
    /// Fraction of last hops replying from the probed /64 (Table II "same").
    pub same_frac: f64,
    /// Fraction of last hops with EUI-64 IIDs (Table II "EUI-64 addr %").
    pub eui64_frac: f64,
    /// Target fraction of distinct WAN /64s among diff-mode last hops
    /// (Table II "/64 prefix %": low for ISPs that aggregate many CPE WAN
    /// addresses into shared /64s, e.g. Comcast 6.5%).
    pub wan_unique64_frac: f64,
    /// Fraction of EUI-64 devices drawing their MAC from a small shared pool
    /// (1 − Table II "MAC addr %"): counterfeit/cloned MACs.
    pub mac_dup_frac: f64,
    /// Per-service exposure rates among discovered peripheries, indexed like
    /// `ServiceKind::ALL` (Table VII percentages as fractions).
    pub service_rates: [f64; 8],
    /// Fraction of peripheries vulnerable to the routing loop (Table XI
    /// "# uniq" / Table II "# uniq").
    pub loop_rate: f64,
    /// Among loop-vulnerable devices, fraction replying from the probed /64
    /// (Table XI "same").
    pub loop_same_frac: f64,
    /// Vendor mix `(vendor, weight)`; names resolve in `xmap_addr::oui`.
    pub vendors: &'static [(&'static str, u32)],
    /// Typical hop count from the measurement vantage to the ISP router.
    pub hops_base: u8,
    /// Fraction of probes silently filtered by upstream policy.
    pub filter_frac: f64,
    /// Fraction of sub-prefixes that are *aliased*: a middlebox answers
    /// echo for every address under them (the false-positive hazard that
    /// IPv6 hitlist studies de-alias away; the campaign must detect and
    /// exclude these).
    pub aliased_frac: f64,
}

impl IspProfile {
    /// The scan range of Table II (scan base → assigned length).
    ///
    /// # Panics
    ///
    /// Panics if the static profile data is malformed (covered by tests).
    pub fn scan_range(&self) -> ScanRange {
        ScanRange::new(self.scan_base, self.assigned_len).expect("static scan range is valid")
    }

    /// The scanned sample prefix.
    pub const fn scan_prefix(&self) -> Prefix {
        self.scan_base
    }

    /// The sibling prefix this profile's CPE WAN addresses are aggregated
    /// under (the "WAN zone"): same length as the scan base, last prefix bit
    /// flipped. Synthetic stand-in for the ISP's WAN aggregation block.
    pub fn wan_zone(&self) -> Prefix {
        let p = self.scan_base;
        let flipped = p.addr().bits() ^ (1u128 << (128 - p.len() as u32));
        Prefix::new(xmap_addr::Ip6::new(flipped), p.len())
    }

    /// Number of scannable sub-prefixes in the sample block.
    pub fn space_size(&self) -> u128 {
        self.scan_range().space_size()
    }

    /// Expected periphery population of the full sample block.
    pub fn expected_devices(&self) -> f64 {
        self.space_size() as f64 * self.occupancy
    }

    /// Display label, e.g. `Reliance Jio (IN, Broadband)`.
    pub fn label(&self) -> String {
        format!("{} ({}, {})", self.name, self.country, self.network)
    }
}

/// Mobile-network UE vendor mix shared by the cellular blocks.
const UE_VENDORS: &[(&str, u32)] = &[
    ("NTMore", 220),
    ("HMD Global", 100),
    ("Vivo", 70),
    ("Oppo", 60),
    ("Apple", 60),
    ("Samsung", 45),
    ("Nokia", 38),
    ("LG", 18),
    ("Motorola", 11),
    ("Lenovo", 9),
    ("Nubia", 8),
    ("OnePlus", 2),
];

/// The fifteen sample blocks of Table I / Table II, with calibration data
/// transcribed from Tables II, VII and XI.
///
/// Order matches the `P` column of Table VII (1-based ids).
pub const SAMPLE_BLOCKS: &[IspProfile] = &[
    IspProfile {
        id: 1,
        country: "IN",
        network: NetworkKind::Broadband,
        name: "Reliance Jio",
        asn: 55836,
        block_len: 32,
        scan_base: Prefix::from_segments([0x2405, 0x200, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 3_365_175.0 / 4_294_967_296.0,
        same_frac: 0.998,
        eui64_frac: 0.014,
        wan_unique64_frac: 1.0,
        mac_dup_frac: 0.001,
        // Table VII row 1: DNS 30.3k, NTP 6, FTP 1, SSH 9, TELNET 1,
        // HTTP 102, TLS 0, 8080 1.4k of 3.365M.
        service_rates: [0.009, 2e-6, 3e-7, 2.7e-6, 3e-7, 3e-5, 0.0, 4.2e-4],
        loop_rate: 8_606.0 / 3_365_175.0,
        loop_same_frac: 0.979,
        vendors: &[
            ("Shenzhen", 30),
            ("ZTE", 20),
            ("Huawei", 18),
            ("TP-Link", 14),
            ("D-Link", 10),
            ("Tenda", 5),
            ("Optilink", 3),
        ],
        hops_base: 14,
        filter_frac: 0.01,
        aliased_frac: 2e-6,
    },
    IspProfile {
        id: 2,
        country: "IN",
        network: NetworkKind::Broadband,
        name: "BSNL",
        asn: 9829,
        block_len: 32,
        scan_base: Prefix::from_segments([0x2401, 0x4900, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 2_404.0 / 4_294_967_296.0,
        same_frac: 0.344,
        eui64_frac: 0.767,
        wan_unique64_frac: 0.947,
        mac_dup_frac: 0.040,
        // Table VII row 2 of 2,404 devices.
        service_rates: [0.002, 0.037, 0.009, 0.037, 0.023, 0.010, 0.008, 0.002],
        loop_rate: 324.0 / 2_404.0,
        loop_same_frac: 0.543,
        vendors: &[
            ("D-Link", 20),
            ("TP-Link", 20),
            ("Optilink", 18),
            ("MikroTik", 12),
            ("Tenda", 10),
            ("Huawei", 10),
            ("Netgear", 10),
        ],
        hops_base: 17,
        filter_frac: 0.15,
        aliased_frac: 1e-5,
    },
    IspProfile {
        id: 3,
        country: "IN",
        network: NetworkKind::Mobile,
        name: "Bharti Airtel",
        asn: 45609,
        block_len: 32,
        scan_base: Prefix::from_segments([0x2402, 0x3a80, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 22_542_690.0 / 4_294_967_296.0,
        same_frac: 0.989,
        eui64_frac: 0.014,
        wan_unique64_frac: 0.991,
        mac_dup_frac: 0.024,
        // Row 3: DNS 36.6k, NTP 131, FTP 27, SSH 50, TELNET 19, HTTP 1.0k,
        // 8080 6.7k of 22.5M.
        service_rates: [0.0016, 6e-6, 1.2e-6, 2.2e-6, 8e-7, 4.4e-5, 0.0, 3.0e-4],
        loop_rate: 29_135.0 / 22_542_690.0,
        loop_same_frac: 0.992,
        vendors: UE_VENDORS,
        hops_base: 15,
        filter_frac: 0.01,
        aliased_frac: 2e-6,
    },
    IspProfile {
        id: 4,
        country: "IN",
        network: NetworkKind::Mobile,
        name: "Vodafone",
        asn: 38266,
        block_len: 32,
        scan_base: Prefix::from_segments([0x2402, 0x8100, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 2_307_784.0 / 4_294_967_296.0,
        same_frac: 0.998,
        eui64_frac: 0.013,
        wan_unique64_frac: 1.0,
        mac_dup_frac: 0.031,
        // Row 4: DNS 201, NTP 39, SSH 13, TELNET 2, HTTP 141, 8080 623.
        service_rates: [8.7e-5, 1.7e-5, 0.0, 5.6e-6, 8.7e-7, 6.1e-5, 0.0, 2.7e-4],
        loop_rate: 207.0 / 2_307_784.0,
        loop_same_frac: 0.372,
        vendors: UE_VENDORS,
        hops_base: 16,
        filter_frac: 0.02,
        aliased_frac: 2e-6,
    },
    IspProfile {
        id: 5,
        country: "US",
        network: NetworkKind::Broadband,
        name: "Comcast",
        asn: 7922,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2601, 0, 0, 0, 0, 0, 0, 0], 24),
        assigned_len: 56,
        occupancy: 87_308.0 / 4_294_967_296.0,
        same_frac: 0.0,
        eui64_frac: 0.950,
        wan_unique64_frac: 0.065,
        mac_dup_frac: 0.0,
        // Row 5: DNS 9, NTP 290, FTP 5, SSH 13, TELNET 50, HTTP 54, TLS 64,
        // 8080 319 of 87k.
        service_rates: [
            1.0e-4, 0.0033, 5.7e-5, 1.5e-4, 5.7e-4, 6.2e-4, 7.3e-4, 0.0037,
        ],
        loop_rate: 31.0 / 87_308.0,
        loop_same_frac: 0.0,
        vendors: &[
            ("Technicolor", 35),
            ("ARRIS", 25),
            ("Xfinity", 20),
            ("Netgear", 12),
            ("Linksys", 8),
        ],
        hops_base: 11,
        filter_frac: 0.02,
        aliased_frac: 4e-6,
    },
    IspProfile {
        id: 6,
        country: "US",
        network: NetworkKind::Broadband,
        name: "AT&T",
        asn: 7018,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2600, 0x1700, 0, 0, 0, 0, 0, 0], 28),
        assigned_len: 60,
        occupancy: 740_141.0 / 4_294_967_296.0,
        same_frac: 0.0,
        eui64_frac: 0.128,
        wan_unique64_frac: 0.994,
        mac_dup_frac: 0.001,
        // Row 6: DNS 3.6k, NTP 320, FTP 880, SSH 223, TELNET 13, HTTP 340,
        // TLS 3.4k of 740k.
        service_rates: [0.0049, 4.3e-4, 0.0012, 3.0e-4, 1.8e-5, 4.6e-4, 0.0046, 0.0],
        loop_rate: 1_598.0 / 740_141.0,
        loop_same_frac: 0.0,
        vendors: &[
            ("ARRIS", 40),
            ("Technicolor", 30),
            ("Netgear", 12),
            ("Linksys", 8),
            ("Asus", 10),
        ],
        hops_base: 12,
        filter_frac: 0.02,
        aliased_frac: 3e-6,
    },
    IspProfile {
        id: 7,
        country: "US",
        network: NetworkKind::Broadband,
        name: "Charter",
        asn: 20115,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2602, 0, 0, 0, 0, 0, 0, 0], 24),
        assigned_len: 56,
        occupancy: 13_027.0 / 4_294_967_296.0,
        same_frac: 0.016,
        eui64_frac: 0.006,
        wan_unique64_frac: 0.121,
        mac_dup_frac: 0.0,
        // Row 7: DNS 437 (3.4%), NTP 58, FTP 1, SSH 46, TELNET 3, HTTP 31,
        // TLS 372 (2.9%), 8080 357 (2.7%).
        service_rates: [0.034, 0.004, 7.7e-5, 0.004, 2.3e-4, 0.002, 0.029, 0.027],
        loop_rate: 373.0 / 13_027.0,
        loop_same_frac: 0.0,
        vendors: &[
            ("Hitron Tech", 35),
            ("Technicolor", 20),
            ("ARRIS", 20),
            ("Netgear", 12),
            ("Asus", 7),
            ("Linksys", 6),
        ],
        hops_base: 13,
        filter_frac: 0.05,
        aliased_frac: 4e-6,
    },
    IspProfile {
        id: 8,
        country: "US",
        network: NetworkKind::Broadband,
        name: "CenturyLink",
        asn: 209,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2605, 0, 0, 0, 0, 0, 0, 0], 24),
        assigned_len: 56,
        occupancy: 249_835.0 / 4_294_967_296.0,
        same_frac: 0.0,
        eui64_frac: 0.370,
        wan_unique64_frac: 0.934,
        mac_dup_frac: 0.013,
        // Row 8: DNS 3.6k (1.4%), NTP 14.9k (6.0%), FTP 1.0k, SSH 1.9k,
        // TELNET 1.5k, HTTP 38, TLS 3.0k (1.2%), 8080 2.
        service_rates: [0.014, 0.060, 0.004, 0.008, 0.006, 1.5e-4, 0.012, 8e-6],
        loop_rate: 20_055.0 / 249_835.0,
        loop_same_frac: 0.0,
        vendors: &[
            ("Technicolor", 40),
            ("ARRIS", 18),
            ("D-Link", 12),
            ("Netgear", 12),
            ("Hitron Tech", 10),
            ("Asus", 8),
        ],
        hops_base: 12,
        filter_frac: 0.02,
        aliased_frac: 3e-6,
    },
    IspProfile {
        id: 9,
        country: "US",
        network: NetworkKind::Mobile,
        name: "AT&T Mobility",
        asn: 20057,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2600, 0x380, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 1_734_506.0 / 4_294_967_296.0,
        same_frac: 0.945,
        eui64_frac: 0.0003,
        wan_unique64_frac: 0.997,
        mac_dup_frac: 0.006,
        // Row 9: SSH 3, TELNET 2, HTTP 625, TLS 625, 8080 489 of 1.73M.
        service_rates: [0.0, 0.0, 0.0, 1.7e-6, 1.2e-6, 3.6e-4, 3.6e-4, 2.8e-4],
        loop_rate: 2.0 / 1_734_506.0,
        loop_same_frac: 0.0,
        vendors: UE_VENDORS,
        hops_base: 10,
        filter_frac: 0.01,
        aliased_frac: 1e-6,
    },
    IspProfile {
        id: 10,
        country: "US",
        network: NetworkKind::Enterprise,
        name: "Mediacom",
        asn: 30036,
        block_len: 28,
        scan_base: Prefix::from_segments([0x2604, 0x2d80, 0, 0, 0, 0, 0, 0], 28),
        assigned_len: 56,
        occupancy: 38_399.0 / 268_435_456.0,
        same_frac: 0.0,
        eui64_frac: 0.004,
        wan_unique64_frac: 0.013,
        mac_dup_frac: 0.072,
        // Row 10: DNS 93, NTP 129, FTP 14, SSH 1.2k (3.0%), TELNET 1.1k
        // (2.7%), HTTP 2.6k (6.8%), TLS 1.3k (3.4%), 8080 55.
        service_rates: [0.002, 0.003, 3.6e-4, 0.030, 0.027, 0.068, 0.034, 0.001],
        loop_rate: 7_161.0 / 38_399.0,
        loop_same_frac: 0.0,
        vendors: &[
            ("MikroTik", 25),
            ("OpenWrt", 20),
            ("Hitron Tech", 18),
            ("Netgear", 15),
            ("D-Link", 12),
            ("Asus", 10),
        ],
        hops_base: 13,
        filter_frac: 0.03,
        aliased_frac: 6e-6,
    },
    IspProfile {
        id: 11,
        country: "CN",
        network: NetworkKind::Broadband,
        name: "China Telecom",
        asn: 4134,
        block_len: 24,
        scan_base: Prefix::from_segments([0x240e, 0x300, 0, 0, 0, 0, 0, 0], 28),
        assigned_len: 60,
        occupancy: 2_122_292.0 / 4_294_967_296.0,
        same_frac: 0.002,
        eui64_frac: 0.122,
        wan_unique64_frac: 0.990,
        mac_dup_frac: 0.026,
        // Row 11: DNS 63.6k (3.0%), NTP 146, FTP 211, SSH 335, TELNET 240,
        // HTTP 791, TLS 51, 8080 7.
        service_rates: [
            0.030, 6.9e-5, 9.9e-5, 1.6e-4, 1.1e-4, 3.7e-4, 2.4e-5, 3.3e-6,
        ],
        loop_rate: 843_375.0 / 2_122_292.0,
        loop_same_frac: 0.041,
        vendors: &[
            ("Fiberhome", 24),
            ("Huawei", 20),
            ("China Telecom", 20),
            ("TP-Link", 14),
            ("Skyworth", 10),
            ("D-Link", 6),
            ("Tenda", 6),
        ],
        hops_base: 18,
        filter_frac: 0.01,
        aliased_frac: 4e-6,
    },
    IspProfile {
        id: 12,
        country: "CN",
        network: NetworkKind::Broadband,
        name: "China Unicom",
        asn: 4837,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2408, 0x8200, 0, 0, 0, 0, 0, 0], 28),
        assigned_len: 60,
        occupancy: 1_273_075.0 / 4_294_967_296.0,
        same_frac: 0.030,
        eui64_frac: 0.533,
        wan_unique64_frac: 1.0,
        mac_dup_frac: 0.046,
        // Row 12: DNS 202.3k (15.9%), NTP 76, FTP 35.8k (2.8%), SSH 20.5k
        // (1.6%), TELNET 36.5k (2.9%), HTTP 211.0k (16.6%), TLS 169,
        // 8080 229.5k (18.0%).
        service_rates: [0.159, 6e-5, 0.028, 0.016, 0.029, 0.166, 1.3e-4, 0.180],
        loop_rate: 1_003_635.0 / 1_273_075.0,
        loop_same_frac: 0.039,
        vendors: &[
            ("ZTE", 48),
            ("China Unicom", 16),
            ("Youhua Tech", 10),
            ("Huawei", 9),
            ("TP-Link", 8),
            ("D-Link", 4),
            ("Xiaomi", 3),
            ("Tenda", 2),
        ],
        hops_base: 17,
        filter_frac: 0.01,
        aliased_frac: 5e-6,
    },
    IspProfile {
        id: 13,
        country: "CN",
        network: NetworkKind::Broadband,
        name: "China Mobile",
        asn: 9808,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2409, 0x8000, 0, 0, 0, 0, 0, 0], 28),
        assigned_len: 60,
        occupancy: 7_316_861.0 / 4_294_967_296.0,
        same_frac: 0.024,
        eui64_frac: 0.331,
        wan_unique64_frac: 1.0,
        mac_dup_frac: 0.037,
        // Row 13: DNS 403.0k (5.5%), NTP 19, FTP 139.4k (1.9%), SSH 114.2k
        // (1.6%), TELNET 140.2k (1.9%), HTTP 1.0M (14.3%), TLS 138.2k
        // (1.9%), 8080 3.3M (44.8%).
        service_rates: [0.055, 2.6e-6, 0.019, 0.016, 0.019, 0.143, 0.019, 0.448],
        loop_rate: 3_877_512.0 / 7_316_861.0,
        loop_same_frac: 0.045,
        vendors: &[
            ("China Mobile", 50),
            ("Skyworth", 13),
            ("Fiberhome", 8),
            ("ZTE", 8),
            ("Youhua Tech", 5),
            ("StarNet", 4),
            ("AVM GmbH", 3),
            ("Huawei", 2),
            ("Mercury", 2),
            ("TP-Link", 1),
        ],
        hops_base: 19,
        filter_frac: 0.01,
        aliased_frac: 4e-6,
    },
    IspProfile {
        id: 14,
        country: "CN",
        network: NetworkKind::Mobile,
        name: "China Unicom Mobile",
        asn: 4837,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2408, 0x8400, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 3_696_275.0 / 4_294_967_296.0,
        same_frac: 0.979,
        eui64_frac: 0.004,
        wan_unique64_frac: 0.999,
        mac_dup_frac: 0.012,
        // Row 14: DNS 468, NTP 21, SSH 8, TELNET 5, HTTP 147, TLS 4, 8080 176.
        service_rates: [1.3e-4, 5.7e-6, 0.0, 2.2e-6, 1.4e-6, 4.0e-5, 1.1e-6, 4.8e-5],
        loop_rate: 190.0 / 3_696_275.0,
        loop_same_frac: 0.0,
        vendors: UE_VENDORS,
        hops_base: 18,
        filter_frac: 0.01,
        aliased_frac: 1e-6,
    },
    IspProfile {
        id: 15,
        country: "CN",
        network: NetworkKind::Mobile,
        name: "China Mobile Cellular",
        asn: 9808,
        block_len: 24,
        scan_base: Prefix::from_segments([0x2409, 0x8900, 0, 0, 0, 0, 0, 0], 32),
        assigned_len: 64,
        occupancy: 7_193_972.0 / 4_294_967_296.0,
        same_frac: 0.984,
        eui64_frac: 0.003,
        wan_unique64_frac: 0.999,
        mac_dup_frac: 0.014,
        // Row 15: DNS 296, NTP 122, SSH 133, TELNET 130, HTTP 96, TLS 1, 8080 236.
        service_rates: [4.1e-5, 1.7e-5, 0.0, 1.8e-5, 1.8e-5, 1.3e-5, 1.4e-7, 3.3e-5],
        loop_rate: 353.0 / 7_193_972.0,
        loop_same_frac: 0.0,
        vendors: UE_VENDORS,
        hops_base: 19,
        filter_frac: 0.01,
        aliased_frac: 1e-6,
    },
];

/// Looks up a profile by Table VII row id (1..=15).
pub fn profile_by_id(id: u8) -> Option<&'static IspProfile> {
    SAMPLE_BLOCKS.iter().find(|p| p.id == id)
}

/// The non-EUI-64 IID class split used across blocks, chosen so the pooled
/// mix reproduces Table III (75.5% randomized, 10.4% byte-pattern,
/// 5.5% embed-IPv4, 1.0% low-byte of the overall population).
/// Order: randomized, byte-pattern, embed-IPv4, low-byte (per-mille of the
/// non-EUI-64 remainder).
pub const NON_EUI_IID_SPLIT: [u32; 4] = [817, 113, 59, 11];

const _: () = {
    // The split must be a per-mille distribution.
    assert!(
        NON_EUI_IID_SPLIT[0] + NON_EUI_IID_SPLIT[1] + NON_EUI_IID_SPLIT[2] + NON_EUI_IID_SPLIT[3]
            == 1000
    );
};

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_addr::oui;

    #[test]
    fn fifteen_blocks_with_unique_ids() {
        assert_eq!(SAMPLE_BLOCKS.len(), 15);
        for (i, p) in SAMPLE_BLOCKS.iter().enumerate() {
            assert_eq!(p.id as usize, i + 1, "ids must be 1..=15 in order");
        }
    }

    #[test]
    fn scan_ranges_parse_and_are_32bit_or_less() {
        for p in SAMPLE_BLOCKS {
            let r = p.scan_range();
            assert!(r.space_bits() <= 32, "{}: {} bits", p.name, r.space_bits());
            assert_eq!(r.end_bit(), p.assigned_len);
        }
    }

    #[test]
    fn scan_bases_match_table_ii_text() {
        // The const table is the single source of truth; this pins it to
        // the Table II strings it was transcribed from.
        let text = [
            "2405:200::/32",
            "2401:4900::/32",
            "2402:3a80::/32",
            "2402:8100::/32",
            "2601::/24",
            "2600:1700::/28",
            "2602::/24",
            "2605::/24",
            "2600:380::/32",
            "2604:2d80::/28",
            "240e:300::/28",
            "2408:8200::/28",
            "2409:8000::/28",
            "2408:8400::/32",
            "2409:8900::/32",
        ];
        assert_eq!(text.len(), SAMPLE_BLOCKS.len());
        for (p, s) in SAMPLE_BLOCKS.iter().zip(text) {
            assert_eq!(p.scan_base.to_string(), s, "{}", p.name);
            let parsed: ScanRange = format!("{s}-{}", p.assigned_len).parse().unwrap();
            assert_eq!(p.scan_range(), parsed, "{}", p.name);
        }
    }

    #[test]
    fn table_i_lengths() {
        // Every ISP assigns prefixes of length at most 64 (Section IV-A).
        for p in SAMPLE_BLOCKS {
            assert!(p.assigned_len <= 64, "{}", p.name);
            assert!(p.assigned_len >= 56, "{}", p.name);
        }
        // India and mobile blocks assign /64.
        for id in [1u8, 2, 3, 4, 9, 14, 15] {
            assert_eq!(profile_by_id(id).unwrap().assigned_len, 64);
        }
        // AT&T broadband and the Chinese broadband carriers assign /60.
        for id in [6u8, 11, 12, 13] {
            assert_eq!(profile_by_id(id).unwrap().assigned_len, 60);
        }
        // Comcast, Charter, CenturyLink, Mediacom assign /56.
        for id in [5u8, 7, 8, 10] {
            assert_eq!(profile_by_id(id).unwrap().assigned_len, 56);
        }
    }

    #[test]
    fn zones_are_pairwise_disjoint() {
        let mut zones = Vec::new();
        for p in SAMPLE_BLOCKS {
            zones.push((p.name, "scan", p.scan_prefix()));
            zones.push((p.name, "wan", p.wan_zone()));
        }
        for (i, a) in zones.iter().enumerate() {
            for b in zones.iter().skip(i + 1) {
                assert!(
                    !a.2.covers(b.2) && !b.2.covers(a.2),
                    "{} {} overlaps {} {}",
                    a.0,
                    a.1,
                    b.0,
                    b.1
                );
            }
        }
    }

    #[test]
    fn wan_zone_is_sibling() {
        let p = profile_by_id(1).unwrap();
        assert_eq!(p.wan_zone().len(), p.scan_prefix().len());
        assert_ne!(p.wan_zone(), p.scan_prefix());
        assert_eq!(p.wan_zone().to_string(), "2405:201::/32");
    }

    #[test]
    fn vendors_resolve_in_oui_registry() {
        for p in SAMPLE_BLOCKS {
            for (v, w) in p.vendors {
                assert!(*w > 0, "{}: zero weight for {v}", p.name);
                assert!(
                    oui::ouis_of(v).next().is_some(),
                    "{}: unknown vendor {v}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn mobile_blocks_use_ue_vendors() {
        for id in [3u8, 4, 9, 14, 15] {
            let p = profile_by_id(id).unwrap();
            assert_eq!(p.network, NetworkKind::Mobile);
            for (v, _) in p.vendors {
                assert_eq!(
                    oui::class_of(v),
                    Some(oui::DeviceClass::Ue),
                    "{}: {v} is not a UE vendor",
                    p.name
                );
            }
        }
    }

    #[test]
    fn occupancies_match_table_ii_totals() {
        // Sum of expected devices across blocks ~= 52.5M (Table II total).
        let total: f64 = SAMPLE_BLOCKS.iter().map(|p| p.expected_devices()).sum();
        assert!((5.1e7..5.4e7).contains(&total), "total {total}");
        // Airtel is the best-performing block, BSNL the worst.
        let airtel = profile_by_id(3).unwrap().expected_devices();
        let bsnl = profile_by_id(2).unwrap().expected_devices();
        for p in SAMPLE_BLOCKS {
            assert!(p.expected_devices() <= airtel + 1.0, "{}", p.name);
            assert!(p.expected_devices() >= bsnl - 1.0, "{}", p.name);
        }
    }

    #[test]
    fn loop_rates_match_table_xi() {
        // 5.79M loop-vulnerable of 52.5M total => ~11%.
        let loop_total: f64 = SAMPLE_BLOCKS
            .iter()
            .map(|p| p.expected_devices() * p.loop_rate)
            .sum();
        assert!(
            (5.6e6..6.0e6).contains(&loop_total),
            "loop total {loop_total}"
        );
        // China Unicom broadband is the loopiest (78.8%).
        assert!(profile_by_id(12).unwrap().loop_rate > 0.75);
        assert!(profile_by_id(9).unwrap().loop_rate < 1e-5);
    }

    #[test]
    fn probabilities_in_range() {
        for p in SAMPLE_BLOCKS {
            for (label, v) in [
                ("occupancy", p.occupancy),
                ("same", p.same_frac),
                ("eui64", p.eui64_frac),
                ("uniq64", p.wan_unique64_frac),
                ("macdup", p.mac_dup_frac),
                ("loop", p.loop_rate),
                ("loopsame", p.loop_same_frac),
                ("filter", p.filter_frac),
            ] {
                assert!((0.0..=1.0).contains(&v), "{} {label} = {v}", p.name);
            }
            for r in p.service_rates {
                assert!((0.0..=1.0).contains(&r), "{} service rate {r}", p.name);
            }
        }
    }
}
