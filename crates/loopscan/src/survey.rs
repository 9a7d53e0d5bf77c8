//! Internet-wide and depth loop surveys (Tables IX–XI, Figures 5–6).
//!
//! * [`BgpSurvey`] probes the 16-bit sub-prefix space of every advertised
//!   BGP prefix (scaled by a per-prefix probe cap) with the crafted hop
//!   limit, records every last hop, and flags the looping ones — the data
//!   behind Table IX (population), Table X (IID mix of the vulnerable) and
//!   Figure 5 (top ASNs and countries).
//! * [`DepthSurvey`] re-scans the fifteen sample blocks with loop
//!   detection, classifying each vulnerable device as mis-routing its WAN
//!   ("same") or delegated LAN ("diff") prefix — Table XI — and joining
//!   vendors for Figure 6.

use std::collections::{HashMap, HashSet};

use xmap::{IcmpEchoProbe, IndexWalk, ProbeResult, Scanner};
use xmap_addr::oui;
use xmap_addr::{classify_iid, IidClass, IidHistogram, Ip6, Mac};
use xmap_netsim::isp::{IspProfile, SAMPLE_BLOCKS};
use xmap_netsim::packet::Network;
use xmap_netsim::World;

use crate::detect::{detect_loop_in, PROBE_HOP_LIMIT};

/// Chunk size of the strided [`IndexWalk`] target streams: both surveys
/// draw their indices through the scanner's chunked fill discipline
/// instead of per-target arithmetic.
const WALK_CHUNK: usize = 64;

/// One last hop observed in the BGP survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpLastHop {
    /// The exposed address.
    pub address: Ip6,
    /// Origin AS of the advertised prefix.
    pub asn: u32,
    /// Country of the AS.
    pub country: &'static str,
    /// Whether the destination loops (h/h+2 confirmed).
    pub vulnerable: bool,
}

/// Results of the BGP-wide survey.
#[derive(Debug, Clone, Default)]
pub struct BgpSurveyResult {
    /// Deduplicated last hops.
    pub last_hops: Vec<BgpLastHop>,
    /// Probes sent.
    pub probes: u64,
}

impl BgpSurveyResult {
    /// Unique last hops (Table IX row 1).
    pub fn total(&self) -> usize {
        self.last_hops.len()
    }

    /// Distinct ASNs observed.
    pub fn asns(&self) -> usize {
        self.last_hops
            .iter()
            .map(|h| h.asn)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Distinct countries observed.
    pub fn countries(&self) -> usize {
        self.last_hops
            .iter()
            .map(|h| h.country)
            .collect::<HashSet<_>>()
            .len()
    }

    /// The loop-vulnerable subset.
    pub fn vulnerable(&self) -> impl Iterator<Item = &BgpLastHop> {
        self.last_hops.iter().filter(|h| h.vulnerable)
    }

    /// Vulnerable count / ASNs / countries (Table IX row 2).
    pub fn vulnerable_summary(&self) -> (usize, usize, usize) {
        let count = self.vulnerable().count();
        let asns = self
            .vulnerable()
            .map(|h| h.asn)
            .collect::<HashSet<_>>()
            .len();
        let countries = self
            .vulnerable()
            .map(|h| h.country)
            .collect::<HashSet<_>>()
            .len();
        (count, asns, countries)
    }

    /// IID histogram of the vulnerable subset (Table X).
    pub fn vulnerable_iid_histogram(&self) -> IidHistogram {
        self.vulnerable().map(|h| h.address).collect()
    }

    /// Top `n` ASNs by vulnerable last hops (Figure 5 left).
    pub fn top_loop_asns(&self, n: usize) -> Vec<(u32, usize)> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for h in self.vulnerable() {
            *counts.entry(h.asn).or_insert(0) += 1;
        }
        let mut rows: Vec<(u32, usize)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Top `n` countries by vulnerable last hops (Figure 5 right).
    pub fn top_loop_countries(&self, n: usize) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for h in self.vulnerable() {
            *counts.entry(h.country).or_insert(0) += 1;
        }
        let mut rows: Vec<(&'static str, usize)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }
}

/// BGP-wide survey driver.
#[derive(Debug, Clone, Copy)]
pub struct BgpSurvey {
    /// Probes per advertised prefix (the full space is 2¹⁶ per prefix).
    pub probes_per_prefix: u64,
    /// Cap on prefixes surveyed (`None` = the whole table).
    pub max_prefixes: Option<usize>,
}

impl Default for BgpSurvey {
    fn default() -> Self {
        BgpSurvey {
            probes_per_prefix: 1 << 8,
            max_prefixes: None,
        }
    }
}

impl BgpSurvey {
    /// Runs the survey. Requires the scanner to sit on a [`World`] because
    /// the BGP table lives there.
    pub fn run(&self, scanner: &mut Scanner<World>) -> BgpSurveyResult {
        let entries: Vec<_> = scanner.network_mut().bgp().entries().to_vec();
        let limit = self.max_prefixes.unwrap_or(entries.len());
        let mut result = BgpSurveyResult::default();
        let mut seen = HashSet::new();
        for entry in entries.into_iter().take(limit) {
            self.survey_entry(scanner, &entry, &mut seen, &mut result);
        }
        result
    }

    /// Surveys one advertised prefix: probes its /48 sub-space under the
    /// per-prefix cap, appending newly-seen last hops to `out`. `seen`
    /// dedups across whatever scope the caller chooses — the sequential
    /// driver threads one set through the whole table, the parallel
    /// driver hands each entry a fresh set and dedups again at merge.
    pub(crate) fn survey_entry(
        &self,
        scanner: &mut Scanner<World>,
        entry: &xmap_netsim::bgp::BgpEntry,
        seen: &mut HashSet<Ip6>,
        out: &mut BgpSurveyResult,
    ) {
        let country = scanner.network_mut().bgp().country_of(entry.asn);
        let seed = scanner.config().seed;
        let mut session = scanner.targeted();
        // Bound at the entry's first loop detection, then reused.
        let mut telemetry = None;
        let mut responses = Vec::new();
        // Scan the /48 sub-space of this /32 with a per-prefix cap,
        // spreading deterministically over the 2^16 indices.
        let space = 1u64 << 16;
        let step = (space / self.probes_per_prefix.min(space)).max(1);
        let mut walk = IndexWalk::strided(0, step, self.probes_per_prefix.min(space));
        let mut buf = [0u64; WALK_CHUNK];
        loop {
            let n = walk.fill(&mut buf);
            if n == 0 {
                break;
            }
            for &index in &buf[..n] {
                let target = entry.prefix.subprefix(48, index as u128);
                let dst = xmap::fill_host_bits(target, seed);
                out.probes += 1;
                session.probe(dst, &IcmpEchoProbe, PROBE_HOP_LIMIT, &mut responses);
                let responder = responses.iter().find_map(|(src, r)| match r {
                    ProbeResult::Unreachable { .. } => Some((*src, false)),
                    ProbeResult::TimeExceeded if src.iid() >> 48 != 0xffff => Some((*src, true)),
                    _ => None,
                });
                let Some((address, te)) = responder else {
                    continue;
                };
                if !seen.insert(address) {
                    continue;
                }
                let vulnerable = if te {
                    detect_loop_in(&mut session, dst, PROBE_HOP_LIMIT, &mut telemetry).vulnerable
                } else {
                    false
                };
                out.last_hops.push(BgpLastHop {
                    address,
                    asn: entry.asn,
                    country,
                    vulnerable,
                });
            }
        }
    }
}

/// One loop-vulnerable periphery from the depth survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopPeriphery {
    /// Exposed address.
    pub address: Ip6,
    /// Block id (Table XI row).
    pub profile_id: u8,
    /// Origin AS of the block.
    pub asn: u32,
    /// Whether the Time Exceeded source shares the probed /64 (Table XI
    /// "same": the device mis-routes its WAN prefix).
    pub same64: bool,
    /// IID class of the address.
    pub iid_class: IidClass,
    /// Embedded MAC for EUI-64 addresses.
    pub mac: Option<Mac>,
}

/// Results of the depth survey over the sample blocks.
#[derive(Debug, Clone, Default)]
pub struct DepthSurveyResult {
    /// Vulnerable peripheries (deduplicated by address).
    pub peripheries: Vec<LoopPeriphery>,
    /// Probes sent per block.
    pub probed_per_block: HashMap<u8, u64>,
}

impl DepthSurveyResult {
    /// Vulnerable devices in one block.
    pub fn count_in_block(&self, profile_id: u8) -> usize {
        self.peripheries
            .iter()
            .filter(|p| p.profile_id == profile_id)
            .count()
    }

    /// Same-/64 fraction in one block (Table XI "same").
    pub fn same_frac_in_block(&self, profile_id: u8) -> f64 {
        let all: Vec<_> = self
            .peripheries
            .iter()
            .filter(|p| p.profile_id == profile_id)
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.iter().filter(|p| p.same64).count() as f64 / all.len() as f64
    }

    /// Overall same-/64 fraction (Table XI total: 4.9%).
    pub fn same_frac(&self) -> f64 {
        if self.peripheries.is_empty() {
            return 0.0;
        }
        self.peripheries.iter().filter(|p| p.same64).count() as f64 / self.peripheries.len() as f64
    }

    /// Vendor → count among vulnerable devices with identifiable vendors
    /// (Figure 6's device-vendor axis).
    pub fn vendor_counts(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for p in &self.peripheries {
            if let Some(entry) = p.mac.and_then(oui::lookup_mac) {
                *counts.entry(entry.vendor).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Top `n` (vendor, per-AS counts) rows for Figure 6.
    pub fn fig6_rows(&self, n: usize) -> Vec<(&'static str, HashMap<u32, usize>, usize)> {
        let mut per_vendor: HashMap<&'static str, HashMap<u32, usize>> = HashMap::new();
        for p in &self.peripheries {
            if let Some(entry) = p.mac.and_then(oui::lookup_mac) {
                *per_vendor
                    .entry(entry.vendor)
                    .or_default()
                    .entry(p.asn)
                    .or_insert(0) += 1;
            }
        }
        let mut rows: Vec<(&'static str, HashMap<u32, usize>, usize)> = per_vendor
            .into_iter()
            .map(|(v, per_as)| {
                let total = per_as.values().sum();
                (v, per_as, total)
            })
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }
}

/// Depth-survey driver over the fifteen sample blocks.
#[derive(Debug, Clone, Copy)]
pub struct DepthSurvey {
    /// Probes per block.
    pub probes_per_block: u64,
    /// Probing hop limit h (default [`PROBE_HOP_LIMIT`]).
    pub hop_limit: u8,
}

impl DepthSurvey {
    /// Creates a survey at the given per-block probe budget.
    pub fn new(probes_per_block: u64) -> Self {
        DepthSurvey {
            probes_per_block,
            hop_limit: PROBE_HOP_LIMIT,
        }
    }

    /// Runs the depth survey.
    pub fn run<N: Network>(&self, scanner: &mut Scanner<N>) -> DepthSurveyResult {
        let mut result = DepthSurveyResult::default();
        for profile in SAMPLE_BLOCKS {
            self.run_block(scanner, profile, &mut result);
        }
        result
    }

    /// Surveys one block.
    pub fn run_block<N: Network>(
        &self,
        scanner: &mut Scanner<N>,
        profile: &IspProfile,
        result: &mut DepthSurveyResult,
    ) {
        let range = profile.scan_range();
        let space = range.space_size();
        let budget = (self.probes_per_block as u128).min(space) as u64;
        let step = ((space / budget as u128).max(1)) as u64;
        let mut seen = HashSet::new();
        let mut probed = 0u64;
        let seed = scanner.config().seed;
        let mut session = scanner.targeted();
        // Bound at the block's first detection, then reused.
        let mut telemetry = None;
        let mut walk = IndexWalk::strided(0, step, budget);
        let mut buf = [0u64; WALK_CHUNK];
        loop {
            let n = walk.fill(&mut buf);
            if n == 0 {
                break;
            }
            for &index in &buf[..n] {
                let Some(target) = range.nth(index) else {
                    continue;
                };
                let dst = xmap::fill_host_bits(target, seed);
                probed += 1;
                let verdict = detect_loop_in(&mut session, dst, self.hop_limit, &mut telemetry);
                if !verdict.vulnerable {
                    continue;
                }
                let address = verdict.responder.expect("vulnerable implies responder");
                if !seen.insert(address) {
                    continue;
                }
                let mac = Mac::from_eui64(address.iid())
                    .filter(|_| classify_iid(address) == IidClass::Eui64);
                result.peripheries.push(LoopPeriphery {
                    address,
                    profile_id: profile.id,
                    asn: profile.asn,
                    same64: address.network(64) == dst.network(64),
                    iid_class: classify_iid(address),
                    mac,
                });
            }
        }
        result.probed_per_block.insert(profile.id, probed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::ScanConfig;
    use xmap_netsim::world::WorldConfig;

    fn scanner(bgp_ases: usize) -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(66, bgp_ases));
        Scanner::new(
            world,
            ScanConfig {
                seed: 23,
                ..Default::default()
            },
        )
    }

    /// Each survey keeps one telemetry binding per block; every detection
    /// must still be tallied through it.
    #[test]
    fn surveys_tally_every_detection() {
        use crate::telemetry::names;
        use xmap_telemetry::Telemetry;

        let telemetry = Telemetry::new();
        let world = World::with_config(WorldConfig::lossless(66, 300));
        let config = ScanConfig {
            seed: 23,
            ..Default::default()
        };
        let mut s = Scanner::with_telemetry(world, config, telemetry.clone());
        let mut depth = DepthSurveyResult::default();
        for block in [11, 12] {
            DepthSurvey::new(1 << 15).run_block(&mut s, &SAMPLE_BLOCKS[block], &mut depth);
        }
        let snap = telemetry.registry.snapshot();
        let probed: u64 = depth.probed_per_block.values().sum();
        assert_eq!(snap.counter(names::DETECTS), probed);
        assert!(!depth.peripheries.is_empty());
        // Every periphery is one vulnerable verdict; a repeat responder
        // is another verdict but no new periphery.
        assert!(snap.counter(names::VULNERABLE) >= depth.peripheries.len() as u64);

        let bgp = BgpSurvey {
            probes_per_prefix: 1 << 9,
            max_prefixes: Some(100),
        }
        .run(&mut s);
        let after = telemetry.registry.snapshot();
        let vulnerable = bgp.last_hops.iter().filter(|h| h.vulnerable).count() as u64;
        assert!(vulnerable > 0);
        assert_eq!(
            after.counter(names::VULNERABLE) - snap.counter(names::VULNERABLE),
            vulnerable
        );
        let detects = after.counter(names::DETECTS) - probed;
        assert!(detects >= vulnerable && detects <= bgp.last_hops.len() as u64);
    }

    #[test]
    fn bgp_survey_finds_last_hops_and_loops() {
        let mut s = scanner(300);
        let survey = BgpSurvey {
            probes_per_prefix: 1 << 9,
            max_prefixes: Some(400),
        };
        let result = survey.run(&mut s);
        assert!(result.total() > 20, "{}", result.total());
        assert!(result.asns() > 5, "{}", result.asns());
        let (vuln, vuln_asns, vuln_countries) = result.vulnerable_summary();
        assert!(vuln > 0, "no vulnerable last hops");
        assert!(vuln_asns >= 1 && vuln_countries >= 1);
        assert!(vuln < result.total());
    }

    #[test]
    fn bgp_vulnerable_iid_mix_skews_lowbyte() {
        let mut s = scanner(400);
        let survey = BgpSurvey {
            probes_per_prefix: 1 << 10,
            max_prefixes: Some(250),
        };
        let result = survey.run(&mut s);
        let hist = result.vulnerable_iid_histogram();
        if hist.total() >= 30 {
            // Table X: low-byte IIDs are hugely over-represented among
            // loop-vulnerable routers relative to the ~5% population share.
            assert!(
                hist.percent(IidClass::LowByte) > 12.0,
                "low-byte {}%",
                hist.percent(IidClass::LowByte)
            );
        }
    }

    #[test]
    fn depth_survey_matches_block_loop_ordering() {
        let mut s = scanner(10);
        let survey = DepthSurvey::new(1 << 16);
        let mut result = DepthSurveyResult::default();
        // Unicom broadband (index 11, 78.8% of devices loop) vs Jio
        // (index 0, 0.26%).
        survey.run_block(&mut s, &SAMPLE_BLOCKS[11], &mut result);
        survey.run_block(&mut s, &SAMPLE_BLOCKS[0], &mut result);
        let unicom = result.count_in_block(12);
        let jio = result.count_in_block(1);
        assert!(unicom > 3, "unicom {unicom}");
        assert!(jio <= unicom, "jio {jio} unicom {unicom}");
        // Unicom loops are ~96% diff.
        assert!(result.same_frac_in_block(12) < 0.3);
    }

    #[test]
    fn depth_survey_vendor_attribution() {
        let mut s = scanner(10);
        let survey = DepthSurvey::new(1 << 15);
        let mut result = DepthSurveyResult::default();
        // China Mobile broadband: 53% loop rate, 33% EUI-64.
        survey.run_block(&mut s, &SAMPLE_BLOCKS[12], &mut result);
        let vendors = result.vendor_counts();
        assert!(!vendors.is_empty(), "no vendors attributed");
        let rows = result.fig6_rows(5);
        assert!(!rows.is_empty());
        assert!(rows[0].2 >= rows.last().unwrap().2);
    }
}
