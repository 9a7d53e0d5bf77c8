//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! [`Experiment`] runs the complete measurement pipeline once over the
//! simulated Internet at a configurable scale and caches the intermediate
//! results; the `table*` / `fig*` functions render each artifact in the
//! paper's layout, reporting measured values next to the published ones
//! (scale-corrected where the experiment ran on a slice of the full
//! space). The `repro` binary drives this from the command line; the
//! criterion benches time the underlying computations.

use std::collections::HashMap;
use std::fmt::Write as _;

use xmap::{ScanConfig, Scanner};
use xmap_addr::oui::DeviceClass;
use xmap_addr::{IidClass, IidHistogram};
use xmap_appscan::{
    fig2_rows, fig3_rows, ServiceSurvey, SoftwareStats, SurveyRunner, VendorServiceMatrix,
};
use xmap_loopscan::survey::DepthSurveyResult;
use xmap_loopscan::{
    measure_amplification, measure_spoofed_doubling, run_case_studies, BgpSurvey, BgpSurveyResult,
    DepthSurvey,
};
use xmap_netsim::geo;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::services::ServiceKind;
use xmap_netsim::topology::{LoopBehavior, NAMED_MODELS};
use xmap_netsim::world::{World, WorldConfig};
use xmap_periphery::{infer_boundary, Campaign, CampaignResult, ParallelCampaign, VendorCounts};
use xmap_telemetry::Telemetry;

/// Scale and seed knobs for one full reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// World seed.
    pub seed: u64,
    /// Discovery probes per sample block (full space is 2³² or 2²⁸).
    pub discovery_probes_per_block: u64,
    /// Loop-survey probes per sample block.
    pub loop_probes_per_block: u64,
    /// Probes per BGP prefix (full space is 2¹⁶).
    pub bgp_probes_per_prefix: u64,
    /// Number of ASes in the synthetic BGP table.
    pub bgp_ases: usize,
    /// Worker threads for the discovery campaign. With more than one,
    /// blocks run on a worker pool of private world replicas and
    /// merge deterministically — every artifact stays byte-identical to
    /// a single-worker run.
    pub campaign_workers: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0x2021_0628, // the DSN'21 presentation date
            discovery_probes_per_block: 1 << 20,
            loop_probes_per_block: 1 << 19,
            bgp_probes_per_prefix: 1 << 8,
            bgp_ases: 6911,
            campaign_workers: 1,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests and quick runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            discovery_probes_per_block: 1 << 15,
            loop_probes_per_block: 1 << 14,
            bgp_probes_per_prefix: 1 << 6,
            bgp_ases: 800,
            ..Default::default()
        }
    }

    /// Reads overrides from `XMAP_SCALE` (log2 of discovery probes per
    /// block), falling back to the default.
    pub fn from_env() -> Self {
        let mut cfg = ExperimentConfig::default();
        if let Ok(v) = std::env::var("XMAP_SCALE") {
            if let Ok(bits) = v.parse::<u32>() {
                let bits = bits.clamp(8, 32);
                cfg.discovery_probes_per_block = 1u64 << bits;
                cfg.loop_probes_per_block = 1u64 << bits.saturating_sub(1).max(8);
            }
        }
        if let Ok(v) = std::env::var("XMAP_CAMPAIGN_WORKERS") {
            if let Ok(workers) = v.parse::<usize>() {
                cfg.campaign_workers = workers.max(1);
            }
        }
        cfg
    }
}

/// Cached pipeline results for one run.
pub struct Experiment {
    /// The configuration used.
    pub config: ExperimentConfig,
    /// Scanner over the world (kept for follow-up probes).
    pub scanner: Scanner<World>,
    campaign: Option<CampaignResult>,
    survey: Option<ServiceSurvey>,
    depth: Option<DepthSurveyResult>,
    bgp: Option<BgpSurveyResult>,
}

impl Experiment {
    /// Creates a fresh experiment.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment::with_telemetry(config, Telemetry::new())
    }

    /// Creates an experiment whose world and scanner share `telemetry`,
    /// so a run's counters can be exported after the artifacts render.
    pub fn with_telemetry(config: ExperimentConfig, telemetry: Telemetry) -> Self {
        let mut world = World::with_config(WorldConfig {
            seed: config.seed,
            bgp_ases: config.bgp_ases,
            ..WorldConfig::default()
        });
        world.set_telemetry(&telemetry);
        let scanner = Scanner::with_telemetry(
            world,
            ScanConfig {
                seed: config.seed,
                ..Default::default()
            },
            telemetry,
        );
        Experiment {
            config,
            scanner,
            campaign: None,
            survey: None,
            depth: None,
            bgp: None,
        }
    }

    /// The discovery-campaign results (computed on first use).
    ///
    /// With `campaign_workers > 1`, blocks run on the parallel campaign
    /// executor over private world replicas and the replicas' telemetry
    /// is folded back into this experiment's registry, so the campaign
    /// result and every exported metric stay byte-identical to the
    /// single-worker sequential walk.
    pub fn campaign(&mut self) -> &CampaignResult {
        if self.campaign.is_none() {
            let campaign = Campaign::new(self.config.discovery_probes_per_block);
            let c =
                if self.config.campaign_workers > 1 {
                    let seed = self.config.seed;
                    let bgp_ases = self.config.bgp_ases;
                    let outcome = ParallelCampaign::new(campaign, self.config.campaign_workers)
                        .run(self.scanner.config(), |_, telemetry| {
                            let mut world = World::with_config(WorldConfig {
                                seed,
                                bgp_ases,
                                ..WorldConfig::default()
                            });
                            world.set_telemetry(telemetry);
                            world
                        });
                    let registry = &self.scanner.telemetry().registry;
                    registry.absorb(&outcome.snapshot);
                    // `absorb` folds counters and histograms only; refresh the
                    // derived hit-rate gauge from the new cumulative totals,
                    // the same formula the scanner applies while running.
                    let snap = registry.snapshot();
                    let ppm = snap
                        .counter(xmap::telemetry::names::VALID)
                        .saturating_mul(1_000_000)
                        .checked_div(snap.counter(xmap::telemetry::names::SENT));
                    if let Some(ppm) = ppm {
                        registry
                            .gauge(xmap::telemetry::names::HIT_RATE_PPM)
                            .set(ppm);
                    }
                    outcome.result
                } else {
                    campaign.run(&mut self.scanner)
                };
            self.campaign = Some(c);
        }
        self.campaign.as_ref().expect("just computed")
    }

    /// The service-survey results (computed on first use).
    pub fn survey(&mut self) -> &ServiceSurvey {
        if self.survey.is_none() {
            self.campaign();
            let campaign = self.campaign.clone().expect("campaign cached");
            let s = SurveyRunner.run(&mut self.scanner, &campaign);
            self.survey = Some(s);
        }
        self.survey.as_ref().expect("just computed")
    }

    /// The depth loop-survey results (computed on first use).
    pub fn depth(&mut self) -> &DepthSurveyResult {
        if self.depth.is_none() {
            let d = DepthSurvey::new(self.config.loop_probes_per_block).run(&mut self.scanner);
            self.depth = Some(d);
        }
        self.depth.as_ref().expect("just computed")
    }

    /// The BGP loop-survey results (computed on first use).
    pub fn bgp(&mut self) -> &BgpSurveyResult {
        if self.bgp.is_none() {
            let survey = BgpSurvey {
                probes_per_prefix: self.config.bgp_probes_per_prefix,
                max_prefixes: None,
            };
            let b = survey.run(&mut self.scanner);
            self.bgp = Some(b);
        }
        self.bgp.as_ref().expect("just computed")
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 * 100.0 / d as f64
    }
}

/// Formats large counts compactly (52.5M style).
pub fn human(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Table I — inferred sub-prefix lengths, via live boundary inference.
pub fn table1(exp: &mut Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I: INFERRED IPV6 SUB-PREFIX LENGTH FOR END-USERS OF TARGET ISPS"
    );
    let _ = writeln!(
        out,
        "{:<3} {:<22} {:<10} {:>6} {:>6} {:>9} {:>9} {:>6}",
        "P", "ISP", "Network", "ASN", "Block", "Paper", "Inferred", "Conf"
    );
    for p in SAMPLE_BLOCKS {
        let inf = infer_boundary(&mut exp.scanner, p.scan_prefix(), 6000, 3);
        let inferred = inf
            .inferred_len
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let _ = writeln!(
            out,
            "{:<3} {:<22} {:<10} {:>6} {:>6} {:>9} {:>9} {:>5.0}%",
            p.id,
            p.name,
            p.network.to_string(),
            p.asn,
            format!("/{}", p.block_len),
            p.assigned_len,
            inferred,
            inf.confidence() * 100.0
        );
    }
    out
}

/// Table II — periphery scanning results per block.
pub fn table2(exp: &mut Experiment) -> String {
    let campaign = exp.campaign().clone();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE II: RESULTS OF PERIPHERY SCANNING FOR ONE SAMPLE IPV6 BLOCK WITHIN EACH ISP"
    );
    let _ = writeln!(
        out,
        "{:<3} {:<22} {:>9} {:>11} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "P",
        "ISP",
        "found",
        "est.total",
        "same%",
        "diff%",
        "/64uniq%",
        "EUI64%",
        "MACuniq%",
        "paper"
    );
    for b in &campaign.blocks {
        let p = b.profile();
        let uniq = b.unique();
        let mac_uniq_pct = if b.eui64_count() == 0 {
            100.0
        } else {
            pct(b.unique_mac(), b.eui64_count())
        };
        let _ = writeln!(
            out,
            "{:<3} {:<22} {:>9} {:>11} {:>6.1}% {:>6.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>8}",
            b.profile_id,
            p.name,
            uniq,
            human(b.estimated_total()),
            b.same_frac() * 100.0,
            (1.0 - b.same_frac()) * 100.0,
            pct(b.unique_64(), uniq.max(1)),
            pct(b.eui64_count(), uniq.max(1)),
            mac_uniq_pct,
            human(p.occupancy * p.space_size() as f64),
        );
    }
    let _ = writeln!(
        out,
        "TOTAL: found {} | est. {} (paper: 52.5M) | same {:.1}% (paper 77.2%)",
        campaign.total_unique(),
        human(campaign.estimated_total()),
        campaign.same_frac() * 100.0
    );
    out
}

fn render_iid_table(title: &str, h: &IidHistogram, paper: &[(IidClass, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>9}",
        "class", "count", "measured", "paper"
    );
    let paper_map: HashMap<_, _> = paper.iter().copied().collect();
    for class in IidClass::ALL {
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>8.1}% {:>8.1}%",
            class.to_string(),
            h.count(class),
            h.percent(class),
            paper_map.get(&class).copied().unwrap_or(0.0)
        );
    }
    let _ = writeln!(out, "{:<14} {:>9}", "Total", h.total());
    out
}

/// Table III — IID analysis of all discovered peripheries.
pub fn table3(exp: &mut Experiment) -> String {
    let h = exp.campaign().iid_histogram();
    render_iid_table(
        "TABLE III: IID ANALYSIS OF DISCOVERED PERIPHERIES",
        &h,
        &[
            (IidClass::Eui64, 7.6),
            (IidClass::LowByte, 1.0),
            (IidClass::EmbedIpv4, 5.5),
            (IidClass::Randomized, 75.5),
            (IidClass::BytePattern, 10.4),
        ],
    )
}

/// Table IV — top periphery vendors by device class.
pub fn table4(exp: &mut Experiment) -> String {
    let campaign = exp.campaign();
    let mut counts = VendorCounts::new();
    for p in campaign.peripheries() {
        if let Some(v) = xmap_periphery::identify(p.mac, None) {
            counts.record(v);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE IV: TOP APPEARED PERIPHERY VENDORS AND DEVICE NUMBER"
    );
    for class in [DeviceClass::Cpe, DeviceClass::Ue] {
        let _ = writeln!(out, "{class}: total {}", counts.total_of(class));
        for (vendor, count) in counts.top(class).into_iter().take(12) {
            let _ = writeln!(out, "  {vendor:<16} {count}");
        }
    }
    out
}

/// Table V — IID analysis of peripheries with alive services.
pub fn table5(exp: &mut Experiment) -> String {
    let h = exp.survey().iid_histogram();
    render_iid_table(
        "TABLE V: IID ANALYSIS OF PERIPHERIES WITH ALIVE APPLICATION SERVICES",
        &h,
        &[
            (IidClass::Eui64, 30.4),
            (IidClass::LowByte, 0.3),
            (IidClass::EmbedIpv4, 5.5),
            (IidClass::Randomized, 69.0),
            (IidClass::BytePattern, 0.2),
        ],
    )
}

/// Table VI — probing requests and valid responses of the 8 services.
pub fn table6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE VI: PROBING REQUESTS AND VALID RESPONSES OF 8 SELECTED SERVICES"
    );
    let _ = writeln!(
        out,
        "{:<18} {:<28} Valid Response",
        "Service/Port", "Request"
    );
    for kind in ServiceKind::ALL {
        let (req, resp) = match kind {
            ServiceKind::Dns => ("\"A\" or version query", "answers"),
            ServiceKind::Ntp => ("version query", "version reply"),
            ServiceKind::Ftp => ("request for connecting", "successful response"),
            ServiceKind::Ssh => ("version, key request", "version, key"),
            ServiceKind::Telnet => ("request for login", "response for login"),
            ServiceKind::Http => ("HTTP GET request", "header, version, body"),
            ServiceKind::Tls => ("certificate request", "certificate, cipher suite"),
            ServiceKind::HttpAlt => ("HTTP GET request", "header, version, body"),
        };
        let _ = writeln!(out, "{:<18} {:<28} {}", kind.label(), req, resp);
    }
    out
}

/// Table VII — alive services on peripheries within each ISP.
pub fn table7(exp: &mut Experiment) -> String {
    let survey = exp.survey().clone();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE VII: RESULTS OF ALIVE SERVICES ON PERIPHERIES WITHIN EACH ISP"
    );
    let _ = write!(out, "{:<3} {:>7}", "P", "probed");
    for kind in ServiceKind::ALL {
        let _ = write!(out, " {:>13}", kind.short_name());
    }
    let _ = writeln!(out, " {:>13}", "Total");
    for p in SAMPLE_BLOCKS {
        let probed = survey.probed_per_block.get(&p.id).copied().unwrap_or(0);
        let _ = write!(out, "{:<3} {:>7}", p.id, probed);
        for kind in ServiceKind::ALL {
            let n = survey.alive_in_block(p.id, kind);
            let _ = write!(out, " {:>6} {:>5.1}%", n, pct(n, probed.max(1)));
        }
        let any = survey.devices_with_any_in_block(p.id).len();
        let _ = writeln!(out, " {:>6} {:>5.1}%", any, pct(any, probed.max(1)));
    }
    let probed_total = survey.probed();
    let _ = write!(out, "{:<3} {:>7}", "T", probed_total);
    for kind in ServiceKind::ALL {
        let n = survey.alive_total(kind);
        let _ = write!(out, " {:>6} {:>5.1}%", n, pct(n, probed_total.max(1)));
    }
    let any = survey.devices_with_any().len();
    let _ = writeln!(out, " {:>6} {:>5.1}%", any, pct(any, probed_total.max(1)));
    let _ = writeln!(
        out,
        "(paper totals: DNS 1.4%, NTP 0.03%, FTP 0.3%, SSH 0.3%, TELNET 0.3%, HTTP 2.4%, TLS 0.3%, 8080 6.7%, any 9.0%)"
    );
    out
}

/// Table VIII — top software versions, device counts and CVE counts.
pub fn table8(exp: &mut Experiment) -> String {
    let survey = exp.survey().clone();
    let stats = SoftwareStats::from_survey(&survey);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE VIII: TOP SOFTWARE VERSION AND DEVICE NUMBER OF CRUCIAL SERVICES"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<34} {:>8} {:>6}",
        "Service", "Software & Version", "devices", "#CVE"
    );
    for kind in [
        ServiceKind::Dns,
        ServiceKind::Http,
        ServiceKind::Ssh,
        ServiceKind::Ftp,
    ] {
        let rows = stats.top_for_service(kind);
        for (sw, count) in rows.iter().take(6) {
            let cves = xmap_appscan::cve::count_for_product(sw.name);
            let _ = writeln!(
                out,
                "{:<10} {:<34} {:>8} {:>6}",
                kind.short_name(),
                sw.banner(),
                count,
                cves
            );
        }
    }
    let _ = writeln!(
        out,
        "(stale software: {:.1}% of resolved banners are from releases >= 6 years old)",
        stats.stale_fraction(6) * 100.0
    );
    out
}

/// Table IX — BGP-advertised-prefix scan summary.
pub fn table9(exp: &mut Experiment) -> String {
    let result = exp.bgp();
    let (vuln, vasn, vcty) = result.vulnerable_summary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE IX: PERIPHERIES DISCOVERED FROM BGP ADVERTISED PREFIXES SCANNING"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>8} {:>9}",
        "Last Hops", "# unique", "# ASN", "# Country"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>8} {:>9}",
        "Total",
        result.total(),
        result.asns(),
        result.countries()
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>8} {:>9}",
        "with Routing Loop", vuln, vasn, vcty
    );
    let _ = writeln!(
        out,
        "(paper: total 4.0M / 6,911 / 170; loop 128k / 3,877 / 132; loop share measured {:.1}% vs paper 3.2%)",
        pct(vuln, result.total().max(1))
    );
    out
}

/// Table X — IID mix of loop-vulnerable last hops.
pub fn table10(exp: &mut Experiment) -> String {
    let h = exp.bgp().vulnerable_iid_histogram();
    render_iid_table(
        "TABLE X: IID ANALYSIS OF LAST HOPS WITH ROUTING LOOP VULNERABILITY",
        &h,
        &[
            (IidClass::Eui64, 18.0),
            (IidClass::LowByte, 31.7),
            (IidClass::EmbedIpv4, 2.4),
            (IidClass::Randomized, 46.7),
            (IidClass::BytePattern, 0.7),
        ],
    )
}

/// Table XI — loop-vulnerable peripheries per sample block.
pub fn table11(exp: &mut Experiment) -> String {
    let depth = exp.depth();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE XI: RESULTS OF PERIPHERY WITH ROUTING LOOP WITHIN EACH ISP"
    );
    let _ = writeln!(
        out,
        "{:<3} {:<22} {:>8} {:>11} {:>7} {:>7} {:>10}",
        "P", "ISP", "found", "est.total", "same%", "diff%", "paper"
    );
    let mut total_found = 0usize;
    let mut total_est = 0f64;
    for p in SAMPLE_BLOCKS {
        let found = depth.count_in_block(p.id);
        let probed = depth.probed_per_block.get(&p.id).copied().unwrap_or(0);
        let scale = if probed == 0 {
            0.0
        } else {
            p.space_size() as f64 / probed as f64
        };
        let est = found as f64 * scale;
        total_found += found;
        total_est += est;
        let same = depth.same_frac_in_block(p.id);
        let _ = writeln!(
            out,
            "{:<3} {:<22} {:>8} {:>11} {:>6.1}% {:>6.1}% {:>10}",
            p.id,
            p.name,
            found,
            human(est),
            same * 100.0,
            (1.0 - same) * 100.0,
            human(p.occupancy * p.space_size() as f64 * p.loop_rate),
        );
    }
    let _ = writeln!(
        out,
        "TOTAL: found {} | est. {} (paper 5.79M) | same {:.1}% (paper 4.9%)",
        total_found,
        human(total_est),
        depth.same_frac() * 100.0
    );
    out
}

/// Table XII — the 99-router controlled testbed.
pub fn table12() -> String {
    let rows = run_case_studies();
    let mut out = String::new();
    let _ = writeln!(out, "TABLE XII: ROUTING LOOP ROUTERS TESTING RESULTS");
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:<22} {:>5} {:>5} {:>9}",
        "Brand", "Model", "Firmware", "WAN", "LAN", "loop fwd"
    );
    for model in NAMED_MODELS {
        // Hardware rows match brand+model exactly; the OS rows of the
        // catalog carry the version in the firmware field instead.
        let row = rows
            .iter()
            .find(|r| r.model.brand == model.brand && r.model.model == model.model)
            .or_else(|| rows.iter().find(|r| r.model.brand == model.brand))
            .expect("every named brand appears in the catalog");
        let fwd = |v: &xmap_loopscan::case_study::PrefixVerdict| match v {
            xmap_loopscan::case_study::PrefixVerdict::Vulnerable { loop_forwards } => {
                loop_forwards.to_string()
            }
            _ => "-".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:<22} {:<22} {:>5} {:>5} {:>9}",
            model.brand,
            model.model,
            model.firmware,
            if row.wan.is_vulnerable() { "YES" } else { "no" },
            if row.lan.is_vulnerable() { "YES" } else { "no" },
            fwd(&row.wan),
        );
    }
    let vulnerable = rows.iter().filter(|r| r.is_vulnerable()).count();
    let limited = rows
        .iter()
        .filter(|r| matches!(r.model.behavior, LoopBehavior::Limited { .. }))
        .count();
    let _ = writeln!(
        out,
        "All {} of {} tested units vulnerable (paper: all 99); {} limited-loop units forward >10 times",
        vulnerable,
        rows.len(),
        limited
    );
    out
}

/// Figure 2 — top-10 vendors with exposed services.
pub fn fig2(exp: &mut Experiment) -> String {
    let campaign = exp.campaign().clone();
    let survey = exp.survey().clone();
    let matrix = VendorServiceMatrix::build(&campaign, &survey);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIGURE 2: TOP 10 PERIPHERY DEVICE VENDORS WITH EXPOSED SERVICES"
    );
    let _ = write!(out, "{:<16} {:>7}", "Vendor", "total");
    for kind in ServiceKind::ALL {
        let _ = write!(out, " {:>9}", kind.short_name());
    }
    let _ = writeln!(out);
    for (vendor, counts, total) in fig2_rows(&matrix, 10) {
        let _ = write!(out, "{vendor:<16} {total:>7}");
        for c in counts {
            let _ = write!(out, " {c:>9}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(unidentified devices with services: {})",
        matrix.unidentified
    );
    out
}

/// Figure 3 — top-20 vendors within each service.
pub fn fig3(exp: &mut Experiment) -> String {
    let campaign = exp.campaign().clone();
    let survey = exp.survey().clone();
    let matrix = VendorServiceMatrix::build(&campaign, &survey);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIGURE 3: TOP 20 PERIPHERY DEVICE VENDORS WITHIN EACH SERVICE"
    );
    for (kind, vendors) in fig3_rows(&matrix, 20) {
        let _ = write!(out, "{:<10}:", kind.short_name());
        for (v, c) in vendors.iter().take(8) {
            let _ = write!(out, " {v}({c})");
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 5 — top loop ASNs and countries from the BGP survey.
pub fn fig5(exp: &mut Experiment) -> String {
    let result = exp.bgp();
    let mut out = String::new();
    let _ = writeln!(out, "FIGURE 5: TOP 10 ROUTING LOOP ASN & COUNTRY");
    let _ = writeln!(out, "ASNs:");
    for (asn, count) in result.top_loop_asns(10) {
        let _ = writeln!(out, "  AS{asn:<8} {:<24} {count}", geo::name_of(asn));
    }
    let _ = writeln!(
        out,
        "Countries (paper order: BR CN EC VN US MM IN GB DE CH CZ):"
    );
    for (cc, count) in result.top_loop_countries(11) {
        let _ = writeln!(out, "  {cc:<4} {count}");
    }
    out
}

/// Figure 6 — top loop vendors within top ASes (depth survey).
pub fn fig6(exp: &mut Experiment) -> String {
    let depth = exp.depth();
    let rows = depth.fig6_rows(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIGURE 6: TOP 5 ROUTING LOOP PERIPHERY DEVICE VENDORS WITHIN TOP 5 ASES"
    );
    for (vendor, per_as, total) in rows {
        let _ = write!(out, "{vendor:<16} total {total:>6} |");
        for (asn, c) in ranked_ases(per_as).into_iter().take(5) {
            let _ = write!(out, " AS{asn}:{c}");
        }
        let _ = writeln!(out);
    }
    out
}

/// A Figure 6 vendor's per-AS counts, descending, ties broken by ASN (as
/// `top_loop_asns` breaks them), so a row never prints in hash order.
fn ranked_ases(per_as: HashMap<u32, usize>) -> Vec<(u32, usize)> {
    let mut ases: Vec<(u32, usize)> = per_as.into_iter().collect();
    ases.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
    ases
}

/// The feasibility analysis of Sections III-B and IV-E.
pub fn feasibility() -> String {
    let rows = xmap::feasibility::paper_rows();
    let mut out = String::new();
    let _ = writeln!(out, "FEASIBILITY (Section III-B / IV-E)");
    let labels = [
        "all /64 sub-prefixes of a /24 at 1 Gbps (paper: ~8 days)",
        "all /60 sub-prefixes of a /24 at 1 Gbps (paper: ~14 h)",
        "one 32-bit sample space at 25 kpps (paper: ~48 h)",
    ];
    for (row, label) in rows.iter().zip(labels) {
        let _ = writeln!(
            out,
            "2^{} probes at {:>9.0} pps -> {:>7.1} h ({:>5.1} days) | {label}",
            row.space_bits,
            row.pps,
            row.hours(),
            row.days()
        );
    }
    out
}

/// Baseline comparison (Section VIII): sub-prefix probing vs traceroute
/// vs hitlist+TGA under an equal probe budget.
pub fn baselines(exp: &mut Experiment) -> String {
    use xmap_periphery::BaselineComparison;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "BASELINES: peripheries discovered per 1000 probes (equal budget, China Mobile block)"
    );
    let cmp = BaselineComparison::run(&mut exp.scanner, 12, &SAMPLE_BLOCKS[12], 1 << 14, 32);
    let (x, t, g) = cmp.efficiency();
    let _ = writeln!(
        out,
        "{:<28} {:>8} found / {:>8} probes = {:>7.2} per 1k",
        "sub-prefix probing (XMap)", cmp.xmap.0, cmp.xmap.1, x
    );
    let _ = writeln!(
        out,
        "{:<28} {:>8} found / {:>8} probes = {:>7.2} per 1k",
        "traceroute (PAM'20 style)", cmp.traceroute.0, cmp.traceroute.1, t
    );
    let _ = writeln!(
        out,
        "{:<28} {:>8} found / {:>8} probes = {:>7.2} per 1k",
        "hitlist + TGA (new finds)", cmp.hitlist_tga.0, cmp.hitlist_tga.1, g
    );
    let _ = writeln!(
        out,
        "(the paper's claim: search effort per periphery drops from 2^64+ to 1 probe)"
    );
    out
}

/// The amplification analysis of Section VI-A.
pub fn amplification() -> String {
    let model = NAMED_MODELS
        .iter()
        .find(|m| m.brand == "Huawei")
        .expect("full-loop model");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "AMPLIFICATION (Section VI-A): one 255-hop-limit packet, path length n"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>18}",
        "n", "loop fwds", "spoofed (2x trick)"
    );
    for n in [0u8, 10, 20, 30, 40, 50] {
        let point = measure_amplification(model, n);
        let (_, spoofed) = measure_spoofed_doubling(model, n);
        let _ = writeln!(out, "{:>4} {:>12} {:>18}", n, point.loop_forwards, spoofed);
    }
    let _ = writeln!(
        out,
        "(paper: amplification factor 255-n, >200 for typical paths)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_renders_all_artifacts() {
        let mut exp = Experiment::new(ExperimentConfig::quick());
        for (name, text) in [
            ("table2", table2(&mut exp)),
            ("table3", table3(&mut exp)),
            ("table4", table4(&mut exp)),
            ("table5", table5(&mut exp)),
            ("table6", table6()),
            ("table7", table7(&mut exp)),
            ("table8", table8(&mut exp)),
            ("table9", table9(&mut exp)),
            ("table10", table10(&mut exp)),
            ("table11", table11(&mut exp)),
            ("table12", table12()),
            ("fig2", fig2(&mut exp)),
            ("fig3", fig3(&mut exp)),
            ("fig5", fig5(&mut exp)),
            ("fig6", fig6(&mut exp)),
            ("feasibility", feasibility()),
            ("baselines", baselines(&mut exp)),
        ] {
            assert!(text.lines().count() >= 3, "{name} too short:\n{text}");
        }
    }

    /// Equal per-AS counts print in ASN order, whatever order the map
    /// yields them in.
    #[test]
    fn fig6_breaks_as_ties_by_asn() {
        let ties = [4837, 4134, 7922, 3462, 9121, 17676, 4766];
        let mut per_as: HashMap<u32, usize> = ties.iter().map(|&asn| (asn, 1)).collect();
        per_as.insert(9808, 2);
        let mut expect = vec![(9808, 2)];
        let mut sorted = ties;
        sorted.sort_unstable();
        expect.extend(sorted.iter().map(|&asn| (asn, 1)));
        assert_eq!(ranked_ases(per_as), expect);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(52_478_703.0), "52.5M");
        assert_eq!(human(2_404.0), "2.4k");
        assert_eq!(human(31.0), "31");
    }

    #[test]
    fn config_from_env_clamps() {
        // No env set: defaults.
        let cfg = ExperimentConfig::from_env();
        assert!(cfg.discovery_probes_per_block >= 1 << 8);
    }
}
