//! Byte-identity of the explicit-destination paths: the campaign mop-up
//! pass (a second-chance run of the scan loop over a silent list),
//! loopscan's depth survey and the adaptive engine each probe explicit
//! destinations instead of walking a range, and each must emit exactly
//! the artifacts pinned below — CSV, metrics JSON and, for one traced
//! mop-up run and one traced adaptive run, the trace NDJSON.
//!
//! The `GOLDEN_*` constants are FNV-1a-64 fingerprints. The survey and
//! adaptive ones, and the mop-up CSVs, were captured from the build that
//! probed one destination at a time and published telemetry after every
//! probe; the mop-up metrics and trace from the build that moved the
//! pass into the scan loop, which adds its RTTs and `scan.*` events; the
//! traced adaptive ones from the build that opened one targeted session
//! per unit.
//! Counters are sums, so a change to *when* telemetry is published must
//! leave every one of them as it is; a change that moves one has changed
//! what a seeded run emits.

use std::sync::{Arc, Mutex};

use xmap::{ScanConfig, Scanner};
use xmap_loopscan::{DepthSurvey, DepthSurveyResult};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::telemetry::names::{PROBES, RATE_LIMITED};
use xmap_netsim::world::{Allocation, World, WorldConfig};
use xmap_netsim::{FaultPlan, IcmpRateLimit};
use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig, Campaign};
use xmap_state::Fingerprint;
use xmap_telemetry::{Registry, Telemetry, Tracer};

const GOLDEN_MOP_UP_CSV: u64 = 0x152a_e476_df2d_f061;
const GOLDEN_MOP_UP_METRICS: u64 = 0x03ab_814d_1557_729b;
const GOLDEN_TRACED_MOP_UP_CSV: u64 = 0xa197_e926_d9b2_5f77;
const GOLDEN_TRACED_MOP_UP_METRICS: u64 = 0x0145_cdd9_6c03_f94e;
const GOLDEN_TRACED_MOP_UP_TRACE: u64 = 0x6151_9fa5_ab73_7fa3;
const GOLDEN_SURVEY_CSV: u64 = 0x07a9_4680_af59_ec54;
const GOLDEN_SURVEY_METRICS: u64 = 0x2958_c55a_c6eb_df4b;
const GOLDEN_ADAPTIVE_CSV: u64 = 0x40d8_5312_1fde_a6e1;
const GOLDEN_ADAPTIVE_METRICS: u64 = 0x36ee_89f0_ab15_edc6;
const GOLDEN_TRACED_ADAPTIVE_CSV: u64 = 0xfcf8_1997_d6ed_febd;
const GOLDEN_TRACED_ADAPTIVE_METRICS: u64 = 0x65c4_4ba7_be84_f411;
const GOLDEN_TRACED_ADAPTIVE_TRACE: u64 = 0xfe4b_6267_cf4d_fa20;

fn fnv(bytes: impl AsRef<[u8]>) -> u64 {
    Fingerprint::new().push_bytes(bytes.as_ref()).finish()
}

/// Asserts `bytes` fingerprints as `golden`, naming the artifact and
/// the fingerprint it had instead.
fn assert_golden(what: &str, bytes: impl AsRef<[u8]>, golden: u64) {
    let got = fnv(bytes);
    assert_eq!(got, golden, "{what}: fingerprint {got:#018x}");
}

/// Asserts that a two-worker campaign split at least one round: only a
/// parallel round hands the second prober a unit, so its world must
/// have counted probes. `registries` holds each prober's registry in
/// build order.
fn assert_a_round_ran_in_parallel(registries: Mutex<Vec<Arc<Registry>>>) {
    let registries = registries.into_inner().expect("no builder panicked");
    assert_eq!(registries.len(), 2, "one world per prober");
    assert!(
        registries[1].snapshot().counter(PROBES) > 0,
        "no round ran on the second prober"
    );
}

/// A world whose ICMPv6 error buckets leave half the CPEs silent in the
/// main pass, so the mop-up pass has devices to recover.
fn rate_limited_world(telemetry: &Telemetry) -> World {
    let mut world = World::with_config(
        WorldConfig::lossless(99, 50).with_fault(FaultPlan::none().seeded(7).with_icmp_limit(
            IcmpRateLimit::TokenBucket {
                capacity: 2,
                refill_interval: 64,
                start_depleted_frac: 0.5,
            },
        )),
    );
    world.set_telemetry(telemetry);
    world
}

fn mop_up_scanner(telemetry: &Telemetry) -> Scanner<World> {
    let config = ScanConfig {
        seed: 5,
        max_targets: Some(1 << 12),
        ..Default::default()
    };
    Scanner::with_telemetry(rate_limited_world(telemetry), config, telemetry.clone())
}

#[test]
fn mop_up_campaign_matches_golden_fingerprints() {
    let telemetry = Telemetry::new();
    let mut scanner = mop_up_scanner(&telemetry);
    let result = Campaign::new(1 << 12).with_mop_up(512).run(&mut scanner);
    let recovered: usize = result.blocks.iter().map(|b| b.mop_up_recovered).sum();
    assert!(recovered >= 1, "mop-up must recover a device to bite");
    assert_golden("mop-up CSV", result.to_csv(), GOLDEN_MOP_UP_CSV);
    assert_golden(
        "mop-up metrics",
        telemetry.registry.snapshot().to_json(),
        GOLDEN_MOP_UP_METRICS,
    );
}

/// Under tracing the world publishes on every call, so its fault events
/// land in the same order whenever the scanner's own counters publish.
/// The ring holds the whole block, both passes and the world's fault
/// events: the default 4,096 events would keep only the mop-up's tail.
#[test]
fn traced_mop_up_block_matches_golden_fingerprints() {
    let telemetry = Telemetry {
        registry: Arc::new(Registry::new()),
        tracer: Arc::new(Tracer::new(1 << 14)),
    };
    let mut scanner = mop_up_scanner(&telemetry);
    let block = Campaign::new(1 << 12)
        .with_mop_up(512)
        .run_block(&mut scanner, &SAMPLE_BLOCKS[0]);
    assert!(block.mop_up_recovered >= 1, "mop-up must recover a device");
    assert_eq!(
        telemetry.tracer.dropped(),
        0,
        "the ring must hold the block"
    );
    let csv = xmap_periphery::CampaignResult {
        blocks: vec![block],
    }
    .to_csv();
    assert_golden("traced mop-up CSV", csv, GOLDEN_TRACED_MOP_UP_CSV);
    assert_golden(
        "traced mop-up metrics",
        telemetry.registry.snapshot().to_json(),
        GOLDEN_TRACED_MOP_UP_METRICS,
    );
    assert_golden(
        "traced mop-up trace",
        telemetry.tracer.to_ndjson(),
        GOLDEN_TRACED_MOP_UP_TRACE,
    );
}

/// The depth survey's rows in the column order a daemon's loopscan job
/// publishes.
fn survey_csv(result: &DepthSurveyResult) -> String {
    let mut out = String::from("profile_id,address,asn,same64,iid_class,mac\n");
    for p in &result.peripheries {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            p.profile_id,
            p.address,
            p.asn,
            p.same64,
            p.iid_class,
            p.mac.map(|m| m.to_string()).unwrap_or_default(),
        ));
    }
    out
}

#[test]
fn depth_survey_matches_golden_fingerprints() {
    let telemetry = Telemetry::new();
    let mut world = World::with_config(WorldConfig::lossless(31, 10));
    world.set_telemetry(&telemetry);
    let config = ScanConfig {
        seed: 13,
        ..Default::default()
    };
    let mut scanner = Scanner::with_telemetry(world, config, telemetry.clone());
    let result = DepthSurvey::new(1 << 11).run(&mut scanner);
    assert!(!result.peripheries.is_empty(), "the survey must find loops");
    assert_golden("survey CSV", survey_csv(&result), GOLDEN_SURVEY_CSV);
    assert_golden(
        "survey metrics",
        telemetry.registry.snapshot().to_json(),
        GOLDEN_SURVEY_METRICS,
    );
}

#[test]
fn two_worker_adaptive_campaign_matches_golden_fingerprints() {
    let world_cfg = WorldConfig::lossless(11, 10).with_allocation(Allocation::Clustered {
        pod_bits: 8,
        active_frac: 1.0 / 256.0,
    });
    let base = ScanConfig {
        seed: 7,
        ..Default::default()
    };
    let registries = Mutex::new(Vec::new());
    let outcome = AdaptiveCampaign::new(AdaptiveConfig {
        root_bits: Some(14),
        ..AdaptiveConfig::default()
    })
    .with_workers(2)
    .run(&base, |telemetry| {
        registries.lock().unwrap().push(telemetry.registry.clone());
        let mut world = World::with_config(world_cfg);
        world.set_telemetry(telemetry);
        world
    });
    assert!(outcome.result.total_unique() > 0, "adaptive found nothing");
    assert_a_round_ran_in_parallel(registries);
    assert_golden("adaptive CSV", outcome.result.to_csv(), GOLDEN_ADAPTIVE_CSV);
    assert_golden(
        "adaptive metrics",
        outcome.snapshot.to_json(),
        GOLDEN_ADAPTIVE_METRICS,
    );
}

/// Two probers whose worlds trace into one ring while counting into
/// their own registries, over half-depleted ICMPv6 buckets and a little
/// reverse loss, so the trace carries fault events. Under tracing the
/// world publishes on every call, so each event is one probe's faults
/// and nothing is left pending when a unit resets the world. Which prober runs
/// which unit of a parallel round is a race, and so is the order two
/// threads record in; the trace is pinned as the sorted multiset of its
/// events with their sequence numbers stripped.
#[test]
fn traced_two_worker_adaptive_campaign_matches_golden_fingerprints() {
    let world_cfg = WorldConfig::lossless(99, 10)
        .with_fault(
            FaultPlan::none()
                .seeded(7)
                .with_reverse_loss(0.05)
                .with_icmp_limit(IcmpRateLimit::TokenBucket {
                    capacity: 1,
                    refill_interval: 1 << 20,
                    start_depleted_frac: 0.5,
                }),
        )
        .with_allocation(Allocation::Clustered {
            pod_bits: 8,
            active_frac: 1.0 / 256.0,
        });
    let base = ScanConfig {
        seed: 7,
        ..Default::default()
    };
    let tracer = Arc::new(Tracer::new(1 << 16));
    let registries = Mutex::new(Vec::new());
    let outcome = AdaptiveCampaign::new(AdaptiveConfig {
        root_bits: Some(14),
        ..AdaptiveConfig::default()
    })
    .with_workers(2)
    .run(&base, |telemetry| {
        registries.lock().unwrap().push(telemetry.registry.clone());
        let mut world = World::with_config(world_cfg);
        world.set_telemetry(&Telemetry {
            registry: telemetry.registry.clone(),
            tracer: tracer.clone(),
        });
        world
    });
    assert!(outcome.result.total_unique() > 0, "adaptive found nothing");
    assert_eq!(tracer.dropped(), 0, "the ring must hold the campaign");
    assert_a_round_ran_in_parallel(registries);
    assert!(
        outcome.snapshot.counter(RATE_LIMITED) > 0,
        "the buckets must limit"
    );
    let ndjson = tracer.to_ndjson();
    let mut events: Vec<&str> = ndjson
        .lines()
        .map(|line| line.split_once(", ").expect("seq leads every line").1)
        .collect();
    events.sort_unstable();
    assert_golden(
        "traced adaptive CSV",
        outcome.result.to_csv(),
        GOLDEN_TRACED_ADAPTIVE_CSV,
    );
    assert_golden(
        "traced adaptive metrics",
        outcome.snapshot.to_json(),
        GOLDEN_TRACED_ADAPTIVE_METRICS,
    );
    assert_golden(
        "traced adaptive trace",
        events.join("\n"),
        GOLDEN_TRACED_ADAPTIVE_TRACE,
    );
}
