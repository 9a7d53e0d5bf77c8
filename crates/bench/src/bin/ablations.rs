//! Ablation studies for the design choices DESIGN.md §4 calls out.
//!
//! Unlike the criterion benches (which time code paths), this binary
//! measures the *quality* dimensions of each choice:
//!
//! * `permutation` — load spread across target /40 networks: random
//!   permutation vs sequential probing (why ZMap/XMap randomize),
//! * `probes` — discovery completeness vs probes-per-prefix under packet
//!   loss (why one probe per sub-prefix suffices at real loss rates),
//! * `hoplimit` — loop-detection yield vs generated loop traffic for
//!   h ∈ {32, 64, 128, 255} (why the paper picks 32).

use std::collections::HashMap;

use xmap::{Blocklist, Cycle, IcmpEchoProbe, Permutation, ProbeResult, ScanConfig, Scanner};
use xmap_loopscan::DepthSurvey;
use xmap_netsim::fault::IcmpRateLimit;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::FaultPlan;
use xmap_periphery::Campaign;
use xmap_telemetry::Telemetry;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                if i + 1 >= args.len() {
                    eprintln!("ablations: --metrics-out requires a value");
                    std::process::exit(2);
                }
                metrics_out = Some(args.remove(i + 1));
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    let telemetry = Telemetry::new();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    if all || args.iter().any(|a| a == "permutation") {
        permutation_load_spread();
    }
    if all || args.iter().any(|a| a == "probes") {
        probes_per_prefix_completeness(&telemetry);
    }
    if all || args.iter().any(|a| a == "hoplimit") {
        hoplimit_tradeoff(&telemetry);
    }
    if all || args.iter().any(|a| a == "faults") {
        fault_recovery_matrix(&telemetry);
    }
    if let Some(path) = metrics_out {
        let json = telemetry.registry.snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("ablations: write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// A scanner whose world and metric handles feed the shared bundle.
fn scanner_with(mut world: World, config: ScanConfig, telemetry: &Telemetry) -> Scanner<World> {
    world.set_telemetry(telemetry);
    Scanner::with_telemetry(world, config, telemetry.clone())
}

/// Measures how many probes land in the same /40 network within any
/// 1000-probe window — sequential scanning hammers one network, the
/// permutation spreads load.
fn permutation_load_spread() {
    println!("ABLATION: permutation vs sequential — probe-load spread");
    println!("(max probes hitting one /40 network within any 1000-probe window)");
    let range: xmap_addr::ScanRange = "2409:8000::/28-60".parse().expect("static");
    for (label, indices) in [
        (
            "cyclic",
            Cycle::new(1 << 32, 7)
                .iter()
                .take(20_000)
                .collect::<Vec<_>>(),
        ),
        ("sequential", (0..20_000u64).collect::<Vec<_>>()),
    ] {
        let mut worst = 0usize;
        for window in indices.chunks(1000) {
            let mut per_net: HashMap<u64, usize> = HashMap::new();
            for i in window {
                // /40 network = top 12 bits of the 32-bit sub-prefix index.
                let net = range
                    .nth(*i)
                    .map(|p| p.addr().bit_slice(28, 40))
                    .unwrap_or(0);
                *per_net.entry(net).or_insert(0) += 1;
            }
            worst = worst.max(per_net.values().copied().max().unwrap_or(0));
        }
        println!("  {label:<12} worst-case per-/40 load: {worst} / 1000");
    }
    println!();
}

/// Discovery completeness (found / ground truth) for k probes per prefix
/// at several loss rates; ground truth from the world's device oracle.
fn probes_per_prefix_completeness(telemetry: &Telemetry) {
    println!("ABLATION: probes per sub-prefix vs completeness under loss");
    let slice = 1u64 << 15;
    let profile_idx = 12; // China Mobile broadband, dense
    let profile = &SAMPLE_BLOCKS[profile_idx];
    for loss in [0.0, 0.02, 0.10] {
        // Ground truth: allocated, unfiltered sub-prefixes in the slice.
        let oracle = World::with_config(WorldConfig {
            loss_frac: loss,
            ..WorldConfig::lossless(9, 10)
        });
        let mut truth = 0usize;
        for i in 0..slice {
            if oracle.device_at(profile_idx, i).is_some() {
                truth += 1;
            }
        }
        print!("  loss {:>4.0}% | truth {truth:>4} |", loss * 100.0);
        for k in [1u32, 2, 3] {
            let world = World::with_config(WorldConfig {
                loss_frac: loss,
                ..WorldConfig::lossless(9, 10)
            });
            let mut scanner = scanner_with(
                world,
                ScanConfig {
                    seed: 9,
                    permutation: Permutation::Sequential,
                    max_targets: Some(slice),
                    ..Default::default()
                },
                telemetry,
            );
            let mut found = std::collections::HashSet::new();
            let mut session = scanner.targeted();
            let mut hits = Vec::new();
            for i in 0..slice {
                let target = profile.scan_range().nth(i).expect("in slice");
                for attempt in 0..k {
                    // Vary the IID per attempt so a lost exchange is retried
                    // on a fresh (deterministically lossy) path.
                    let dst = xmap::fill_host_bits(target, 9 + attempt as u64);
                    session.probe(dst, &IcmpEchoProbe, 64, &mut hits);
                    if hits.iter().any(|(_, r)| {
                        matches!(
                            r,
                            ProbeResult::Unreachable { .. } | ProbeResult::TimeExceeded
                        )
                    }) {
                        found.insert(i);
                        break;
                    }
                }
            }
            session.finish();
            let completeness = found.len() as f64 * 100.0 / truth.max(1) as f64;
            print!(" k={k}: {completeness:>5.1}%");
        }
        println!();
    }
    println!();
}

/// Loop-survey yield and generated loop traffic at different probing hop
/// limits — the accuracy/impact tradeoff of Section VI-B.
fn hoplimit_tradeoff(telemetry: &Telemetry) {
    println!("ABLATION: loop probing hop limit h — yield vs generated loop traffic");
    for h in [32u8, 64, 128, 255] {
        let world = World::with_config(WorldConfig::lossless(5, 10));
        let mut scanner = scanner_with(
            world,
            ScanConfig {
                seed: 5,
                ..Default::default()
            },
            telemetry,
        );
        let mut result = xmap_loopscan::survey::DepthSurveyResult::default();
        let mut survey = DepthSurvey::new(1 << 14);
        survey.hop_limit = h;
        survey.run_block(&mut scanner, &SAMPLE_BLOCKS[11], &mut result);
        let stats = scanner.network_mut().stats();
        println!(
            "  h={h:<4} loops found: {:>4} | loop link-traversals generated: {:>8} | per detection: {:>6.0}",
            result.peripheries.len(),
            stats.loop_forwards,
            stats.loop_forwards as f64 / result.peripheries.len().max(1) as f64,
        );
    }
    println!("(same yield at every h; traffic grows with h — hence the paper's h = 32)");
    let _ = Blocklist::allow_all();
}

/// Discovery completeness under the fault matrix (loss × ICMPv6 rate
/// limiting × flaky devices), for a single-probe scan vs the full
/// loss-recovery pipeline (3 probes/target + mop-up). Completeness is
/// measured against the lossless single-probe baseline of the same world
/// seed, so 100% means full recovery.
fn fault_recovery_matrix(telemetry: &Telemetry) {
    println!("ABLATION: fault matrix — single probe vs retransmission + mop-up");
    let profile = &SAMPLE_BLOCKS[2];
    let slice = 1u64 << 13;
    let seed = 9001;

    let baseline = {
        let mut s = scanner_with(
            World::with_config(WorldConfig::lossless(seed, 30)),
            ScanConfig {
                seed: 5,
                max_targets: Some(slice),
                ..Default::default()
            },
            telemetry,
        );
        Campaign::new(slice).run_block(&mut s, profile).unique()
    };
    println!("  lossless baseline: {baseline} peripheries");
    println!("  loss | limiter | flaky || single | recovered");

    for loss in [0.0, 0.05] {
        for depleted in [0.0, 0.5] {
            for flaky in [0.0, 0.1] {
                let mut plan = FaultPlan::none().seeded(0xAB1E).with_forward_loss(loss);
                if depleted > 0.0 {
                    plan = plan.with_icmp_limit(IcmpRateLimit::TokenBucket {
                        capacity: 8,
                        refill_interval: 512,
                        start_depleted_frac: depleted,
                    });
                }
                if flaky > 0.0 {
                    plan = plan.with_flaky(flaky, 1024, 256);
                }
                let config = WorldConfig::lossless(seed, 30).with_fault(plan);
                let single = {
                    let mut s = scanner_with(
                        World::with_config(config),
                        ScanConfig {
                            seed: 5,
                            max_targets: Some(slice),
                            ..Default::default()
                        },
                        telemetry,
                    );
                    Campaign::new(slice).run_block(&mut s, profile).unique()
                };
                let recovered = {
                    let mut s = scanner_with(
                        World::with_config(config),
                        ScanConfig {
                            seed: 5,
                            max_targets: Some(slice),
                            probes_per_target: 3,
                            ..Default::default()
                        },
                        telemetry,
                    );
                    Campaign::new(slice)
                        .with_mop_up(2048)
                        .run_block(&mut s, profile)
                        .unique()
                };
                let pct = |n: usize| n as f64 * 100.0 / baseline.max(1) as f64;
                println!(
                    "  {:>4.0}% | {:>6.0}% | {:>4.0}% || {:>5.1}% | {:>8.1}%",
                    loss * 100.0,
                    depleted * 100.0,
                    flaky * 100.0,
                    pct(single),
                    pct(recovered),
                );
            }
        }
    }
    println!("(recovered tracks the baseline; single-probe degrades with every fault axis)");
    println!();
}
