//! Campaign executor scaling: the fifteen-block discovery campaign at
//! 1, 2 and 4 workers, plus the responder-dedup micro-benchmark.
//!
//! Each config runs the same seeded campaign (4096 probes against each
//! of the fifteen sample blocks) through [`ParallelCampaign`]; the
//! 1-worker config is the sequential walk plus the executor's merge, so
//! the ratio between configs is the block-level work-stealing speedup.
//! Worker worlds are built inside the timed routine (the executor
//! constructs its replicas per run), over a small 50-AS table so the
//! scan dominates.
//!
//! Scaling expectation: ≥1.5× wall-clock at 4 workers on a ≥4-core
//! host. On fewer cores the workers serialize and the configs converge —
//! record the host's core count next to any figure (see EXPERIMENTS.md
//! "Campaign executor scaling").
//!
//! The `skewed_giant` config manufactures a straggler: block 2 gets
//! 16× the probes of the other fourteen (2¹⁶ against 2¹²), so once the
//! queue drains the idle workers split the giant block's remainder
//! among themselves. Wall-clock only shows that on a ≥4-core host; the
//! deterministic idle-slot gate lives in the summary script's
//! virtual-slot model (`scripts/bench_campaign_summary.py`, ported from
//! `xmap_periphery::split::simulate_schedule`) over the same mix.
//!
//! `campaign_dedup` times raw responder deduplication through the
//! Fx-hashed set the campaign uses, and **asserts** the per-insert cost
//! stays roughly flat (sub-linear total growth) between 2¹⁴ and 2¹⁷
//! responders — a regression here means someone swapped the hasher or
//! broke amortized insertion.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use xmap::ScanConfig;
use xmap_addr::{FxHashSet, Ip6};
use xmap_netsim::world::{World, WorldConfig};
use xmap_periphery::{Campaign, ParallelCampaign};

/// Probes per sample block; ×15 blocks per campaign run.
const TARGETS_PER_BLOCK: u64 = 1 << 12;

fn bench_campaign_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_scaling");
    for workers in [1usize, 2, 4] {
        g.throughput(Throughput::Elements(TARGETS_PER_BLOCK * 15));
        g.bench_with_input(
            BenchmarkId::new("fifteen_blocks_4k", workers),
            &workers,
            |b, &workers| {
                b.iter_batched(
                    || ParallelCampaign::new(Campaign::new(TARGETS_PER_BLOCK), workers),
                    |executor| {
                        black_box(executor.run(
                            &ScanConfig {
                                seed: 5,
                                ..Default::default()
                            },
                            |_, telemetry| {
                                let mut world = World::with_config(WorldConfig::lossless(99, 50));
                                world.set_telemetry(telemetry);
                                world
                            },
                        ))
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// Probes for the one giant block of the skewed mix: 16× the others.
const SKEWED_GIANT_TARGETS: u64 = 1 << 16;

fn bench_campaign_skew(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_scaling");
    g.throughput(Throughput::Elements(
        TARGETS_PER_BLOCK * 14 + SKEWED_GIANT_TARGETS,
    ));
    g.bench_function(BenchmarkId::new("skewed_giant", 4usize), |b| {
        b.iter_batched(
            || {
                let campaign = Campaign::new(TARGETS_PER_BLOCK)
                    .with_block_targets(vec![(2, SKEWED_GIANT_TARGETS)]);
                ParallelCampaign::new(campaign, 4)
            },
            |executor| {
                black_box(executor.run(
                    &ScanConfig {
                        seed: 5,
                        ..Default::default()
                    },
                    |_, telemetry| {
                        let mut world = World::with_config(WorldConfig::lossless(99, 50));
                        world.set_telemetry(telemetry);
                        world
                    },
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Simulation-shaped responder stream: `n` addresses where every fourth
/// is a repeat, the duplicate mix `Campaign::run_block` dedups.
fn responders(n: usize) -> Vec<Ip6> {
    (0..n)
        .map(|i| {
            let unique = (i - i / 4) as u128;
            Ip6::new((0x2405_0200u128 << 96) | unique.wrapping_mul(0x9e37_79b9))
        })
        .collect()
}

/// Best-of-five per-insert cost of deduplicating `n` responders.
fn dedup_nanos_per_op(addrs: &[Ip6]) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let start = std::time::Instant::now();
        let mut seen: FxHashSet<Ip6> = FxHashSet::default();
        for a in addrs {
            seen.insert(*a);
        }
        black_box(seen.len());
        best = best.min(start.elapsed().as_nanos() as f64 / addrs.len() as f64);
    }
    best
}

fn bench_campaign_dedup(c: &mut Criterion) {
    // The sub-linearity assertion: 8× the responders must not cost
    // meaningfully more per insert. The 4× bound is deliberately loose —
    // it tolerates cache effects and CI noise but fails on anything
    // O(n log n) or worse.
    let small = dedup_nanos_per_op(&responders(1 << 14));
    let large = dedup_nanos_per_op(&responders(1 << 17));
    assert!(
        large <= small.max(1.0) * 4.0,
        "responder dedup per-insert cost grew superlinearly: \
         {small:.1} ns at 2^14 -> {large:.1} ns at 2^17"
    );

    let mut g = c.benchmark_group("campaign_dedup");
    for bits in [14u32, 17] {
        let addrs = responders(1 << bits);
        g.throughput(Throughput::Elements(1 << bits));
        g.bench_with_input(BenchmarkId::new("fx_insert", bits), &addrs, |b, addrs| {
            b.iter_batched(
                FxHashSet::<Ip6>::default,
                |mut seen| {
                    for a in addrs {
                        seen.insert(*a);
                    }
                    black_box(seen.len())
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_campaign_scaling,
    bench_campaign_skew,
    bench_campaign_dedup
);
criterion_main!(benches);
