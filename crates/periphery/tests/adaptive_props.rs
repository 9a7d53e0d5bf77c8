//! Property tests for the adaptive target-generation engine's
//! determinism contract: the worker count is unobservable in every
//! output, across randomly drawn configurations and worlds.
//!
//! The unit tests pin one configuration; these properties draw the
//! engine arm, budget and root, scan seed, world allocation and the
//! devices' ICMPv6 limiter from proptest seeds, so a merge-order, seed-threading or
//! state-carry-over regression (a reused world remembering an earlier
//! unit's probes) that happens to be invisible at the pinned
//! configuration still fails here. Root and budget ranges start where
//! rounds grow past the engine's run-small-rounds-inline threshold —
//! below it both arms execute on one thread and the property holds
//! vacuously. Case counts are kept small: every case runs two full
//! fifteen-block campaigns.

use proptest::prelude::*;
use xmap::ScanConfig;
use xmap_netsim::world::{Allocation, World, WorldConfig};
use xmap_netsim::{FaultPlan, IcmpRateLimit};
use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig};
use xmap_telemetry::Telemetry;

fn run(
    config: AdaptiveConfig,
    workers: usize,
    seed: u64,
    world_seed: u64,
    clustered: bool,
    bucket_capacity: u32,
) -> (String, String, u64) {
    let mut wc = WorldConfig::lossless(world_seed, 10);
    // Capacity 0 keeps the default plan, which limits no error; otherwise
    // every device gets a token bucket too small to refill within a
    // campaign — per-device memory that one unit's probes must not leak
    // into the next.
    if bucket_capacity > 0 {
        wc = wc.with_fault(
            FaultPlan::none().with_icmp_limit(IcmpRateLimit::TokenBucket {
                capacity: bucket_capacity,
                refill_interval: 1 << 20,
                start_depleted_frac: 0.0,
            }),
        );
    }
    if clustered {
        wc = wc.with_allocation(Allocation::Clustered {
            pod_bits: 8,
            active_frac: 1.0 / 64.0,
        });
    }
    let base = ScanConfig {
        seed,
        ..Default::default()
    };
    let outcome = AdaptiveCampaign::new(config).with_workers(workers).run(
        &base,
        move |telemetry: &Telemetry| {
            let mut world = World::with_config(wc);
            world.set_telemetry(telemetry);
            world
        },
    );
    let probed = outcome.result.blocks.iter().map(|b| b.probed).sum();
    (outcome.result.to_csv(), outcome.snapshot.to_json(), probed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N-worker adaptive output is byte-identical to 1-worker: CSV,
    /// telemetry JSON and probe accounting all match for either arm at
    /// arbitrary budgets and roots.
    #[test]
    fn worker_count_is_unobservable(
        seed in any::<u64>(),
        world_seed in any::<u64>(),
        budget_bits in 11u64..=15,
        root_bits in 12u8..=15,
        exhaustive in any::<bool>(),
        workers in 2usize..=4,
        clustered in any::<bool>(),
        bucket_capacity in 0u32..=3,
    ) {
        let config = AdaptiveConfig {
            probe_budget: 1 << budget_bits,
            root_bits: Some(root_bits),
            exhaustive,
        };
        let solo = run(config.clone(), 1, seed, world_seed, clustered, bucket_capacity);
        let fleet = run(config, workers, seed, world_seed, clustered, bucket_capacity);
        prop_assert_eq!(&solo.0, &fleet.0, "CSV diverged at {} workers", workers);
        prop_assert_eq!(&solo.1, &fleet.1, "telemetry diverged at {} workers", workers);
        prop_assert_eq!(solo.2, fleet.2, "probe count diverged at {} workers", workers);
    }
}
