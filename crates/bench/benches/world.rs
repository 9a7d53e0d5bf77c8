//! Microbenchmarks of the substrate: address primitives and the procedural
//! world. These bound the simulator overhead inside every reported scan
//! rate (cf. `scanner_throughput`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xmap_addr::{classify_iid, Ip6, Prefix};
use xmap_netsim::packet::{Ipv6Packet, Network};
use xmap_netsim::world::{World, WorldConfig};

fn bench_addr_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("addr");
    g.throughput(Throughput::Elements(1));
    g.bench_function("classify_iid", |b| {
        let addrs: Vec<Ip6> = (0..64u64)
            .map(|i| Ip6::new((0x2001_0db8u128) << 96 | (i as u128) << 32 | 0x9c3a_71e2))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            black_box(classify_iid(addrs[i]))
        })
    });
    g.bench_function("prefix_contains", |b| {
        let p: Prefix = "2409:8000::/28".parse().unwrap();
        let a: Ip6 = "2409:8007:1:2::3".parse().unwrap();
        b.iter(|| black_box(p.contains(black_box(a))))
    });
    g.bench_function("ip6_parse_display", |b| {
        b.iter(|| {
            let a: Ip6 = black_box("2409:8000:1:2:3:4:5:6").parse().unwrap();
            black_box(a.to_string())
        })
    });
    g.finish();
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.throughput(Throughput::Elements(1));
    g.bench_function("device_derivation", |b| {
        let world = World::with_config(WorldConfig::lossless(3, 50));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(world.device_at(12, i % (1 << 24)))
        })
    });
    g.bench_function("echo_handle", |b| {
        let mut world = World::with_config(WorldConfig::lossless(3, 50));
        let src: Ip6 = "fd00::1".parse().unwrap();
        let base: Ip6 = "2409:8000::".parse().unwrap();
        let mut out = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let dst = Ip6::new(base.bits() | ((i % (1 << 24)) as u128) << 68 | 0x4242);
            out.clear();
            world.handle_into(Ipv6Packet::echo_request(src, dst, 64, 1, 1), &mut out);
            black_box(out.len())
        })
    });
    // The same silent-miss probe at both ends of the sample-block table:
    // the two cases read alike when zone lookup cost does not depend on
    // table position.
    for profile_idx in [0usize, 14] {
        g.bench_function(format!("echo_miss_profile_{profile_idx}"), |b| {
            let mut world = World::with_config(WorldConfig::lossless(3, 50));
            let p = &world.profiles()[profile_idx];
            let src: Ip6 = "fd00::1".parse().unwrap();
            let misses: Vec<Ip6> = (0..u64::MAX)
                .filter(|&i| {
                    world.device_at(profile_idx, i).is_none() && !world.is_aliased(profile_idx, i)
                })
                .map(|i| {
                    let sub = p.scan_prefix().subprefix(p.assigned_len, i as u128);
                    sub.addr().with_iid(0x4242)
                })
                .take(1024)
                .collect();
            let mut out = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % misses.len();
                out.clear();
                world.handle_into(Ipv6Packet::echo_request(src, misses[i], 64, 1, 1), &mut out);
                black_box(out.len())
            })
        });
    }
    g.bench_function("world_construction_6911_ases", |b| {
        b.iter(|| {
            black_box(World::with_config(WorldConfig {
                seed: black_box(9),
                bgp_ases: 6911,
                loss_frac: 0.004,
                ..WorldConfig::default()
            }))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_addr_primitives, bench_world);
criterion_main!(benches);
