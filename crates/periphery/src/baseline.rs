//! Baseline discovery techniques for comparison (Section VIII).
//!
//! The paper positions its one-probe-per-sub-prefix technique against two
//! families of prior work:
//!
//! * **traceroute-based periphery discovery** (Rye & Beverly, PAM'20):
//!   walk hop limits 1, 2, 3… toward a target and keep the last responding
//!   hop — finds the same peripheries but spends ~n probes per target,
//! * **hitlist / target-generation scanning** (Gasser et al. IMC'18;
//!   6Tree/6Gen/Entropy-IP): probe known 128-bit addresses and mutations
//!   of them — efficient where seeds exist, blind elsewhere ("constrained
//!   by seeds diversity").
//!
//! [`BaselineComparison::run`] executes all three under an equal probe
//! budget on the same block so the efficiency claim ("search effort
//! reduced from 2^(128-64) to 1") is measured, not asserted.

use std::collections::HashSet;

use xmap::{IcmpEchoProbe, ProbeResult, Scanner};
use xmap_addr::Ip6;
use xmap_netsim::isp::IspProfile;
use xmap_netsim::packet::Network;
use xmap_netsim::World;

/// Result of one traceroute toward a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerouteResult {
    /// Responding hop per TTL (index 0 = hop limit 1).
    pub hops: Vec<Option<Ip6>>,
    /// The last responding hop — the periphery when the destination is a
    /// nonexistent address behind it.
    pub last_hop: Option<Ip6>,
    /// Probes spent.
    pub probes: u64,
}

/// Classic traceroute: probe with increasing hop limits until the
/// responder stops changing class (an unreachable or two consecutive
/// silences), keeping the last responding source.
pub fn traceroute_discovery<N: Network>(
    scanner: &mut Scanner<N>,
    target: Ip6,
    max_hops: u8,
) -> TracerouteResult {
    let mut hops = Vec::new();
    let mut last_hop = None;
    let mut probes = 0;
    let mut silent_streak = 0;
    let mut session = scanner.targeted();
    let mut responses = Vec::new();
    for ttl in 1..=max_hops {
        probes += 1;
        session.probe(target, &IcmpEchoProbe, ttl, &mut responses);
        let hop = responses.iter().find_map(|(src, r)| match r {
            ProbeResult::TimeExceeded | ProbeResult::Unreachable { .. } => Some(*src),
            ProbeResult::Alive => Some(*src),
            _ => None,
        });
        hops.push(hop);
        match hop {
            Some(src) => {
                silent_streak = 0;
                last_hop = Some(src);
                // An unreachable (or echo reply) means we have passed the
                // last hop; stop.
                if responses
                    .iter()
                    .any(|(_, r)| matches!(r, ProbeResult::Unreachable { .. } | ProbeResult::Alive))
                {
                    break;
                }
            }
            None => {
                silent_streak += 1;
                if silent_streak >= 2 {
                    break;
                }
            }
        }
    }
    TracerouteResult {
        hops,
        last_hop,
        probes,
    }
}

/// Probes a hitlist of known 128-bit addresses directly; returns the alive
/// subset and probes spent (1 per entry).
pub fn hitlist_scan<N: Network>(scanner: &mut Scanner<N>, hitlist: &[Ip6]) -> (Vec<Ip6>, u64) {
    let mut alive = Vec::new();
    let mut session = scanner.targeted();
    let mut responses = Vec::new();
    for addr in hitlist {
        session.probe(*addr, &IcmpEchoProbe, 64, &mut responses);
        if responses
            .iter()
            .any(|(src, r)| matches!(r, ProbeResult::Alive) && src == addr)
        {
            alive.push(*addr);
        }
    }
    (alive, hitlist.len() as u64)
}

/// TGA-lite: generates candidate addresses from seeds by mutating the
/// low bits of the subnet portion (the pattern-expansion step all target
/// generation algorithms share), capped at `budget` candidates.
pub fn generate_targets(seeds: &[Ip6], per_seed: u32, budget: usize) -> Vec<Ip6> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    'outer: for seed in seeds {
        for k in 1..=per_seed as u64 {
            // Mutate the low byte of the /64 subnet and the low IID byte —
            // the densest dimensions in real seed sets.
            let subnet_mut = seed.with_bit_slice(56, 64, seed.bit_slice(56, 64) ^ k);
            let iid_mut = seed.with_iid(seed.iid() ^ k);
            for cand in [subnet_mut, iid_mut] {
                if cand != *seed && seen.insert(cand) {
                    out.push(cand);
                    if out.len() >= budget {
                        break 'outer;
                    }
                }
            }
        }
    }
    out
}

/// Outcome of the three-way comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Peripheries found by the sub-prefix technique and probes spent.
    pub xmap: (usize, u64),
    /// Peripheries found by traceroute and probes spent.
    pub traceroute: (usize, u64),
    /// *Newly discovered* responsive addresses found by hitlist + TGA —
    /// re-confirming a seed is not a discovery, so the seed set is
    /// excluded — and probes spent.
    pub hitlist_tga: (usize, u64),
}

impl BaselineComparison {
    /// Discoveries per thousand probes for each technique,
    /// (xmap, traceroute, hitlist+TGA).
    pub fn efficiency(&self) -> (f64, f64, f64) {
        let per_k = |(found, probes): (usize, u64)| {
            if probes == 0 {
                0.0
            } else {
                found as f64 * 1000.0 / probes as f64
            }
        };
        (
            per_k(self.xmap),
            per_k(self.traceroute),
            per_k(self.hitlist_tga),
        )
    }

    /// Runs all three techniques against one block at an equal probe
    /// budget. Requires a [`World`] scanner: the hitlist is seeded from
    /// the world's ground-truth population (standing in for the passive /
    /// DNS sources real hitlists are built from), covering `seed_count`
    /// known addresses.
    pub fn run(
        scanner: &mut Scanner<World>,
        profile_idx: usize,
        profile: &IspProfile,
        budget: u64,
        seed_count: usize,
    ) -> BaselineComparison {
        let range = profile.scan_range();

        // --- Technique 1: one probe per sub-prefix (this paper). ---
        let mut xmap_found = HashSet::new();
        let mut xmap_probes = 0;
        let mut session = scanner.targeted();
        let mut answers = Vec::new();
        for i in 0..budget {
            let target = range.nth(i).expect("within space");
            let dst = xmap::fill_host_bits(target, session.config().seed);
            xmap_probes += 1;
            session.probe(dst, &IcmpEchoProbe, 64, &mut answers);
            for &(src, r) in &answers {
                if matches!(
                    r,
                    ProbeResult::Unreachable { .. } | ProbeResult::TimeExceeded
                ) && src.iid() >> 48 != 0xffff
                {
                    xmap_found.insert(src);
                }
            }
        }
        session.finish();

        // --- Technique 2: traceroute toward random addresses. ---
        let mut tr_found = HashSet::new();
        let mut tr_probes = 0;
        let mut i = 0u64;
        while tr_probes < budget {
            let target = range.nth(i % budget.max(1)).expect("within space");
            let dst = xmap::fill_host_bits(target, scanner.config().seed ^ 0x7e37);
            let result = traceroute_discovery(scanner, dst, 40);
            tr_probes += result.probes;
            if let Some(hop) = result.last_hop {
                if hop.iid() >> 48 != 0xffff {
                    tr_found.insert(hop);
                }
            }
            i += 1;
        }

        // --- Technique 3: hitlist + target generation. ---
        // Seeds: ground-truth host/WAN addresses (the world oracle stands
        // in for passive collection).
        let mut seeds = Vec::new();
        let mut idx = 0u64;
        while seeds.len() < seed_count && idx < 5_000_000 {
            if scanner.network_mut().device_at(profile_idx, idx).is_some() {
                seeds.extend(scanner.network_mut().hosts_of(profile_idx, idx));
                if let Some(d) = scanner.network_mut().device_at(profile_idx, idx) {
                    seeds.push(d.wan_address());
                }
            }
            idx += 1;
        }
        seeds.truncate(seed_count);
        let seed_set: HashSet<Ip6> = seeds.iter().copied().collect();
        let (_alive_seeds, seed_probes) = hitlist_scan(scanner, &seeds);
        let candidates = generate_targets(&seeds, 64, budget.saturating_sub(seed_probes) as usize);
        // Only *new* responsive addresses count as discoveries; the seeds
        // themselves were already known to whoever built the hitlist.
        let mut tga_found: HashSet<Ip6> = HashSet::new();
        let mut tga_probes = seed_probes;
        let mut session = scanner.targeted();
        for cand in candidates {
            tga_probes += 1;
            session.probe(cand, &IcmpEchoProbe, 64, &mut answers);
            for &(src, r) in &answers {
                if matches!(
                    r,
                    ProbeResult::Alive
                        | ProbeResult::Unreachable { .. }
                        | ProbeResult::TimeExceeded
                ) && src.iid() >> 48 != 0xffff
                    && !seed_set.contains(&src)
                {
                    tga_found.insert(src);
                }
            }
        }
        session.finish();

        BaselineComparison {
            xmap: (xmap_found.len(), xmap_probes),
            traceroute: (tr_found.len(), tr_probes),
            hitlist_tga: (tga_found.len(), tga_probes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::ScanConfig;
    use xmap_netsim::isp::SAMPLE_BLOCKS;
    use xmap_netsim::world::WorldConfig;

    fn scanner() -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(999, 10));
        Scanner::new(
            world,
            ScanConfig {
                seed: 999,
                ..Default::default()
            },
        )
    }

    #[test]
    fn traceroute_finds_the_periphery_at_path_cost() {
        let mut s = scanner();
        // Find an allocated sub-prefix in Airtel (dense, same-mode).
        let p = &SAMPLE_BLOCKS[2];
        let mut target = None;
        for i in 0..200_000u64 {
            if let Some(d) = s.network_mut().device_at(2, i) {
                target = Some((i, d));
                break;
            }
        }
        let (i, device) = target.expect("device");
        let dst = p
            .scan_prefix()
            .subprefix(64, i as u128)
            .addr()
            .with_iid(0x5150);
        let result = traceroute_discovery(&mut s, dst, 40);
        let last = result.last_hop.expect("reached the periphery");
        assert_eq!(last.iid(), device.iid, "last hop is the periphery");
        // Cost scales with path length: at least hops_to_isp probes.
        assert!(result.probes >= u64::from(device.hops_to_isp), "{result:?}");
        // Early hops are transit routers.
        assert!(result
            .hops
            .iter()
            .flatten()
            .take(result.hops.len().saturating_sub(1))
            .all(|h| h.iid() >> 48 == 0xffff));
    }

    #[test]
    fn hitlist_finds_exactly_seeded_hosts() {
        let mut s = scanner();
        let mut seeds = Vec::new();
        for i in 0..500_000u64 {
            if s.network_mut().device_at(12, i).is_some() {
                seeds.extend(s.network_mut().hosts_of(12, i));
                if seeds.len() >= 6 {
                    break;
                }
            }
        }
        assert!(seeds.len() >= 3);
        // Hosts in the hitlist respond, but only after their covering CPE
        // forwards them (all are reachable end to end in the world).
        let (alive, probes) = hitlist_scan(&mut s, &seeds);
        assert_eq!(probes, seeds.len() as u64);
        assert_eq!(alive, seeds, "every ground-truth host responds");
        // A made-up address is not alive.
        let (alive, _) = hitlist_scan(&mut s, &["2409:8000::1234".parse().unwrap()]);
        assert!(alive.is_empty());
    }

    #[test]
    fn target_generation_expands_without_duplicates() {
        let seeds: Vec<Ip6> = vec![
            "2409:8000:0:10::1".parse().unwrap(),
            "2409:8000:0:20::2".parse().unwrap(),
        ];
        let targets = generate_targets(&seeds, 8, 100);
        assert!(!targets.is_empty());
        let set: HashSet<_> = targets.iter().collect();
        assert_eq!(set.len(), targets.len(), "duplicates generated");
        assert!(targets.iter().all(|t| !seeds.contains(t)));
    }

    #[test]
    fn xmap_beats_baselines_per_probe() {
        let mut s = scanner();
        // China Mobile broadband: dense enough for all techniques to find
        // something at a modest budget.
        let cmp = BaselineComparison::run(&mut s, 12, &SAMPLE_BLOCKS[12], 1 << 13, 24);
        let (xmap_eff, tr_eff, tga_eff) = cmp.efficiency();
        assert!(cmp.xmap.0 > 0, "{cmp:?}");
        // The headline: sub-prefix probing discovers more peripheries per
        // probe than traceroute (path-length overhead) and than
        // hitlist+TGA (seed-locality blindness).
        assert!(
            xmap_eff > tr_eff,
            "xmap {xmap_eff} vs traceroute {tr_eff} ({cmp:?})"
        );
        assert!(
            xmap_eff > tga_eff,
            "xmap {xmap_eff} vs tga {tga_eff} ({cmp:?})"
        );
    }
}
