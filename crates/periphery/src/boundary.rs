//! Subnet-boundary (sub-prefix length) inference — Section IV-A.
//!
//! Before scanning a block, the campaign needs the length of the
//! sub-prefix an ISP assigns to each periphery (the subnet boundary).
//! The paper's algorithm:
//!
//! 1. *Preliminary scan*: probe random /64s inside the block until one
//!    periphery answers; remember its address.
//! 2. *Bit walk*: flip the target's bits from position 63 up toward
//!    position 32 (i.e. widen the change) and re-probe. While the **same**
//!    periphery keeps answering, the flipped bit is still inside its
//!    assigned prefix; the first position where the responder changes (or
//!    vanishes) is the subnet boundary.
//! 3. *Replication*: repeat from several starting peripheries and take the
//!    majority answer.

use xmap::{IcmpEchoProbe, ProbeResult, Scanner, Targeted};
use xmap_addr::{Ip6, Prefix};
use xmap_netsim::packet::Network;

/// Outcome of a boundary inference on one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryInference {
    /// The block probed.
    pub block: Prefix,
    /// Majority inferred sub-prefix length, when any periphery was found.
    pub inferred_len: Option<u8>,
    /// Individual per-periphery inferences (for confidence assessment).
    pub samples: Vec<u8>,
    /// Probes spent.
    pub probes: u64,
}

impl BoundaryInference {
    /// Agreement ratio of the majority answer among samples.
    pub fn confidence(&self) -> f64 {
        let Some(len) = self.inferred_len else {
            return 0.0;
        };
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| **s == len).count() as f64 / self.samples.len() as f64
    }
}

/// Probes `dst` and returns the address of the periphery-like responder
/// (unreachable/time-exceeded source), if any; `answers` is scratch.
fn probe_responder<N: Network>(
    session: &mut Targeted<'_, N>,
    dst: Ip6,
    answers: &mut Vec<(Ip6, ProbeResult)>,
) -> Option<Ip6> {
    session.probe(dst, &IcmpEchoProbe, 64, answers);
    answers.iter().find_map(|&(src, result)| match result {
        ProbeResult::Unreachable { .. } | ProbeResult::TimeExceeded => {
            // Ignore transit-router time-exceeded sources.
            (src.iid() >> 48 != 0xffff).then_some(src)
        }
        _ => None,
    })
}

/// Infers the subnet boundary of `block`, testing at most `max_preliminary`
/// random /64s and replicating over up to `replications` found peripheries.
///
/// Returns lengths in `32..=64`; blocks assigning prefixes longer than /64
/// are reported as 64 (the paper takes /64 as the longest assignment).
pub fn infer_boundary<N: Network>(
    scanner: &mut Scanner<N>,
    block: Prefix,
    max_preliminary: u64,
    replications: usize,
) -> BoundaryInference {
    assert!(
        block.len() <= 32,
        "boundary inference expects a block of /32 or shorter"
    );
    let start_tick = scanner.ticks();
    let seed = scanner.config().seed;
    let mut session = scanner.targeted();
    let mut answers = Vec::new();
    let mut probes = 0u64;
    let mut samples = Vec::new();
    let mut found = 0usize;

    // Preliminary scan: deterministic pseudorandom walk over /64 indices.
    for attempt in 0..max_preliminary {
        if found >= replications {
            break;
        }
        let index = spread(attempt, seed) & ((1u64 << (64 - block.len())) - 1);
        let target64 = block.subprefix(64, index as u128);
        let dst = xmap::fill_host_bits(target64, seed);
        probes += 1;
        let Some(responder) = probe_responder(&mut session, dst, &mut answers) else {
            continue;
        };
        found += 1;

        // Bit walk: flip bit positions from 63 down to 32. Bit position b
        // (0-based from the MSB) is inside the periphery's prefix iff
        // b >= assigned_len; the first flip that changes the responder
        // marks the boundary.
        let mut boundary = 64u8;
        for b in (32..64).rev() {
            let flipped = Ip6::new(dst.bits() ^ (1u128 << (127 - b)));
            probes += 1;
            match probe_responder(&mut session, flipped, &mut answers) {
                Some(r) if r == responder => {
                    // Same device still answers: bit b is inside its prefix.
                    boundary = b;
                }
                Some(r)
                    if r.network(64) == flipped.network(64)
                        && responder.network(64) == dst.network(64) =>
                {
                    // Same-prefix repliers answer from the probed /64, so
                    // the address changes even inside one device's prefix;
                    // compare IIDs instead.
                    if r.iid() == responder.iid() {
                        boundary = b;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        samples.push(boundary);
    }
    session.finish();

    let inferred_len = majority(&samples);
    if scanner.tracer().is_enabled() {
        scanner.tracer().span_event(
            start_tick,
            scanner.ticks(),
            "periphery.boundary",
            vec![
                ("probes", probes.into()),
                ("samples", (samples.len() as u64).into()),
                ("inferred_len", u64::from(inferred_len.unwrap_or(0)).into()),
            ],
        );
    }
    BoundaryInference {
        block,
        inferred_len,
        samples,
        probes,
    }
}

/// Deterministic index spreading for the preliminary scan.
fn spread(i: u64, seed: u64) -> u64 {
    let mut z = i.wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

fn majority(samples: &[u8]) -> Option<u8> {
    let mut best: Option<(u8, usize)> = None;
    for s in samples {
        let count = samples.iter().filter(|x| *x == s).count();
        if best.is_none_or(|(_, c)| count > c) {
            best = Some((*s, count));
        }
    }
    best.map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::ScanConfig;
    use xmap_netsim::isp::SAMPLE_BLOCKS;
    use xmap_netsim::world::{World, WorldConfig};

    fn scanner() -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(31, 10));
        Scanner::new(
            world,
            ScanConfig {
                seed: 3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn infers_64_for_mobile_block() {
        // Bharti Airtel (index 2): /64 assignment, dense population.
        let p = &SAMPLE_BLOCKS[2];
        let mut s = scanner();
        let inf = infer_boundary(&mut s, p.scan_prefix(), 4000, 3);
        assert_eq!(inf.inferred_len, Some(64), "samples {:?}", inf.samples);
        assert!(inf.confidence() > 0.6);
    }

    #[test]
    fn infers_60_for_chinese_broadband() {
        // China Mobile broadband (index 12): /60 assignment, dense.
        let p = &SAMPLE_BLOCKS[12];
        let mut s = scanner();
        let inf = infer_boundary(&mut s, p.scan_prefix(), 4000, 5);
        assert_eq!(inf.inferred_len, Some(60), "samples {:?}", inf.samples);
    }

    #[test]
    fn sparse_block_may_fail_gracefully() {
        // BSNL (index 1) has ~2.4k devices in 2^32: the preliminary scan
        // will not find one in a few thousand probes.
        let p = &SAMPLE_BLOCKS[1];
        let mut s = scanner();
        let inf = infer_boundary(&mut s, p.scan_prefix(), 500, 3);
        assert_eq!(inf.inferred_len, None);
        assert_eq!(inf.confidence(), 0.0);
        assert!(inf.probes >= 500);
    }

    #[test]
    fn majority_vote() {
        assert_eq!(majority(&[60, 60, 64]), Some(60));
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[64]), Some(64));
    }
}
