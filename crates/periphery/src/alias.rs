//! Aliased-prefix detection.
//!
//! Some prefixes are *aliased*: a middlebox (load balancer, CDN front,
//! misconfigured firewall) answers for every address beneath them. Counting
//! them as peripheries would wildly inflate discovery results, so the paper
//! reports "unique, non-aliased last hop addresses" (Section IV-E). The
//! standard de-aliasing technique (Gasser et al., IMC'18) probes several
//! pseudorandom addresses under the suspect prefix: real subnets answer a
//! nonexistent-address probe with an ICMPv6 error or silence, while an
//! aliased prefix answers *every* probe from the probed address itself.

use xmap::{IcmpEchoProbe, ProbeResult, Scanner};
use xmap_addr::Prefix;
use xmap_netsim::packet::Network;

/// Number of detection probes used by [`check_aliased`]'s convenience form.
pub const DEFAULT_PROBES: u32 = 4;

/// Verdict of an alias check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasVerdict {
    /// Whether every detection probe was answered by its own target
    /// address (the alias signature).
    pub aliased: bool,
    /// Probes sent.
    pub probes: u32,
    /// Probes answered by the probed address itself.
    pub self_replies: u32,
}

/// Probes `k` pseudorandom addresses under `prefix`; the prefix is aliased
/// iff every probe draws an echo reply from the probed address itself.
pub fn check_aliased<N: Network>(scanner: &mut Scanner<N>, prefix: Prefix, k: u32) -> AliasVerdict {
    assert!(k > 0, "at least one detection probe is required");
    let mut self_replies = 0;
    let mut session = scanner.targeted();
    let mut answers = Vec::new();
    for attempt in 0..k {
        let dst = xmap::fill_host_bits(prefix, session.config().seed ^ (0xa11a5 + attempt as u64));
        session.probe(dst, &IcmpEchoProbe, 64, &mut answers);
        let answered_self = answers
            .iter()
            .any(|(src, r)| matches!(r, ProbeResult::Alive) && *src == dst);
        if answered_self {
            self_replies += 1;
        } else {
            // One miss is enough to clear the prefix.
            return AliasVerdict {
                aliased: false,
                probes: attempt + 1,
                self_replies,
            };
        }
    }
    AliasVerdict {
        aliased: true,
        probes: k,
        self_replies,
    }
}

/// Convenience form with [`DEFAULT_PROBES`].
pub fn is_aliased<N: Network>(scanner: &mut Scanner<N>, prefix: Prefix) -> bool {
    check_aliased(scanner, prefix, DEFAULT_PROBES).aliased
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::ScanConfig;
    use xmap_netsim::isp::SAMPLE_BLOCKS;
    use xmap_netsim::world::{World, WorldConfig};

    fn scanner() -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(31337, 10));
        Scanner::new(
            world,
            ScanConfig {
                seed: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn detects_world_aliased_prefixes() {
        let mut s = scanner();
        // BSNL (index 1) has the highest aliased fraction.
        let p = &SAMPLE_BLOCKS[1];
        let mut checked = 0;
        for i in 0..2_000_000u64 {
            if s.network_mut().is_aliased(1, i) {
                let prefix = p.scan_prefix().subprefix(p.assigned_len, i as u128);
                let verdict = check_aliased(&mut s, prefix, 4);
                assert!(verdict.aliased, "{prefix} should be aliased: {verdict:?}");
                assert_eq!(verdict.self_replies, 4);
                checked += 1;
                if checked >= 3 {
                    break;
                }
            }
        }
        assert!(checked > 0, "no aliased prefix found to check");
    }

    #[test]
    fn real_periphery_prefixes_are_not_aliased() {
        let mut s = scanner();
        let p = &SAMPLE_BLOCKS[12];
        let mut checked = 0;
        for i in 0..1_000_000u64 {
            if s.network_mut().device_at(12, i).is_some() && !s.network_mut().is_aliased(12, i) {
                let prefix = p.scan_prefix().subprefix(p.assigned_len, i as u128);
                assert!(!is_aliased(&mut s, prefix), "{prefix} wrongly flagged");
                checked += 1;
                if checked >= 5 {
                    break;
                }
            }
        }
        assert!(checked >= 5);
    }

    #[test]
    fn unallocated_prefixes_are_not_aliased() {
        let mut s = scanner();
        let p = &SAMPLE_BLOCKS[0];
        for i in 0..2000u64 {
            if s.network_mut().device_at(0, i).is_none() && !s.network_mut().is_aliased(0, i) {
                let prefix = p.scan_prefix().subprefix(p.assigned_len, i as u128);
                let verdict = check_aliased(&mut s, prefix, 4);
                assert!(!verdict.aliased);
                // Cleared after the first unanswered probe.
                assert_eq!(verdict.probes, 1);
                return;
            }
        }
        panic!("no unallocated prefix found");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_probes_rejected() {
        check_aliased(&mut scanner(), "2405:200::/64".parse().unwrap(), 0);
    }
}
