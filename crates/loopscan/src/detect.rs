//! The crafted-hop-limit loop-detection primitive (Section VI-B).
//!
//! A destination loops if a probe with hop limit *h* draws an ICMPv6 Time
//! Exceeded and a re-probe with *h+2* draws another from the same device:
//! a linear path would have delivered (or unreached) the second probe,
//! while a loop swallows both. The paper fixes *h* = 32 because Internet
//! paths between vantage points and targets stay under 32 hops (Yarrp6's
//! fill-mode evidence), keeping loop traffic minimal while avoiding false
//! negatives.

use xmap::{IcmpEchoProbe, ProbeResult, Targeted};
use xmap_addr::Ip6;
use xmap_netsim::packet::Network;

use crate::telemetry::LoopscanTelemetry;

/// The probing hop limit h (Section VI-B).
pub const PROBE_HOP_LIMIT: u8 = 32;

/// Verdict of one loop detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopVerdict {
    /// Whether the destination is confirmed to loop.
    pub vulnerable: bool,
    /// The Time Exceeded source (the looping router's exposed address).
    pub responder: Option<Ip6>,
}

/// Source address of a Time Exceeded that is a transit router rather than
/// a periphery (the simulator marks transit IIDs with a 0xffff prefix).
fn is_transit(src: Ip6) -> bool {
    src.iid() >> 48 == 0xffff
}

/// Extracts a non-transit Time Exceeded source from probe results.
fn te_source(results: &[(Ip6, ProbeResult)]) -> Option<Ip6> {
    results.iter().find_map(|(src, r)| {
        (matches!(r, ProbeResult::TimeExceeded) && !is_transit(*src)).then_some(*src)
    })
}

/// Runs the h / h+2 detection against `dst` with the default h of 32,
/// probing through a [`Scanner::targeted`](xmap::Scanner::targeted)
/// session.
pub fn detect_loop<N: Network>(session: &mut Targeted<'_, N>, dst: Ip6) -> LoopVerdict {
    detect_loop_with(session, dst, PROBE_HOP_LIMIT)
}

/// Runs the detection with an explicit probing hop limit `h` — the
/// `hoplimit_tradeoff` ablation varies this: larger h still detects the
/// same loops but each probe's loop traffic grows with (h − n).
pub fn detect_loop_with<N: Network>(session: &mut Targeted<'_, N>, dst: Ip6, h: u8) -> LoopVerdict {
    detect_loop_in(session, dst, h, &mut None)
}

/// The detection behind [`detect_loop_with`], tallying into `telemetry`:
/// a survey keeps one binding per block and passes it to every
/// detection, so the `loopscan.*` handles are looked up once, at the
/// first detection with a live registry — when the metric names would
/// first have appeared anyway.
pub(crate) fn detect_loop_in<N: Network>(
    session: &mut Targeted<'_, N>,
    dst: Ip6,
    h: u8,
    telemetry: &mut Option<LoopscanTelemetry>,
) -> LoopVerdict {
    let mut answers = Vec::new();
    session.probe(dst, &IcmpEchoProbe, h, &mut answers);
    let verdict = match te_source(&answers) {
        None => LoopVerdict {
            vulnerable: false,
            responder: None,
        },
        Some(responder) => {
            // Confirmation probe with h+2: a loop still exceeds; a path
            // that was merely two hops short now completes.
            session.probe(dst, &IcmpEchoProbe, h.saturating_add(2), &mut answers);
            match te_source(&answers) {
                Some(r2) if r2 == responder => LoopVerdict {
                    vulnerable: true,
                    responder: Some(responder),
                },
                _ => LoopVerdict {
                    vulnerable: false,
                    responder: Some(responder),
                },
            }
        }
    };
    let bundle = session.telemetry();
    if bundle.registry.is_enabled() {
        let lt = telemetry.get_or_insert_with(|| LoopscanTelemetry::bind(bundle));
        lt.detects.inc();
        if verdict.vulnerable {
            lt.vulnerable.inc();
        }
    }
    if bundle.tracer.is_enabled() {
        bundle.tracer.event(
            session.ticks(),
            "loopscan.detect",
            vec![
                ("h", u64::from(h).into()),
                ("vulnerable", u64::from(verdict.vulnerable).into()),
            ],
        );
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::{ScanConfig, Scanner};
    use xmap_netsim::isp::SAMPLE_BLOCKS;
    use xmap_netsim::world::{World, WorldConfig};

    fn scanner() -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(44, 20));
        Scanner::new(
            world,
            ScanConfig {
                seed: 17,
                ..Default::default()
            },
        )
    }

    /// Finds (target address, expected loop) pairs in China Unicom
    /// broadband, which has a 78.8% loop rate.
    fn unicom_targets(s: &mut Scanner<World>) -> (Ip6, Ip6) {
        let p = &SAMPLE_BLOCKS[11];
        let mut looping = None;
        let mut clean = None;
        for i in 0..3_000_000u64 {
            let Some(d) = s.network_mut().device_at(11, i) else {
                continue;
            };
            let target = p.scan_prefix().subprefix(p.assigned_len, i as u128);
            // Aim outside the used subnet so clean devices answer
            // unreachable and loopy ones loop.
            let sub = (0..16u128)
                .map(|k| target.subprefix(64, k))
                .find(|c| *c != d.used_subnet64)
                .unwrap();
            let dst = sub.addr().with_iid(0x4242);
            if d.loop_vuln_lan && looping.is_none() {
                looping = Some(dst);
            }
            if !d.loop_vuln_lan && !d.loop_vuln_wan && clean.is_none() {
                clean = Some(dst);
            }
            if let (Some(l), Some(c)) = (looping, clean) {
                return (l, c);
            }
        }
        panic!("targets not found");
    }

    #[test]
    fn detects_looping_and_clean_destinations() {
        let mut s = scanner();
        let (looping, clean) = unicom_targets(&mut s);
        let v = detect_loop(&mut s.targeted(), looping);
        assert!(v.vulnerable, "{v:?}");
        assert!(v.responder.is_some());
        let v2 = detect_loop(&mut s.targeted(), clean);
        assert!(!v2.vulnerable, "{v2:?}");
    }

    #[test]
    fn unallocated_destination_is_not_vulnerable() {
        let mut s = scanner();
        let p = &SAMPLE_BLOCKS[11];
        for i in 0..2000u64 {
            if s.network_mut().device_at(11, i).is_none() {
                let dst = p
                    .scan_prefix()
                    .subprefix(p.assigned_len, i as u128)
                    .addr()
                    .with_iid(1);
                let v = detect_loop(&mut s.targeted(), dst);
                assert!(!v.vulnerable);
                assert_eq!(v.responder, None);
                return;
            }
        }
        panic!("no unallocated prefix found");
    }

    #[test]
    fn transit_marker_recognized() {
        assert!(is_transit("2405:201::ffff:0:0:20".parse().unwrap()));
        assert!(!is_transit("2405:201::1234:0:0:20".parse().unwrap()));
    }
}
