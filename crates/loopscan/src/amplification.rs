//! Packet-level amplification measurement (Section VI-A).
//!
//! A loop packet with hop limit 255 injected at the vantage traverses the
//! ISP↔CPE link (255 − n) times for a path of n hops, amplifying the
//! attacker's traffic by a factor >200 for typical paths. When the source
//! address is spoofed into another looping prefix, the final Time Exceeded
//! error is routed back into the loop and bounces again, roughly doubling
//! the traffic. Both effects are measured here on the explicit engine,
//! packet by packet.

use xmap_addr::Ip6;
use xmap_netsim::packet::{Ipv6Packet, Network, MAX_HOP_LIMIT};
use xmap_netsim::topology::{build_home_network, HomeNetworkPlan, RouterModel};

/// One measurement: path length → loop traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmplificationPoint {
    /// Hop count n between attacker and the ISP router.
    pub path_hops: u8,
    /// Traversals of the ISP↔CPE link caused by one attack packet.
    pub loop_forwards: u64,
}

impl AmplificationPoint {
    /// The amplification factor (looped bytes per attack byte).
    pub fn factor(&self) -> u64 {
        self.loop_forwards
    }
}

/// Measures loop traffic for one router model at a given path length by
/// sending a single 255-hop-limit packet into a not-used LAN prefix.
pub fn measure_amplification(model: &RouterModel, path_hops: u8) -> AmplificationPoint {
    measure_amplification_with(model, path_hops, &xmap_telemetry::Telemetry::disabled())
}

/// [`measure_amplification`] with a telemetry bundle attached: the engine
/// mirrors its traversal counters into the registry and the measured
/// factor is recorded into the `loopscan.amplification_factor` histogram.
pub fn measure_amplification_with(
    model: &RouterModel,
    path_hops: u8,
    telemetry: &xmap_telemetry::Telemetry,
) -> AmplificationPoint {
    let plan = HomeNetworkPlan {
        transit_hops: path_hops,
        ..HomeNetworkPlan::default()
    };
    let (mut engine, net) = build_home_network(model, &plan);
    engine.set_telemetry(telemetry);
    engine.reset_counters();
    let target = if model.lan_vulnerable {
        plan.not_used_lan_prefix().addr().with_iid(1)
    } else {
        plan.nx_wan_address()
    };
    engine.handle_into(
        Ipv6Packet::echo_request(plan.vantage_addr, target, MAX_HOP_LIMIT, 0, 0),
        &mut Vec::new(),
    );
    let loop_forwards =
        engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);
    let point = AmplificationPoint {
        path_hops,
        loop_forwards,
    };
    if telemetry.registry.is_enabled() {
        crate::telemetry::LoopscanTelemetry::bind(telemetry)
            .amplification
            .record(point.factor());
    }
    if telemetry.tracer.is_enabled() {
        telemetry.tracer.event(
            0,
            "loopscan.amplify",
            vec![
                ("path_hops", u64::from(path_hops).into()),
                ("factor", point.factor().into()),
            ],
        );
    }
    point
}

/// Measures the spoofed-source doubling: the attack packet's source is
/// forged to another address inside the looping prefix, so the Time
/// Exceeded generated when the first loop dies is itself routed back into
/// the loop. Returns (plain, spoofed) traversal counts.
pub fn measure_spoofed_doubling(model: &RouterModel, path_hops: u8) -> (u64, u64) {
    let plain = measure_amplification(model, path_hops).loop_forwards;

    let plan = HomeNetworkPlan {
        transit_hops: path_hops,
        ..HomeNetworkPlan::default()
    };
    let (mut engine, net) = build_home_network(model, &plan);
    engine.reset_counters();
    let target = if model.lan_vulnerable {
        plan.not_used_lan_prefix().addr().with_iid(1)
    } else {
        plan.nx_wan_address()
    };
    // Spoofed source: a *different* not-used address in the same region.
    let spoofed_src = Ip6::new(target.bits() ^ 0xff00);
    engine.handle_into(
        Ipv6Packet::echo_request(spoofed_src, target, MAX_HOP_LIMIT, 0, 0),
        &mut Vec::new(),
    );
    let spoofed = engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);
    (plain, spoofed)
}

/// Sweeps path lengths, producing the amplification series the paper's
/// ">200 for n < 55" claim summarizes.
pub fn amplification_sweep(model: &RouterModel, hops: &[u8]) -> Vec<AmplificationPoint> {
    amplification_sweep_with(model, hops, &xmap_telemetry::Telemetry::disabled())
}

/// [`amplification_sweep`] recording every measured factor into the
/// telemetry bundle's amplification histogram.
pub fn amplification_sweep_with(
    model: &RouterModel,
    hops: &[u8],
    telemetry: &xmap_telemetry::Telemetry,
) -> Vec<AmplificationPoint> {
    hops.iter()
        .map(|n| measure_amplification_with(model, *n, telemetry))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::topology::NAMED_MODELS;

    fn full_loop_model() -> &'static RouterModel {
        NAMED_MODELS
            .iter()
            .find(|m| m.brand == "Huawei")
            .expect("Huawei WS5100 present")
    }

    #[test]
    fn amplification_exceeds_200_for_short_paths() {
        for n in [0u8, 10, 30, 50] {
            let point = measure_amplification(full_loop_model(), n);
            assert!(point.factor() > 200, "n={n}: factor {}", point.factor());
        }
    }

    #[test]
    fn amplification_decreases_linearly_with_path_length() {
        let sweep = amplification_sweep(full_loop_model(), &[0, 10, 20, 40]);
        for w in sweep.windows(2) {
            let dn = (w[1].path_hops - w[0].path_hops) as u64;
            assert_eq!(w[0].loop_forwards - w[1].loop_forwards, dn, "{w:?}");
        }
        // factor ≈ 255 - n - small constant.
        let p0 = &sweep[0];
        assert!((250..=255).contains(&(p0.loop_forwards + p0.path_hops as u64 + 2)));
    }

    #[test]
    fn spoofed_source_roughly_doubles_traffic() {
        let (plain, spoofed) = measure_spoofed_doubling(full_loop_model(), 10);
        assert!(
            spoofed as f64 >= plain as f64 * 1.8,
            "plain {plain}, spoofed {spoofed}"
        );
        assert!(
            spoofed as f64 <= plain as f64 * 2.2,
            "plain {plain}, spoofed {spoofed}"
        );
    }

    #[test]
    fn limited_loop_model_has_small_factor() {
        let xiaomi = NAMED_MODELS.iter().find(|m| m.brand == "Xiaomi").unwrap();
        let point = measure_amplification(xiaomi, 10);
        assert!(point.factor() > 10, "{}", point.factor());
        assert!(point.factor() < 40, "{}", point.factor());
    }

    #[test]
    fn wan_only_model_loops_on_nx_address() {
        let asus = NAMED_MODELS.iter().find(|m| m.brand == "ASUS").unwrap();
        assert!(!asus.lan_vulnerable);
        let point = measure_amplification(asus, 5);
        assert!(point.factor() > 200, "{}", point.factor());
    }
}
