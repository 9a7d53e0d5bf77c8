//! Periphery device model.
//!
//! A [`Device`] is one IPv6 network periphery — a CPE home router or a UE
//! smartphone — with everything needed to answer probes: its addressing
//! (WAN/LAN prefixes, IID), its exposed application services, and its
//! routing-correctness flags for the loop vulnerability. Devices are
//! *derived*, not stored: the world model materializes one on demand from a
//! deterministic hash (see [`crate::world`]).

use xmap_addr::oui::DeviceClass;
use xmap_addr::{IidClass, Ip6, Mac, Prefix};

use crate::services::{ServiceKind, SoftwareId};

/// Kind of periphery device. Alias of the OUI registry's device class.
pub type DeviceKind = DeviceClass;

/// One exposed service instance on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceInstance {
    /// The serving software, when the service has a banner.
    pub software: Option<SoftwareId>,
    /// Whether the response discloses the vendor at the application layer.
    pub discloses_vendor: bool,
    /// For HTTP: whether the page is a router login/management page.
    pub login_page: bool,
}

/// The set of services a device exposes, indexed by [`ServiceKind::ALL`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceSet {
    slots: [Option<ServiceInstance>; 8],
}

impl ServiceSet {
    /// An empty set (nothing exposed).
    pub const fn empty() -> Self {
        ServiceSet { slots: [None; 8] }
    }

    /// Installs `instance` for `kind`.
    pub fn set(&mut self, kind: ServiceKind, instance: ServiceInstance) {
        self.slots[Self::slot(kind)] = Some(instance);
    }

    /// The instance serving `kind`, if exposed.
    pub fn get(&self, kind: ServiceKind) -> Option<&ServiceInstance> {
        self.slots[Self::slot(kind)].as_ref()
    }

    /// Whether `kind` is exposed.
    pub fn has(&self, kind: ServiceKind) -> bool {
        self.get(kind).is_some()
    }

    /// Whether any service is exposed.
    pub fn any(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }

    /// Number of exposed services.
    pub fn count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over `(kind, instance)` pairs of exposed services.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceKind, &ServiceInstance)> {
        ServiceKind::ALL
            .iter()
            .zip(self.slots.iter())
            .filter_map(|(k, s)| s.as_ref().map(|i| (*k, i)))
    }

    fn slot(kind: ServiceKind) -> usize {
        ServiceKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL")
    }
}

/// How the periphery sources its unreachable replies relative to the probed
/// prefix — the "same" / "diff" split of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyMode {
    /// Reply source shares the probed /64 (UE model, or a CPE whose WAN
    /// prefix equals the probed prefix).
    SamePrefix,
    /// Reply source is the CPE's WAN address in a different /64 (a probe
    /// into the delegated LAN prefix).
    DiffPrefix,
}

/// One periphery device with its addressing, behaviour and services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// CPE or UE.
    pub kind: DeviceKind,
    /// Hardware vendor (from the OUI registry's vendor set).
    pub vendor: &'static str,
    /// Structure class of the device's interface identifier.
    pub iid_class: IidClass,
    /// The 64-bit interface identifier of the WAN interface.
    pub iid: u64,
    /// MAC address — present exactly when `iid_class` is EUI-64.
    pub mac: Option<Mac>,
    /// The delegated prefix the scan probes into (LAN prefix for CPEs in
    /// `DiffPrefix` mode; WAN/UE prefix otherwise).
    pub delegated_prefix: Prefix,
    /// The /64 the WAN interface lives in when `reply_mode` is `DiffPrefix`.
    pub wan_prefix64: Prefix,
    /// The one /64 of the delegated prefix actually used on the LAN (equal
    /// to the delegated /64 for single-subnet devices). Destinations here
    /// are genuinely routed and never loop.
    pub used_subnet64: Prefix,
    /// Reply-source behaviour (Table II "same"/"diff").
    pub reply_mode: ReplyMode,
    /// Exposed application services.
    pub services: ServiceSet,
    /// Routing-loop vulnerable for not-used addresses inside the *WAN* /64
    /// (the "NX Address" case of Figure 4).
    pub loop_vuln_wan: bool,
    /// Routing-loop vulnerable for not-used prefixes inside the delegated
    /// *LAN* prefix (the "Not-used Prefix" case of Figure 4).
    pub loop_vuln_lan: bool,
    /// Hop count from the scan vantage point to the upstream ISP router.
    pub hops_to_isp: u8,
}

impl Device {
    /// The WAN address the device sources ICMPv6 errors from, given the
    /// probed destination (needed because `SamePrefix` devices answer from
    /// the probed /64).
    pub fn reply_source(&self, probed_dst: Ip6) -> Ip6 {
        match self.reply_mode {
            ReplyMode::SamePrefix => probed_dst.network(64).with_iid(self.iid),
            ReplyMode::DiffPrefix => self.wan_prefix64.addr().with_iid(self.iid),
        }
    }

    /// The device's own WAN interface address (where its services listen).
    pub fn wan_address(&self) -> Ip6 {
        match self.reply_mode {
            ReplyMode::SamePrefix => self.delegated_prefix.addr().network(64).with_iid(self.iid),
            ReplyMode::DiffPrefix => self.wan_prefix64.addr().with_iid(self.iid),
        }
    }

    /// Multiplier applied to the base ICMPv6 token-bucket capacity under
    /// [`crate::fault::IcmpRateLimit::TokenBucket`]: line-powered CPEs
    /// afford a larger error burst than battery-powered UEs.
    pub fn icmp_burst_scale(&self) -> u32 {
        match self.kind {
            DeviceClass::Cpe => 2,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{software_id, ServiceKind};

    fn sample_device(reply_mode: ReplyMode) -> Device {
        Device {
            kind: DeviceKind::Cpe,
            vendor: "ZTE",
            iid_class: IidClass::Randomized,
            iid: 0x9c3a_71e2_b048_5d16,
            mac: None,
            delegated_prefix: "2001:db8:4321:8760::/60".parse().unwrap(),
            wan_prefix64: "2001:db8:1234:5678::/64".parse().unwrap(),
            used_subnet64: "2001:db8:4321:8765::/64".parse().unwrap(),
            reply_mode,
            services: ServiceSet::empty(),
            loop_vuln_wan: true,
            loop_vuln_lan: true,
            hops_to_isp: 12,
        }
    }

    #[test]
    fn service_set_basics() {
        let mut s = ServiceSet::empty();
        assert!(!s.any());
        assert_eq!(s.count(), 0);
        s.set(
            ServiceKind::Dns,
            ServiceInstance {
                software: software_id("dnsmasq", "2.4x"),
                discloses_vendor: false,
                login_page: false,
            },
        );
        assert!(s.has(ServiceKind::Dns));
        assert!(!s.has(ServiceKind::Http));
        assert_eq!(s.count(), 1);
        assert_eq!(s.iter().count(), 1);
        let (k, inst) = s.iter().next().unwrap();
        assert_eq!(k, ServiceKind::Dns);
        assert_eq!(inst.software.unwrap().get().name, "dnsmasq");
    }

    #[test]
    fn diff_mode_replies_from_wan_prefix() {
        let d = sample_device(ReplyMode::DiffPrefix);
        let probe: Ip6 = "2001:db8:4321:8765:aaaa::1".parse().unwrap();
        let src = d.reply_source(probe);
        assert_eq!(
            src.network(64),
            "2001:db8:1234:5678::".parse::<Ip6>().unwrap().network(64)
        );
        assert_ne!(src.network(64), probe.network(64));
        assert_eq!(src, d.wan_address());
    }

    #[test]
    fn same_mode_replies_from_probed_prefix() {
        let mut d = sample_device(ReplyMode::SamePrefix);
        d.delegated_prefix = "2001:db8:abcd:ef12::/64".parse().unwrap();
        let probe: Ip6 = "2001:db8:abcd:ef12:dead::1".parse().unwrap();
        let src = d.reply_source(probe);
        assert_eq!(src.network(64), probe.network(64));
        assert_eq!(src.iid(), d.iid);
    }
}
