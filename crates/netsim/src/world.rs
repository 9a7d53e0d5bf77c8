//! The procedural Internet: a scalable, deterministic [`Network`].
//!
//! The world answers probes the way the live IPv6 Internet answered the
//! paper's scans, without materializing 52 million devices. Device existence
//! and every device property are *derived* by hashing `(seed, block,
//! sub-prefix index)`, so:
//!
//! * the same address always behaves the same way across probes and scans,
//! * a 2³²-sub-prefix block costs no memory,
//! * any contiguous slice of a block is a statistically faithful sample,
//!   which is what makes the scaled experiments (DESIGN.md §1) valid.
//!
//! Every answer comes from [`crate::rules`], the rule book the explicit
//! [`crate::Engine`] answers from too:
//!
//! * a probe to a nonexistent address inside an allocated prefix draws an
//!   ICMPv6 address-unreachable from the periphery's WAN address (RFC 4443
//!   §3.1), or reject-route where the CPE installed RFC 7084's L-14 route,
//! * hop limits that expire before the ISP router draw Time Exceeded from a
//!   transit router (§3.3) — for registered addresses too,
//! * probes into the unused region of a loop-vulnerable CPE's prefixes draw
//!   Time Exceeded after ping-ponging on the ISP↔CPE link (the traversals
//!   are counted for amplification statistics),
//! * a device's errors are rate-limited (§2.4(f)),
//! * application probes are answered only for addresses that have already
//!   revealed themselves in this world — exactly the pipeline the paper
//!   runs (discover first, then ZGrab the discovered set).

use std::collections::BinaryHeap;
use std::sync::OnceLock;

use xmap_addr::oui::{self, DeviceClass};
use xmap_addr::{FxHashMap, IidClass, Ip6, Mac, Prefix};
use xmap_state::AbortSignal;

use crate::bgp::{AsParams, BgpTable, BASE_DENSITY, BGP_IID_MIX, LOOP_RATE_BY_CLASS};
use crate::device::{Device, ReplyMode, ServiceInstance, ServiceSet};
use crate::fault::{DelayedResponse, FaultPlan, IcmpRateLimit};
use crate::isp::{IspProfile, NON_EUI_IID_SPLIT, SAMPLE_BLOCKS};
use crate::packet::{
    AppData, Icmpv6, Ipv6Packet, Network, Payload, TcpFlags, UnreachCode, DEFAULT_HOP_LIMIT,
};
use crate::rng::{weighted_pick, DetHash};
use crate::rules::rfc4443::{self, Answer, ErrorLimiterState};
use crate::rules::rfc7084::{self, CpeAnswer};
use crate::services::{
    software_id, AppRequest, AppResponse, ServiceKind, SoftwareId, TransportProto,
};
use crate::telemetry::NetsimTelemetry;

/// How devices are laid out across a block's sub-prefix index space.
///
/// Real access networks are not uniform: ISPs light up contiguous
/// allocation pools ("pods") while the rest of the block stays dark.
/// [`Allocation::Clustered`] models that structure, which is what makes
/// density-guided adaptive scanning meaningfully better than uniform
/// sampling. The default stays [`Allocation::Uniform`] so every
/// historically seeded world is byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Allocation {
    /// Every sub-prefix index is allocated independently at the profile's
    /// occupancy (the historical behaviour).
    Uniform,
    /// Indices cluster into pods of `1 << pod_bits` consecutive indices.
    /// Each pod is active with probability `active_frac`; inactive pods
    /// are strictly empty, and active pods concentrate the block's
    /// occupancy (`occupancy / active_frac`, capped at 1), so the
    /// expected device population matches the uniform layout.
    Clustered {
        /// log2 of the pod size in sub-prefix indices.
        pod_bits: u8,
        /// Fraction of pods that are active.
        active_frac: f64,
    },
}

/// Configuration of a [`World`].
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Master seed; all behaviour derives from it.
    pub seed: u64,
    /// Number of autonomous systems in the synthetic BGP table. A world
    /// derives the table on its first BGP-zone lookup, so the size costs
    /// nothing until a probe leaves the sample blocks.
    pub bgp_ases: usize,
    /// Fraction of probe/response exchanges lost end to end.
    pub loss_frac: f64,
    /// Injected faults beyond baseline behaviour (loss, token-bucket ICMP
    /// limiting, jitter, flaky devices). [`FaultPlan::none`] by default.
    pub fault: FaultPlan,
    /// Device layout across each block's index space.
    pub allocation: Allocation,
}

impl Default for WorldConfig {
    fn default() -> Self {
        // 6,911 ASes — the responding-AS universe of Table IX.
        WorldConfig {
            seed: 0xDA7A_5EED,
            bgp_ases: 6911,
            loss_frac: 0.004,
            fault: FaultPlan::none(),
            allocation: Allocation::Uniform,
        }
    }
}

impl WorldConfig {
    /// A fault-free configuration: zero loss and no injected faults.
    /// The constructor every controlled experiment and test should use
    /// unless it is explicitly studying faults.
    pub fn lossless(seed: u64, bgp_ases: usize) -> Self {
        WorldConfig {
            seed,
            bgp_ases,
            loss_frac: 0.0,
            fault: FaultPlan::none(),
            allocation: Allocation::Uniform,
        }
    }

    /// Replaces the fault plan.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the device allocation layout.
    #[must_use]
    pub fn with_allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = allocation;
        self
    }
}

/// Traffic statistics accumulated by a world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Packets injected.
    pub probes: u64,
    /// Response packets produced.
    pub responses: u64,
    /// Probes that triggered a routing loop.
    pub loop_events: u64,
    /// Link traversals consumed by routing loops (amplified traffic).
    pub loop_forwards: u64,
    /// ICMPv6 errors suppressed by per-device rate limiting (RFC 4443
    /// §2.4(f)).
    pub rate_limited: u64,
    /// Probes dropped in the forward direction by the fault plan.
    pub fwd_lost: u64,
    /// Responses dropped on the return path by the fault plan.
    pub rev_lost: u64,
    /// Extra response copies produced by fault-plan duplication.
    pub dup_responses: u64,
    /// Responses held back by jitter (delivered by a later tick).
    pub jittered: u64,
    /// Probes swallowed because the target device was mid-reboot.
    pub flaky_dropped: u64,
}

impl WorldStats {
    /// Mean loop amplification factor (looped traversals per looping probe).
    pub fn amplification(&self) -> f64 {
        if self.loop_events == 0 {
            0.0
        } else {
            self.loop_forwards as f64 / self.loop_events as f64
        }
    }
}

/// Locator of a responding device, kept in the discovery registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceRef {
    /// Device `index` within sample block `profile` (index into
    /// SAMPLE_BLOCKS), `hops` routers behind the vantage: an echo to a
    /// registered address expires in transit exactly as on the cold path.
    Isp {
        profile: usize,
        index: u64,
        hops: u8,
    },
}

/// A last-hop host in the BGP survey zone (no services, no vendor — the
/// survey only measures reachability, IID structure and loop behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpHost {
    /// Origin AS of the covering prefix.
    pub asn: u32,
    /// IID class of the responding address.
    pub iid_class: IidClass,
    /// Interface identifier.
    pub iid: u64,
    /// Whether the host's routes loop for unused destinations.
    pub loops: bool,
    /// Hop count from the vantage to the host's upstream router.
    pub hops: u8,
}

/// The procedural Internet.
///
/// # Examples
///
/// ```
/// use xmap_netsim::{World, Network, Ipv6Packet};
///
/// let mut world = World::new(42);
/// // Probe a nonexistent address in Reliance Jio's sample block; if the
/// // sub-prefix is allocated, the periphery answers with an unreachable.
/// let probe = Ipv6Packet::echo_request(
///     "fd00::1".parse()?, "2405:200:0:1::1234".parse()?, 64, 7, 7);
/// let mut responses = Vec::new();
/// world.handle_into(probe, &mut responses);
/// # Ok::<(), xmap_addr::ParseAddrError>(())
/// ```
#[derive(Debug)]
pub struct World {
    cfg: WorldConfig,
    /// `BgpTable::generate(cfg.seed, cfg.bgp_ases)`, derived on first
    /// use by [`World::bgp`]: scans of the sample blocks never read it.
    bgp: OnceLock<BgpTable>,
    /// The seed hashed with each draw's constant label, once per world.
    keys: WorldKeys,
    /// Discovered WAN address → device locator (fed by discovery responses,
    /// consumed by application-layer probes).
    registry: FxHashMap<Ip6, DeviceRef>,
    /// Per-device §2.4(f) token buckets; none under the default plan.
    error_limiters: FxHashMap<(usize, u64), ErrorLimiterState>,
    /// Virtual clock in ticks; advanced by [`Network::tick_into`].
    clock: u64,
    /// Responses delayed by fault-plan jitter, ordered by due tick.
    delayed: BinaryHeap<DelayedResponse>,
    /// Monotone insertion counter for deterministic delay-queue ordering.
    delay_seq: u64,
    stats: WorldStats,
    /// Registry handles for the `netsim.*` metric surface (inert unless
    /// [`World::set_telemetry`] attached a live bundle).
    telemetry: NetsimTelemetry,
    /// Stats as of the last registry publish (publishing is delta-based).
    published: WorldStats,
    /// Clock as of the last registry publish.
    published_clock: u64,
    /// Armed kill-point for checkpoint/resume testing, if any.
    kill: Option<ArmedKill>,
}

/// A deterministic abort trigger: fires an [`AbortSignal`] when the world
/// reaches an exact probe count and/or clock tick.
///
/// Kill-points are the test harness for the checkpoint subsystem: under a
/// fixed seed, "kill at probe *k*" reproduces the same interruption on
/// every run, which lets integration tests prove that an interrupted and
/// resumed scan is byte-identical to an uninterrupted one.
#[derive(Debug, Clone, Copy, Default)]
pub struct KillPoint {
    /// Fire once the world has handled this many probes.
    pub after_probes: Option<u64>,
    /// Fire once the virtual clock reaches this tick.
    pub at_tick: Option<u64>,
}

#[derive(Debug, Clone)]
struct ArmedKill {
    point: KillPoint,
    signal: AbortSignal,
}

/// Every world draw starts from `DetHash::new(seed).mix(label)`, and the
/// per-profile draws mix the profile id next. Those prefixes are constant
/// for a world, so they are hashed here once; a draw mixes only what
/// varies per probe (index, pod, address, hop limit).
#[derive(Debug)]
struct WorldKeys {
    loss: DetHash,
    bgp_dev: DetHash,
    bgp_sub: DetHash,
    /// Indexed by [`IspProfile::id`].
    by_profile_id: Vec<ProfileKeys>,
}

/// One profile's keys: `DetHash::new(seed).mix(label).mix_u64(id)`.
#[derive(Debug)]
struct ProfileKeys {
    alias: DetHash,
    isp_dev: DetHash,
    pod: DetHash,
    filter: DetHash,
    hosts: DetHash,
}

impl WorldKeys {
    fn new(seed: u64, profiles: &[IspProfile]) -> Self {
        let key = |label: &[u8]| DetHash::new(seed).mix(label);
        let max_id = profiles.iter().map(|p| p.id).max().unwrap_or(0);
        WorldKeys {
            loss: key(b"loss"),
            bgp_dev: key(b"bgp-dev"),
            bgp_sub: key(b"bgp-sub"),
            by_profile_id: (0..=max_id)
                .map(|id| {
                    let key = |label: &[u8]| key(label).mix_u64(u64::from(id));
                    ProfileKeys {
                        alias: key(b"alias"),
                        isp_dev: key(b"isp-dev"),
                        pod: key(b"pod"),
                        filter: key(b"filter"),
                        hosts: key(b"hosts"),
                    }
                })
                .collect(),
        }
    }

    fn of(&self, p: &IspProfile) -> &ProfileKeys {
        &self.by_profile_id[usize::from(p.id)]
    }
}

/// Packets (or ticks) between registry publishes when event tracing is
/// off. Metrics-only telemetry coalesces at this granularity on the
/// per-packet path; [`Network::flush_telemetry`] makes boundaries exact.
const TELEMETRY_BATCH: u64 = 64;

impl World {
    /// Creates a world over the fifteen sample blocks and a full-size BGP
    /// survey zone, from a seed. Only the sample blocks' keys are derived
    /// here. The BGP table is derived on the first BGP-zone lookup: an
    /// echo outside every sample block, or a call to [`World::bgp`].
    pub fn new(seed: u64) -> Self {
        World::with_config(WorldConfig {
            seed,
            ..WorldConfig::default()
        })
    }

    /// Creates a world with explicit configuration.
    pub fn with_config(cfg: WorldConfig) -> Self {
        World {
            cfg,
            bgp: OnceLock::new(),
            keys: WorldKeys::new(cfg.seed, SAMPLE_BLOCKS),
            registry: FxHashMap::default(),
            error_limiters: FxHashMap::default(),
            clock: 0,
            delayed: BinaryHeap::new(),
            delay_seq: 0,
            stats: WorldStats::default(),
            telemetry: NetsimTelemetry::disabled(),
            published: WorldStats::default(),
            published_clock: 0,
            kill: None,
        }
    }

    /// Arms a [`KillPoint`]: `signal` is set the moment the world crosses
    /// any of the point's thresholds. The scanner polls the same signal
    /// and stops cooperatively at the next slot boundary.
    pub fn arm_kill(&mut self, point: KillPoint, signal: AbortSignal) {
        self.kill = Some(ArmedKill { point, signal });
    }

    fn check_kill(&self) {
        if let Some(armed) = &self.kill {
            let probes_hit = armed
                .point
                .after_probes
                .is_some_and(|n| self.stats.probes >= n);
            let tick_hit = armed.point.at_tick.is_some_and(|t| self.clock >= t);
            if probes_hit || tick_hit {
                armed.signal.set();
            }
        }
    }

    /// Attaches a telemetry bundle: from now on every
    /// [`Network::handle_into`] / [`Network::tick_into`] publishes its
    /// [`WorldStats`] delta into the bundle's registry as `netsim.*`
    /// counters and emits fault/tick trace events into its tracer.
    pub fn set_telemetry(&mut self, telemetry: &xmap_telemetry::Telemetry) {
        self.telemetry = NetsimTelemetry::bind(telemetry);
        self.published = self.stats;
        self.published_clock = self.clock;
    }

    /// Publishes any stats movement since the last publish.
    fn publish_telemetry(&mut self) {
        if self.telemetry.is_enabled() {
            let tick_delta = self.clock - self.published_clock;
            if tick_delta > 0 {
                self.telemetry.ticks.add(tick_delta);
            }
            self.telemetry
                .publish_delta(&self.published, &self.stats, self.clock);
            self.published = self.stats;
            self.published_clock = self.clock;
        }
    }

    /// Whether the per-packet path should publish now. With tracing on,
    /// every call publishes (fault events stay per-exchange); metrics-only
    /// bundles coalesce [`TELEMETRY_BATCH`] packets per publish.
    fn telemetry_due(&self) -> bool {
        self.telemetry.is_enabled()
            && (self.telemetry.tracer().is_enabled()
                || self.stats.probes - self.published.probes >= TELEMETRY_BATCH
                || self.clock - self.published_clock >= TELEMETRY_BATCH)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The ISP profiles backing the sample blocks.
    pub fn profiles(&self) -> &'static [IspProfile] {
        SAMPLE_BLOCKS
    }

    /// The synthetic BGP table, derived on the first call. It is a pure
    /// function of the seed and [`WorldConfig::bgp_ases`], so when that
    /// call comes changes no reply.
    pub fn bgp(&self) -> &BgpTable {
        self.bgp
            .get_or_init(|| BgpTable::generate(self.cfg.seed, self.cfg.bgp_ases))
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// The current virtual time in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of addresses in the discovery registry.
    pub fn discovered_count(&self) -> usize {
        self.registry.len()
    }

    /// Whether sub-prefix `index` of block `profile_idx` is *aliased*: a
    /// middlebox answers echo for every address beneath it. The draw is
    /// independent of [`World::device_at`], so an aliased sub-prefix may
    /// also hold a device; the echo path answers an aliased prefix before
    /// it consults the device, so that device never answers echo itself.
    pub fn is_aliased(&self, profile_idx: usize, index: u64) -> bool {
        let p = &SAMPLE_BLOCKS[profile_idx];
        self.keys.of(p).alias.mix_u64(index).chance(p.aliased_frac)
    }

    /// The LAN hosts attached to a device's in-use subnet (1..=3 stable
    /// addresses). These answer echo when probed exactly — the population
    /// hitlist/TGA baselines hunt for.
    pub fn hosts_of(&self, profile_idx: usize, index: u64) -> Vec<Ip6> {
        match self.device_at(profile_idx, index) {
            Some(device) => self.lan_hosts(profile_idx, index, &device).collect(),
            None => Vec::new(),
        }
    }

    /// [`World::hosts_of`] for an already-derived `device`, without
    /// allocating (the per-probe LAN-host check walks this directly).
    fn lan_hosts(
        &self,
        profile_idx: usize,
        index: u64,
        device: &Device,
    ) -> impl Iterator<Item = Ip6> {
        let h = self
            .keys
            .of(&SAMPLE_BLOCKS[profile_idx])
            .hosts
            .mix_u64(index);
        derive_lan_hosts(h, device.used_subnet64)
    }

    /// RFC 4443 §2.4(f): whether the device may emit one more ICMPv6
    /// error under the fault plan's limiter model.
    fn error_budget_ok(&mut self, profile_idx: usize, index: u64, device: &Device) -> bool {
        if self.cfg.fault.icmp_limit == IcmpRateLimit::Unlimited {
            return true;
        }
        let state = self.error_limiters.entry((profile_idx, index)).or_default();
        let allowed = rfc4443::admit_error(
            &self.cfg.fault,
            profile_idx as u64,
            index,
            state,
            self.clock,
            device.icmp_burst_scale(),
        );
        if !allowed {
            self.stats.rate_limited += 1;
        }
        allowed
    }

    /// Derives the device of sub-prefix `index` in sample block `profile_idx`
    /// (an index into [`SAMPLE_BLOCKS`]), or `None` when unallocated.
    ///
    /// Public so that tests and ground-truth evaluations can compare scanner
    /// findings against the true population.
    pub fn device_at(&self, profile_idx: usize, index: u64) -> Option<Device> {
        let p = &SAMPLE_BLOCKS[profile_idx];
        let keys = self.keys.of(p);
        let occupancy = match self.cfg.allocation {
            Allocation::Uniform => p.occupancy,
            Allocation::Clustered {
                pod_bits,
                active_frac,
            } => {
                let pod = index >> pod_bits.min(63);
                let active = keys.pod.mix_u64(pod).chance(active_frac);
                if !active {
                    return None;
                }
                // Active pods absorb the whole block population, so the
                // expected device count matches the uniform layout.
                (p.occupancy / active_frac).min(1.0)
            }
        };
        self.derive_device(keys.isp_dev.mix_u64(index), p, index, occupancy)
    }

    /// Derives the device of sub-prefix `index` from its hash `h`, or
    /// `None` when the sub-prefix is unallocated at `occupancy`.
    fn derive_device(
        &self,
        h: DetHash,
        p: &IspProfile,
        index: u64,
        occupancy: f64,
    ) -> Option<Device> {
        if !h.mix(b"exists").chance(occupancy) {
            return None;
        }

        // Loop vulnerability first: Table XI shows reply mode correlates
        // with it (loop devices skew toward "same" in some blocks).
        let loop_vuln = h.mix(b"loop").chance(p.loop_rate);
        let same = if loop_vuln {
            h.mix(b"lsame").chance(p.loop_same_frac)
        } else {
            h.mix(b"same").chance(p.same_frac)
        };
        let reply_mode = if same {
            ReplyMode::SamePrefix
        } else {
            ReplyMode::DiffPrefix
        };

        let vendor =
            p.vendors[weighted_pick(h.mix(b"vendor"), p.vendors.iter().map(|(_, w)| *w))].0;
        let kind = oui::class_of(vendor).unwrap_or(DeviceClass::Cpe);

        let iid_class = if h.mix(b"eui").chance(p.eui64_frac) {
            IidClass::Eui64
        } else {
            const REST: [IidClass; 4] = [
                IidClass::Randomized,
                IidClass::BytePattern,
                IidClass::EmbedIpv4,
                IidClass::LowByte,
            ];
            REST[weighted_pick(h.mix(b"cls"), NON_EUI_IID_SPLIT.iter().copied())]
        };
        let (iid, mac) = self.derive_iid(h, iid_class, Some((vendor, p.mac_dup_frac)));

        let delegated_prefix = p.scan_prefix().subprefix(p.assigned_len, index as u128);
        let wan_prefix64 = p
            .wan_zone()
            .subprefix(64, (index >> wan_share_shift(p)) as u128);
        let used_subnet64 = if p.assigned_len < 64 {
            let subnets = 1u64 << (64 - p.assigned_len);
            delegated_prefix.subprefix(64, h.mix(b"subnet").bounded(subnets) as u128)
        } else {
            delegated_prefix
        };

        let services = self.derive_services(h, p, vendor);

        // Loop region: "same"-replying loop devices mis-route their WAN/UE
        // prefix; "diff" ones mis-route the delegated LAN prefix (95.1% of
        // Table XI), a few both.
        let loop_vuln_wan = loop_vuln && (same || h.mix(b"lwan").chance(0.1));
        let loop_vuln_lan = loop_vuln && !same;

        Some(Device {
            kind,
            vendor,
            iid_class,
            iid,
            mac,
            delegated_prefix,
            wan_prefix64,
            used_subnet64,
            reply_mode,
            services,
            loop_vuln_wan,
            loop_vuln_lan,
            hops_to_isp: p.hops_base + h.mix(b"hops").bounded(8) as u8,
        })
    }

    /// Derives the BGP-zone last hop covering 16-bit sub-prefix `index` of an
    /// advertised prefix, or `None` when no host answers there.
    pub fn bgp_host_at(&self, prefix: Prefix, asn: u32, index: u64) -> Option<BgpHost> {
        let params = self.bgp().as_params(asn)?;
        let h = self
            .keys
            .bgp_dev
            .mix_u128(prefix.addr().bits())
            .mix_u64(index);
        self.derive_bgp_host(h, params)
    }

    /// Derives the BGP-zone last hop of AS `params` from its hash `h`.
    fn derive_bgp_host(&self, h: DetHash, params: &AsParams) -> Option<BgpHost> {
        let density = (BASE_DENSITY * params.activity).min(0.9);
        if !h.mix(b"exists").chance(density) {
            return None;
        }
        let class_idx = weighted_pick(h.mix(b"cls"), BGP_IID_MIX.iter().copied());
        let iid_class = IidClass::ALL[class_idx];
        let loop_p = (LOOP_RATE_BY_CLASS[class_idx] * params.loop_multiplier).min(0.95);
        let loops = h.mix(b"loop").chance(loop_p);
        let (iid, _) = self.derive_iid(h, iid_class, None);
        Some(BgpHost {
            asn: params.asn,
            iid_class,
            iid,
            loops,
            hops: 6 + h.mix(b"hops").bounded(14) as u8,
        })
    }

    /// Derives an IID value of the requested class. For EUI-64, the MAC's
    /// OUI comes from the vendor's registered OUIs (or anywhere in the
    /// registry when no vendor is given); `dup_frac` devices draw their NIC
    /// bits from a tiny shared pool, modelling cloned MACs.
    fn derive_iid(
        &self,
        h: DetHash,
        class: IidClass,
        vendor: Option<(&str, f64)>,
    ) -> (u64, Option<Mac>) {
        let hi = h.mix(b"iid");
        match class {
            IidClass::Eui64 => {
                let ouis: Vec<u32> = match vendor {
                    Some((v, _)) => oui::ouis_of(v).collect(),
                    None => Vec::new(),
                };
                let oui_val = if ouis.is_empty() {
                    let i = hi.mix(b"anyoui").bounded(oui::OUI_TABLE.len() as u64) as usize;
                    oui::OUI_TABLE[i].oui
                } else {
                    ouis[hi.mix(b"oui").bounded(ouis.len() as u64) as usize]
                };
                let dup_frac = vendor.map_or(0.0, |(_, d)| d);
                let nic = if hi.mix(b"dup").chance(dup_frac) {
                    // Cloned MAC: NIC bits from a pool of 64 values.
                    0x10_0000 + hi.mix(b"pool").bounded(64) as u32
                } else {
                    hi.mix(b"nic").bounded(1 << 24) as u32
                };
                let mac = Mac::from_oui_nic(oui_val, nic);
                (mac.to_eui64(), Some(mac))
            }
            IidClass::Randomized => {
                let mut v = hi.mix(b"rand").finish();
                // Never collide with the EUI-64 marker or tiny values.
                if (v >> 24) & 0xffff == 0xfffe {
                    v ^= 1 << 24;
                }
                if v <= 0xffff {
                    v |= 0x1u64 << 63;
                }
                (v, None)
            }
            IidClass::LowByte => (1 + hi.mix(b"low").bounded(0xff), None),
            IidClass::BytePattern => {
                let g = 0x1111u64 * (1 + hi.mix(b"pat").bounded(0xe));
                (
                    (((g * 0x0001_0001_0001_0001) >> 48) << 48)
                        | ((g * 0x0001_0001) & 0xffff_ffff)
                        | (g << 32),
                    None,
                )
            }
            IidClass::EmbedIpv4 => {
                // Hex-coded private-style IPv4 in the low 32 bits.
                let a = [10u64, 100, 172, 192][hi.mix(b"a").bounded(4) as usize];
                let rest = hi.mix(b"bcd").bounded(1 << 24);
                ((a << 24) | rest, None)
            }
        }
    }

    /// Derives the exposed-service set for a device.
    fn derive_services(&self, h: DetHash, p: &IspProfile, vendor: &str) -> ServiceSet {
        let profile = crate::services::vendor_profile(vendor);
        let mut set = ServiceSet::empty();
        for (i, kind) in ServiceKind::ALL.into_iter().enumerate() {
            let p_eff = (p.service_rates[i] * profile.multipliers[i] as f64 / 1000.0).min(0.97);
            if p_eff <= 0.0 {
                continue;
            }
            let hk = h.mix(b"svc").mix_u64(i as u64);
            if !hk.chance(p_eff) {
                continue;
            }
            let software = pick_software(hk, kind, profile.software);
            set.set(
                kind,
                ServiceInstance {
                    software,
                    discloses_vendor: hk
                        .mix(b"disc")
                        .chance(profile.discloses_vendor as f64 / 1000.0),
                    login_page: kind == ServiceKind::Http && hk.mix(b"login").chance(0.85),
                },
            );
        }
        set
    }

    /// End-to-end loss decision for one exchange, deterministic per packet.
    /// A lossless world skips the draw: `unit()` is never below 0.0.
    fn lost(&self, packet: &Ipv6Packet) -> bool {
        self.cfg.loss_frac > 0.0
            && self
                .keys
                .loss
                .mix_u128(packet.dst.bits())
                .mix_u64(packet.hop_limit as u64)
                .chance(self.cfg.loss_frac)
    }

    /// Per-device silent-filtering decision (upstream ICMPv6 policy).
    fn filtered(&self, p: &IspProfile, index: u64) -> bool {
        self.keys.of(p).filter.mix_u64(index).chance(p.filter_frac)
    }

    /// The one answer to `packet`, if any, before fault filtering.
    fn answer(&mut self, packet: &Ipv6Packet) -> Option<Ipv6Packet> {
        let (src, answer) = match &packet.payload {
            Payload::Icmp(Icmpv6::EchoRequest { .. }) => match self.registry.get(&packet.dst) {
                Some(&registered) => self.registered_echo(registered, packet)?,
                None => match self.scan_zone_of(packet.dst) {
                    Some(profile_idx) => self.isp_echo(profile_idx, packet)?,
                    None => self.bgp_echo(packet)?,
                },
            },
            Payload::Udp { .. } | Payload::Tcp { .. } => (packet.dst, self.app_answer(packet)?),
            Payload::Icmp(_) => return None,
        };
        Some(rfc4443::reply(src, packet, DEFAULT_HOP_LIMIT, answer))
    }

    /// Answers an echo to an address the registry already knows, without
    /// deriving its device.
    fn registered_echo(
        &mut self,
        registered: DeviceRef,
        packet: &Ipv6Packet,
    ) -> Option<(Ip6, Answer)> {
        let DeviceRef::Isp {
            profile,
            index,
            hops,
        } = registered;
        if self
            .cfg
            .fault
            .device_down(profile as u64, index, self.clock)
        {
            self.stats.flaky_dropped += 1;
            return None;
        }
        let zone = SAMPLE_BLOCKS[profile].wan_zone().addr();
        Some(expired_in_transit(zone, hops, packet).unwrap_or((packet.dst, Answer::EchoReply)))
    }

    /// Answers an echo probe destined into a sample block's scan space.
    fn isp_echo(&mut self, profile_idx: usize, packet: &Ipv6Packet) -> Option<(Ip6, Answer)> {
        let p = &SAMPLE_BLOCKS[profile_idx];
        let index = p
            .scan_prefix()
            .subprefix_index(p.assigned_len, packet.dst)? as u64;
        if self.is_aliased(profile_idx, index) {
            // Aliased region: a middlebox answers echo for everything.
            return Some((packet.dst, Answer::EchoReply));
        }
        // Unallocated sub-prefix: aggregated/blackholed upstream.
        let device = self.device_at(profile_idx, index)?;
        if self.filtered(p, index) {
            return None;
        }
        if self
            .cfg
            .fault
            .device_down(profile_idx as u64, index, self.clock)
        {
            // Mid-reboot: the device drops everything addressed through it.
            self.stats.flaky_dropped += 1;
            return None;
        }
        let n = device.hops_to_isp;
        if let Some(expired) = expired_in_transit(p.wan_zone().addr(), n, packet) {
            return Some(expired);
        }
        if packet.dst == device.wan_address() || packet.dst == device.reply_source(packet.dst) {
            self.register(packet.dst, profile_idx, index, n);
            return Some((packet.dst, Answer::EchoReply));
        }
        if device.used_subnet64.contains(packet.dst)
            && self
                .lan_hosts(profile_idx, index, &device)
                .any(|host| host == packet.dst)
        {
            // A real LAN host: forwarded by the CPE and answered end to end.
            return Some((packet.dst, Answer::EchoReply));
        }
        let answer = match rfc7084::answer(&device, packet.dst) {
            CpeAnswer::Loop => {
                // The packet ping-pongs between ISP router and CPE until its
                // hop limit dies; the CPE's WAN address answers.
                self.stats.loop_events += 1;
                self.stats.loop_forwards += (packet.hop_limit - n) as u64;
                Answer::TimeExceeded
            }
            // The last-hop periphery's unreachable: the discovery signal,
            // whatever the code.
            CpeAnswer::Unreachable(code) => Answer::Unreachable(code),
        };
        if !self.error_budget_ok(profile_idx, index, &device) {
            return None;
        }
        let src = device.reply_source(packet.dst);
        self.register(src, profile_idx, index, n);
        Some((src, answer))
    }

    /// Answers an echo probe destined into the BGP survey zone.
    fn bgp_echo(&mut self, packet: &Ipv6Packet) -> Option<(Ip6, Answer)> {
        let entry = *self.bgp().locate(packet.dst)?;
        // The survey probes /48 sub-prefixes of /32 advertisements.
        let index = entry.prefix.subprefix_index(48, packet.dst)?;
        let host = self.bgp_host_at(entry.prefix, entry.asn, index as u64)?;
        if let Some(expired) = expired_in_transit(packet.dst.network(32), host.hops, packet) {
            return Some(expired);
        }
        // Reply source: the last hop lives in some /64 of the probed /48.
        let h = self.keys.bgp_sub.mix_u128(packet.dst.network(48).bits());
        let src = packet
            .dst
            .network(48)
            .with_bit_slice(48, 64, h.bounded(1 << 16))
            .with_iid(host.iid);
        if host.loops && packet.dst != src {
            self.stats.loop_events += 1;
            self.stats.loop_forwards += packet.hop_limit.saturating_sub(host.hops) as u64;
            return Some((src, Answer::TimeExceeded));
        }
        Some((src, Answer::Unreachable(UnreachCode::AddressUnreachable)))
    }

    /// Answers an application-layer probe (UDP/TCP) for a discovered
    /// device.
    fn app_answer(&mut self, packet: &Ipv6Packet) -> Option<Answer> {
        let &DeviceRef::Isp { profile, index, .. } = self.registry.get(&packet.dst)?;
        let device = self.device_at(profile, index)?;
        if self
            .cfg
            .fault
            .device_down(profile as u64, index, self.clock)
        {
            self.stats.flaky_dropped += 1;
            return None;
        }
        let (dst_port, transport) = match &packet.payload {
            Payload::Udp { dst_port, .. } => (*dst_port, TransportProto::Udp),
            Payload::Tcp { dst_port, .. } => (*dst_port, TransportProto::Tcp),
            Payload::Icmp(_) => return None,
        };
        let open = ServiceKind::from_port(dst_port)
            .filter(|kind| kind.transport() == transport)
            .and_then(|kind| Some((kind, *device.services.get(kind)?)));
        let respond = |(kind, inst): (ServiceKind, ServiceInstance), req: &AppRequest| {
            AppData::Response(service_response(&device, kind, &inst, *req))
        };
        match &packet.payload {
            Payload::Udp { data, .. } => Some(match (open, data) {
                (Some(service), AppData::Request(req)) => Answer::Udp(respond(service, req)),
                _ => Answer::Unreachable(UnreachCode::PortUnreachable),
            }),
            Payload::Tcp { flags, data, .. } => match (flags, open, data) {
                (TcpFlags::Syn, Some(_), _) => Some(Answer::Tcp(TcpFlags::SynAck, AppData::None)),
                (TcpFlags::Syn | TcpFlags::Ack, None, _) => {
                    Some(Answer::Tcp(TcpFlags::Rst, AppData::None))
                }
                (TcpFlags::Ack, Some(service), AppData::Request(req)) => {
                    Some(Answer::Tcp(TcpFlags::Ack, respond(service, req)))
                }
                _ => None,
            },
            Payload::Icmp(_) => None,
        }
    }

    fn register(&mut self, addr: Ip6, profile: usize, index: u64, hops: u8) {
        self.registry.insert(
            addr,
            DeviceRef::Isp {
                profile,
                index,
                hops,
            },
        );
    }

    /// Finds the sample block whose scan space contains `addr`. The first
    /// match is the only one: the scan prefixes are pairwise disjoint.
    ///
    /// The scan must read the `const` [`SAMPLE_BLOCKS`]: the compiler then
    /// folds each prefix into an immediate mask-compare and a lookup loads
    /// nothing. The same scan over a runtime slice loads each prefix from
    /// its ≈ 300-byte profile and costs several times more per probe.
    fn scan_zone_of(&self, addr: Ip6) -> Option<usize> {
        SAMPLE_BLOCKS
            .iter()
            .position(|p| p.scan_prefix().contains(addr))
    }
}

/// Computes the subscriber-window shift that yields the profile's target
/// WAN-/64 sharing (see `IspProfile::wan_unique64_frac`): CPEs within one
/// window of `2^shift` consecutive sub-prefixes share a WAN /64.
fn wan_share_shift(p: &IspProfile) -> u32 {
    if p.wan_unique64_frac >= 0.9 {
        return 0;
    }
    let k = 1.0 / p.wan_unique64_frac.max(1e-3); // devices per shared /64
    let window = k / p.occupancy.max(1e-12);
    (window.log2().ceil() as u32).min(31)
}

/// Derives a device's LAN hosts in `subnet` from their hash `h`.
fn derive_lan_hosts(h: DetHash, subnet: Prefix) -> impl Iterator<Item = Ip6> {
    let subnet = subnet.addr();
    let n = 1 + h.mix(b"n").bounded(3);
    (0..n).map(move |k| {
        let hk = h.mix(b"host").mix_u64(k);
        let iid = match hk.mix(b"cls").bounded(4) {
            // LAN hosts skew low-byte/EUI-64 more than CPE WANs.
            0 => 1 + hk.mix(b"low").bounded(0xff),
            1 => {
                let mac = Mac::from_oui_nic(
                    oui::OUI_TABLE[hk.mix(b"oui").bounded(oui::OUI_TABLE.len() as u64) as usize]
                        .oui,
                    hk.mix(b"nic").bounded(1 << 24) as u32,
                );
                mac.to_eui64()
            }
            _ => {
                let mut v = hk.mix(b"rand").finish();
                if (v >> 24) & 0xffff == 0xfffe {
                    v ^= 1 << 24;
                }
                v.max(0x10000)
            }
        };
        subnet.with_iid(iid)
    })
}

/// RFC 4443 §3.3 on the path into a zone: a probe whose hop limit dies
/// within the `hops` routers in front of it draws Time Exceeded from the
/// synthetic transit router `zone::ffff:0:0:<hop limit>`.
fn expired_in_transit(zone: Ip6, hops: u8, packet: &Ipv6Packet) -> Option<(Ip6, Answer)> {
    rfc4443::expires(packet.hop_limit, hops).then(|| {
        let router = zone.with_iid(0xffff_0000_0000_0000 | packet.hop_limit as u64);
        (router, Answer::TimeExceeded)
    })
}

/// Chooses the serving software for `kind` from a vendor's weighted list,
/// falling back to a per-service default.
fn pick_software(
    h: DetHash,
    kind: ServiceKind,
    options: &[(&'static str, &'static str, u32)],
) -> Option<SoftwareId> {
    let compatible = |sk: ServiceKind| {
        sk == kind
            || (matches!(sk, ServiceKind::Http | ServiceKind::HttpAlt)
                && matches!(kind, ServiceKind::Http | ServiceKind::HttpAlt))
    };
    let candidates: Vec<(SoftwareId, u32)> = options
        .iter()
        .filter_map(|(name, version, w)| {
            let id = software_id(name, version)?;
            compatible(id.get().service).then_some((id, *w))
        })
        .collect();
    if candidates.is_empty() {
        return default_software(kind);
    }
    let pick = weighted_pick(h.mix(b"sw"), candidates.iter().map(|(_, w)| *w));
    Some(candidates[pick].0)
}

/// Fallback software per service kind.
fn default_software(kind: ServiceKind) -> Option<SoftwareId> {
    let (name, version) = match kind {
        ServiceKind::Dns => ("dnsmasq", "2.7x"),
        ServiceKind::Ftp => ("GNU Inetutils", "1.4.1"),
        ServiceKind::Ssh => ("dropbear", "2017.75"),
        ServiceKind::Http => ("micro_httpd", "14aug2014"),
        ServiceKind::HttpAlt => ("Jetty", "9.x"),
        ServiceKind::Ntp | ServiceKind::Telnet | ServiceKind::Tls => return None,
    };
    software_id(name, version)
}

/// Builds the application response a device's service instance produces.
fn service_response(
    device: &Device,
    kind: ServiceKind,
    inst: &ServiceInstance,
    _req: AppRequest,
) -> AppResponse {
    let vendor = inst.discloses_vendor.then_some(device.vendor);
    match kind {
        ServiceKind::Dns => AppResponse::DnsAnswer {
            software: inst
                .software
                .or_else(|| default_software(kind))
                .expect("dns default"),
        },
        ServiceKind::Ntp => AppResponse::NtpVersionReply { version: 4 },
        ServiceKind::Ftp => AppResponse::FtpBanner {
            software: inst
                .software
                .or_else(|| default_software(kind))
                .expect("ftp default"),
        },
        ServiceKind::Ssh => AppResponse::SshBanner {
            software: inst
                .software
                .or_else(|| default_software(kind))
                .expect("ssh default"),
        },
        ServiceKind::Telnet => AppResponse::TelnetPrompt {
            vendor_banner: vendor,
        },
        ServiceKind::Http | ServiceKind::HttpAlt => AppResponse::HttpPage {
            software: inst
                .software
                .or_else(|| default_software(kind))
                .expect("http default"),
            login_page: inst.login_page,
            vendor,
        },
        ServiceKind::Tls => AppResponse::TlsCertificate { vendor },
    }
}

impl Network for World {
    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        self.handle_inner(packet, out);
        if self.kill.is_some() {
            self.check_kill();
        }
        if self.telemetry_due() {
            self.publish_telemetry();
        }
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        self.clock += ticks;
        if self.kill.is_some() {
            self.check_kill();
        }
        let before = out.len();
        while let Some(head) = self.delayed.peek() {
            if head.due_tick > self.clock {
                break;
            }
            out.push(self.delayed.pop().expect("peeked").packet);
        }
        let due = (out.len() - before) as u64;
        self.stats.responses += due;
        if self.telemetry.is_enabled() {
            self.telemetry.tick_event(self.clock, ticks, due);
            if self.telemetry_due() {
                self.publish_telemetry();
            }
        }
    }

    fn flush_telemetry(&mut self) {
        self.publish_telemetry();
    }

    fn in_flight(&self) -> usize {
        self.delayed.len()
    }

    fn restore_clock(&mut self, tick: u64) {
        // Resume path: realign time-keyed behaviour (loss draws, token
        // buckets, flaky outages) with the checkpointed run. The publish
        // watermark moves too, so no phantom tick delta reaches the
        // registry — the restored registry already accounts for it.
        self.clock = tick;
        self.published_clock = tick;
    }

    fn reset(&mut self) {
        // A tick delta is measured against the clock about to be zeroed,
        // so it is published first. Without one nothing is lost: `stats`
        // and `published` are lifetime state, so pending counts go out
        // with the next publish. Everything cleared below is state a
        // probe's outcome can read; `stats`, the telemetry binding and an
        // armed kill point stay.
        if self.clock != self.published_clock {
            self.publish_telemetry();
        }
        self.registry.clear();
        self.error_limiters.clear();
        self.delayed.clear();
        self.delay_seq = 0;
        self.clock = 0;
        self.published_clock = 0;
    }
}

impl World {
    /// The per-packet exchange logic behind [`Network::handle_into`]
    /// (split out so the telemetry publish happens at exactly one site
    /// despite the early returns).
    fn handle_inner(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        self.stats.probes += 1;
        let plan = self.cfg.fault;
        if plan.drop_forward(packet.dst, self.clock) {
            self.stats.fwd_lost += 1;
            return;
        }
        if self.lost(&packet) {
            return;
        }
        let Some(resp) = self.answer(&packet) else {
            return;
        };
        if !plan.any_faults() {
            // Fast path: the identity plan skips per-response draws.
            self.stats.responses += 1;
            out.push(resp);
            return;
        }
        // The world answers a probe at most once, so its answer is copy 0
        // of the exchange. The per-copy draws are pure in (src, tick, k),
        // so a duplicate shares its original's jitter.
        let tick = self.clock;
        if plan.drop_reverse(resp.src, tick, 0) {
            self.stats.rev_lost += 1;
            return;
        }
        let delay = plan.jitter_ticks(resp.src, tick, 0);
        if plan.duplicate(resp.src, tick, 0) {
            self.stats.dup_responses += 1;
            self.deliver(resp.clone(), delay, out);
        }
        self.deliver(resp, delay, out);
    }

    /// Delivers one fault-filtered response: immediately into `out`, or
    /// onto the jitter heap when delayed.
    fn deliver(&mut self, packet: Ipv6Packet, delay: u64, out: &mut Vec<Ipv6Packet>) {
        if delay == 0 {
            out.push(packet);
            self.stats.responses += 1;
        } else {
            self.stats.jittered += 1;
            self.delayed.push(DelayedResponse {
                due_tick: self.clock + delay,
                seq: self.delay_seq,
                packet,
            });
            self.delay_seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::tests::{handle, tick};

    fn small_world() -> World {
        World::with_config(WorldConfig::lossless(1234, 200))
    }

    fn vantage() -> Ip6 {
        "fd00::1".parse().unwrap()
    }

    /// Finds an allocated sub-prefix index in a profile.
    fn find_device(w: &World, pi: usize) -> (u64, Device) {
        for i in 0..5_000_000u64 {
            if let Some(d) = w.device_at(pi, i) {
                return (i, d);
            }
        }
        panic!("no device found in profile {pi}");
    }

    #[test]
    fn device_derivation_is_deterministic() {
        let w = small_world();
        let (i, d1) = find_device(&w, 0);
        let d2 = w.device_at(0, i).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn probe_to_allocated_prefix_draws_unreachable_or_te() {
        let mut w = small_world();
        let (i, d) = find_device(&w, 0);
        let p = &w.profiles()[0];
        let target = p
            .scan_prefix()
            .subprefix(p.assigned_len, i as u128)
            .addr()
            .with_iid(0x1234_5678_9abc_def0);
        let replies = handle(
            &mut w,
            Ipv6Packet::echo_request(vantage(), target, 64, 1, 1),
        );
        // Filtering can silence it; try until the device's filter decision
        // is known (deterministic): check against the filter hash.
        if w.filtered(p, i) {
            assert!(replies.is_empty());
            return;
        }
        assert_eq!(replies.len(), 1, "device {d:?}");
        let src_64 = replies[0].src.network(64);
        match d.reply_mode {
            ReplyMode::SamePrefix => assert_eq!(src_64, target.network(64)),
            ReplyMode::DiffPrefix => assert_ne!(src_64, target.network(64)),
        }
    }

    #[test]
    fn probe_to_unallocated_prefix_is_silent() {
        let mut w = small_world();
        let p = &w.profiles()[0];
        for i in 0..2000u64 {
            if w.device_at(0, i).is_none() {
                let target = p
                    .scan_prefix()
                    .subprefix(p.assigned_len, i as u128)
                    .addr()
                    .with_iid(1);
                assert!(handle(
                    &mut w,
                    Ipv6Packet::echo_request(vantage(), target, 64, 0, 0)
                )
                .is_empty());
                return;
            }
        }
        panic!("no unallocated prefix in the first 2000 (occupancy too high?)");
    }

    #[test]
    fn discovered_address_answers_echo_and_services() {
        let mut w = small_world();
        // China Mobile broadband (profile index 12) has rich services.
        let pi = 12;
        let p = &w.profiles()[pi];
        let mut responder = None;
        for i in 0..3_000_000u64 {
            let Some(d) = w.device_at(pi, i) else {
                continue;
            };
            if w.filtered(p, i) || !d.services.any() {
                continue;
            }
            let target = p
                .scan_prefix()
                .subprefix(p.assigned_len, i as u128)
                .addr()
                .with_iid(0xdead_beef);
            let replies = handle(
                &mut w,
                Ipv6Packet::echo_request(vantage(), target, 64, 0, 0),
            );
            if let Some(r) = replies.first() {
                responder = Some((r.src, d));
                break;
            }
        }
        let (addr, device) = responder.expect("found a service-rich device");
        // Echo to the discovered address now yields an echo reply.
        let replies = handle(&mut w, Ipv6Packet::echo_request(vantage(), addr, 64, 5, 6));
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { ident: 5, seq: 6 })
        ));
        // Probe one of its open services.
        let (kind, _) = device.services.iter().next().expect("has a service");
        match kind.transport() {
            TransportProto::Udp => {
                let req =
                    Ipv6Packet::udp_request(vantage(), addr, 40000, kind.port(), kind.request());
                let resp = handle(&mut w, req);
                assert_eq!(resp.len(), 1);
                match &resp[0].payload {
                    Payload::Udp {
                        data: AppData::Response(r),
                        ..
                    } => {
                        assert!(r.is_valid_for(kind))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            TransportProto::Tcp => {
                let syn = Ipv6Packet::tcp_syn(vantage(), addr, 40000, kind.port());
                let resp = handle(&mut w, syn);
                assert!(matches!(
                    resp[0].payload,
                    Payload::Tcp {
                        flags: TcpFlags::SynAck,
                        ..
                    }
                ));
                let req =
                    Ipv6Packet::tcp_request(vantage(), addr, 40000, kind.port(), kind.request());
                let resp = handle(&mut w, req);
                match &resp[0].payload {
                    Payload::Tcp {
                        data: AppData::Response(r),
                        ..
                    } => {
                        assert!(r.is_valid_for(kind))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn closed_port_answers_rst_or_unreachable() {
        let mut w = small_world();
        let (i, _) = find_device(&w, 0);
        let p = &w.profiles()[0];
        if w.filtered(p, i) {
            return;
        }
        let target = p
            .scan_prefix()
            .subprefix(p.assigned_len, i as u128)
            .addr()
            .with_iid(7);
        let replies = handle(
            &mut w,
            Ipv6Packet::echo_request(vantage(), target, 64, 0, 0),
        );
        let addr = replies[0].src;
        // Jio devices expose almost nothing; TLS/443 is closed on ~all.
        let resp = handle(&mut w, Ipv6Packet::tcp_syn(vantage(), addr, 40000, 9999));
        assert!(matches!(
            resp[0].payload,
            Payload::Tcp {
                flags: TcpFlags::Rst,
                ..
            }
        ));
    }

    #[test]
    fn loop_vulnerable_device_answers_te_twice() {
        let mut w = small_world();
        // China Unicom broadband (index 11) has a 78.8% loop rate.
        let pi = 11;
        let p = &w.profiles()[pi];
        let mut found = None;
        for i in 0..3_000_000u64 {
            if let Some(d) = w.device_at(pi, i) {
                if d.loop_vuln_lan && !w.filtered(p, i) {
                    found = Some((i, d));
                    break;
                }
            }
        }
        let (i, d) = found.expect("loop-vulnerable device exists");
        // Aim outside the used subnet.
        let mut target = None;
        for s in 0..16u128 {
            let cand = d.delegated_prefix.subprefix(64, s);
            if cand != d.used_subnet64 {
                target = Some(cand.addr().with_iid(0x42));
                break;
            }
        }
        let target = target.unwrap();
        let _ = i;
        for h in [32u8, 34] {
            let replies = handle(&mut w, Ipv6Packet::echo_request(vantage(), target, h, 0, 0));
            assert_eq!(replies.len(), 1, "hop limit {h}");
            assert!(matches!(
                replies[0].payload,
                Payload::Icmp(Icmpv6::TimeExceeded { .. })
            ));
        }
        assert!(w.stats().loop_events >= 2);
        assert!(w.stats().loop_forwards > 0);
    }

    #[test]
    fn bgp_zone_responds() {
        let mut w = small_world();
        let entry = w.bgp().entries()[0];
        let mut responded = 0;
        for i in 0..60_000u64 {
            let target = entry.prefix.subprefix(48, i as u128).addr().with_iid(0xabc);
            let replies = handle(
                &mut w,
                Ipv6Packet::echo_request(vantage(), target, 64, 0, 0),
            );
            responded += replies.len();
            if responded > 3 {
                break;
            }
        }
        assert!(responded > 0, "no BGP-zone responses in 60k probes");
    }

    #[test]
    fn every_scan_space_resolves_to_its_own_profile() {
        let w = small_world();
        for (idx, p) in w.profiles().iter().enumerate() {
            let zone = p.scan_prefix();
            let inside = zone.subprefix(p.assigned_len, 12_345).addr().with_iid(7);
            for addr in [zone.first(), inside, zone.last()] {
                assert_eq!(w.scan_zone_of(addr), Some(idx), "{}: {addr}", p.name);
            }
            // The sibling WAN zone is one bit away and in no scan space.
            assert_eq!(w.scan_zone_of(p.wan_zone().first()), None, "{}", p.name);
        }
        // An advertised BGP prefix is in no zone: the probe falls through
        // to the survey path.
        let advertised = w.bgp().entries()[0].prefix.first();
        assert_eq!(w.scan_zone_of(advertised), None);
        assert!(w.bgp().locate(advertised).is_some());
    }

    /// Every sample block whose scan space holds `addr`, by comparing
    /// address ranges rather than masks, so it shares no code with the
    /// lookup under test.
    fn scan_zones_by_range(addr: Ip6) -> Vec<usize> {
        (0..SAMPLE_BLOCKS.len())
            .filter(|&i| {
                let zone = SAMPLE_BLOCKS[i].scan_prefix();
                (zone.first()..=zone.last()).contains(&addr)
            })
            .collect()
    }

    #[test]
    fn scan_zone_lookup_agrees_with_a_range_search() {
        let w = small_world();
        // Unrelated space: documentation, loopback, both ends of the
        // address space and the vantage.
        let mut addrs: Vec<u128> = ["2001:db8::1", "::1", "::", "ffff::", "fd00::1"]
            .iter()
            .map(|a| a.parse::<Ip6>().unwrap().bits())
            .chain([u128::MAX])
            .collect();
        let mut zones: Vec<Prefix> = w.profiles().iter().map(|p| p.scan_prefix()).collect();
        zones.extend(w.profiles().iter().map(|p| p.wan_zone()));
        zones.extend(w.bgp().entries().iter().map(|e| e.prefix));
        let mut h = DetHash::new(0x20ae);
        for zone in zones {
            let (first, last) = (zone.first().bits(), zone.last().bits());
            // Both ends, and one step outside each end.
            addrs.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
            for _ in 0..64 {
                h = h.mix(b"addr");
                let r = u128::from(h.mix_u64(0).finish()) << 64 | u128::from(h.mix_u64(1).finish());
                addrs.push(first | r >> zone.len());
            }
        }
        for addr in addrs.into_iter().map(Ip6::new) {
            let holders = scan_zones_by_range(addr);
            assert!(holders.len() <= 1, "{addr} is in blocks {holders:?}");
            assert_eq!(w.scan_zone_of(addr), holders.first().copied(), "{addr}");
        }
    }

    #[test]
    fn loss_drops_deterministically() {
        let mut cfg = WorldConfig {
            loss_frac: 1.0,
            ..WorldConfig::lossless(9, 50)
        };
        let mut w = World::with_config(cfg);
        let (i, _) = find_device(&w, 0);
        let p = &w.profiles()[0];
        let target = p
            .scan_prefix()
            .subprefix(p.assigned_len, i as u128)
            .addr()
            .with_iid(1);
        assert!(handle(
            &mut w,
            Ipv6Packet::echo_request(vantage(), target, 64, 0, 0)
        )
        .is_empty());
        cfg.loss_frac = 0.0;
        let mut w2 = World::with_config(cfg);
        assert!(
            !handle(
                &mut w2,
                Ipv6Packet::echo_request(vantage(), target, 64, 0, 0)
            )
            .is_empty()
                || w2.filtered(p, i)
        );
    }

    #[test]
    fn amplification_stat() {
        let mut s = WorldStats::default();
        assert_eq!(s.amplification(), 0.0);
        s.loop_events = 2;
        s.loop_forwards = 440;
        assert_eq!(s.amplification(), 220.0);
    }

    #[test]
    fn wan_share_shift_behaviour() {
        // Unique-WAN profiles use shift 0.
        assert_eq!(wan_share_shift(&SAMPLE_BLOCKS[0]), 0);
        // Comcast (index 4) aggregates ~15 CPEs per /64.
        let s = wan_share_shift(&SAMPLE_BLOCKS[4]);
        assert!((18..=22).contains(&s), "shift {s}");
    }

    #[test]
    fn mobile_blocks_yield_ue_devices() {
        let w = small_world();
        let (_, d) = find_device(&w, 2); // Bharti Airtel mobile
        assert_eq!(d.kind, DeviceClass::Ue);
        assert_eq!(d.reply_mode, ReplyMode::SamePrefix);
    }

    /// Echoes into every sample block: each zone's first and last
    /// address, a few seeded-random ones and the first device among the
    /// low indices, at hop limits 1..=64, so transit expiry and the
    /// periphery's own answers are both in the mix.
    fn zone_probes(seed: u64) -> Vec<Ipv6Packet> {
        let mut h = DetHash::new(seed).mix(b"zone-probes");
        let mut probes = Vec::new();
        for (pi, p) in SAMPLE_BLOCKS.iter().enumerate() {
            let zone = p.scan_prefix();
            let mut addrs = vec![zone.first(), zone.last()];
            for _ in 0..4 {
                h = h.mix(b"addr");
                let r = u128::from(h.mix_u64(0).finish()) << 64 | u128::from(h.mix_u64(1).finish());
                addrs.push(Ip6::new(zone.first().bits() | r >> zone.len()));
            }
            let w = World::with_config(WorldConfig::lossless(seed, 0));
            if let Some(i) = (0..1 << 16).find(|&i| w.device_at(pi, i).is_some()) {
                let sub = zone.subprefix(p.assigned_len, u128::from(i));
                addrs.push(sub.addr().with_iid(0x5eed));
            }
            for dst in addrs {
                for hop_limit in 1..=64 {
                    probes.push(Ipv6Packet::echo_request(vantage(), dst, hop_limit, 0, 0));
                }
            }
        }
        probes
    }

    #[test]
    fn zone_traffic_never_builds_the_bgp_table() {
        let seed = 7;
        let mut w = World::new(seed);
        let mut transit_expired = 0;
        for probe in zone_probes(seed) {
            let router_iid = 0xffff_0000_0000_0000 | u64::from(probe.hop_limit);
            for reply in handle(&mut w, probe) {
                transit_expired += usize::from(reply.src.iid() == router_iid);
            }
        }
        assert!(transit_expired > 0, "no transit expiry");
        let sources: Vec<Ip6> = w.registry.keys().copied().collect();
        assert!(!sources.is_empty(), "no reply source registered");
        for src in sources {
            for hop_limit in [1, 64] {
                assert!(!handle(
                    &mut w,
                    Ipv6Packet::echo_request(vantage(), src, hop_limit, 0, 0)
                )
                .is_empty());
            }
        }
        assert!(w.bgp.get().is_none(), "a zone probe derived the BGP table");

        // One probe into an advertisement (taken from a separately built
        // table) is what derives it.
        let advertised = BgpTable::generate(seed, w.config().bgp_ases).entries()[0].prefix;
        let dst = advertised.subprefix(48, 0).addr().with_iid(0xabc);
        handle(&mut w, Ipv6Packet::echo_request(vantage(), dst, 64, 0, 0));
        assert!(
            w.bgp.get().is_some(),
            "the BGP-zone probe left the table unbuilt"
        );
    }

    #[test]
    fn deriving_the_bgp_table_early_or_late_answers_alike() {
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<World>();

        let seed = 11;
        // `World::new`'s configuration, loss included.
        let cfg = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        let table = BgpTable::generate(seed, cfg.bgp_ases);
        // Each sampled advertisement's first answering /48 (found through
        // a third world) and the /48 after it, at hop limits below, near
        // and past the host's hop count.
        let finder = World::with_config(cfg);
        let mut bgp_probes = Vec::new();
        for e in table.entries().iter().step_by(97) {
            let Some(i) = (0..1 << 16).find(|&i| finder.bgp_host_at(e.prefix, e.asn, i).is_some())
            else {
                continue;
            };
            for (index, hop_limit) in [(i, 4), (i, 12), (i, 64), (i + 1, 64)] {
                let dst = e
                    .prefix
                    .subprefix(48, u128::from(index))
                    .addr()
                    .with_iid(0xabc);
                bgp_probes.push(Ipv6Packet::echo_request(vantage(), dst, hop_limit, 0, 0));
            }
        }
        let unrouted: Vec<Ipv6Packet> = ["2001:db8::1", "::1", "fd00::2", "ffff::"]
            .iter()
            .map(|a| Ipv6Packet::echo_request(vantage(), a.parse().unwrap(), 64, 0, 0))
            .collect();

        let (eager_tm, lazy_tm) = (
            xmap_telemetry::Telemetry::new(),
            xmap_telemetry::Telemetry::new(),
        );
        let (mut eager, mut lazy) = (World::with_config(cfg), World::with_config(cfg));
        eager.set_telemetry(&eager_tm);
        lazy.set_telemetry(&lazy_tm);
        assert_eq!(eager.bgp().entries(), table.entries());
        assert!(lazy.bgp.get().is_none());

        let mut bgp_replies = 0;
        let zone = zone_probes(seed);
        for (stage, probes) in [&zone, &bgp_probes, &unrouted, &zone]
            .into_iter()
            .enumerate()
        {
            if stage == 1 {
                tick(&mut eager, 3);
                tick(&mut lazy, 3);
                eager.reset();
                lazy.reset();
            }
            for probe in probes {
                let replies = handle(&mut eager, probe.clone());
                if stage == 1 {
                    bgp_replies += replies.len();
                }
                assert_eq!(
                    replies,
                    handle(&mut lazy, probe.clone()),
                    "stage {stage}: {probe:?}"
                );
            }
        }
        assert!(bgp_replies > 0, "no BGP-zone replies");
        assert_eq!(lazy.bgp().entries(), table.entries());
        assert_eq!(eager.stats(), lazy.stats());
        eager.flush_telemetry();
        lazy.flush_telemetry();
        assert_eq!(eager_tm.registry.snapshot(), lazy_tm.registry.snapshot());
    }
}

#[cfg(test)]
mod realism_tests {
    use super::*;
    use crate::packet::tests::{handle, tick};

    fn w() -> World {
        World::with_config(WorldConfig::lossless(31337, 10))
    }

    fn vantage() -> Ip6 {
        "fd00::1".parse().unwrap()
    }

    #[test]
    fn aliased_prefixes_answer_everything() {
        let mut world = w();
        // BSNL (index 1) has the highest aliased fraction (1e-5).
        let p = &SAMPLE_BLOCKS[1];
        let mut found = None;
        for i in 0..2_000_000u64 {
            if world.is_aliased(1, i) {
                found = Some(i);
                break;
            }
        }
        let i = found.expect("an aliased prefix exists in 2M indices");
        // Aliased prefixes never coincide with allocated devices in a way
        // that hides them; every IID answers echo from itself.
        for iid in [1u64, 0xdead_beef, u64::MAX] {
            let dst = p
                .scan_prefix()
                .subprefix(p.assigned_len, i as u128)
                .addr()
                .with_iid(iid);
            let resp = handle(
                &mut world,
                Ipv6Packet::echo_request(vantage(), dst, 64, 2, 3),
            );
            assert_eq!(resp.len(), 1, "iid {iid:#x}");
            assert_eq!(resp[0].src, dst);
            assert!(matches!(
                resp[0].payload,
                Payload::Icmp(Icmpv6::EchoReply { .. })
            ));
        }
    }

    #[test]
    fn lan_hosts_answer_echo_exactly() {
        let mut world = w();
        let mut target = None;
        for i in 0..2_000_000u64 {
            if world.device_at(12, i).is_some() {
                let hosts = world.hosts_of(12, i);
                if !hosts.is_empty() {
                    target = Some((i, hosts));
                    break;
                }
            }
        }
        let (i, hosts) = target.expect("a device with hosts");
        let device = world.device_at(12, i).unwrap();
        for host in &hosts {
            assert!(device.used_subnet64.contains(*host));
            let resp = handle(
                &mut world,
                Ipv6Packet::echo_request(vantage(), *host, 64, 0, 0),
            );
            assert_eq!(resp.len(), 1, "host {host}");
            assert!(matches!(
                resp[0].payload,
                Payload::Icmp(Icmpv6::EchoReply { .. })
            ));
        }
        // A neighbouring nonexistent address in the same subnet draws an
        // unreachable instead.
        let nx = device.used_subnet64.addr().with_iid(0x0bad_c0de_0000_1234);
        if !hosts.contains(&nx) {
            let resp = handle(
                &mut world,
                Ipv6Packet::echo_request(vantage(), nx, 64, 0, 0),
            );
            if let Some(first) = resp.first() {
                assert!(matches!(
                    first.payload,
                    Payload::Icmp(Icmpv6::DestUnreachable { .. })
                ));
            }
        }
    }

    #[test]
    fn hosts_are_stable_and_bounded() {
        let world = w();
        for i in 0..200_000u64 {
            if world.device_at(12, i).is_some() {
                let a = world.hosts_of(12, i);
                let b = world.hosts_of(12, i);
                assert_eq!(a, b);
                assert!((1..=3).contains(&a.len()));
                return;
            }
        }
        panic!("no device found");
    }

    /// `w()`'s world under a token-bucket limiter of `capacity` tokens
    /// that refills once in 2^20 ticks: never, for these tests.
    fn bucket_world(capacity: u32) -> World {
        World::with_config(WorldConfig::lossless(31337, 10).with_fault(
            FaultPlan::none().with_icmp_limit(IcmpRateLimit::TokenBucket {
                capacity,
                refill_interval: 1 << 20,
                start_depleted_frac: 0.0,
            }),
        ))
    }

    #[test]
    fn error_rate_limiting_kicks_in_under_abuse() {
        let mut world = bucket_world(16);
        // Find a clean (non-loop) device and hammer its delegated prefix.
        let p = &SAMPLE_BLOCKS[12];
        let mut found = None;
        for i in 0..2_000_000u64 {
            if let Some(d) = world.device_at(12, i) {
                if !d.loop_vuln_lan && !d.loop_vuln_wan {
                    found = Some((i, d));
                    break;
                }
            }
        }
        let (i, device) = found.expect("clean device");
        let base = p.scan_prefix().subprefix(p.assigned_len, i as u128);
        let mut answered = 0u32;
        for k in 0..200u64 {
            let dst = base.addr().with_iid(0x1_0000 + k);
            if !handle(
                &mut world,
                Ipv6Packet::echo_request(vantage(), dst, 64, 0, 0),
            )
            .is_empty()
            {
                answered += 1;
            }
        }
        // The device's burst at full rate, then silence: no tick passes.
        let burst = 16 * device.icmp_burst_scale();
        assert_eq!(answered, burst);
        assert_eq!(world.stats().rate_limited, u64::from(200 - burst));
    }

    #[test]
    fn normal_scan_rate_unaffected_by_limiter() {
        let mut world = bucket_world(1);
        // One probe per sub-prefix (the paper's discipline) never trips
        // even a one-token bucket.
        let p = &SAMPLE_BLOCKS[2];
        let mut responses = 0;
        for i in 0..30_000u64 {
            let dst = p.scan_prefix().subprefix(64, i as u128).addr().with_iid(9);
            responses += handle(
                &mut world,
                Ipv6Packet::echo_request(vantage(), dst, 64, 0, 0),
            )
            .len();
        }
        assert!(responses > 50, "{responses}");
        assert_eq!(world.stats().rate_limited, 0);
    }

    #[test]
    fn reset_answers_like_a_fresh_world_and_keeps_lifetime_counts() {
        let cfg = *bucket_world(1).config();
        let telemetry = xmap_telemetry::Telemetry::new();
        let mut world = World::with_config(cfg);
        world.set_telemetry(&telemetry);
        // A clean one-token device: its second error is rate-limited.
        let (pi, i) = (0..SAMPLE_BLOCKS.len())
            .find_map(|pi| {
                (0..200_000u64)
                    .find(|&i| {
                        world.device_at(pi, i).is_some_and(|d| {
                            !d.loop_vuln_lan && !d.loop_vuln_wan && d.icmp_burst_scale() == 1
                        }) && !world.filtered(&SAMPLE_BLOCKS[pi], i)
                    })
                    .map(|i| (pi, i))
            })
            .expect("clean device");
        let p = &SAMPLE_BLOCKS[pi];
        let base = p.scan_prefix().subprefix(p.assigned_len, i as u128);
        let probe = |iid| Ipv6Packet::echo_request(vantage(), base.addr().with_iid(iid), 64, 0, 0);

        assert_eq!(handle(&mut world, probe(1)).len(), 1);
        assert!(
            handle(&mut world, probe(2)).is_empty(),
            "bucket holds one token"
        );
        assert_eq!(world.stats().rate_limited, 1);
        assert_eq!(world.discovered_count(), 1);
        tick(&mut world, 5);

        world.reset();
        assert_eq!(world.discovered_count(), 0);
        assert_eq!(world.clock(), 0);
        let reply = handle(&mut world, probe(2));
        assert_eq!(reply.len(), 1, "the limiter forgot the spent token");
        assert_eq!(reply, handle(&mut World::with_config(cfg), probe(2)));
        assert_eq!(world.discovered_count(), 1);

        // Lifetime accounting runs on through the reset.
        world.flush_telemetry();
        assert_eq!(world.stats().probes, 3);
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter(crate::telemetry::names::PROBES), 3);
        assert_eq!(snap.counter(crate::telemetry::names::TICKS), 5);
    }

    /// A reset with no tick delta publishes nothing: its pending counts
    /// go out with the next publish, so a flush after a run of such
    /// resets leaves the registry as publishing before every reset does.
    /// A reset after ticks publishes first, since it zeroes the clock the
    /// tick delta is measured against.
    #[test]
    fn tick_free_resets_leave_their_counts_to_the_next_publish() {
        use crate::telemetry::names::{PROBES, RESPONSES, TICKS};
        let cfg = *bucket_world(1).config();
        let block = &SAMPLE_BLOCKS[2];
        let probe = World::with_config(cfg);
        let targets: Vec<Ip6> = (0..200_000u64)
            .filter(|&i| probe.device_at(2, i).is_some() && !probe.filtered(block, i))
            .take(10)
            .map(|i| {
                let target = block.scan_prefix().subprefix(block.assigned_len, i as u128);
                target.addr().with_iid(1)
            })
            .collect();
        let run = |eager: bool| {
            let telemetry = xmap_telemetry::Telemetry::new();
            let mut world = World::with_config(cfg);
            world.set_telemetry(&telemetry);
            // Five units of ten probes, below the coalescing batch; the
            // second unit ends with ticks.
            let mut at_last_reset = xmap_telemetry::Snapshot::default();
            for unit in 0..5 {
                if eager {
                    world.flush_telemetry();
                }
                world.reset();
                if unit == 4 {
                    at_last_reset = telemetry.registry.snapshot();
                }
                for &dst in &targets {
                    handle(
                        &mut world,
                        Ipv6Packet::echo_request(vantage(), dst, 64, 0, 0),
                    );
                }
                if unit == 1 {
                    tick(&mut world, 7);
                }
            }
            world.flush_telemetry();
            (at_last_reset, telemetry.registry.snapshot())
        };
        let (lazy_at_reset, lazy) = run(false);
        let (eager_at_reset, eager) = run(true);
        assert_eq!(lazy, eager);
        assert_eq!(lazy.counter(PROBES), 50);
        assert_eq!(lazy.counter(TICKS), 7);
        assert!(lazy.counter(RESPONSES) >= 50, "every unit's devices answer");
        // Only the reset after the ticks published: the 20 probes before it.
        assert_eq!(lazy_at_reset.counter(PROBES), 20);
        assert_eq!(eager_at_reset.counter(PROBES), 40);
    }

    #[test]
    fn clustered_allocation_concentrates_devices_into_pods() {
        let uniform = World::with_config(WorldConfig::lossless(7, 10));
        let clustered = World::with_config(WorldConfig::lossless(7, 10).with_allocation(
            Allocation::Clustered {
                pod_bits: 8,
                active_frac: 1.0 / 64.0,
            },
        ));
        // Airtel (index 2) is dense enough for tight statistics.
        let slice = 1u64 << 16;
        let mut uni_total = 0usize;
        let mut clu_total = 0usize;
        let mut pods_with_devices = std::collections::HashSet::new();
        for i in 0..slice {
            if uniform.device_at(2, i).is_some() {
                uni_total += 1;
            }
            if clustered.device_at(2, i).is_some() {
                clu_total += 1;
                pods_with_devices.insert(i >> 8);
            }
        }
        // Expected totals match, with wide slack: the pod count itself is
        // a small Poisson draw, so realized totals swing by small factors.
        let lo = uni_total / 4;
        let hi = uni_total * 4;
        assert!((lo..=hi).contains(&clu_total), "{uni_total} vs {clu_total}");
        // Devices occupy only a small fraction of the 256 pods.
        assert!(
            pods_with_devices.len() <= 16,
            "{} pods",
            pods_with_devices.len()
        );
        // Inactive pods are strictly empty: every device's pod is active.
        for pod in &pods_with_devices {
            let start = pod << 8;
            let count = (start..start + 256)
                .filter(|i| clustered.device_at(2, *i).is_some())
                .count();
            assert!(count > 0);
        }
    }

    #[test]
    fn uniform_allocation_is_unchanged_by_the_knob() {
        let a = World::with_config(WorldConfig::lossless(7, 10));
        let b =
            World::with_config(WorldConfig::lossless(7, 10).with_allocation(Allocation::Uniform));
        for i in 0..4096u64 {
            assert_eq!(a.device_at(2, i), b.device_at(2, i));
        }
    }
}

/// The world's keys against the chains they replace: every draw hashed
/// from the seed as `DetHash::new(seed).mix(label)…` must give the
/// world's answer bit for bit.
#[cfg(test)]
mod keyed_draw_tests {
    use super::*;

    const SEEDS: [u64; 3] = [0, 7, 0xDA7A_5EED];
    const ALLOCATIONS: [Allocation; 2] = [
        Allocation::Uniform,
        Allocation::Clustered {
            pod_bits: 8,
            active_frac: 1.0 / 64.0,
        },
    ];

    fn unkeyed(seed: u64, label: &[u8]) -> DetHash {
        DetHash::new(seed).mix(label)
    }

    fn unkeyed_for(seed: u64, label: &[u8], p: &IspProfile) -> DetHash {
        unkeyed(seed, label).mix_u64(p.id as u64)
    }

    /// [`World::device_at`] with every draw hashed from the seed.
    fn device_unkeyed(w: &World, pi: usize, index: u64) -> Option<Device> {
        let (seed, p) = (w.cfg.seed, &w.profiles()[pi]);
        let occupancy = match w.cfg.allocation {
            Allocation::Uniform => p.occupancy,
            Allocation::Clustered {
                pod_bits,
                active_frac,
            } => {
                let pod = index >> pod_bits.min(63);
                if !unkeyed_for(seed, b"pod", p)
                    .mix_u64(pod)
                    .chance(active_frac)
                {
                    return None;
                }
                (p.occupancy / active_frac).min(1.0)
            }
        };
        let h = unkeyed_for(seed, b"isp-dev", p).mix_u64(index);
        w.derive_device(h, p, index, occupancy)
    }

    #[test]
    fn every_key_is_its_label_chain() {
        for seed in SEEDS {
            let keys = WorldKeys::new(seed, SAMPLE_BLOCKS);
            assert_eq!(keys.loss, unkeyed(seed, b"loss"));
            assert_eq!(keys.bgp_dev, unkeyed(seed, b"bgp-dev"));
            assert_eq!(keys.bgp_sub, unkeyed(seed, b"bgp-sub"));
            for p in SAMPLE_BLOCKS {
                let k = keys.of(p);
                assert_eq!(k.alias, unkeyed_for(seed, b"alias", p));
                assert_eq!(k.isp_dev, unkeyed_for(seed, b"isp-dev", p));
                assert_eq!(k.pod, unkeyed_for(seed, b"pod", p));
                assert_eq!(k.filter, unkeyed_for(seed, b"filter", p));
                assert_eq!(k.hosts, unkeyed_for(seed, b"hosts", p));
            }
        }
    }

    #[test]
    fn devices_and_hosts_match_the_unkeyed_chains() {
        let mut devices = 0;
        for seed in SEEDS {
            for allocation in ALLOCATIONS {
                let w =
                    World::with_config(WorldConfig::lossless(seed, 10).with_allocation(allocation));
                for (pi, p) in SAMPLE_BLOCKS.iter().enumerate() {
                    let last =
                        (p.scan_prefix().subprefix_count(p.assigned_len).unwrap() - 1) as u64;
                    let first_devices = (0..1 << 18)
                        .filter(|&i| w.device_at(pi, i).is_some())
                        .take(2);
                    let indices: Vec<u64> = [0, 1, last / 2, last]
                        .into_iter()
                        .chain(first_devices)
                        .collect();
                    for i in indices {
                        let device = w.device_at(pi, i);
                        assert_eq!(device, device_unkeyed(&w, pi, i), "{} #{i}", p.name);
                        if let Some(d) = device {
                            devices += 1;
                            let hosts = derive_lan_hosts(
                                unkeyed_for(seed, b"hosts", p).mix_u64(i),
                                d.used_subnet64,
                            );
                            assert_eq!(w.hosts_of(pi, i), hosts.collect::<Vec<_>>());
                        }
                    }
                }
            }
        }
        // Enough whole devices compared to mean something (most indices
        // are unallocated in every profile).
        assert!(devices > 100, "{devices}");
    }

    #[test]
    fn alias_filter_and_loss_draws_match_the_unkeyed_chains() {
        let edges = [0, 1, u32::MAX as u64, u64::MAX];
        for seed in SEEDS {
            let w = World::with_config(WorldConfig::lossless(seed, 10));
            for (pi, p) in SAMPLE_BLOCKS.iter().enumerate() {
                for i in edges.into_iter().chain(0..1 << 12) {
                    let alias = unkeyed_for(seed, b"alias", p).mix_u64(i);
                    assert_eq!(w.is_aliased(pi, i), alias.chance(p.aliased_frac));
                    let filter = unkeyed_for(seed, b"filter", p).mix_u64(i);
                    assert_eq!(w.filtered(p, i), filter.chance(p.filter_frac));
                }
            }
            // Aliasing is rare: also compare where the world says yes.
            let aliased = (0..1 << 22).find(|&i| w.is_aliased(1, i)).expect("aliased");
            let bsnl = &SAMPLE_BLOCKS[1];
            assert!(unkeyed_for(seed, b"alias", bsnl)
                .mix_u64(aliased)
                .chance(bsnl.aliased_frac));

            let lossy = World::with_config(WorldConfig {
                loss_frac: 0.5,
                ..WorldConfig::lossless(seed, 10)
            });
            let vantage: Ip6 = "fd00::1".parse().unwrap();
            for (n, hop_limit) in (0..512u64).zip([1u8, 32, 64, 255].into_iter().cycle()) {
                let dst = SAMPLE_BLOCKS[n as usize % SAMPLE_BLOCKS.len()]
                    .scan_prefix()
                    .addr()
                    .with_iid(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let probe = Ipv6Packet::echo_request(vantage, dst, hop_limit, 0, 0);
                let draw = unkeyed(seed, b"loss")
                    .mix_u128(dst.bits())
                    .mix_u64(hop_limit as u64);
                assert_eq!(lossy.lost(&probe), draw.chance(0.5));
                assert_eq!(w.lost(&probe), draw.chance(0.0));
            }
        }
    }

    #[test]
    fn bgp_hosts_match_the_unkeyed_chains() {
        let mut hosts = 0;
        for seed in SEEDS {
            let w = World::with_config(WorldConfig::lossless(seed, 200));
            for entry in w.bgp().entries().iter().step_by(25) {
                // The linear lookup `as_params` replaced.
                let params = w.bgp().ases().iter().find(|a| a.asn == entry.asn);
                for i in [0, 0xffff, u32::MAX as u64, u64::MAX]
                    .into_iter()
                    .chain(0..1 << 12)
                {
                    let h = unkeyed(seed, b"bgp-dev")
                        .mix_u128(entry.prefix.addr().bits())
                        .mix_u64(i);
                    let host = w.bgp_host_at(entry.prefix, entry.asn, i);
                    assert_eq!(host, params.and_then(|a| w.derive_bgp_host(h, a)));
                    hosts += usize::from(host.is_some());
                }
            }
            let entry = w.bgp().entries()[0];
            assert_eq!(w.bgp_host_at(entry.prefix, 1, 0), None, "unknown AS");
        }
        assert!(hosts > 200, "{hosts}");
    }
}
