//! The periphery-discovery campaign (Section IV / Table II).
//!
//! One ICMPv6 echo probe is sent to a pseudorandom address inside every
//! sub-prefix of each sample block's scan range; every validated ICMPv6
//! destination-unreachable or time-exceeded response exposes a last-hop
//! address. The campaign deduplicates responders, classifies each as
//! replying from the *same* /64 as the probe or a *different* one, and
//! extracts MAC addresses from EUI-64 IIDs — exactly the columns of
//! Table II.

use xmap::checkpoint::{decode_scan_record, encode_scan_record};
use xmap::{
    Blocklist, IcmpEchoProbe, ProbeResult, ScanConfig, ScanRecord, ScanStats, Scanner,
    SecondChance, SplitUnit, YieldGate,
};
use xmap_addr::{classify_iid, FxHashSet, IidClass, IidHistogram, Ip6, Mac, Prefix};
use xmap_netsim::isp::{IspProfile, SAMPLE_BLOCKS};
use xmap_netsim::packet::Network;
use xmap_netsim::world::WorldConfig;
use xmap_state::checkpoint::Identity;
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::StateError;
use xmap_telemetry::Tracer;

/// One discovered periphery (deduplicated last hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredPeriphery {
    /// The exposed last-hop address (WAN/UE address).
    pub address: Ip6,
    /// The sub-prefix whose probe elicited the response.
    pub target: Prefix,
    /// The probed 128-bit destination.
    pub probe_dst: Ip6,
    /// Whether the responder shares the probe's /64 (Table II "same").
    pub same64: bool,
    /// IID class of the responder address.
    pub iid_class: IidClass,
    /// MAC embedded in the IID, for EUI-64 responders.
    pub mac: Option<Mac>,
    /// Whether the response was a Time Exceeded (loop-vulnerable path)
    /// rather than a Destination Unreachable.
    pub via_time_exceeded: bool,
}

/// Per-block campaign outcome — one row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockResult {
    /// Table VII row id of the block (1..=15).
    pub profile_id: u8,
    /// Deduplicated peripheries in discovery order.
    pub peripheries: Vec<DiscoveredPeriphery>,
    /// Raw scanner counters.
    pub stats: ScanStats,
    /// Number of targets probed (for scale correction).
    pub probed: u64,
    /// Size of the full scan space.
    pub space_size: u128,
    /// Targets that answered the discovery probe with an echo reply from
    /// the probed address itself — the aliased-prefix signature; excluded
    /// from the periphery population (Section IV-E reports non-aliased
    /// counts).
    pub alias_candidates: Vec<Prefix>,
    /// Peripheries recovered only by the mop-up pass (0 when mop-up is
    /// disabled); included in `peripheries`.
    pub mop_up_recovered: usize,
}

impl BlockResult {
    /// The profile backing this block.
    pub fn profile(&self) -> &'static IspProfile {
        SAMPLE_BLOCKS
            .iter()
            .find(|p| p.id == self.profile_id)
            .expect("block result references a known profile")
    }

    /// Unique last hops discovered.
    pub fn unique(&self) -> usize {
        self.peripheries.len()
    }

    /// Fraction of last hops replying from the probed /64.
    pub fn same_frac(&self) -> f64 {
        if self.peripheries.is_empty() {
            return 0.0;
        }
        self.peripheries.iter().filter(|p| p.same64).count() as f64 / self.peripheries.len() as f64
    }

    /// Unique /64 prefixes among responders (Table II "/64 prefix").
    pub fn unique_64(&self) -> usize {
        self.peripheries
            .iter()
            .map(|p| p.address.network(64))
            .collect::<FxHashSet<_>>()
            .len()
    }

    /// Peripheries with EUI-64 format addresses.
    pub fn eui64_count(&self) -> usize {
        self.peripheries
            .iter()
            .filter(|p| p.iid_class == IidClass::Eui64)
            .count()
    }

    /// Unique MAC addresses among EUI-64 responders (Table II "MAC addr").
    pub fn unique_mac(&self) -> usize {
        self.peripheries
            .iter()
            .filter_map(|p| p.mac)
            .collect::<FxHashSet<_>>()
            .len()
    }

    /// IID histogram of the block's peripheries (Table III per block).
    pub fn iid_histogram(&self) -> IidHistogram {
        self.peripheries.iter().map(|p| p.address).collect()
    }

    /// Linear scale-correction factor from the probed slice to the block's
    /// full scan space.
    pub fn scale_factor(&self) -> f64 {
        if self.probed == 0 {
            return 0.0;
        }
        self.space_size as f64 / self.probed as f64
    }

    /// Scale-corrected estimate of the block's full periphery population.
    pub fn estimated_total(&self) -> f64 {
        self.unique() as f64 * self.scale_factor()
    }
}

/// Whole-campaign outcome across all sample blocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignResult {
    /// Per-block results in Table II order.
    pub blocks: Vec<BlockResult>,
}

impl CampaignResult {
    /// Total unique last hops across blocks.
    pub fn total_unique(&self) -> usize {
        self.blocks.iter().map(BlockResult::unique).sum()
    }

    /// Scale-corrected total (the paper's 52.5M headline).
    pub fn estimated_total(&self) -> f64 {
        self.blocks.iter().map(BlockResult::estimated_total).sum()
    }

    /// Pooled same-/64 fraction (Table II total row: 77.2% same).
    pub fn same_frac(&self) -> f64 {
        let total = self.total_unique();
        if total == 0 {
            return 0.0;
        }
        let same: usize = self
            .blocks
            .iter()
            .map(|b| b.peripheries.iter().filter(|p| p.same64).count())
            .sum();
        same as f64 / total as f64
    }

    /// Pooled IID histogram (Table III).
    pub fn iid_histogram(&self) -> IidHistogram {
        let mut h = IidHistogram::new();
        for b in &self.blocks {
            h.merge(&b.iid_histogram());
        }
        h
    }

    /// All discovered peripheries.
    pub fn peripheries(&self) -> impl Iterator<Item = &DiscoveredPeriphery> {
        self.blocks.iter().flat_map(|b| b.peripheries.iter())
    }

    /// Renders every discovered periphery as CSV, blocks in Table II
    /// order, peripheries in discovery order. Formatting is fixed, so
    /// equal results render byte-identically — the equality channel the
    /// parallel-executor tests and the CI kill-and-resume smoke compare.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * self.total_unique() + CSV_HEADER.len() + 1);
        out.push_str(CSV_HEADER);
        out.push('\n');
        for b in &self.blocks {
            for p in &b.peripheries {
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    b.profile_id,
                    p.address,
                    p.target,
                    p.probe_dst,
                    p.same64,
                    p.iid_class,
                    p.mac.map(|m| m.to_string()).unwrap_or_default(),
                    p.via_time_exceeded,
                );
            }
        }
        out
    }
}

/// The format of `campaign.ckpt`'s entry 0, which states the run's
/// [`Identity`]; a journal of any other format is refused.
const CAMPAIGN_FORMAT: u64 = 2;

/// Appends the simulated world to a run's identity. Every field of a
/// world shapes what it answers, so the world is identity whole; a fault
/// plan is listed through its derived `Debug`, which names all of its
/// fields, the private fault seed included.
pub(crate) fn push_world(id: &mut Identity, world: &WorldConfig) {
    let WorldConfig {
        seed,
        bgp_ases,
        loss_frac,
        fault,
        allocation,
    } = world;
    id.push("world_seed", seed)
        .push("bgp_ases", bgp_ases)
        .push("loss_frac", loss_frac)
        .push("fault", format!("{fault:?}"))
        .push("allocation", format!("{allocation:?}"));
}

/// Header line of [`CampaignResult::to_csv`].
pub const CSV_HEADER: &str = "profile_id,address,target,probe_dst,same64,iid_class,mac,via_te";

/// Discovery-campaign driver.
///
/// # Examples
///
/// ```
/// use xmap::{ScanConfig, Scanner};
/// use xmap_netsim::World;
/// use xmap_periphery::Campaign;
///
/// let mut scanner = Scanner::new(World::new(7), ScanConfig::default());
/// // Scan a 2^14 slice of each block (fast; scale-corrected estimates).
/// let result = Campaign::new(1 << 14).run(&mut scanner);
/// assert_eq!(result.blocks.len(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Probes per block (slice of the full space).
    pub targets_per_block: u64,
    /// Blocklist applied to every probe.
    blocklist: Blocklist,
    /// Second-chance pass over silent targets (off by default).
    mop_up: bool,
    /// Virtual ticks to wait before the mop-up pass so depleted ICMPv6
    /// error token buckets (RFC 4443 §2.4) refill.
    mop_up_delay_ticks: u64,
    /// Per-block `(block index, walk positions)` overrides of
    /// `targets_per_block`, sorted by index; lets a run skew one block's
    /// cost (the straggler bench) or trim a known-expensive block.
    block_caps: Vec<(usize, u64)>,
}

impl Campaign {
    /// A campaign probing `targets_per_block` sub-prefixes per block with
    /// the standard reserved-space blocklist.
    pub fn new(targets_per_block: u64) -> Self {
        Campaign {
            targets_per_block,
            blocklist: Blocklist::with_standard_reserved(),
            mop_up: false,
            mop_up_delay_ticks: 2048,
            block_caps: Vec::new(),
        }
    }

    /// Overrides the blocklist.
    pub fn with_blocklist(mut self, blocklist: Blocklist) -> Self {
        self.blocklist = blocklist;
        self
    }

    /// Overrides the walk-position budget of individual blocks: each
    /// `(index, targets)` pair caps block `index` (Table II order) at
    /// `targets` instead of `targets_per_block`. Out-of-range indices are
    /// dropped, and of duplicate indices the first pair is kept, so the
    /// list holds exactly the caps that take effect. It is part of the
    /// campaign's [`identity`](Self::identity): a checkpoint taken under
    /// one set of caps refuses to resume under another.
    pub fn with_block_targets(mut self, mut caps: Vec<(usize, u64)>) -> Self {
        caps.retain(|(idx, _)| *idx < SAMPLE_BLOCKS.len());
        // A stable sort keeps the first pair of an index first.
        caps.sort_by_key(|(idx, _)| *idx);
        caps.dedup_by_key(|(idx, _)| *idx);
        self.block_caps = caps;
        self
    }

    /// The walk-position budget of `profile`'s block: its override if one
    /// is set, else `targets_per_block`, clamped to the block's space.
    pub fn block_cap(&self, profile: &IspProfile) -> u64 {
        let idx = SAMPLE_BLOCKS
            .iter()
            .position(|p| p.id == profile.id)
            .expect("campaign profiles come from SAMPLE_BLOCKS");
        let budget = self
            .block_caps
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, t)| *t)
            .unwrap_or(self.targets_per_block);
        (budget as u128).min(profile.scan_range().space_size()) as u64
    }

    /// Enables the mop-up pass: after the discovery scan of a block, wait
    /// `delay_ticks` of virtual time (so ICMPv6 rate limiters refill) and
    /// re-probe every silent sub-prefix once with fresh host bits. Devices
    /// whose error budget was exhausted during the main pass — silent to a
    /// single-probe scan — answer here.
    pub fn with_mop_up(mut self, delay_ticks: u64) -> Self {
        self.mop_up = true;
        self.mop_up_delay_ticks = delay_ticks;
        self
    }

    /// Verifies a block's alias candidates with the de-aliasing check
    /// (Section IV-E reports only non-aliased last hops). Returns the
    /// confirmed aliased prefixes; unconfirmed candidates (flukes) are
    /// dropped from the candidate list.
    pub fn verify_aliases<N: Network>(
        &self,
        scanner: &mut Scanner<N>,
        block: &mut BlockResult,
    ) -> Vec<Prefix> {
        let mut confirmed = Vec::new();
        block.alias_candidates.retain(|prefix| {
            let aliased = crate::alias::is_aliased(scanner, *prefix);
            if aliased {
                confirmed.push(*prefix);
            }
            aliased
        });
        confirmed
    }

    /// Runs the discovery scan over every sample block.
    pub fn run<N: Network>(&self, scanner: &mut Scanner<N>) -> CampaignResult {
        let mut result = CampaignResult::default();
        for profile in SAMPLE_BLOCKS.iter() {
            result.blocks.push(self.run_block(scanner, profile));
        }
        result
    }

    /// What a `campaign.ckpt` journal of this campaign resumes: every
    /// setting that changes its output, scan, world and campaign, each
    /// field ruled in or out below. The world comes in as the argument
    /// the caller builds its networks from. The worker count and the
    /// split schedule stay out: a journal resumes under any.
    pub fn identity(&self, cfg: &ScanConfig, world: &WorldConfig) -> Identity {
        let Campaign {
            targets_per_block,
            blocklist,
            mop_up,
            mop_up_delay_ticks,
            block_caps,
        } = self;
        let ScanConfig {
            seed,
            source,
            hop_limit,
            permutation,
            shard,
            shards,
            rate_pps,
            probes_per_target,
            rto_ticks,
            // The campaign caps each block itself and keeps silent
            // targets exactly when it mops up.
            max_targets: _,
            record_silent: _,
        } = cfg;
        let mut id = Identity::new(CAMPAIGN_FORMAT);
        id.push("seed", seed)
            .push("source", source)
            .push("hop_limit", hop_limit)
            .push("permutation", format!("{permutation:?}"))
            .push("shard", shard)
            .push("shards", shards)
            .push("rate_pps", format!("{rate_pps:?}"))
            .push("probes_per_target", probes_per_target)
            .push("rto_ticks", rto_ticks);
        push_world(&mut id, world);
        id.push("targets_per_block", targets_per_block)
            .push("block_caps", format!("{block_caps:?}"))
            // The delay only takes effect with the pass.
            .push(
                "mop_up",
                format!("{:?}", mop_up.then_some(mop_up_delay_ticks)),
            )
            .push("blocklist", format!("{:#018x}", blocklist.fingerprint()));
        id
    }

    /// Runs the discovery scan over one block: the whole-block root unit
    /// through the same main-scan → mop-up → assemble pipeline the
    /// split-capable parallel executor drives unit by unit.
    pub fn run_block<N: Network>(
        &self,
        scanner: &mut Scanner<N>,
        profile: &IspProfile,
    ) -> BlockResult {
        let block_start = scanner.ticks();
        let unit = SplitUnit::whole(self.block_cap(profile));
        let mut raw = self.unit_main(scanner, profile, unit, None);
        self.unit_mop_up(scanner, profile, &mut raw);
        let block = self.assemble(profile, vec![raw], scanner.tracer());
        if scanner.tracer().is_enabled() {
            scanner.tracer().span_event(
                block_start,
                scanner.ticks(),
                "periphery.block",
                vec![
                    ("profile", (profile.id as u64).into()),
                    ("probed", block.probed.into()),
                    ("peripheries", (block.peripheries.len() as u64).into()),
                ],
            );
        }
        block
    }

    /// Runs one unit's main discovery pass over the sub-progression of
    /// the block's walk the unit owns ([`Scanner::run_unit`], nested in
    /// the scanner's shard slot), with record/silence walk positions in
    /// block-walk coordinates (the profile-order merge keys). An armed
    /// `gate` can stop the walk early, in which case `yielded` is set and
    /// `consumed` tells the executor where to split the remainder.
    pub(crate) fn unit_main<N: Network>(
        &self,
        scanner: &mut Scanner<N>,
        profile: &IspProfile,
        unit: SplitUnit,
        gate: Option<&YieldGate>,
    ) -> UnitRaw {
        let range = profile.scan_range();
        let results = scanner.run_unit(
            &range,
            &IcmpEchoProbe,
            &self.blocklist,
            unit,
            self.mop_up,
            gate,
        );
        UnitRaw {
            unit,
            positions: results.record_positions,
            silent: std::iter::zip(results.silent_positions, results.silent_targets).collect(),
            records: results.records,
            mopup: Vec::new(),
            stats: results.stats,
            consumed: results.consumed,
            yielded: results.yielded,
            interrupted: results.interrupted,
            mopup_span: None,
        }
    }

    /// Runs the mop-up pass over one unit's silent targets on the unit's
    /// own scanner: a [`Scanner::run_second_chance`] at fresh host bits,
    /// whose records become raw [`MopAnswer`]s that [`assemble`](Self::assemble)
    /// dedups in merged position order. No-op when mop-up is off, the unit
    /// was interrupted (the block is re-run on resume) or nothing was
    /// silent; a yielded unit is settled first. The pass consumes the
    /// silent list: its length lives on in the span.
    pub(crate) fn unit_mop_up<N: Network>(
        &self,
        scanner: &mut Scanner<N>,
        profile: &IspProfile,
        raw: &mut UnitRaw,
    ) {
        let silent = std::mem::take(&mut raw.silent);
        if !self.mop_up || raw.interrupted || silent.is_empty() {
            return;
        }
        let pass = SecondChance {
            targets: &silent,
            // Fresh host bits: never re-probe the exact first address.
            host_seed: scanner.config().seed ^ MOP_UP_SALT,
        };
        // Idle first so ICMPv6 rate limiters refill: the clocks jump
        // ahead, nothing sent, so `netsim.ticks` does not count the delay.
        let start = scanner.ticks() + self.mop_up_delay_ticks;
        scanner.restore_clock(start);
        let results =
            scanner.run_second_chance(&profile.scan_range(), &IcmpEchoProbe, &self.blocklist, pass);
        for (r, &position) in results.records.iter().zip(&results.record_positions) {
            let via_te = r.result == ProbeResult::TimeExceeded;
            if via_te || matches!(r.result, ProbeResult::Unreachable { .. }) {
                raw.mopup.push(MopAnswer {
                    position,
                    target: r.target,
                    probe_dst: r.probe_dst,
                    responder: r.responder,
                    via_te,
                });
            }
        }
        raw.stats.merge(&results.stats);
        raw.mopup_span = Some((start, scanner.ticks(), silent.len() as u64));
    }

    /// Merges the units of one block — in any split layout, including the
    /// trivial single-root one — into the block's result. Units are
    /// ordered by offset; record and mop-up streams are k-way-merged on
    /// base walk position (each unit's internal arrival order preserved,
    /// so a single-unit block is merged in plain arrival order);
    /// classification, dedup and alias detection run over
    /// the merged order, which no split schedule can perturb.
    pub(crate) fn assemble(
        &self,
        profile: &IspProfile,
        mut units: Vec<UnitRaw>,
        tracer: &Tracer,
    ) -> BlockResult {
        units.sort_by_key(|u| u.unit.offset);
        let probed = units.iter().map(|u| u.unit.cap).sum();

        // Fx-hashed set: responder dedup is the hot loop of a dense block
        // and the keys are simulation-derived, not attacker-controlled.
        let mut seen = FxHashSet::default();
        let mut peripheries = Vec::new();
        let mut alias_candidates = Vec::new();
        let mut push_periphery =
            |responder: Ip6, target: Prefix, probe_dst: Ip6, via_te: bool| -> bool {
                // Transit-router time-exceeded sources are not peripheries;
                // they appear only for short hop limits, but filter
                // defensively on the synthetic transit IID marker.
                if via_te && responder.iid() >> 48 == 0xffff {
                    return false;
                }
                if !seen.insert(responder) {
                    return false;
                }
                let mac = Mac::from_eui64(responder.iid())
                    .filter(|_| classify_iid(responder) == IidClass::Eui64);
                peripheries.push(DiscoveredPeriphery {
                    address: responder,
                    target,
                    probe_dst,
                    same64: responder.network(64) == probe_dst.network(64),
                    iid_class: classify_iid(responder),
                    mac,
                    via_time_exceeded: via_te,
                });
                true
            };

        for (record, _) in merge_by_position(&units, |u| {
            u.records.iter().zip(u.positions.iter().copied())
        }) {
            let via_te = match record.result {
                ProbeResult::Unreachable { .. } => false,
                ProbeResult::TimeExceeded => true,
                // An echo reply from the probed (pseudorandom, should-be-
                // nonexistent) address is the aliased-prefix signature.
                ProbeResult::Alive if record.responder == record.probe_dst => {
                    alias_candidates.push(record.target);
                    continue;
                }
                _ => continue,
            };
            push_periphery(record.responder, record.target, record.probe_dst, via_te);
        }

        let mut mop_up_recovered = 0;
        let mut unit_recovered = vec![0u64; units.len()];
        // Every stored answer is a TE or unreachable (filtered by the
        // pass); dedup them in merged position order.
        for (answer, from_unit) in
            merge_by_position(&units, |u| u.mopup.iter().map(|a| (a, a.position)))
        {
            if push_periphery(
                answer.responder,
                answer.target,
                answer.probe_dst,
                answer.via_te,
            ) {
                mop_up_recovered += 1;
                unit_recovered[from_unit] += 1;
            }
        }

        let mut stats = ScanStats::default();
        for u in &units {
            stats.merge(&u.stats);
        }
        if tracer.is_enabled() {
            for (u, recovered) in units.iter().zip(&unit_recovered) {
                if let Some((start, end, silent)) = u.mopup_span {
                    tracer.span_event(
                        start,
                        end,
                        "periphery.mopup",
                        vec![
                            ("silent", silent.into()),
                            ("recovered", (*recovered).into()),
                        ],
                    );
                }
            }
        }
        BlockResult {
            profile_id: profile.id,
            peripheries,
            stats,
            probed,
            space_size: profile.scan_range().space_size(),
            alias_candidates,
            mop_up_recovered,
        }
    }
}

/// K-way merge of per-unit `(item, base position)` streams: repeatedly
/// yields the stream whose *next* item has the lowest position (ties to
/// the lowest unit index), preserving each stream's internal order. With
/// one stream this is the identity walk — plain arrival order.
fn merge_by_position<'a, T, I, F>(
    units: &'a [UnitRaw],
    stream: F,
) -> impl Iterator<Item = (T, usize)> + 'a
where
    I: Iterator<Item = (T, u64)> + 'a,
    F: Fn(&'a UnitRaw) -> I + 'a,
{
    let mut streams: Vec<std::iter::Peekable<I>> =
        units.iter().map(|u| stream(u).peekable()).collect();
    std::iter::from_fn(move || {
        let best = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.peek().map(|(_, pos)| (*pos, i)))
            .min()?;
        let (item, _) = streams[best.1].next().expect("peeked stream is nonempty");
        Some((item, best.1))
    })
}

/// Seed perturbation for mop-up host-bit fill (distinct from every
/// `seed + attempt` fill of the main pass).
const MOP_UP_SALT: u64 = 0x6d6f_7075;

/// One raw mop-up response, recorded at probe time and classified later
/// in [`Campaign::assemble`]'s merged position order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MopAnswer {
    /// Base walk position of the silent target this answer re-probed —
    /// the merge key across units.
    pub position: u64,
    /// The silent sub-prefix.
    pub target: Prefix,
    /// The mop-up probe's destination (fresh host bits).
    pub probe_dst: Ip6,
    /// Responding last-hop address.
    pub responder: Ip6,
    /// Time-exceeded (vs destination-unreachable) response.
    pub via_te: bool,
}

/// One unit's raw, classification-free output: everything
/// [`Campaign::assemble`] needs to merge any split layout of a block
/// back into the byte-exact sequential result. Also the payload of the
/// executor's unit journal entries (kind `campaign-unit`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnitRaw {
    /// The sub-progression of the block walk this unit covered. After a
    /// yield the executor settles it to the consumed prefix.
    pub unit: SplitUnit,
    /// Validated responses in this unit's arrival order.
    pub records: Vec<ScanRecord>,
    /// Base walk positions of `records` (parallel vector).
    pub positions: Vec<u64>,
    /// Silent targets with their base walk positions, in this unit's
    /// probe order, until the mop-up pass consumes them.
    pub silent: Vec<(u64, Prefix)>,
    /// Raw mop-up answers ([`Campaign::unit_mop_up`]).
    pub mopup: Vec<MopAnswer>,
    /// Scanner counters attributable to this unit (mop-up included).
    pub stats: ScanStats,
    /// Unit-local walk positions consumed (== `unit.cap` unless the run
    /// yielded or was interrupted).
    pub consumed: u64,
    /// The main pass stopped at a cooperative yield with budget left.
    pub yielded: bool,
    /// The main pass was aborted; the block is discarded and re-run.
    pub interrupted: bool,
    /// The unit's mop-up pass, replayed as a `periphery.mopup` span at
    /// assembly: virtual tick stamps `(start, end)` and the number of
    /// silent targets it re-probed.
    pub mopup_span: Option<(u64, u64, u64)>,
}

pub(crate) fn encode_stats(e: &mut Encoder, s: &ScanStats) {
    for v in [
        s.sent,
        s.blocked,
        s.received,
        s.invalid,
        s.valid,
        s.retransmits,
        s.rate_limited_suspected,
        s.gave_up,
    ] {
        e.u64(v);
    }
    e.f64_bits(s.paced_secs);
}

pub(crate) fn decode_stats(d: &mut Decoder) -> Result<ScanStats, StateError> {
    Ok(ScanStats {
        sent: d.u64()?,
        blocked: d.u64()?,
        received: d.u64()?,
        invalid: d.u64()?,
        valid: d.u64()?,
        retransmits: d.u64()?,
        rate_limited_suspected: d.u64()?,
        gave_up: d.u64()?,
        paced_secs: d.f64_bits()?,
    })
}

/// Serialises one [`UnitRaw`] after its mop-up pass in the campaign-unit
/// wire form — the journal payload a killed split block resumes from.
/// The consumed silent list is not stored: its length is in the span.
pub(crate) fn encode_unit_raw(e: &mut Encoder, u: &UnitRaw) {
    e.u64(u.unit.offset);
    e.u64(u.unit.stride);
    e.u64(u.unit.cap);
    e.seq(u.records.len());
    for (r, pos) in u.records.iter().zip(&u.positions) {
        e.u64(*pos);
        encode_scan_record(e, r);
    }
    e.seq(u.mopup.len());
    for a in &u.mopup {
        e.u64(a.position);
        e.prefix(&a.target);
        e.u128(a.probe_dst.bits());
        e.u128(a.responder.bits());
        e.bool(a.via_te);
    }
    encode_stats(e, &u.stats);
    e.u64(u.consumed);
    e.bool(u.yielded);
    e.bool(u.interrupted);
    match u.mopup_span {
        Some((start, end, silent)) => {
            e.bool(true);
            e.u64(start);
            e.u64(end);
            e.u64(silent);
        }
        None => e.bool(false),
    }
}

/// Inverse of [`encode_unit_raw`].
pub(crate) fn decode_unit_raw(d: &mut Decoder) -> Result<UnitRaw, StateError> {
    let unit = SplitUnit {
        offset: d.u64()?,
        stride: d.u64()?,
        cap: d.u64()?,
    };
    let n = d.seq()?;
    let mut records = Vec::with_capacity(n);
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push(d.u64()?);
        records.push(decode_scan_record(d)?);
    }
    let n = d.seq()?;
    let mut mopup = Vec::with_capacity(n);
    for _ in 0..n {
        mopup.push(MopAnswer {
            position: d.u64()?,
            target: d.prefix()?,
            probe_dst: d.u128()?.into(),
            responder: d.u128()?.into(),
            via_te: d.bool()?,
        });
    }
    let stats = decode_stats(d)?;
    let consumed = d.u64()?;
    let yielded = d.bool()?;
    let interrupted = d.bool()?;
    let mopup_span = if d.bool()? {
        Some((d.u64()?, d.u64()?, d.u64()?))
    } else {
        None
    };
    Ok(UnitRaw {
        unit,
        records,
        positions,
        silent: Vec::new(),
        mopup,
        stats,
        consumed,
        yielded,
        interrupted,
        mopup_span,
    })
}

/// Serialises one [`BlockResult`] into `e` in the checkpoint's
/// campaign-block wire form. Exposed so external executors (the
/// `xmap-serve` daemon) can persist per-block campaign units in the
/// exact format the campaign checkpoints use.
pub fn encode_block(e: &mut Encoder, b: &BlockResult) {
    e.u8(b.profile_id);
    e.seq(b.peripheries.len());
    for p in &b.peripheries {
        e.u128(p.address.bits());
        e.prefix(&p.target);
        e.u128(p.probe_dst.bits());
        e.bool(p.same64);
        // IID class as its index in the canonical ALL ordering.
        e.u8(IidClass::ALL
            .iter()
            .position(|c| *c == p.iid_class)
            .expect("every class is in ALL") as u8);
        match p.mac {
            Some(mac) => {
                e.bool(true);
                e.bytes(&mac.octets());
            }
            None => e.bool(false),
        }
        e.bool(p.via_time_exceeded);
    }
    encode_stats(e, &b.stats);
    e.u64(b.probed);
    e.u128(b.space_size);
    e.seq(b.alias_candidates.len());
    for p in &b.alias_candidates {
        e.prefix(p);
    }
    e.u64(b.mop_up_recovered as u64);
}

/// Inverse of [`encode_block`]: decodes one [`BlockResult`], failing
/// with [`StateError::Corrupt`] on any malformed field.
pub fn decode_block(d: &mut Decoder) -> Result<BlockResult, StateError> {
    let profile_id = d.u8()?;
    let n = d.seq()?;
    let mut peripheries = Vec::with_capacity(n);
    for _ in 0..n {
        let address: Ip6 = d.u128()?.into();
        let target = d.prefix()?;
        let probe_dst = d.u128()?.into();
        let same64 = d.bool()?;
        let class_idx = d.u8()? as usize;
        let iid_class = *IidClass::ALL.get(class_idx).ok_or_else(|| {
            StateError::Corrupt(format!("campaign blocks: unknown IID class {class_idx}"))
        })?;
        let mac = if d.bool()? {
            let octets = d.bytes()?;
            let octets: [u8; 6] = octets.as_slice().try_into().map_err(|_| {
                StateError::Corrupt(format!(
                    "campaign blocks: MAC must be 6 octets, found {}",
                    octets.len()
                ))
            })?;
            Some(Mac::new(octets))
        } else {
            None
        };
        let via_time_exceeded = d.bool()?;
        peripheries.push(DiscoveredPeriphery {
            address,
            target,
            probe_dst,
            same64,
            iid_class,
            mac,
            via_time_exceeded,
        });
    }
    let stats = decode_stats(d)?;
    let probed = d.u64()?;
    let space_size = d.u128()?;
    let n_alias = d.seq()?;
    let mut alias_candidates = Vec::with_capacity(n_alias);
    for _ in 0..n_alias {
        alias_candidates.push(d.prefix()?);
    }
    let mop_up_recovered = d.u64()? as usize;
    Ok(BlockResult {
        profile_id,
        peripheries,
        stats,
        probed,
        space_size,
        alias_candidates,
        mop_up_recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::ScanConfig;
    use xmap_netsim::world::World;
    use xmap_state::Fingerprint;

    fn scanner(max: u64) -> Scanner<World> {
        let world = World::with_config(WorldConfig::lossless(99, 50));
        Scanner::new(
            world,
            ScanConfig {
                max_targets: Some(max),
                seed: 5,
                ..Default::default()
            },
        )
    }

    #[test]
    fn block_scan_discovers_and_dedups() {
        let mut s = scanner(1 << 15);
        let campaign = Campaign::new(1 << 15);
        // Bharti Airtel (id 3) is the densest block.
        let profile = &SAMPLE_BLOCKS[2];
        let block = campaign.run_block(&mut s, profile);
        assert!(block.unique() > 50, "found {}", block.unique());
        // Dedup: all addresses unique.
        let set: FxHashSet<_> = block.peripheries.iter().map(|p| p.address).collect();
        assert_eq!(set.len(), block.unique());
        // Airtel is ~99% same-/64.
        assert!(block.same_frac() > 0.9, "same {}", block.same_frac());
    }

    #[test]
    fn diff_block_classified_correctly() {
        let mut s = scanner(1 << 16);
        let campaign = Campaign::new(1 << 16);
        // AT&T broadband (id 6, index 5): 100% diff.
        let block = campaign.run_block(&mut s, &SAMPLE_BLOCKS[5]);
        assert!(block.unique() > 3, "found {}", block.unique());
        assert!(block.same_frac() < 0.1, "same {}", block.same_frac());
    }

    #[test]
    fn eui64_macs_extracted() {
        let mut s = scanner(1 << 16);
        let campaign = Campaign::new(1 << 16);
        // China Mobile broadband (id 13, index 12): 33.1% EUI-64, dense.
        let block = campaign.run_block(&mut s, &SAMPLE_BLOCKS[12]);
        assert!(block.unique() > 60, "found {}", block.unique());
        let eui_frac = block.eui64_count() as f64 / block.unique() as f64;
        assert!((0.2..0.5).contains(&eui_frac), "eui frac {eui_frac}");
        // Nearly all MACs unique.
        assert!(block.unique_mac() as f64 >= block.eui64_count() as f64 * 0.85);
    }

    #[test]
    fn scale_factor_math() {
        let block = BlockResult {
            profile_id: 1,
            peripheries: Vec::new(),
            stats: ScanStats::default(),
            probed: 1 << 20,
            space_size: 1 << 32,
            alias_candidates: Vec::new(),
            mop_up_recovered: 0,
        };
        assert_eq!(block.scale_factor(), 4096.0);
        assert_eq!(block.estimated_total(), 0.0);
    }

    #[test]
    fn full_campaign_covers_all_blocks() {
        let mut s = scanner(1 << 14);
        let result = Campaign::new(1 << 14).run(&mut s);
        assert_eq!(result.blocks.len(), 15);
        assert!(result.total_unique() > 100, "{}", result.total_unique());
        // Mobile-heavy blocks dominate, so pooled same > 50%.
        assert!(result.same_frac() > 0.5, "{}", result.same_frac());
        // Scale-corrected estimate lands in the right decade around the
        // paper's 52.5M even at this small slice.
        let est = result.estimated_total();
        assert!((1.5e7..1.8e8).contains(&est), "estimate {est}");
    }

    #[test]
    fn alias_candidates_detected_and_verified() {
        // BSNL (index 1) has the highest aliased fraction; scan a slice
        // big enough to hit at least one aliased sub-prefix (1e-5 of 2^17).
        let mut s = scanner(1 << 17);
        let campaign = Campaign::new(1 << 17);
        let mut block = campaign.run_block(&mut s, &SAMPLE_BLOCKS[1]);
        if block.alias_candidates.is_empty() {
            // Statistically possible at this slice; nothing to verify.
            return;
        }
        let n_before = block.alias_candidates.len();
        let confirmed = campaign.verify_aliases(&mut s, &mut block);
        assert_eq!(confirmed.len(), block.alias_candidates.len());
        assert!(confirmed.len() <= n_before);
        // Aliased prefixes never appear among discovered peripheries.
        for p in &confirmed {
            assert!(
                block.peripheries.iter().all(|d| !p.contains(d.address)),
                "aliased {p} leaked into the periphery set"
            );
        }
    }

    #[test]
    fn block_codec_roundtrips() {
        let mut s = scanner(1 << 14);
        let campaign = Campaign::new(1 << 14);
        let block = campaign.run_block(&mut s, &SAMPLE_BLOCKS[2]);
        assert!(block.unique() > 0, "need a nonempty block to exercise");
        let mut e = Encoder::new();
        encode_block(&mut e, &block);
        let raw = e.finish();
        // The campaign-block wire form, pinned like the unit codec's.
        assert_eq!(
            Fingerprint::new().push_bytes(&raw).finish(),
            0x8772_583b_b290_9f48,
            "campaign-block wire form changed"
        );
        let mut d = Decoder::new(&raw, "test");
        let back = decode_block(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn unit_codec_roundtrips() {
        let mut s = scanner(1 << 13);
        let campaign = Campaign::new(1 << 13);
        let profile = &SAMPLE_BLOCKS[2];
        let unit = SplitUnit {
            offset: 3,
            stride: 2,
            cap: 1 << 11,
        };
        let mut raw = campaign.unit_main(&mut s, profile, unit, None);
        campaign.unit_mop_up(&mut s, profile, &mut raw);
        assert!(!raw.records.is_empty(), "need records to exercise codec");
        let mut e = Encoder::new();
        encode_unit_raw(&mut e, &raw);
        let bytes = e.finish();
        // The campaign-unit journal payload, pinned: a change to it is a
        // change to the campaign journal's format.
        assert_eq!(
            Fingerprint::new().push_bytes(&bytes).finish(),
            0x7c7f_98b8_8b9e_11d0,
            "campaign-unit wire form changed"
        );
        let mut d = Decoder::new(&bytes, "test");
        let back = decode_unit_raw(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(back, raw);
    }

    /// The tentpole merge invariant at the campaign layer: a block split
    /// into sub-shard units at an arbitrary cursor, assembled from the
    /// units' raw outputs, is byte-identical (CSV and stats) to the
    /// unsplit sequential run.
    #[test]
    fn split_units_assemble_to_sequential_block() {
        let cap = 1 << 13;
        let campaign = Campaign::new(cap);
        let profile = &SAMPLE_BLOCKS[2];
        let baseline = campaign.run_block(&mut scanner(cap), profile);

        for (consumed, parts) in [(0u64, 2u64), (1000, 3), (cap - 1, 2)] {
            let whole = SplitUnit::whole(cap);
            let (settled, tail) = whole.split_tail(consumed, parts);
            let mut units = Vec::new();
            let mut s = scanner(cap);
            if settled.cap > 0 {
                let mut raw = campaign.unit_main(&mut s, profile, settled, None);
                campaign.unit_mop_up(&mut s, profile, &mut raw);
                units.push(raw);
            }
            for part in tail {
                let mut raw = campaign.unit_main(&mut s, profile, part, None);
                campaign.unit_mop_up(&mut s, profile, &mut raw);
                units.push(raw);
            }
            let merged = campaign.assemble(profile, units, s.tracer());
            assert_eq!(
                merged, baseline,
                "split at {consumed} into {parts} diverged from sequential"
            );
        }
    }

    /// The caps that take effect are the identity: an out-of-range index
    /// and the second pair of a duplicate index change neither what is
    /// scanned nor what a checkpoint resumes.
    #[test]
    fn block_caps_are_normalised_to_the_caps_that_take_effect() {
        let (cfg, world) = (ScanConfig::default(), WorldConfig::default());
        let plain = Campaign::new(1 << 12).with_block_targets(vec![(3, 100)]);
        let noisy = Campaign::new(1 << 12).with_block_targets(vec![
            (SAMPLE_BLOCKS.len(), 7),
            (3, 100),
            (99, 5),
            (3, 200),
        ]);
        assert_eq!(noisy.block_caps, [(3, 100)]);
        assert_eq!(noisy.identity(&cfg, &world), plain.identity(&cfg, &world));
        for profile in SAMPLE_BLOCKS.iter() {
            assert_eq!(noisy.block_cap(profile), plain.block_cap(profile));
        }
        assert_eq!(noisy.block_cap(&SAMPLE_BLOCKS[3]), 100);
        // Pairs given out of order are sorted by index, first pair kept.
        let shuffled = Campaign::new(1 << 12).with_block_targets(vec![(5, 1), (2, 9), (5, 3)]);
        assert_eq!(shuffled.block_caps, [(2, 9), (5, 1)]);
    }

    /// A network that logs the (quoted destination, source) pair of
    /// every reply it delivers.
    struct Logged {
        inner: World,
        pairs: FxHashSet<(Ip6, Ip6)>,
    }

    impl Logged {
        fn log(&mut self, replies: &[xmap_netsim::packet::Ipv6Packet]) {
            use xmap_netsim::packet::{Icmpv6, Payload};
            for r in replies {
                let quoted = match &r.payload {
                    Payload::Icmp(Icmpv6::DestUnreachable { invoking, .. })
                    | Payload::Icmp(Icmpv6::TimeExceeded { invoking }) => invoking.dst,
                    _ => r.src,
                };
                self.pairs.insert((quoted, r.src));
            }
        }
    }

    impl Network for Logged {
        fn handle_into(
            &mut self,
            p: xmap_netsim::packet::Ipv6Packet,
            out: &mut Vec<xmap_netsim::packet::Ipv6Packet>,
        ) {
            let from = out.len();
            self.inner.handle_into(p, out);
            self.log(&out[from..]);
        }

        fn tick_into(&mut self, ticks: u64, out: &mut Vec<xmap_netsim::packet::Ipv6Packet>) {
            let from = out.len();
            self.inner.tick_into(ticks, out);
            self.log(&out[from..]);
        }

        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }

        fn restore_clock(&mut self, tick: u64) {
            self.inner.restore_clock(tick);
        }
    }

    /// `fault_recovery`'s mop-up world: every CPE's ICMPv6 error bucket
    /// starts empty and refills within the mop-up delay; replies are
    /// held up to `jitter` ticks.
    fn depleted_world(jitter: u64) -> World {
        let plan = xmap_netsim::FaultPlan::none()
            .seeded(0xD0_D0)
            .with_jitter(jitter)
            .with_icmp_limit(xmap_netsim::IcmpRateLimit::TokenBucket {
                capacity: 4,
                refill_interval: 1024,
                start_depleted_frac: 1.0,
            });
        World::with_config(WorldConfig::lossless(7100, 30).with_fault(plan))
    }

    /// Under jitter, replies to earlier mop-up probes arrive while later
    /// ones are sent; each answer must still be filed under the probe it
    /// quotes, at its target's mop-up destination.
    #[test]
    fn jittered_mop_up_files_each_answer_under_its_probe() {
        let slice = 1 << 14;
        let campaign = Campaign::new(slice).with_mop_up(2048);
        let profile = &SAMPLE_BLOCKS[2];
        for jitter in [5, 12] {
            let network = Logged {
                inner: depleted_world(jitter),
                pairs: FxHashSet::default(),
            };
            let config = ScanConfig {
                max_targets: Some(slice),
                seed: 5,
                ..Default::default()
            };
            let mut s = Scanner::new(network, config);
            let mut raw = campaign.unit_main(&mut s, profile, SplitUnit::whole(slice), None);
            campaign.unit_mop_up(&mut s, profile, &mut raw);
            assert!(
                raw.mopup.len() > 20,
                "jitter {jitter}: {} answers",
                raw.mopup.len()
            );
            let pairs = &s.network_mut().pairs;
            for a in &raw.mopup {
                assert_eq!(a.probe_dst, xmap::fill_host_bits(a.target, 5 ^ MOP_UP_SALT));
                assert!(
                    pairs.contains(&(a.probe_dst, a.responder)),
                    "jitter {jitter}: no reply to {} came from {}",
                    a.probe_dst,
                    a.responder
                );
            }
        }
    }

    /// A mop-up destination the blocklist denies is counted in
    /// `scan.blocked`, like a blocked destination of the main pass.
    #[test]
    fn blocked_mop_up_destinations_are_counted() {
        let slice = 1 << 12;
        let profile = &SAMPLE_BLOCKS[2];
        let run = |campaign: &Campaign| {
            let mut s = Scanner::new(
                depleted_world(0),
                ScanConfig {
                    max_targets: Some(slice),
                    seed: 5,
                    ..Default::default()
                },
            );
            campaign.run_block(&mut s, profile).stats.blocked
        };
        let plain = Campaign::new(slice).with_mop_up(2048);
        let mut s = Scanner::new(
            depleted_world(0),
            ScanConfig {
                max_targets: Some(slice),
                seed: 5,
                ..Default::default()
            },
        );
        let raw = plain.unit_main(&mut s, profile, SplitUnit::whole(slice), None);
        let (_, silent) = raw.silent[0];
        let dst = xmap::fill_host_bits(silent, 5 ^ MOP_UP_SALT);
        let mut blocklist = Blocklist::with_standard_reserved();
        blocklist.insert(Prefix::new(dst, 128), xmap::Verdict::Deny);
        let blocking = Campaign::new(slice)
            .with_mop_up(2048)
            .with_blocklist(blocklist);
        assert_eq!(run(&blocking), run(&plain) + 1);
    }

    /// Under a rate every probe adds its share of the pacing budget,
    /// the mop-up's probes included.
    #[test]
    fn paced_mop_up_counts_its_probes() {
        let slice = 1 << 12;
        let stats = |campaign: Campaign| {
            let config = ScanConfig {
                max_targets: Some(slice),
                seed: 5,
                rate_pps: Some(1_000),
                ..Default::default()
            };
            let mut s = Scanner::new(depleted_world(0), config);
            campaign.run_block(&mut s, &SAMPLE_BLOCKS[2]).stats
        };
        let main = stats(Campaign::new(slice));
        let both = stats(Campaign::new(slice).with_mop_up(2048));
        assert!(both.sent > main.sent, "{both:?}");
        for s in [main, both] {
            assert!(
                (s.paced_secs - s.sent as f64 / 1_000.0).abs() < 1e-9,
                "{s:?}"
            );
        }
    }

    #[test]
    fn histogram_randomized_dominates() {
        let mut s = scanner(1 << 14);
        let result = Campaign::new(1 << 14).run(&mut s);
        let h = result.iid_histogram();
        assert!(h.total() > 100);
        // Table III: randomized is the most common class (75.5%).
        assert!(h.percent(IidClass::Randomized) > 50.0);
    }
}
