//! Typed scan jobs and their decomposition into schedulable units.
//!
//! Modeled on prefix-crab's probe-type queue: the daemon does not take
//! opaque closures, it takes a closed enum of the scan shapes this
//! workspace knows how to run. That buys three things — the ledger can
//! persist a job losslessly, a restarted daemon can re-instantiate it
//! without help, and the scheduler can cost its units up front.
//!
//! Every unit runs on a **fresh** scanner over a fresh seeded world
//! replica (as a parallel campaign worker rebuilds its scanner after a
//! panic, a re-run proven byte-identical to sequential execution), so
//! a unit's output is a pure function of `(spec, unit index)`. The
//! daemon's crash-resume and cross-worker-count determinism both reduce
//! to this property.

use std::fmt::Write as _;

use xmap::{ScanConfig, Scanner};
use xmap_addr::{IidClass, Ip6, Mac};
use xmap_appscan::{grab_with, GrabOutcome};
use xmap_loopscan::survey::LoopPeriphery;
use xmap_loopscan::{DepthSurvey, DepthSurveyResult};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::services::ServiceKind;
use xmap_netsim::World;
use xmap_periphery::{
    decode_block, encode_block, AdaptiveCampaign as PeripheryAdaptive, AdaptiveConfig, BlockResult,
    Campaign, CampaignResult,
};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::StateError;
use xmap_telemetry::{Snapshot, Telemetry};

/// A typed scan job: what a tenant submits to the daemon.
///
/// Each variant carries its own `seed` (scanner permutation / cookies)
/// and `world_seed` (netsim replica), so two tenants' jobs never share
/// entropy and a replayed job reproduces its original output exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A periphery-discovery campaign over the fifteen sample blocks
    /// (paper Table II); one unit per block.
    PeripheryCampaign {
        /// Probes per block (slice of the sub-prefix space).
        targets_per_block: u64,
        /// Scanner seed.
        seed: u64,
        /// Netsim world seed.
        world_seed: u64,
        /// Mop-up pass delay in virtual ticks, if enabled.
        mop_up_ticks: Option<u64>,
        /// Per-block overrides of `targets_per_block` (block index →
        /// probes), for skewed campaigns. Part of the job identity: the
        /// override map changes unit outputs and unit costs.
        block_targets: Vec<(usize, u64)>,
    },
    /// A routing-loop depth survey over the sample blocks (paper
    /// Table XI); one unit per block.
    LoopscanSurvey {
        /// Probes per block.
        probes_per_block: u64,
        /// Scanner seed.
        seed: u64,
        /// Netsim world seed.
        world_seed: u64,
    },
    /// Application-layer service grabs (paper Table VI) against an
    /// explicit target list; one unit per address, each grabbing all
    /// eight known services.
    AppscanGrab {
        /// Target addresses, one unit each.
        targets: Vec<Ip6>,
        /// Scanner seed.
        seed: u64,
        /// Netsim world seed.
        world_seed: u64,
    },
    /// A density-guided adaptive periphery campaign (prefix-tree
    /// split/prune); one unit per sample block, each running the full
    /// adaptive loop within its probe budget.
    AdaptiveCampaign {
        /// Probe budget per block.
        probe_budget: u64,
        /// Restrict each block to its first `2^root_bits` sub-prefixes.
        root_bits: Option<u8>,
        /// Scanner seed.
        seed: u64,
        /// Netsim world seed.
        world_seed: u64,
    },
}

impl JobSpec {
    /// Stable kind label used in the control protocol and status output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            JobSpec::PeripheryCampaign { .. } => "periphery-campaign",
            JobSpec::LoopscanSurvey { .. } => "loopscan-survey",
            JobSpec::AppscanGrab { .. } => "appscan-grab",
            JobSpec::AdaptiveCampaign { .. } => "adaptive-campaign",
        }
    }

    /// Number of independent units this job decomposes into.
    pub fn units(&self) -> usize {
        match self {
            JobSpec::PeripheryCampaign { .. }
            | JobSpec::LoopscanSurvey { .. }
            | JobSpec::AdaptiveCampaign { .. } => SAMPLE_BLOCKS.len(),
            JobSpec::AppscanGrab { targets, .. } => targets.len(),
        }
    }

    /// Scheduling cost of one unit, in probes. The DRR dispatcher
    /// charges this against the job's deficit, so tenant budgets are
    /// denominated in probe volume, not unit count.
    pub fn unit_cost(&self, unit: usize) -> u64 {
        match self {
            JobSpec::PeripheryCampaign {
                targets_per_block,
                block_targets,
                ..
            } => block_targets
                .iter()
                .find(|(idx, _)| *idx == unit)
                .map(|(_, n)| *n)
                .unwrap_or(*targets_per_block)
                .max(1),
            JobSpec::LoopscanSurvey {
                probes_per_block, ..
            } => (*probes_per_block).max(1),
            // Eight service grabs, a handful of packets each.
            JobSpec::AppscanGrab { .. } => ServiceKind::ALL.len() as u64,
            // The budget is the worst case; adaptive blocks usually
            // stop well short of it, so the charge is conservative.
            JobSpec::AdaptiveCampaign { probe_budget, .. } => (*probe_budget).max(1),
        }
    }

    /// The scanner seed.
    pub fn seed(&self) -> u64 {
        match self {
            JobSpec::PeripheryCampaign { seed, .. }
            | JobSpec::LoopscanSurvey { seed, .. }
            | JobSpec::AppscanGrab { seed, .. }
            | JobSpec::AdaptiveCampaign { seed, .. } => *seed,
        }
    }

    /// The netsim world seed.
    pub fn world_seed(&self) -> u64 {
        match self {
            JobSpec::PeripheryCampaign { world_seed, .. }
            | JobSpec::LoopscanSurvey { world_seed, .. }
            | JobSpec::AppscanGrab { world_seed, .. }
            | JobSpec::AdaptiveCampaign { world_seed, .. } => *world_seed,
        }
    }

    /// Serialises the spec into `e` (tag byte + fields).
    pub fn encode(&self, e: &mut Encoder) {
        match self {
            JobSpec::PeripheryCampaign {
                targets_per_block,
                seed,
                world_seed,
                mop_up_ticks,
                block_targets,
            } => {
                e.u8(1);
                e.u64(*targets_per_block);
                e.u64(*seed);
                e.u64(*world_seed);
                e.opt_u64(*mop_up_ticks);
                e.seq(block_targets.len());
                for (idx, n) in block_targets {
                    e.u64(*idx as u64);
                    e.u64(*n);
                }
            }
            JobSpec::LoopscanSurvey {
                probes_per_block,
                seed,
                world_seed,
            } => {
                e.u8(2);
                e.u64(*probes_per_block);
                e.u64(*seed);
                e.u64(*world_seed);
            }
            JobSpec::AppscanGrab {
                targets,
                seed,
                world_seed,
            } => {
                e.u8(3);
                e.seq(targets.len());
                for t in targets {
                    e.u128(t.bits());
                }
                e.u64(*seed);
                e.u64(*world_seed);
            }
            JobSpec::AdaptiveCampaign {
                probe_budget,
                root_bits,
                seed,
                world_seed,
            } => {
                e.u8(4);
                e.u64(*probe_budget);
                e.opt_u64(root_bits.map(u64::from));
                e.u64(*seed);
                e.u64(*world_seed);
            }
        }
    }

    /// Inverse of [`JobSpec::encode`].
    pub fn decode(d: &mut Decoder) -> Result<JobSpec, StateError> {
        match d.u8()? {
            1 => {
                let targets_per_block = d.u64()?;
                let seed = d.u64()?;
                let world_seed = d.u64()?;
                let mop_up_ticks = d.opt_u64()?;
                let n = d.seq()?;
                let mut block_targets = Vec::with_capacity(n);
                for _ in 0..n {
                    let idx = d.u64()?;
                    let idx = usize::try_from(idx).map_err(|_| {
                        StateError::Corrupt(format!("job spec: block index {idx} exceeds usize"))
                    })?;
                    block_targets.push((idx, d.u64()?));
                }
                Ok(JobSpec::PeripheryCampaign {
                    targets_per_block,
                    seed,
                    world_seed,
                    mop_up_ticks,
                    block_targets,
                })
            }
            2 => Ok(JobSpec::LoopscanSurvey {
                probes_per_block: d.u64()?,
                seed: d.u64()?,
                world_seed: d.u64()?,
            }),
            3 => {
                let n = d.seq()?;
                let mut targets = Vec::with_capacity(n);
                for _ in 0..n {
                    targets.push(Ip6::from(d.u128()?));
                }
                Ok(JobSpec::AppscanGrab {
                    targets,
                    seed: d.u64()?,
                    world_seed: d.u64()?,
                })
            }
            4 => {
                let probe_budget = d.u64()?;
                let root_bits = match d.opt_u64()? {
                    Some(b) => Some(u8::try_from(b).map_err(|_| {
                        StateError::Corrupt(format!("job spec: root_bits {b} exceeds u8"))
                    })?),
                    None => None,
                };
                Ok(JobSpec::AdaptiveCampaign {
                    probe_budget,
                    root_bits,
                    seed: d.u64()?,
                    world_seed: d.u64()?,
                })
            }
            tag => Err(StateError::Corrupt(format!(
                "job spec: unknown kind tag {tag}"
            ))),
        }
    }

    /// Whether `out` is the kind of output this job's units produce.
    pub fn produces(&self, out: &UnitOutput) -> bool {
        matches!(
            (self, out),
            (
                JobSpec::PeripheryCampaign { .. } | JobSpec::AdaptiveCampaign { .. },
                UnitOutput::Campaign(_)
            ) | (JobSpec::LoopscanSurvey { .. }, UnitOutput::Loopscan { .. })
                | (JobSpec::AppscanGrab { .. }, UnitOutput::Appscan { .. })
        )
    }

    /// Runs one unit to completion on a fresh scanner + world replica,
    /// returning the unit's output and its telemetry delta (the whole
    /// registry of the fresh scanner).
    ///
    /// # Panics
    ///
    /// Panics if `unit >= self.units()`.
    pub fn run_unit(&self, unit: usize) -> (UnitOutput, Snapshot) {
        assert!(unit < self.units(), "unit {unit} out of range");
        if let JobSpec::AdaptiveCampaign {
            probe_budget,
            root_bits,
            seed,
            world_seed,
        } = self
        {
            // The adaptive engine owns its replicas and telemetry: it
            // spawns a fresh world per round unit, so the daemon hands
            // it the whole block instead of a shared scanner.
            let adaptive = PeripheryAdaptive::new(AdaptiveConfig {
                probe_budget: *probe_budget,
                root_bits: *root_bits,
                ..AdaptiveConfig::default()
            });
            let base = ScanConfig {
                seed: *seed,
                ..Default::default()
            };
            let ws = *world_seed;
            let (block, snapshot) = adaptive.run_single_block(unit, &base, |telemetry| {
                let mut world = World::new(ws);
                world.set_telemetry(telemetry);
                world
            });
            return (UnitOutput::Campaign(block), snapshot);
        }
        let telemetry = Telemetry::new();
        let mut world = World::new(self.world_seed());
        world.set_telemetry(&telemetry);
        let config = ScanConfig {
            seed: self.seed(),
            ..Default::default()
        };
        let mut scanner = Scanner::with_telemetry(world, config, telemetry.clone());
        let out = match self {
            JobSpec::PeripheryCampaign {
                targets_per_block,
                mop_up_ticks,
                block_targets,
                ..
            } => {
                let mut campaign = Campaign::new(*targets_per_block);
                if !block_targets.is_empty() {
                    campaign = campaign.with_block_targets(block_targets.clone());
                }
                if let Some(ticks) = mop_up_ticks {
                    campaign = campaign.with_mop_up(*ticks);
                }
                UnitOutput::Campaign(campaign.run_block(&mut scanner, &SAMPLE_BLOCKS[unit]))
            }
            JobSpec::LoopscanSurvey {
                probes_per_block, ..
            } => {
                let survey = DepthSurvey::new(*probes_per_block);
                let mut result = DepthSurveyResult::default();
                survey.run_block(&mut scanner, &SAMPLE_BLOCKS[unit], &mut result);
                let profile_id = SAMPLE_BLOCKS[unit].id;
                UnitOutput::Loopscan {
                    profile_id,
                    probed: result
                        .probed_per_block
                        .get(&profile_id)
                        .copied()
                        .unwrap_or(0),
                    peripheries: result.peripheries,
                }
            }
            JobSpec::AppscanGrab { targets, .. } => {
                let addr = targets[unit];
                let mut outcomes = [0u8; 8];
                let mut scratch = Vec::new();
                for (i, kind) in ServiceKind::ALL.iter().enumerate() {
                    outcomes[i] = outcome_code(&grab_with(&mut scanner, addr, *kind, &mut scratch));
                }
                UnitOutput::Appscan { addr, outcomes }
            }
            JobSpec::AdaptiveCampaign { .. } => unreachable!("handled above"),
        };
        (out, telemetry.registry.snapshot())
    }

    /// Renders the job's final `result.csv` from its unit outputs, which
    /// must be in unit order and complete. Campaign jobs render through
    /// [`CampaignResult::to_csv`], so a daemon-run campaign is
    /// byte-comparable with `xmap-campaign` output for the same spec.
    ///
    /// # Panics
    ///
    /// Panics if an output's variant does not match the spec (ledger
    /// replay refuses such an output, so that indicates a bug).
    pub fn render_csv(&self, outputs: &[UnitOutput]) -> String {
        match self {
            JobSpec::PeripheryCampaign { .. } | JobSpec::AdaptiveCampaign { .. } => {
                let blocks: Vec<BlockResult> = outputs
                    .iter()
                    .map(|o| match o {
                        UnitOutput::Campaign(b) => b.clone(),
                        other => panic!("campaign job holds {} unit", other.kind_name()),
                    })
                    .collect();
                CampaignResult { blocks }.to_csv()
            }
            JobSpec::LoopscanSurvey { .. } => {
                let mut out = String::from("profile_id,address,asn,same64,iid_class,mac\n");
                for o in outputs {
                    let UnitOutput::Loopscan { peripheries, .. } = o else {
                        panic!("loopscan job holds {} unit", o.kind_name());
                    };
                    for p in peripheries {
                        let _ = writeln!(
                            out,
                            "{},{},{},{},{},{}",
                            p.profile_id,
                            p.address,
                            p.asn,
                            p.same64,
                            p.iid_class,
                            p.mac.map(|m| m.to_string()).unwrap_or_default(),
                        );
                    }
                }
                out
            }
            JobSpec::AppscanGrab { .. } => {
                let mut out = String::from("address,service,outcome\n");
                for o in outputs {
                    let UnitOutput::Appscan { addr, outcomes } = o else {
                        panic!("appscan job holds {} unit", o.kind_name());
                    };
                    for (i, kind) in ServiceKind::ALL.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "{},{},{}",
                            addr,
                            kind.short_name().to_ascii_lowercase(),
                            outcome_label(outcomes[i]),
                        );
                    }
                }
                out
            }
        }
    }
}

/// The committed result of one finished unit.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitOutput {
    /// One campaign block (paper Table II row).
    Campaign(BlockResult),
    /// One depth-survey block (paper Table XI row).
    Loopscan {
        /// Block id the unit surveyed.
        profile_id: u8,
        /// Probes actually sent in the block.
        probed: u64,
        /// Vulnerable peripheries found in the block.
        peripheries: Vec<LoopPeriphery>,
    },
    /// One target address's eight service grabs.
    Appscan {
        /// The probed address.
        addr: Ip6,
        /// Per-service outcome codes in [`ServiceKind::ALL`] order (see
        /// [`outcome_code`]).
        outcomes: [u8; 8],
    },
}

impl UnitOutput {
    /// Stable kind label (matches [`JobSpec::kind_name`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            UnitOutput::Campaign(_) => "periphery-campaign",
            UnitOutput::Loopscan { .. } => "loopscan-survey",
            UnitOutput::Appscan { .. } => "appscan-grab",
        }
    }

    /// Serialises the output into `e` (tag byte + payload).
    pub fn encode(&self, e: &mut Encoder) {
        match self {
            UnitOutput::Campaign(block) => {
                e.u8(1);
                encode_block(e, block);
            }
            UnitOutput::Loopscan {
                profile_id,
                probed,
                peripheries,
            } => {
                e.u8(2);
                e.u8(*profile_id);
                e.u64(*probed);
                e.seq(peripheries.len());
                for p in peripheries {
                    e.u128(p.address.bits());
                    e.u8(p.profile_id);
                    e.u32(p.asn);
                    e.bool(p.same64);
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
                }
            }
            UnitOutput::Appscan { addr, outcomes } => {
                e.u8(3);
                e.u128(addr.bits());
                e.bytes(outcomes);
            }
        }
    }

    /// Inverse of [`UnitOutput::encode`].
    pub fn decode(d: &mut Decoder) -> Result<UnitOutput, StateError> {
        match d.u8()? {
            1 => Ok(UnitOutput::Campaign(decode_block(d)?)),
            2 => {
                let profile_id = d.u8()?;
                let probed = d.u64()?;
                let n = d.seq()?;
                let mut peripheries = Vec::with_capacity(n);
                for _ in 0..n {
                    let address = Ip6::from(d.u128()?);
                    let profile_id = d.u8()?;
                    let asn = d.u32()?;
                    let same64 = d.bool()?;
                    let class_idx = d.u8()? as usize;
                    let iid_class = *IidClass::ALL.get(class_idx).ok_or_else(|| {
                        StateError::Corrupt(format!("loopscan unit: unknown IID class {class_idx}"))
                    })?;
                    let mac = if d.bool()? {
                        let octets = d.bytes()?;
                        let octets: [u8; 6] = octets.as_slice().try_into().map_err(|_| {
                            StateError::Corrupt(format!(
                                "loopscan unit: MAC must be 6 octets, found {}",
                                octets.len()
                            ))
                        })?;
                        Some(Mac::new(octets))
                    } else {
                        None
                    };
                    peripheries.push(LoopPeriphery {
                        address,
                        profile_id,
                        asn,
                        same64,
                        iid_class,
                        mac,
                    });
                }
                Ok(UnitOutput::Loopscan {
                    profile_id,
                    probed,
                    peripheries,
                })
            }
            3 => {
                let addr = Ip6::from(d.u128()?);
                let raw = d.bytes()?;
                let outcomes: [u8; 8] = raw.as_slice().try_into().map_err(|_| {
                    StateError::Corrupt(format!(
                        "appscan unit: expected 8 outcome codes, found {}",
                        raw.len()
                    ))
                })?;
                if let Some(bad) = outcomes.iter().find(|c| **c > 3) {
                    return Err(StateError::Corrupt(format!(
                        "appscan unit: unknown outcome code {bad}"
                    )));
                }
                Ok(UnitOutput::Appscan { addr, outcomes })
            }
            tag => Err(StateError::Corrupt(format!(
                "unit output: unknown kind tag {tag}"
            ))),
        }
    }
}

/// Compact code for one [`GrabOutcome`]: 0 silent, 1 closed, 2 protocol
/// mismatch, 3 open.
pub fn outcome_code(out: &GrabOutcome) -> u8 {
    match out {
        GrabOutcome::Silent => 0,
        GrabOutcome::Closed => 1,
        GrabOutcome::Protocol => 2,
        GrabOutcome::Open(_) => 3,
    }
}

/// CSV label for an [`outcome_code`] value.
pub fn outcome_label(code: u8) -> &'static str {
    match code {
        0 => "silent",
        1 => "closed",
        2 => "protocol",
        _ => "open",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_spec(spec: &JobSpec) {
        let mut e = Encoder::new();
        spec.encode(&mut e);
        let raw = e.finish();
        let mut d = Decoder::new(&raw, "job spec");
        let back = JobSpec::decode(&mut d).expect("decode");
        d.expect_end().expect("trailing bytes");
        assert_eq!(*spec, back);
    }

    #[test]
    fn spec_roundtrips() {
        roundtrip_spec(&JobSpec::PeripheryCampaign {
            targets_per_block: 4096,
            seed: 7,
            world_seed: 99,
            mop_up_ticks: Some(2048),
            block_targets: Vec::new(),
        });
        roundtrip_spec(&JobSpec::PeripheryCampaign {
            targets_per_block: 4096,
            seed: 7,
            world_seed: 99,
            mop_up_ticks: None,
            block_targets: vec![(2, 1 << 16), (0, 64)],
        });
        roundtrip_spec(&JobSpec::LoopscanSurvey {
            probes_per_block: 512,
            seed: 3,
            world_seed: 11,
        });
        roundtrip_spec(&JobSpec::AppscanGrab {
            targets: vec![Ip6::from(1u128), Ip6::from(0xdead_beefu128)],
            seed: 1,
            world_seed: 2,
        });
        roundtrip_spec(&JobSpec::AdaptiveCampaign {
            probe_budget: 2048,
            root_bits: Some(12),
            seed: 9,
            world_seed: 21,
        });
        roundtrip_spec(&JobSpec::AdaptiveCampaign {
            probe_budget: 1 << 16,
            root_bits: None,
            seed: 0,
            world_seed: 0,
        });
    }

    #[test]
    fn adaptive_units_are_pure_and_render_campaign_csv() {
        let spec = JobSpec::AdaptiveCampaign {
            probe_budget: 1 << 10,
            root_bits: Some(12),
            seed: 42,
            world_seed: 9,
        };
        assert_eq!(spec.units(), SAMPLE_BLOCKS.len());
        assert_eq!(spec.unit_cost(0), 1 << 10);
        let (a, da) = spec.run_unit(3);
        let (b, db) = spec.run_unit(3);
        assert_eq!(a, b);
        assert_eq!(da, db);
        let UnitOutput::Campaign(block) = &a else {
            panic!("adaptive unit must produce a campaign block");
        };
        assert!(block.probed <= 1 << 10, "budget respected");
        let csv = spec.render_csv(std::slice::from_ref(&a));
        assert!(csv.starts_with("profile_id,address,target"), "{csv}");
    }

    #[test]
    fn unit_outputs_roundtrip() {
        let spec = JobSpec::LoopscanSurvey {
            probes_per_block: 256,
            seed: 5,
            world_seed: 17,
        };
        let (out, delta) = spec.run_unit(0);
        let mut e = Encoder::new();
        out.encode(&mut e);
        let raw = e.finish();
        let mut d = Decoder::new(&raw, "unit output");
        let back = UnitOutput::decode(&mut d).expect("decode");
        d.expect_end().expect("trailing bytes");
        assert_eq!(out, back);
        assert!(delta.counter(xmap::telemetry::names::SENT) > 0);
    }

    #[test]
    fn units_are_pure_functions_of_spec_and_index() {
        let spec = JobSpec::PeripheryCampaign {
            targets_per_block: 1 << 10,
            seed: 42,
            world_seed: 9,
            mop_up_ticks: None,
            block_targets: Vec::new(),
        };
        let (a, da) = spec.run_unit(3);
        let (b, db) = spec.run_unit(3);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    /// A per-block override skews exactly its own unit: the overridden
    /// block runs (and is costed) at the override, and every other unit
    /// is untouched.
    #[test]
    fn block_target_overrides_are_per_unit() {
        let plain = JobSpec::PeripheryCampaign {
            targets_per_block: 1 << 10,
            seed: 42,
            world_seed: 9,
            mop_up_ticks: None,
            block_targets: Vec::new(),
        };
        let skewed = JobSpec::PeripheryCampaign {
            targets_per_block: 1 << 10,
            seed: 42,
            world_seed: 9,
            mop_up_ticks: None,
            block_targets: vec![(3, 1 << 11)],
        };
        assert_eq!(skewed.unit_cost(3), 1 << 11);
        assert_eq!(skewed.unit_cost(2), 1 << 10);
        assert_eq!(plain.run_unit(2), skewed.run_unit(2));
        let bigger = JobSpec::PeripheryCampaign {
            targets_per_block: 1 << 11,
            seed: 42,
            world_seed: 9,
            mop_up_ticks: None,
            block_targets: Vec::new(),
        };
        assert_eq!(
            skewed.run_unit(3),
            bigger.run_unit(3),
            "overridden block must run exactly as if targets_per_block were the override"
        );
    }

    #[test]
    fn appscan_units_and_csv() {
        let spec = JobSpec::AppscanGrab {
            targets: vec![Ip6::from(0x2001_0db8_u128 << 96 | 1)],
            seed: 7,
            world_seed: 7,
        };
        assert_eq!(spec.units(), 1);
        let (out, _) = spec.run_unit(0);
        let csv = spec.render_csv(std::slice::from_ref(&out));
        assert!(csv.starts_with("address,service,outcome\n"));
        // One line per service plus the header.
        assert_eq!(csv.lines().count(), 1 + ServiceKind::ALL.len());
    }
}
