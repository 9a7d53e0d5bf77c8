//! A resumed campaign is the run its journal states, or it is refused.
//!
//! Entry 0 of `campaign.ckpt` and of `adaptive.ckpt` lists the run's
//! identity field by field (`Campaign::identity`,
//! `AdaptiveCampaign::identity`). These tests change every field of each
//! list, one at a time, against a killed journal: each resume is refused
//! with `StateError::Mismatch` naming exactly that field, and the journal
//! is left byte for byte as the kill left it. Changing only the worker
//! count resumes to the uninterrupted run. A journal an older build wrote
//! (entry 0 of format 1) is refused with `StateError::Version`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::{Blocklist, Permutation, ScanConfig, Verdict};
use xmap_netsim::fault::FaultPlan;
use xmap_netsim::world::{Allocation, World, WorldConfig};
use xmap_netsim::KillPoint;
use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig, Campaign, ParallelCampaign};
use xmap_state::checkpoint::{Identity, Kind};
use xmap_state::{AbortSignal, StateError, Wal};
use xmap_telemetry::{Snapshot, Telemetry};

fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "xmap-resume-identity-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The snapshot without its `exec.*` counters, which describe the
/// schedule, not the scan.
fn strip_exec(mut snap: Snapshot) -> Snapshot {
    snap.counters.retain(|name, _| !name.starts_with("exec."));
    snap
}

/// Asserts `err` refuses the resume for `field` alone.
fn assert_names(err: StateError, field: &str) {
    match err {
        StateError::Mismatch(why) => assert!(
            why.starts_with(&format!("{field}: checkpoint has ")) && !why.contains("; "),
            "{field}: {why}"
        ),
        other => panic!("{field}: expected a mismatch, got {other:?}"),
    }
}

fn other_blocklist() -> Blocklist {
    let mut blocklist = Blocklist::with_standard_reserved();
    blocklist.insert("2409:8000::/32".parse().unwrap(), Verdict::Deny);
    blocklist
}

/// A change to one identity field of a run `R`, by the field's name.
type Change<R> = (&'static str, Box<dyn Fn(&mut R)>);

/// One change to each field both lists share, the scan's and the
/// world's (reached through `parts`), then `own`.
fn changes<R: 'static>(
    parts: fn(&mut R) -> (&mut ScanConfig, &mut WorldConfig),
    own: Vec<Change<R>>,
) -> Vec<Change<R>> {
    type Shared = fn(&mut ScanConfig, &mut WorldConfig);
    let shared: [(&str, Shared); 8] = [
        ("seed", |s, _| s.seed += 1),
        ("source", |s, _| s.source = "fd00::2".parse().unwrap()),
        ("hop_limit", |s, _| s.hop_limit = 32),
        ("world_seed", |_, w| w.seed += 1),
        ("bgp_ases", |_, w| w.bgp_ases += 1),
        ("loss_frac", |_, w| w.loss_frac = 0.01),
        ("fault", |_, w| {
            w.fault = FaultPlan::none().with_forward_loss(0.1)
        }),
        ("allocation", |_, w| {
            w.allocation = Allocation::Clustered {
                pod_bits: 6,
                active_frac: 0.5,
            }
        }),
    ];
    let mut all: Vec<Change<R>> = shared
        .into_iter()
        .map(|(name, change)| {
            let change: Box<dyn Fn(&mut R)> = Box::new(move |r| {
                let (scan, world) = parts(r);
                change(scan, world)
            });
            (name, change)
        })
        .collect();
    all.extend(own);
    all
}

/// Asserts `changes` names every field of `id` once.
fn assert_covers<R>(changes: &[Change<R>], id: &Identity) {
    let mut covered: Vec<&str> = changes.iter().map(|(name, _)| *name).collect();
    let mut listed: Vec<&str> = id.names().collect();
    covered.sort_unstable();
    listed.sort_unstable();
    assert_eq!(covered, listed, "every identity field needs a change here");
}

/// One parallel campaign run: what its identity is built from.
#[derive(Clone)]
struct CampaignRun {
    scan: ScanConfig,
    world: WorldConfig,
    campaign: Campaign,
}

impl CampaignRun {
    fn executor(&self, workers: usize) -> ParallelCampaign {
        ParallelCampaign::new(self.campaign.clone(), workers)
    }

    fn networks(&self) -> impl FnMut(usize, &Telemetry) -> World {
        let world = self.world;
        move |_, telemetry| {
            let mut world = World::with_config(world);
            world.set_telemetry(telemetry);
            world
        }
    }
}

#[test]
fn campaign_resume_refuses_every_identity_field_and_keeps_the_journal() {
    let base = CampaignRun {
        scan: ScanConfig {
            seed: 5,
            shards: 2,
            ..Default::default()
        },
        world: WorldConfig::lossless(99, 50),
        campaign: Campaign::new(1 << 10),
    };
    let dir = test_dir("campaign");
    let signal = AbortSignal::new();
    let partial = base
        .executor(2)
        .run_checkpointed(
            &base.scan,
            &base.world,
            &dir,
            false,
            Some(&signal),
            |w, telemetry| {
                let mut world = World::with_config(base.world);
                world.set_telemetry(telemetry);
                if w == 0 {
                    let kill = KillPoint {
                        after_probes: Some(2_000),
                        ..Default::default()
                    };
                    world.arm_kill(kill, signal.clone());
                }
                world
            },
        )
        .unwrap();
    assert!(partial.interrupted, "the kill point must interrupt");
    let journal = dir.join("campaign.ckpt");
    let killed = std::fs::read(&journal).unwrap();

    let changes = changes::<CampaignRun>(
        |r| (&mut r.scan, &mut r.world),
        vec![
            (
                "permutation",
                Box::new(|r| r.scan.permutation = Permutation::Feistel),
            ),
            ("shard", Box::new(|r| r.scan.shard = 1)),
            ("shards", Box::new(|r| r.scan.shards = 3)),
            ("rate_pps", Box::new(|r| r.scan.rate_pps = Some(1_000))),
            (
                "probes_per_target",
                Box::new(|r| r.scan.probes_per_target = 2),
            ),
            ("rto_ticks", Box::new(|r| r.scan.rto_ticks = 16)),
            (
                "targets_per_block",
                Box::new(|r| r.campaign.targets_per_block += 1),
            ),
            (
                "block_caps",
                Box::new(|r| r.campaign = r.campaign.clone().with_block_targets(vec![(0, 100)])),
            ),
            (
                "mop_up",
                Box::new(|r| r.campaign = r.campaign.clone().with_mop_up(2048)),
            ),
            (
                "blocklist",
                Box::new(|r| r.campaign = r.campaign.clone().with_blocklist(other_blocklist())),
            ),
        ],
    );
    assert_covers(&changes, &base.campaign.identity(&base.scan, &base.world));

    for (name, change) in &changes {
        let mut run = base.clone();
        change(&mut run);
        let exec = run.executor(3);
        assert_names(
            exec.resume_plan(&run.scan, &run.world, &dir).unwrap_err(),
            name,
        );
        let resumed =
            exec.run_checkpointed(&run.scan, &run.world, &dir, true, None, run.networks());
        assert_names(resumed.unwrap_err(), name);
        assert_eq!(std::fs::read(&journal).unwrap(), killed, "{name}");
    }

    // Only the worker count changed: the journal resumes.
    let uninterrupted = base.executor(1).run(&base.scan, base.networks());
    let resumed = base
        .executor(3)
        .run_checkpointed(&base.scan, &base.world, &dir, true, None, base.networks())
        .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.result.to_csv(), uninterrupted.result.to_csv());
    assert_eq!(
        strip_exec(resumed.snapshot).to_json(),
        strip_exec(uninterrupted.snapshot).to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One adaptive run: what its identity is built from.
#[derive(Clone)]
struct AdaptiveRun {
    scan: ScanConfig,
    world: WorldConfig,
    engine: AdaptiveCampaign,
}

impl AdaptiveRun {
    fn run(
        &self,
        path: &Path,
        resume: bool,
    ) -> Result<xmap_periphery::AdaptiveOutcome, StateError> {
        let world = self.world;
        self.engine
            .run_checkpointed(&self.scan, &self.world, path, resume, |telemetry| {
                let mut world = World::with_config(world);
                world.set_telemetry(telemetry);
                world
            })
    }
}

#[test]
fn adaptive_resume_refuses_every_identity_field_and_keeps_the_journal() {
    let engine = AdaptiveCampaign::new(AdaptiveConfig {
        probe_budget: 1 << 9,
        root_bits: Some(12),
        ..AdaptiveConfig::default()
    });
    let base = AdaptiveRun {
        scan: ScanConfig {
            seed: 5,
            ..Default::default()
        },
        world: WorldConfig::lossless(99, 10).with_allocation(Allocation::Clustered {
            pod_bits: 8,
            active_frac: 1.0 / 16.0,
        }),
        engine: engine.clone(),
    };
    let dir = test_dir("adaptive");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adaptive.ckpt");
    let killed_run = AdaptiveRun {
        engine: engine.clone().with_kill_after_probes(2_000),
        ..base.clone()
    };
    assert!(killed_run.run(&path, false).unwrap().interrupted);
    let killed = std::fs::read(&path).unwrap();

    let changes = changes::<AdaptiveRun>(
        |r| (&mut r.scan, &mut r.world),
        vec![
            (
                "probe_budget",
                Box::new(|r| r.engine.config.probe_budget += 1),
            ),
            (
                "root_bits",
                Box::new(|r| r.engine.config.root_bits = Some(13)),
            ),
            (
                "exhaustive",
                Box::new(|r| r.engine.config.exhaustive = true),
            ),
            (
                "blocklist",
                Box::new(|r| r.engine = r.engine.clone().with_blocklist(other_blocklist())),
            ),
            (
                "infer",
                Box::new(|r| r.engine = r.engine.clone().with_inferred_boundary(true)),
            ),
        ],
    );
    assert_covers(&changes, &engine.identity(&base.scan, &base.world));

    for (name, change) in &changes {
        let mut run = base.clone();
        change(&mut run);
        run.engine = run.engine.with_workers(2);
        assert_names(run.run(&path, true).unwrap_err(), name);
        assert_eq!(std::fs::read(&path).unwrap(), killed, "{name}");
    }

    let uninterrupted = engine.run(&base.scan, |telemetry| {
        let mut world = World::with_config(base.world);
        world.set_telemetry(telemetry);
        world
    });
    let workers_only = AdaptiveRun {
        engine: engine.with_workers(3),
        ..base
    };
    let resumed = workers_only.run(&path, true).unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.result.to_csv(), uninterrupted.result.to_csv());
    assert_eq!(
        strip_exec(resumed.snapshot).to_json(),
        strip_exec(uninterrupted.snapshot).to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entry 0 as the build before format 2 wrote it, then one more entry:
/// the shape of a journal that build killed.
fn format_1_journal(path: &Path, first: Kind, fields: &[(&str, u64)], next: Kind) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut wal = Wal::start(path, Some(&first.entry(fields, 0x5eed, &[]))).unwrap();
    let placement = [("block", 0), ("offset", 0), ("stride", 1), ("cap", 64)];
    wal.append(&next.entry(&placement, 0x5eed, &[])).unwrap();
    wal.sync().unwrap();
}

fn assert_version(err: StateError) {
    match err {
        StateError::Version(why) => assert!(why.contains("re-run without --resume"), "{why}"),
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn format_1_journals_are_refused_as_version_errors() {
    let dir = test_dir("format-1");
    let campaign_dir = dir.join("campaign");
    let journal = campaign_dir.join("campaign.ckpt");
    let dir_kind = Kind {
        name: "campaign-dir",
    };
    let claim = Kind {
        name: "campaign-claim",
    };
    format_1_journal(&journal, dir_kind, &[("blocks", 15)], claim);
    let before = std::fs::read(&journal).unwrap();
    let run = CampaignRun {
        scan: ScanConfig::default(),
        world: WorldConfig::lossless(99, 50),
        campaign: Campaign::new(1 << 10),
    };
    let exec = run.executor(1);
    assert_version(
        exec.resume_plan(&run.scan, &run.world, &campaign_dir)
            .unwrap_err(),
    );
    assert_version(
        exec.run_checkpointed(
            &run.scan,
            &run.world,
            &campaign_dir,
            true,
            None,
            run.networks(),
        )
        .unwrap_err(),
    );
    assert_eq!(std::fs::read(&journal).unwrap(), before);

    let path = dir.join("adaptive").join("adaptive.ckpt");
    let campaign_kind = Kind {
        name: "adaptive-campaign",
    };
    let round = Kind {
        name: "adaptive-round",
    };
    format_1_journal(&path, campaign_kind, &[], round);
    let before = std::fs::read(&path).unwrap();
    let run = AdaptiveRun {
        scan: ScanConfig::default(),
        world: WorldConfig::lossless(99, 10),
        engine: AdaptiveCampaign::new(AdaptiveConfig {
            root_bits: Some(12),
            ..AdaptiveConfig::default()
        }),
    };
    assert_version(run.run(&path, true).unwrap_err());
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
