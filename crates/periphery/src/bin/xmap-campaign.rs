//! `xmap-campaign` — command-line front end for the periphery-discovery
//! campaign over the fifteen sample blocks (Table II), with block-level
//! parallelism and block-granular checkpointing.
//!
//! ```text
//! xmap-campaign [options]
//!
//!   --targets-per-block N   probes per sample block (default 65536)
//!   --block-targets I:N     override --targets-per-block for block I
//!                           (repeatable; skews the per-block workload)
//!   --campaign-workers N    worker threads; each claims the lowest
//!                           unstarted block, and results merge
//!                           deterministically, so output is
//!                           byte-identical for any N (default 1); once
//!                           no block is left, an idle worker takes
//!                           over part of an in-flight block that still
//!                           has 2^14 or more targets to go
//!   --mop-up TICKS          enable the second-chance pass over silent
//!                           targets after TICKS of virtual time
//!   -s, --seed N            scan seed (permutation, cookies, IID fill)
//!       --world-seed N      seed of the simulated Internet
//!   -b, --blocklist PREFIX  deny-list an additional IPv6 prefix on top of
//!                           the standard reserved ranges (repeatable)
//!   -o, --output FILE       write discovered peripheries as CSV
//!                           (default: stdout)
//!       --metrics-out FILE  write the merged telemetry snapshot as JSON
//!       --checkpoint DIR    journal the campaign in DIR/campaign.ckpt; a
//!                           killed campaign resumes from committed blocks
//!                           and delivered units (with --adaptive: every
//!                           finished round in DIR/adaptive.ckpt)
//!       --resume            continue the campaign checkpointed in DIR,
//!                           under any --campaign-workers count
//!       --resume-plan       dry run: print the Skip/Resume/Fresh/Split
//!                           classification of every block for a resume
//!                           of the campaign in DIR, then exit
//!       --adaptive          density-guided target generation: drive each
//!                           block with the prefix-tree split/prune engine
//!                           instead of the exhaustive sweep
//!       --probe-budget N    (adaptive) probes per block (default 65536)
//!       --root-bits N       (adaptive) restrict each block to its first
//!                           2^N sub-prefixes (1..=64)
//!       --no-prune          (adaptive) ablation arm: same engine with
//!                           splitting and pruning disabled — a full
//!                           enumeration through the identical pipeline
//!       --infer-boundary    (adaptive) infer each block's sub-prefix
//!                           length (Section IV-A) before building its
//!                           tree; inference probes count against the
//!                           block's budget
//!       --cluster B:D       lay out world devices in pods of 2^B
//!                           sub-prefixes with one pod in D active,
//!                           instead of uniformly
//!   -q, --quiet             suppress the summary on stderr
//!
//! Test hooks:
//!
//!   --force-split-at N      split every block unit after N consumed
//!                           targets, idle workers or not (a
//!                           deterministic split schedule)
//!   --kill-after-probes N   abort once any worker's world has handled
//!                           N probes (exit code 3); with --adaptive,
//!                           stop at the first round boundary after N
//!                           drawn probes instead
//! ```
//!
//! An interrupted checkpointed campaign exits with code 3; rerunning the
//! same command line with `--resume` — with the **same or a different**
//! `--campaign-workers` — continues it, and the final CSV and metrics are
//! byte-identical to an uninterrupted run.

use std::io::Write as _;
use std::process::ExitCode;

use xmap::{Blocklist, ScanConfig, Verdict};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::world::WorldConfig;
use xmap_netsim::{Allocation, KillPoint, World};
use xmap_periphery::{
    AdaptiveCampaign, AdaptiveConfig, BlockMode, Campaign, CampaignOutcome, ParallelCampaign,
};
use xmap_state::{AbortSignal, StateError};

#[derive(Debug, Clone, PartialEq)]
struct CliConfig {
    targets_per_block: u64,
    block_targets: Vec<(usize, u64)>,
    campaign_workers: usize,
    force_split_at: Option<u64>,
    mop_up_ticks: Option<u64>,
    seed: u64,
    world_seed: u64,
    blocked: Vec<String>,
    output: Option<String>,
    metrics_out: Option<String>,
    checkpoint: Option<String>,
    resume: bool,
    resume_plan: bool,
    kill_after_probes: Option<u64>,
    adaptive: bool,
    probe_budget: Option<u64>,
    root_bits: Option<u8>,
    no_prune: bool,
    infer_boundary: bool,
    cluster: Option<(u8, u32)>,
    quiet: bool,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            targets_per_block: 1 << 16,
            block_targets: Vec::new(),
            campaign_workers: 1,
            force_split_at: None,
            mop_up_ticks: None,
            seed: 1,
            world_seed: 0xDA7A_5EED,
            blocked: Vec::new(),
            output: None,
            metrics_out: None,
            checkpoint: None,
            resume: false,
            resume_plan: false,
            kill_after_probes: None,
            adaptive: false,
            probe_budget: None,
            root_bits: None,
            no_prune: false,
            infer_boundary: false,
            cluster: None,
            quiet: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<CliConfig, String> {
    let mut cfg = CliConfig::default();
    let mut iter = args.iter().peekable();
    let value = |iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    let int = |iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
               flag: &str|
     -> Result<u64, String> {
        value(iter, flag)?
            .parse()
            .map_err(|_| format!("{flag} must be an integer"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--targets-per-block" => cfg.targets_per_block = int(&mut iter, arg)?,
            "--block-targets" => {
                let v = value(&mut iter, arg)?;
                let (idx, n) = v
                    .split_once(':')
                    .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
                    .ok_or_else(|| format!("--block-targets must be BLOCK:TARGETS, got {v:?}"))?;
                cfg.block_targets.push((idx, n));
            }
            "--campaign-workers" => {
                cfg.campaign_workers = int(&mut iter, arg)? as usize;
            }
            "--force-split-at" => cfg.force_split_at = Some(int(&mut iter, arg)?),
            "--mop-up" => cfg.mop_up_ticks = Some(int(&mut iter, arg)?),
            "-s" | "--seed" => cfg.seed = int(&mut iter, arg)?,
            "--world-seed" => cfg.world_seed = int(&mut iter, arg)?,
            "-b" | "--blocklist" => cfg.blocked.push(value(&mut iter, arg)?),
            "-o" | "--output" => cfg.output = Some(value(&mut iter, arg)?),
            "--metrics-out" => cfg.metrics_out = Some(value(&mut iter, arg)?),
            "--checkpoint" => cfg.checkpoint = Some(value(&mut iter, arg)?),
            "--resume" => cfg.resume = true,
            "--resume-plan" => cfg.resume_plan = true,
            "--kill-after-probes" => cfg.kill_after_probes = Some(int(&mut iter, arg)?),
            "--adaptive" => cfg.adaptive = true,
            "--probe-budget" => cfg.probe_budget = Some(int(&mut iter, arg)?),
            "--root-bits" => {
                // The bound `xmap-serve`'s adaptive spec enforces: a tree
                // root narrower than 2^64 leaves.
                cfg.root_bits = match int(&mut iter, arg)? {
                    b @ 1..=64 => Some(b as u8),
                    b => return Err(format!("--root-bits {b} out of range 1..=64")),
                };
            }
            "--no-prune" => cfg.no_prune = true,
            "--infer-boundary" => cfg.infer_boundary = true,
            "--cluster" => {
                let v = value(&mut iter, arg)?;
                let (bits, denom) = v
                    .split_once(':')
                    .and_then(|(b, d)| Some((b.parse().ok()?, d.parse().ok()?)))
                    .ok_or_else(|| format!("--cluster must be POD_BITS:DENOM, got {v:?}"))?;
                cfg.cluster = Some((bits, denom));
            }
            "-q" | "--quiet" => cfg.quiet = true,
            "-h" | "--help" => return Err("help".to_owned()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if cfg.targets_per_block == 0 {
        return Err("--targets-per-block must be at least 1".to_owned());
    }
    if cfg.campaign_workers == 0 {
        return Err("--campaign-workers must be at least 1".to_owned());
    }
    if cfg.force_split_at == Some(0) {
        return Err("--force-split-at must be at least 1".to_owned());
    }
    for &(idx, n) in &cfg.block_targets {
        if idx >= SAMPLE_BLOCKS.len() {
            return Err(format!(
                "--block-targets block {idx} out of range (campaign has {} blocks)",
                SAMPLE_BLOCKS.len()
            ));
        }
        if n == 0 {
            return Err("--block-targets TARGETS must be at least 1".to_owned());
        }
    }
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <dir>".to_owned());
    }
    if cfg.resume_plan && cfg.checkpoint.is_none() {
        return Err("--resume-plan requires --checkpoint <dir>".to_owned());
    }
    if cfg.kill_after_probes.is_some() && cfg.checkpoint.is_none() {
        return Err("--kill-after-probes requires --checkpoint <dir>".to_owned());
    }
    if !cfg.adaptive {
        for (set, flag) in [
            (cfg.probe_budget.is_some(), "--probe-budget"),
            (cfg.root_bits.is_some(), "--root-bits"),
            (cfg.no_prune, "--no-prune"),
            (cfg.infer_boundary, "--infer-boundary"),
        ] {
            if set {
                return Err(format!("{flag} requires --adaptive"));
            }
        }
    } else {
        for (set, flag) in [
            (cfg.mop_up_ticks.is_some(), "--mop-up"),
            (cfg.resume_plan, "--resume-plan"),
            (cfg.force_split_at.is_some(), "--force-split-at"),
            (!cfg.block_targets.is_empty(), "--block-targets"),
        ] {
            if set {
                return Err(format!("{flag} is not supported with --adaptive"));
            }
        }
        if cfg.probe_budget == Some(0) {
            return Err("--probe-budget must be at least 1".to_owned());
        }
    }
    if let Some((bits, denom)) = cfg.cluster {
        if bits == 0 || bits > 32 || denom == 0 {
            return Err("--cluster POD_BITS must be 1..=32 and DENOM at least 1".to_owned());
        }
    }
    Ok(cfg)
}

/// World configuration implied by the CLI: seed plus the optional
/// clustered device layout.
fn world_config(cfg: &CliConfig) -> WorldConfig {
    let mut wc = WorldConfig {
        seed: cfg.world_seed,
        ..WorldConfig::default()
    };
    if let Some((pod_bits, denom)) = cfg.cluster {
        wc = wc.with_allocation(Allocation::Clustered {
            pod_bits,
            active_frac: 1.0 / denom as f64,
        });
    }
    wc
}

/// The one-line error of a checkpoint that cannot be continued.
fn refusal(e: StateError) -> String {
    match e {
        StateError::Mismatch(why) => format!(
            "cannot resume: this invocation's configuration does not \
             match the checkpointed campaign ({why})"
        ),
        other => format!("checkpoint: {other}"),
    }
}

/// Builds the blocklist: standard reserved ranges plus any `-b` extras.
fn build_blocklist(cfg: &CliConfig) -> Result<Blocklist, String> {
    let mut blocklist = Blocklist::with_standard_reserved();
    for p in &cfg.blocked {
        let prefix = p
            .parse()
            .map_err(|e| format!("bad blocklist prefix {p:?}: {e}"))?;
        blocklist.insert(prefix, Verdict::Deny);
    }
    Ok(blocklist)
}

/// Runs the adaptive (density-guided) campaign variant.
fn run_adaptive(cfg: CliConfig) -> Result<bool, String> {
    let mut acfg = if cfg.no_prune {
        AdaptiveConfig::exhaustive(cfg.root_bits)
    } else {
        AdaptiveConfig {
            root_bits: cfg.root_bits,
            ..AdaptiveConfig::default()
        }
    };
    if let Some(budget) = cfg.probe_budget {
        acfg.probe_budget = budget;
    }
    let mut engine = AdaptiveCampaign::new(acfg)
        .with_workers(cfg.campaign_workers)
        .with_blocklist(build_blocklist(&cfg)?)
        .with_inferred_boundary(cfg.infer_boundary);
    if let Some(n) = cfg.kill_after_probes {
        engine = engine.with_kill_after_probes(n);
    }
    let base = ScanConfig {
        seed: cfg.seed,
        ..Default::default()
    };
    let wc = world_config(&cfg);
    let make_world = |telemetry: &xmap_telemetry::Telemetry| {
        let mut world = World::with_config(wc);
        world.set_telemetry(telemetry);
        world
    };
    let started = std::time::Instant::now();
    let outcome = match &cfg.checkpoint {
        Some(dir) => {
            let path = std::path::Path::new(dir).join("adaptive.ckpt");
            engine
                .run_checkpointed(&base, &wc, &path, cfg.resume, make_world)
                .map_err(refusal)?
        }
        None => engine.run(&base, make_world),
    };
    let csv = outcome.result.to_csv();
    match &cfg.output {
        Some(path) => std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{csv}"),
    }
    if let Some(path) = &cfg.metrics_out {
        let json = outcome.snapshot.to_json();
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if !cfg.quiet {
        let probed: u64 = outcome.result.blocks.iter().map(|b| b.probed).sum();
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "# adaptive campaign: {} blocks | {} unique last hops | {} probes | \
             {} workers | {:.2?}{}",
            outcome.result.blocks.len(),
            outcome.result.total_unique(),
            probed,
            cfg.campaign_workers,
            started.elapsed(),
            if outcome.interrupted {
                " | INTERRUPTED"
            } else {
                ""
            }
        );
        if outcome.interrupted {
            let _ = writeln!(
                err,
                "# every finished round journalled — rerun with --resume to \
                 continue from the last one (any --campaign-workers count)"
            );
        }
    }
    Ok(outcome.interrupted)
}

/// Runs one campaign invocation. `Ok(true)` means interrupted with its
/// completed blocks checkpointed (exit code 3).
fn run(cfg: CliConfig) -> Result<bool, String> {
    if cfg.adaptive {
        return run_adaptive(cfg);
    }
    let mut campaign = Campaign::new(cfg.targets_per_block);
    if !cfg.block_targets.is_empty() {
        campaign = campaign.with_block_targets(cfg.block_targets.clone());
    }
    if let Some(ticks) = cfg.mop_up_ticks {
        campaign = campaign.with_mop_up(ticks);
    }
    if !cfg.blocked.is_empty() {
        campaign = campaign.with_blocklist(build_blocklist(&cfg)?);
    }
    let mut executor = ParallelCampaign::new(campaign, cfg.campaign_workers);
    if let Some(at) = cfg.force_split_at {
        executor = executor.with_force_split_at(at);
    }
    let base = ScanConfig {
        seed: cfg.seed,
        ..Default::default()
    };
    let wc = world_config(&cfg);
    if cfg.resume_plan {
        let dir = cfg.checkpoint.as_deref().expect("validated in parse_args");
        let plan = executor
            .resume_plan(&base, &wc, std::path::Path::new(dir))
            .map_err(refusal)?;
        print!("{}", render_resume_plan(&plan));
        return Ok(false);
    }
    let kill = cfg.kill_after_probes;
    let signal = AbortSignal::new();
    let make_world = |_w: usize, telemetry: &xmap_telemetry::Telemetry| {
        let mut world = World::with_config(wc);
        world.set_telemetry(telemetry);
        if let Some(n) = kill {
            world.arm_kill(
                KillPoint {
                    after_probes: Some(n),
                    ..Default::default()
                },
                signal.clone(),
            );
        }
        world
    };
    let started = std::time::Instant::now();
    let outcome: CampaignOutcome = match &cfg.checkpoint {
        Some(dir) => executor
            .run_checkpointed(
                &base,
                &wc,
                std::path::Path::new(dir),
                cfg.resume,
                Some(&signal),
                make_world,
            )
            .map_err(refusal)?,
        None => executor.run(&base, make_world),
    };

    let csv = outcome.result.to_csv();
    match &cfg.output {
        Some(path) => std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{csv}"),
    }
    if let Some(path) = &cfg.metrics_out {
        let json = outcome.snapshot.to_json();
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if !cfg.quiet {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "# campaign: {} blocks | {} unique last hops | {} workers | {:.2?}{}",
            outcome.result.blocks.len(),
            outcome.result.total_unique(),
            cfg.campaign_workers,
            started.elapsed(),
            if outcome.interrupted {
                " | INTERRUPTED"
            } else {
                ""
            }
        );
        if !outcome.poisoned.is_empty() {
            let _ = writeln!(
                err,
                "# WARNING: {} block(s) poisoned after repeated worker failures: {:?} \
                 — their results are missing from the merged output",
                outcome.poisoned.len(),
                outcome.poisoned,
            );
        }
        if outcome.interrupted {
            let _ = writeln!(
                err,
                "# completed blocks checkpointed — rerun with --resume to continue \
                 (any --campaign-workers count)"
            );
        }
    }
    Ok(outcome.interrupted)
}

/// One CSV line per sample block with its Skip/Resume/Fresh/Split
/// classification, then a one-line tally. The split bucket only appears
/// in the tally when a block has actually split, so
/// split-free plans render exactly as they did before splitting existed.
fn render_resume_plan(plan: &[BlockMode]) -> String {
    let mut out = String::from("block,profile,scan_base,mode\n");
    let mut tally = [0usize; 4];
    for (idx, mode) in plan.iter().enumerate() {
        let (label, bucket) = match mode {
            BlockMode::Skip => ("skip", 0),
            BlockMode::Resume => ("resume", 1),
            BlockMode::Fresh => ("fresh", 2),
            BlockMode::Split(_) => ("split", 3),
        };
        tally[bucket] += 1;
        let profile = &SAMPLE_BLOCKS[idx];
        out.push_str(&format!(
            "{idx},{},{},{label}\n",
            profile.name, profile.scan_base
        ));
    }
    let [skip, resume, fresh, split] = tally;
    let split_part = if split > 0 {
        format!(" / {split} split")
    } else {
        String::new()
    };
    out.push_str(&format!(
        "# {skip} skip / {resume} resume / {fresh} fresh{split_part} of {} blocks\n",
        plan.len()
    ));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cfg) => match run(cfg) {
            Ok(false) => ExitCode::SUCCESS,
            // Interrupted-but-checkpointed mirrors xmap's exit code 3 so
            // scripts can distinguish "resume me" from hard failures.
            Ok(true) => ExitCode::from(3),
            Err(e) => {
                eprintln!("xmap-campaign: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) if e == "help" => {
            eprintln!("usage: xmap-campaign [options] (see the module docs)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xmap-campaign: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_defaults_and_flags() {
        let cfg = parse_args(&args("")).unwrap();
        assert_eq!(cfg.targets_per_block, 1 << 16);
        assert_eq!(cfg.campaign_workers, 1);
        assert!(cfg.mop_up_ticks.is_none());

        let cfg = parse_args(&args(
            "--targets-per-block 4096 --campaign-workers 4 --mop-up 2048 \
             -s 7 --world-seed 9 -o /tmp/c.csv --metrics-out /tmp/m.json \
             --checkpoint /tmp/ck --resume -q",
        ))
        .unwrap();
        assert_eq!(cfg.targets_per_block, 4096);
        assert_eq!(cfg.campaign_workers, 4);
        assert_eq!(cfg.mop_up_ticks, Some(2048));
        assert_eq!((cfg.seed, cfg.world_seed), (7, 9));
        assert_eq!(cfg.output.as_deref(), Some("/tmp/c.csv"));
        assert_eq!(cfg.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(cfg.checkpoint.as_deref(), Some("/tmp/ck"));
        assert!(cfg.resume && cfg.quiet);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("--campaign-workers 0")).is_err());
        assert!(parse_args(&args("--targets-per-block 0")).is_err());
        assert!(parse_args(&args("--resume")).is_err(), "resume needs dir");
        assert!(
            parse_args(&args("--kill-after-probes 10")).is_err(),
            "kill point without a checkpoint dir would lose the partial work"
        );
        assert!(parse_args(&args("--frobnicate")).is_err());
        assert!(parse_args(&args("--seed")).is_err(), "missing value");
        assert!(
            parse_args(&args("--resume-plan")).is_err(),
            "resume-plan needs dir"
        );
        for removed in ["--json", "--group-commit 4", "--watchdog-ms 500"] {
            let err = parse_args(&args(&format!(
                "--checkpoint /tmp/ck --resume-plan {removed}"
            )))
            .unwrap_err();
            assert!(err.contains("unknown option"), "{removed}: {err}");
        }
    }

    #[test]
    fn parses_hardening_flags() {
        let cfg = parse_args(&args(
            "-b 2001:db8::/32 --blocklist ff00::/8 \
             --checkpoint /tmp/ck --resume-plan",
        ))
        .unwrap();
        assert_eq!(cfg.blocked, vec!["2001:db8::/32", "ff00::/8"]);
        assert!(cfg.resume_plan);
    }

    #[test]
    fn rejects_unparseable_blocklist_prefix() {
        let cfg = parse_args(&args("-b not-a-prefix --targets-per-block 64 -q")).unwrap();
        let err = run(cfg).unwrap_err();
        assert!(err.contains("not-a-prefix"), "{err}");
    }

    #[test]
    fn resume_plan_on_empty_dir_lists_all_fresh() {
        let dir = std::env::temp_dir().join(format!("xmap-campaign-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = parse_args(&args(&format!(
            "--targets-per-block 512 --checkpoint {} --resume-plan -q",
            dir.display()
        )))
        .unwrap();
        // A dry run plans without executing: no checkpoint files appear.
        assert!(!run(cfg).unwrap());
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "resume-plan must not create checkpoint state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_an_older_campaign_directory() {
        let dir = std::env::temp_dir().join(format!("xmap-campaign-older-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let older = xmap_state::checkpoint::Kind {
            name: "campaign-dir",
        };
        std::fs::write(
            dir.join("campaign.ckpt"),
            older.entry(&[("blocks", 15)], 0, &[]),
        )
        .unwrap();
        let cfg = parse_args(&args(&format!(
            "--targets-per-block 512 --checkpoint {} --resume -q",
            dir.display()
        )))
        .unwrap();
        let err = run(cfg).unwrap_err();
        assert!(err.contains("unsupported checkpoint version"), "{err}");
        assert!(err.contains("re-run without --resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_resume_refuses_an_older_checkpoint() {
        let dir = std::env::temp_dir().join(format!("xmap-adaptive-older-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let older = xmap_state::checkpoint::Kind {
            name: "adaptive-campaign",
        };
        let fields = [("completed_blocks", 0), ("spent", 0)];
        std::fs::write(dir.join("adaptive.ckpt"), older.entry(&fields, 0, &[])).unwrap();
        let cfg = parse_args(&args(&format!(
            "--adaptive --root-bits 12 --checkpoint {} --resume -q",
            dir.display()
        )))
        .unwrap();
        let err = run(cfg).unwrap_err();
        assert!(err.contains("unsupported checkpoint version"), "{err}");
        assert!(err.contains("re-run without --resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_plan_lists_every_block_and_tallies() {
        // All fresh: no checkpoints exist for this plan.
        let plan = vec![BlockMode::Fresh; SAMPLE_BLOCKS.len()];
        let csv = render_resume_plan(&plan);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("block,profile,scan_base,mode"));
        for (idx, profile) in SAMPLE_BLOCKS.iter().enumerate() {
            let row = format!("{idx},{},{},fresh", profile.name, profile.scan_base);
            assert_eq!(lines.next(), Some(row.as_str()));
        }
        assert_eq!(
            lines.next(),
            Some("# 0 skip / 0 resume / 15 fresh of 15 blocks")
        );

        // A mixed plan tallies per mode, and split-free plans keep the
        // exact pre-split trailer.
        let mixed = vec![BlockMode::Skip, BlockMode::Resume, BlockMode::Fresh];
        assert!(render_resume_plan(&mixed).ends_with("# 1 skip / 1 resume / 1 fresh of 3 blocks\n"));

        // A partially split block gets its own label and bucket.
        use xmap_periphery::{SplitUnit, UnitMode, UnitPlan};
        let with_split = vec![
            BlockMode::Skip,
            BlockMode::Split(vec![
                UnitPlan {
                    unit: SplitUnit {
                        offset: 0,
                        stride: 2,
                        cap: 100,
                    },
                    mode: UnitMode::Skip,
                },
                UnitPlan {
                    unit: SplitUnit {
                        offset: 1,
                        stride: 2,
                        cap: 100,
                    },
                    mode: UnitMode::Resume,
                },
            ]),
            BlockMode::Fresh,
        ];
        let csv = render_resume_plan(&with_split);
        assert!(csv.contains(",split\n"), "{csv}");
        assert!(
            csv.ends_with("# 1 skip / 0 resume / 1 fresh / 1 split of 3 blocks\n"),
            "{csv}"
        );
    }

    #[test]
    fn parses_split_flags() {
        let cfg = parse_args(&args(
            "--force-split-at 1000 --block-targets 2:65536 --block-targets 0:128 -q",
        ))
        .unwrap();
        assert_eq!(cfg.force_split_at, Some(1000));
        assert_eq!(cfg.block_targets, vec![(2, 65536), (0, 128)]);

        assert!(parse_args(&args("--force-split-at 0")).is_err());
        assert!(parse_args(&args("--block-targets nope")).is_err());
        assert!(parse_args(&args("--block-targets 2:0")).is_err());
        assert!(
            parse_args(&args("--block-targets 99:64")).is_err(),
            "out-of-range block index"
        );
        assert!(
            parse_args(&args("--adaptive --force-split-at 10")).is_err(),
            "the adaptive engine has its own work division"
        );
        assert!(parse_args(&args("--adaptive --block-targets 1:64")).is_err());
    }

    #[test]
    fn end_to_end_split_campaign_matches_split_free_bytes() {
        let tmp = std::env::temp_dir();
        let plain = tmp.join(format!("xmap-campaign-plain-{}", std::process::id()));
        let split = tmp.join(format!("xmap-campaign-split-{}", std::process::id()));
        let common = "--targets-per-block 1024 --block-targets 2:4096 -q -o";
        let cfg = parse_args(&args(&format!("{common} {}", plain.display()))).unwrap();
        assert!(!run(cfg).unwrap());
        let cfg = parse_args(&args(&format!(
            "{common} {} --campaign-workers 4 --force-split-at 300",
            split.display()
        )))
        .unwrap();
        assert!(!run(cfg).unwrap());
        let plain_csv = std::fs::read_to_string(&plain).unwrap();
        let split_csv = std::fs::read_to_string(&split).unwrap();
        assert!(plain_csv.lines().count() > 1, "no peripheries discovered");
        assert_eq!(plain_csv, split_csv, "split run must not change the CSV");
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&split);
    }

    #[test]
    fn parses_adaptive_flags() {
        let cfg = parse_args(&args(
            "--adaptive --probe-budget 4096 --root-bits 12 --infer-boundary \
             --cluster 8:256 --campaign-workers 2 -q",
        ))
        .unwrap();
        assert!(cfg.adaptive && cfg.infer_boundary);
        assert_eq!(cfg.probe_budget, Some(4096));
        assert_eq!(cfg.root_bits, Some(12));
        assert_eq!(cfg.cluster, Some((8, 256)));

        let cfg = parse_args(&args("--adaptive --no-prune")).unwrap();
        assert!(cfg.no_prune);

        assert!(
            parse_args(&args("--probe-budget 10")).is_err(),
            "adaptive knobs need --adaptive"
        );
        assert!(parse_args(&args("--no-prune")).is_err());
        assert!(
            parse_args(&args("--adaptive --mop-up 100")).is_err(),
            "mop-up has no adaptive equivalent"
        );
        assert!(parse_args(&args("--adaptive --cluster 8")).is_err());
        assert!(parse_args(&args("--adaptive --cluster 0:4")).is_err());
        assert!(parse_args(&args("--adaptive --probe-budget 0")).is_err());
        // A narrowing cast would wrap 260 to 4 and 256 to 0.
        for bits in ["0", "65", "256", "260"] {
            let err = parse_args(&args(&format!("--adaptive --root-bits {bits}"))).unwrap_err();
            assert!(err.contains("out of range 1..=64"), "{bits}: {err}");
        }
        let cfg = parse_args(&args("--adaptive --root-bits 64")).unwrap();
        assert_eq!(cfg.root_bits, Some(64));
    }

    #[test]
    fn end_to_end_adaptive_campaign_produces_csv() {
        let out = std::env::temp_dir().join(format!("xmap-adaptive-csv-{}", std::process::id()));
        let cfg = parse_args(&args(&format!(
            "--adaptive --probe-budget 2048 --root-bits 12 --cluster 8:64 \
             --campaign-workers 2 -q -o {}",
            out.display()
        )))
        .unwrap();
        assert!(!run(cfg).unwrap());
        let csv = std::fs::read_to_string(&out).unwrap();
        assert!(csv.starts_with("profile_id,address,target"), "{csv}");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn end_to_end_campaign_produces_csv() {
        let out = std::env::temp_dir().join(format!("xmap-campaign-csv-{}", std::process::id()));
        let cfg = parse_args(&args(&format!(
            "--targets-per-block 512 --campaign-workers 2 -q -o {}",
            out.display()
        )))
        .unwrap();
        assert!(!run(cfg).unwrap());
        let csv = std::fs::read_to_string(&out).unwrap();
        assert!(csv.starts_with("profile_id,address,target"), "{csv}");
        assert!(csv.lines().count() > 1, "no peripheries discovered");
        let _ = std::fs::remove_file(&out);
    }
}
