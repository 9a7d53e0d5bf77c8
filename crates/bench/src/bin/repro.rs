//! Regenerates the paper's tables and figures from the simulated Internet.
//!
//! Usage:
//!
//! ```text
//! repro [--campaign-workers N] [--metrics-out FILE] [--quiet] [artifact...]
//! ```
//!
//! Artifacts: `table1`..`table12`, `fig2`, `fig3`, `fig5`, `fig6`,
//! `feasibility`, `amplification`, or `all` (default). The scale of the
//! scans is controlled by `XMAP_SCALE` (log2 of discovery probes per
//! block, default 20; the full space would be 32). `--campaign-workers`
//! (or `XMAP_CAMPAIGN_WORKERS`) runs the discovery campaign on a
//! pool of block workers; every artifact and the exported metrics are
//! byte-identical for any worker count. `--metrics-out` writes the run's
//! final telemetry snapshot as JSON; `--quiet` suppresses the progress
//! lines on stderr.

use xmap_bench::{
    amplification, baselines, feasibility, fig2, fig3, fig5, fig6, table1, table10, table11,
    table12, table2, table3, table4, table5, table6, table7, table8, table9, Experiment,
    ExperimentConfig,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_out = None;
    let mut campaign_workers = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                if i + 1 >= args.len() {
                    eprintln!("repro: --metrics-out requires a value");
                    std::process::exit(2);
                }
                metrics_out = Some(args.remove(i + 1));
                args.remove(i);
            }
            "--campaign-workers" => {
                if i + 1 >= args.len() {
                    eprintln!("repro: --campaign-workers requires a value");
                    std::process::exit(2);
                }
                match args.remove(i + 1).parse::<usize>() {
                    Ok(n) if n >= 1 => campaign_workers = Some(n),
                    _ => {
                        eprintln!("repro: --campaign-workers must be an integer >= 1");
                        std::process::exit(2);
                    }
                }
                args.remove(i);
            }
            "--quiet" | "-q" => {
                quiet = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "feasibility",
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "table9",
            "table10",
            "table11",
            "table12",
            "fig2",
            "fig3",
            "fig5",
            "fig6",
            "amplification",
            "baselines",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    let mut config = ExperimentConfig::from_env();
    if let Some(n) = campaign_workers {
        config.campaign_workers = n;
    }
    if !quiet {
        eprintln!(
            "# seed {:#x}, discovery 2^{} probes/block, loop 2^{} probes/block, BGP 2^{}/prefix over {} ASes, {} campaign worker(s)",
            config.seed,
            config.discovery_probes_per_block.trailing_zeros(),
            config.loop_probes_per_block.trailing_zeros(),
            config.bgp_probes_per_prefix.trailing_zeros(),
            config.bgp_ases,
            config.campaign_workers,
        );
    }
    let telemetry = xmap_telemetry::Telemetry::new();
    let mut exp = Experiment::with_telemetry(config, telemetry.clone());

    for artifact in wanted {
        let started = std::time::Instant::now();
        let text = match artifact {
            "table1" => table1(&mut exp),
            "table2" => table2(&mut exp),
            "table3" => table3(&mut exp),
            "table4" => table4(&mut exp),
            "table5" => table5(&mut exp),
            "table6" => table6(),
            "table7" => table7(&mut exp),
            "table8" => table8(&mut exp),
            "table9" => table9(&mut exp),
            "table10" => table10(&mut exp),
            "table11" => table11(&mut exp),
            "table12" => table12(),
            "fig2" => fig2(&mut exp),
            "fig3" => fig3(&mut exp),
            "fig5" => fig5(&mut exp),
            "fig6" => fig6(&mut exp),
            "feasibility" => feasibility(),
            "amplification" => amplification(),
            "baselines" => baselines(&mut exp),
            other => {
                eprintln!("unknown artifact {other:?}; see --help in the source header");
                std::process::exit(2);
            }
        };
        println!("{text}");
        if !quiet {
            eprintln!("# {artifact} rendered in {:.2?}", started.elapsed());
        }
    }
    if let Some(path) = metrics_out {
        let json = telemetry.registry.snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("repro: write {path}: {e}");
            std::process::exit(1);
        }
    }
}
