//! The repo benchmark: six workloads, host-speed-normalised end-to-end
//! metrics and an outside-in layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! xmap-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! xmap-benchmark all          [--seed N] [--seconds S]           every workload, both runs
//! xmap-benchmark trace        [--seed N]                         every workload, traced run only
//! xmap-benchmark check-repeat [--seed N] [--seconds S]           two sets, compared to the bounds
//! xmap-benchmark spread       [--seconds S]                      seeds 1..=10, quartile spreads
//! ```

#[cfg(test)]
mod contract;
mod estimator;
mod ledger;
mod report;
mod run;
mod spans;
mod suite;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `all`, `trace`, `check-repeat`, `spread`, `rss-rep`, or empty for
    /// one run.
    pub command: String,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed` (default 7; claims must also hold on 11).
    pub seed: u64,
    /// `--seconds`: how long one run measures.
    pub seconds: u64,
    /// `--trace 1`: the traced run (per-layer metrics).
    pub trace: bool,
    /// `--targets`, for the hidden `rss-rep` command.
    pub targets: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 7,
        seconds: report::RUN_SECONDS,
        trace: false,
        targets: 0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| iter.next().ok_or(format!("{what} needs a value"));
        let number = |s: String, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{what} must be a whole number, got {s:?}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number(value("--seed")?, "--seed")?,
            "--seconds" => args.seconds = number(value("--seconds")?, "--seconds")?,
            "--trace" => args.trace = number(value("--trace")?, "--trace")? != 0,
            "--targets" => args.targets = number(value("--targets")?, "--targets")?,
            "all" | "trace" | "check-repeat" | "spread" | "rss-rep" if args.command.is_empty() => {
                args.command = arg;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                workloads::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xmap-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_str(), &args.workload) {
        ("rss-rep", Some(workload)) => run::rss_rep(workload, args.seed, args.targets),
        ("", Some(workload)) => run::single(workload, &args),
        ("", None) | ("all", _) => suite::all(&args),
        ("trace", _) => suite::trace_only(&args),
        ("check-repeat", _) => suite::check_repeat(&args),
        ("spread", _) => suite::spread(&args),
        (other, _) => unreachable!("parse_args admits no command {other}"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
