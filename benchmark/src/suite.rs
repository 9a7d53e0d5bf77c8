//! `all`, `trace`, `check-repeat` and `spread`: every workload, each in a child
//! process of its own (so each has its own peak RSS and a crash in one
//! cannot take the others' results with it).

use std::fmt::Write as _;
use std::process::Command;

use crate::estimator::{median, quartile_spread};
use crate::report::{RunResult, END_TO_END};
use crate::run::out_dir;
use crate::workloads::WORKLOADS;
use crate::Args;

/// One child run: the parsed result line plus the context lines.
struct ChildRun {
    result: RunResult,
    artifact_fp: String,
    calib_spread: f64,
}

/// Runs one workload in a child, echoing its `workload metric value unit`
/// lines when `echo`. `None` when the child failed to produce a result
/// line.
fn child(workload: &str, args: &Args, trace: bool, echo: bool) -> Option<ChildRun> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = RunResult::from_json_line(lines.pop()?).ok()?;
    let field = |name: &str| {
        lines
            .iter()
            .filter_map(|l| l.strip_prefix(workload)?.trim_start().strip_prefix(name))
            .find_map(|rest| rest.split_whitespace().next())
    };
    let artifact_fp = field("artifact_fp ").unwrap_or("-").to_owned();
    let calib_spread = field("host.calib_spread ")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    // A child that printed a result but exited non-zero found a failure.
    let correct = result.correct && output.status.success();
    Some(ChildRun {
        result: RunResult { correct, ..result },
        artifact_fp,
        calib_spread,
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// The filesystem type under `benchmark/out` (longest mount-point match).
fn out_fs_type() -> String {
    let out = out_dir();
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            out.starts_with(at).then_some((at.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_owned(), |(_, fs)| fs.to_owned())
}

/// Host fingerprint as `(key, value)` strings, printed and stored.
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("host.cpus", cpus.to_string()),
        (
            "host.rustc",
            command_output("rustc", &["--version"]).unwrap_or("unknown".into()),
        ),
        (
            "host.commit",
            command_output("git", &["rev-parse", "--short", "HEAD"]).unwrap_or("unknown".into()),
        ),
        ("host.ckpt_fs", out_fs_type()),
        (
            "host.build_s",
            std::env::var("XMAP_BENCH_BUILD_S").unwrap_or("unknown".into()),
        ),
    ]
}

/// Runs every workload (untraced when `end_to_end`, traced when
/// `layers`), prints every metric, writes `benchmark/out/results.json`.
fn run_set(args: &Args, end_to_end: bool, layers: bool) -> (bool, Vec<(String, ChildRun)>) {
    let _ = std::fs::create_dir_all(out_dir());
    let host = host_fingerprint();
    for (key, value) in &host {
        println!("host {key} {value} -");
    }
    let mut ok = true;
    let mut measured = Vec::new();
    let mut doc = String::from("{\n  \"schema\": \"xmap-benchmark/v1\",\n");
    let _ = writeln!(
        doc,
        "  \"seed\": {},\n  \"seconds\": {},",
        args.seed, args.seconds
    );
    let host_fields: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let _ = writeln!(doc, "  \"host\": {{{}}},", host_fields.join(", "));
    doc.push_str("  \"workloads\": {\n");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let _ = write!(doc, "    \"{workload}\": {{");
        let mut parts = Vec::new();
        if end_to_end {
            match child(workload, args, false, true) {
                Some(run) => {
                    ok &= run.result.correct;
                    parts.push(format!(
                        "\"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \
                         \"artifact_fp\": \"{}\", \"noisy\": {}, \"end_to_end\": {}",
                        run.result.correct,
                        run.result.attempted,
                        run.result.failed,
                        run.artifact_fp,
                        run.calib_spread > NOISY_CALIB_SPREAD,
                        run.result.metrics_json()
                    ));
                    measured.push(((*workload).to_owned(), run));
                }
                None => {
                    eprintln!("xmap-benchmark: {workload}: untraced run produced no result");
                    ok = false;
                }
            }
        }
        if layers {
            match child(workload, args, true, true) {
                Some(run) => {
                    ok &= run.result.correct;
                    parts.push(format!(
                        "\"trace_correct\": {}, \"per_layer\": {}",
                        run.result.correct,
                        run.result.metrics_json()
                    ));
                }
                None => {
                    eprintln!("xmap-benchmark: {workload}: traced run produced no result");
                    ok = false;
                }
            }
        }
        doc.push_str(&parts.join(", "));
        doc.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    doc.push_str("  }\n}\n");
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("xmap-benchmark: cannot write {}: {e}", path.display());
        ok = false;
    }
    println!(
        "results {} {}",
        path.display(),
        if ok { "ok" } else { "FAILED" }
    );
    (ok, measured)
}

/// Above this calibration spread a set is reported as `noisy`: the host
/// was too unsteady for its numbers to be averaged with others.
const NOISY_CALIB_SPREAD: f64 = 0.5;

/// `all`: both runs of every workload.
pub fn all(args: &Args) -> bool {
    run_set(args, true, true).0
}

/// `trace`: the traced run of every workload.
pub fn trace_only(args: &Args) -> bool {
    run_set(args, false, true).0
}

/// `check-repeat`: two full untraced sets back to back; fails unless
/// every (end-to-end metric, workload) pair agrees within its bound —
/// exact metrics, failure counts and fingerprints bit for bit.
pub fn check_repeat(args: &Args) -> bool {
    let (ok_a, a) = run_set(args, true, false);
    let (ok_b, b) = run_set(args, true, false);
    let mut ok = ok_a && ok_b && a.len() == WORKLOADS.len() && b.len() == WORKLOADS.len();
    for ((workload, first), (_, second)) in a.iter().zip(&b) {
        for set in [first, second] {
            if set.calib_spread > NOISY_CALIB_SPREAD {
                println!(
                    "check-repeat {workload} noisy host.calib_spread {} ratio",
                    set.calib_spread
                );
            }
        }
        let same =
            first.artifact_fp == second.artifact_fp && first.result.failed == second.result.failed;
        println!(
            "check-repeat {workload} artifact_fp+ops_failed {}",
            if same { "equal" } else { "DIFFER" }
        );
        ok &= same;
        for def in END_TO_END {
            let (Some(x), Some(y)) = (first.result.get(def.name), second.result.get(def.name))
            else {
                println!("check-repeat {workload} {} MISSING", def.name);
                ok = false;
                continue;
            };
            let apart = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let within = if def.exact {
                x.to_bits() == y.to_bits()
            } else {
                apart <= def.bound
            };
            println!(
                "check-repeat {workload} {} {x} {y} apart {apart:.4} bound {} {}",
                def.name,
                if def.exact {
                    "exact".to_owned()
                } else {
                    def.bound.to_string()
                },
                if within { "ok" } else { "OUTSIDE" }
            );
            ok &= within;
        }
    }
    println!("check-repeat {}", if ok { "ok" } else { "FAILED" });
    ok
}

/// Seeds the `spread` command runs, one run each.
const SPREAD_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// `spread`: the steadiness check the pipeline applies. Runs every
/// workload once per seed in [`SPREAD_SEEDS`] and prints, per end-to-end
/// metric, the median and the quartile spread as a share of the median.
/// Fails when a run is incorrect or a spread (other than `setup_s`'s)
/// exceeds the metric's bound; marks spreads above a third of it.
pub fn spread(args: &Args) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        let runs: Vec<RunResult> = SPREAD_SEEDS
            .filter_map(|seed| {
                child(
                    workload,
                    &Args {
                        seed,
                        ..args.clone()
                    },
                    false,
                    false,
                )
            })
            .map(|run| run.result)
            .collect();
        if runs.len() != SPREAD_SEEDS.count() || runs.iter().any(|r| !r.correct) {
            println!("spread {workload} FAILED runs");
            ok = false;
            continue;
        }
        for def in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(def.name)).collect();
            let share = quartile_spread(&values);
            let verdict = if share <= def.bound / 3.0 {
                "steady"
            } else if share <= def.bound || def.name == "setup_s" {
                "above-a-third"
            } else {
                ok = false;
                "OUTSIDE"
            };
            println!(
                "spread {workload} {} median {} {} ({} is better) spread {share:.4} bound {} {verdict}",
                def.name,
                median(&values),
                def.unit,
                def.better.label(),
                def.bound
            );
        }
    }
    println!("spread {}", if ok { "ok" } else { "FAILED" });
    ok
}
