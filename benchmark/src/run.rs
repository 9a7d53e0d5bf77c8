//! One run of one workload: set-up, measured repetitions, result line.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::estimator::{highest_percentile, median, normalise, quantile, Calibrator};
use crate::ledger;
use crate::report::{Metric, RunResult, END_TO_END};
use crate::spans::Tracer;
use crate::workloads::{self, Facts, ScanWorkload, Seeds, Workload};
use crate::Args;

/// Set-up rounds per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// Single-rep child processes `peak_rss_mb` is the median of.
const RSS_CHILDREN: usize = 3;

/// Reps per arm of the traced run.
const TRACED_REPS: usize = 6;

/// `benchmark/out`, where results, traces and scratch directories go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A private scratch directory, removed on drop. It lives inside the
/// checkout — the benchmark writes nowhere else — so durable workloads
/// pay this filesystem's real cost.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `benchmark/out/work/<tag>-<pid>`.
    pub fn create(tag: &str) -> Self {
        let dir = out_dir()
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// This process's peak resident set (`VmHWM`), in kB.
fn own_peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// The hidden `rss-rep` command: builds `workload`'s fixtures, runs one
/// rep — no oracle, no repeats — and prints this process's peak RSS in
/// kB. `targets > 0` resizes `scan_lossless` (the ledger's
/// bytes-per-target probe).
pub fn rss_rep(workload: &str, seed: u64, targets: u64) -> bool {
    let dir = WorkDir::create(&format!("{workload}-rss"));
    let mut w: Box<dyn Workload> = if targets > 0 {
        Box::new(ScanWorkload::lossless(Seeds::derive(seed), targets))
    } else {
        workloads::fixtures(workload, seed, &dir.0)
    };
    let rep = w.rep(&mut Tracer::new(false));
    println!("{}", own_peak_rss_kb());
    rep.faults == 0
}

/// Peak RSS, in kB, of a child that runs `workload` exactly once: what a
/// user running the job would see, free of the oracle's and the repeat
/// loop's allocations. `None` when the child failed.
pub fn peak_rss_kb_of(workload: &str, seed: u64, targets: u64) -> Option<f64> {
    let output = Command::new(std::env::current_exe().ok()?)
        .args(["rss-rep", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--targets", &targets.to_string()])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    String::from_utf8_lossy(&output.stdout).trim().parse().ok()
}

/// A workload after set-up: fixtures, oracle facts, warm-up rep done.
pub struct Ready {
    /// The workload.
    pub workload: Box<dyn Workload>,
    /// The oracle's facts.
    pub facts: Facts,
    /// The calibrator, on as many threads as the workload's pool.
    pub cal: Calibrator,
    /// Median raw set-up time over the rounds, in seconds.
    setup_raw_s: f64,
    /// Calibration samples taken between the set-up rounds.
    setup_calib_s: Vec<f64>,
    /// Operations the warm-up reps attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

impl Ready {
    /// `setup_s`: the median set-up round, rescaled to the nominal host
    /// by the median of every calibration sample of the run — the ones
    /// between set-up rounds and `measured`, the ones around the reps.
    /// A round lasts as long as several reps and the kernel two orders
    /// of magnitude less, so the two samples next to a round say little
    /// about it; the run's level says more.
    pub fn setup_s(&self, measured: &[f64]) -> f64 {
        let calib = [self.setup_calib_s.as_slice(), measured].concat();
        normalise(self.setup_raw_s, median(&calib), median(&calib))
    }
}

/// Sets `name` up `rounds` times — fixtures, oracle reference run, one
/// warm-up rep — and keeps the last. Each round's time is taken up to
/// the point the first measured rep could start.
pub fn set_up(name: &str, seed: u64, dir: &WorkDir, rounds: usize) -> Ready {
    let pool = workloads::fixtures(name, seed, &dir.0).pool();
    let mut cal = Calibrator::new(pool);
    let mut times = Vec::with_capacity(rounds);
    let mut kept: Option<(Box<dyn Workload>, Facts)> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_calib_s = vec![cal.run()];
    for _ in 0..rounds {
        // Free the previous round first: peak RSS must not double.
        let previous = kept.take().map(|(_, facts)| facts);
        let start = Instant::now();
        let mut workload = workloads::fixtures(name, seed, &dir.0);
        let facts = workload.oracle();
        let warm = workload.rep(&mut Tracer::new(false));
        times.push(start.elapsed().as_secs_f64());
        setup_calib_s.push(cal.run());
        attempted += warm.attempted;
        failed += warm.failed(facts.expect_fp);
        // The oracle is a pure function of the seed.
        if previous.is_some_and(|p| p.expect_fp != facts.expect_fp) {
            failed += 1;
        }
        kept = Some((workload, facts));
    }
    let (workload, facts) = kept.expect("at least one set-up round");
    Ready {
        workload,
        facts,
        cal,
        setup_raw_s: median(&times),
        setup_calib_s,
        attempted,
        failed,
    }
}

/// Samples of the measured loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Host-speed-normalised rep times, seconds.
    pub norm_s: Vec<f64>,
    /// Raw rep wall times, seconds.
    pub raw_s: Vec<f64>,
    /// Calibration kernel durations, seconds.
    pub calib_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Fingerprint of the last rep's artifacts.
    pub artifact_fp: u64,
}

impl Samples {
    /// Appends another batch of samples.
    fn absorb(&mut self, other: Samples) {
        self.norm_s.extend(other.norm_s);
        self.raw_s.extend(other.raw_s);
        self.calib_s.extend(other.calib_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.artifact_fp = other.artifact_fp;
    }
}

/// Repeats the workload until `stop` says so, bracketing every rep with
/// the calibration kernel (one kernel run is shared by adjacent reps).
/// Spans are stamped with rep numbers from `first_rep` on.
pub fn measure(
    ready: &mut Ready,
    tr: &mut Tracer,
    first_rep: u32,
    mut stop: impl FnMut(usize) -> bool,
) -> Samples {
    let mut s = Samples::default();
    let mut before = ready.cal.run();
    s.calib_s.push(before);
    loop {
        tr.set_rep(first_rep + s.norm_s.len() as u32);
        let rep = ready.workload.rep(tr);
        let after = ready.cal.run();
        s.norm_s.push(normalise(rep.timed_s, before, after));
        s.raw_s.push(rep.timed_s);
        s.calib_s.push(after);
        s.attempted += rep.attempted;
        s.failed += rep.failed(ready.facts.expect_fp);
        s.artifact_fp = rep.artifact_fp;
        before = after;
        if stop(s.norm_s.len()) {
            return s;
        }
    }
}

/// Spread of the calibration kernel over a run: (p90 − p10) ÷ median.
/// Above 0.5 the host was too unsteady to trust the set.
pub fn calib_spread(calib_s: &[f64]) -> f64 {
    (quantile(calib_s, 0.9) - quantile(calib_s, 0.1)) / median(calib_s)
}

fn finish(name: &str, result: RunResult) -> bool {
    for m in &result.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json_line());
    result.correct
}

/// `--workload W --seed N --seconds S --trace T`: one run, ending in the
/// result line. Returns whether every output matched its oracle.
pub fn single(name: &str, args: &Args) -> bool {
    if args.trace {
        traced(name, args)
    } else {
        untraced(name, args)
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(name: &str, args: &Args) -> bool {
    let dir = WorkDir::create(name);
    let mut ready = set_up(name, args.seed, &dir, SETUP_ROUNDS);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let s = measure(&mut ready, &mut Tracer::new(false), 0, |_| {
        Instant::now() >= deadline
    });
    // Thread timing moves a pooled workload's peak by a few percent from
    // one process to the next: take the median of three.
    let rss: Vec<f64> = (0..RSS_CHILDREN)
        .filter_map(|_| peak_rss_kb_of(name, args.seed, 0))
        .collect();
    let rss_kb = (rss.len() == RSS_CHILDREN).then(|| median(&rss));

    let facts = ready.facts;
    let rep_s = median(&s.norm_s);
    let values = [
        ready.setup_s(&s.calib_s),
        facts.probes as f64 / rep_s,
        facts.recall * facts.reference_probes as f64 / rep_s,
        quantile(&s.norm_s, 0.75) * 1e3,
        facts.probes as f64 / facts.reference_probes as f64,
        facts.recall,
        rss_kb.unwrap_or(0.0) / 1024.0,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric::new(def.name, value, def.unit))
        .collect();

    // Ungated context, printed beside the metrics but not part of them.
    let n = s.norm_s.len();
    let attempted = ready.attempted + s.attempted + 1;
    let failed = ready.failed + s.failed + u64::from(rss_kb.is_none());
    println!("{name} ops_attempted {attempted} count");
    println!("{name} ops_failed {failed} count");
    println!("{name} artifact_fp {:#018x} fnv1a", s.artifact_fp);
    println!("{name} oracle_fp {:#018x} fnv1a", facts.expect_fp);
    println!("{name} reps {n} count");
    println!(
        "{name} highest_percentile_with_10_beyond {} percentile",
        highest_percentile(n).map_or("none".to_owned(), |p| p.to_string())
    );
    println!("{name} probes_per_rep {} probes", facts.probes);
    println!("{name} found_per_rep {} peripheries", facts.found);
    println!(
        "{name} norm_cpe_per_s {} peripheries/s",
        facts.found as f64 / rep_s
    );
    println!(
        "{name} probes_per_cpe {} probes",
        facts.probes as f64 / facts.found.max(1) as f64
    );
    println!("{name} host.raw_wall_s_p50 {} s", median(&s.raw_s));
    println!(
        "{name} host.raw_probes_per_s {} probes/s",
        facts.probes as f64 / median(&s.raw_s)
    );
    println!("{name} host.calib_ms_p50 {} ms", median(&s.calib_s) * 1e3);
    println!(
        "{name} host.calib_spread {} ratio",
        calib_spread(&s.calib_s)
    );
    println!("{name} host.calib_threads {} count", ready.workload.pool());

    finish(
        name,
        RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
    )
}

/// The traced run: every per-layer metric. Fixed work — a few untraced
/// and traced reps of the workload, then the whole layer ledger — so it
/// ignores `--seconds`.
fn traced(name: &str, args: &Args) -> bool {
    let dir = WorkDir::create(&format!("{name}-trace"));
    let mut ready = set_up(name, args.seed, &dir, 1);
    let mut tr = Tracer::new(false);

    // Same code, spans off and on in alternation (so host drift hits
    // both arms alike): the difference is what tracing costs.
    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    for rep in 0..2 * TRACED_REPS {
        let on = rep % 2 == 1;
        tr.set_enabled(on);
        let one = measure(&mut ready, &mut tr, (rep / 2) as u32, |_| true);
        (if on { &mut spanned } else { &mut plain }).absorb(one);
    }
    tr.set_enabled(true);

    let mut ledger = ledger::Ledger::new(args.seed, &dir.0, tr);
    ledger.row(
        "workload.ns_per_probe",
        median(&spanned.norm_s) * 1e9 / ready.facts.probes as f64,
    );
    ledger.row("host.raw_wall_s_p50", median(&spanned.raw_s));
    ledger.row(
        "host.trace_overhead_frac",
        median(&spanned.norm_s) / median(&plain.norm_s) - 1.0,
    );
    ledger.run_all();
    let calib = [plain.calib_s, spanned.calib_s].concat();
    ledger.row("host.calib_ms_p50", median(&calib) * 1e3);
    ledger.row("host.calib_spread", calib_spread(&calib));
    ledger.row(
        "host.cpus",
        std::thread::available_parallelism().map_or(1, usize::from) as f64,
    );

    let trace_path = out_dir().join(format!("trace-{name}.ndjson"));
    if let Err(e) = ledger.tracer().write_ndjson(&trace_path, name) {
        eprintln!("xmap-benchmark: cannot write {}: {e}", trace_path.display());
    }
    let failed = ready.failed + plain.failed + spanned.failed + ledger.failed();
    let attempted = ready.attempted + plain.attempted + spanned.attempted + ledger.attempted();
    println!("{name} ops_attempted {attempted} count");
    println!("{name} ops_failed {failed} count");
    finish(
        name,
        RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics: ledger.into_metrics(),
        },
    )
}
