//! `xmap` — command-line front end for the scanner, mirroring the real
//! tool's interface against the simulated Internet.
//!
//! ```text
//! xmap [options] <target>...
//!
//!   targets                scan ranges, e.g. 2405:200::/32-64 (plain
//!                          prefixes default to /64 sub-prefix probing)
//!   -M, --probe-module M   icmp6_echoscan | udp6_scan | tcp6_synscan
//!   -p, --target-port P    destination port for UDP/TCP modules
//!   -x, --max-targets N    probe at most N targets per range
//!   -R, --rate PPS         packets-per-second budget (accounted)
//!   -s, --seed N           scan seed (permutation, cookies, IID fill)
//!       --world-seed N     seed of the simulated Internet
//!       --shard I          this shard (0-based)
//!       --shards N         total cooperating shards
//!       --workers N        send threads; the shard is split N ways and
//!                          merged deterministically (default 1). Status
//!                          lines need a single worker.
//!   -b, --block PREFIX     add a blocklist prefix (repeatable)
//!   -o, --output FILE     write results as CSV (default: stdout)
//!       --metrics-out FILE write the final telemetry snapshot as JSON
//!       --trace-out PATH   write the event trace as NDJSON. With
//!                          --workers 1, PATH is a single file; with N>1
//!                          workers PATH must be a directory, which gets
//!                          one worker-K.ndjson ring per worker
//!       --checkpoint DIR   journal results and periodically checkpoint
//!                          scan state into DIR (created if missing); a
//!                          worker that panics ends the run with exit
//!                          code 3 and --resume finishes it
//!       --checkpoint-every N checkpoint cadence in send slots
//!                          (default 1024; 0 = range boundaries only)
//!       --resume           continue the scan recorded in --checkpoint DIR;
//!                          refuses to run if this invocation's
//!                          configuration differs from the checkpointed one
//!       --kill-after-probes N abort the scan after the simulated world
//!                          handles N probes (exit code 3; for testing
//!                          checkpoint/resume)
//!       --record-wire FILE record the run's wire traffic as an NDJSON
//!                          trace replayable with --replay-trace
//!                          (single worker, no --checkpoint)
//!       --replay-trace FILE scan against the recorded trace instead of
//!                          the simulated Internet; any divergence from
//!                          the recording is an error
//!                          (single worker, no --checkpoint)
//!   -q, --quiet            suppress the summary and the status line printed
//!                          every simulated second on stderr
//!
//! An interrupted checkpointed scan exits with code 3; rerunning the same
//! command line with `--resume` continues it, and the final output is
//! byte-identical to an uninterrupted run against the default simulator.
//!
//! Modes (first positional argument):
//!
//!   scan (default)         permuted scan over the target ranges
//!   trace ADDR             hop-limit walk toward one address
//!   alias PREFIX           de-aliasing check on one prefix
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use xmap::{
    run_session, Blocklist, IcmpEchoProbe, ParallelScanner, ProbeModule, ScanConfig, ScanResults,
    Scanner, SessionSpec, TargetSpec, TcpSynProbe, UdpProbe, Verdict,
};
use xmap_netsim::packet::Network;
use xmap_netsim::services::{AppRequest, ServiceKind};
use xmap_netsim::{KillPoint, World};
use xmap_reactor::{ReplayNet, WireRecorder};
use xmap_state::{AbortSignal, StateError};
use xmap_telemetry::{Monitor, Telemetry};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct CliConfig {
    targets: TargetSpec,
    module: ModuleChoice,
    port: Option<u16>,
    max_targets: Option<u64>,
    rate_pps: Option<u64>,
    seed: u64,
    world_seed: u64,
    shard: u64,
    shards: u64,
    workers: usize,
    blocked: Vec<String>,
    output: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    quiet: bool,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    kill_after_probes: Option<u64>,
    record_wire: Option<String>,
    replay_trace: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModuleChoice {
    Icmp,
    Udp,
    Tcp,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            targets: TargetSpec::new(),
            module: ModuleChoice::Icmp,
            port: None,
            max_targets: None,
            rate_pps: None,
            seed: 1,
            world_seed: 0xDA7A_5EED,
            shard: 0,
            shards: 1,
            workers: 1,
            blocked: Vec::new(),
            output: None,
            metrics_out: None,
            trace_out: None,
            quiet: false,
            checkpoint: None,
            checkpoint_every: 1024,
            resume: false,
            kill_after_probes: None,
            record_wire: None,
            replay_trace: None,
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
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-M" | "--probe-module" => {
                cfg.module = match value(&mut iter, arg)?.as_str() {
                    "icmp6_echoscan" => ModuleChoice::Icmp,
                    "udp6_scan" => ModuleChoice::Udp,
                    "tcp6_synscan" => ModuleChoice::Tcp,
                    other => return Err(format!("unknown probe module {other:?}")),
                };
            }
            "-p" | "--target-port" => {
                cfg.port = Some(
                    value(&mut iter, arg)?
                        .parse()
                        .map_err(|_| "port must be 0..=65535".to_owned())?,
                );
            }
            "-x" | "--max-targets" => {
                cfg.max_targets = Some(
                    value(&mut iter, arg)?
                        .parse()
                        .map_err(|_| "max-targets must be an integer".to_owned())?,
                );
            }
            "-R" | "--rate" => {
                cfg.rate_pps = Some(
                    value(&mut iter, arg)?
                        .parse()
                        .map_err(|_| "rate must be an integer".to_owned())?,
                );
            }
            "-s" | "--seed" => {
                cfg.seed = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_owned())?;
            }
            "--world-seed" => {
                cfg.world_seed = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "world-seed must be an integer".to_owned())?;
            }
            "--shard" => {
                cfg.shard = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "shard must be an integer".to_owned())?;
            }
            "--shards" => {
                cfg.shards = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "shards must be an integer".to_owned())?;
            }
            "--workers" => {
                cfg.workers = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "workers must be an integer".to_owned())?;
            }
            "-b" | "--block" => cfg.blocked.push(value(&mut iter, arg)?),
            "-o" | "--output" => cfg.output = Some(value(&mut iter, arg)?),
            "--metrics-out" => cfg.metrics_out = Some(value(&mut iter, arg)?),
            "--trace-out" => cfg.trace_out = Some(value(&mut iter, arg)?),
            "--checkpoint" => cfg.checkpoint = Some(value(&mut iter, arg)?),
            "--checkpoint-every" => {
                cfg.checkpoint_every = value(&mut iter, arg)?
                    .parse()
                    .map_err(|_| "checkpoint-every must be an integer".to_owned())?;
            }
            "--resume" => cfg.resume = true,
            "--record-wire" => cfg.record_wire = Some(value(&mut iter, arg)?),
            "--replay-trace" => cfg.replay_trace = Some(value(&mut iter, arg)?),
            "--kill-after-probes" => {
                cfg.kill_after_probes = Some(
                    value(&mut iter, arg)?
                        .parse()
                        .map_err(|_| "kill-after-probes must be an integer".to_owned())?,
                );
            }
            "-q" | "--quiet" => cfg.quiet = true,
            "-h" | "--help" => return Err("help".to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}"));
            }
            target => {
                let range = target
                    .parse()
                    .map_err(|e| format!("bad target {target:?}: {e}"))?;
                cfg.targets.push(range);
            }
        }
    }
    if cfg.targets.ranges().is_empty() {
        return Err("at least one target range is required".to_owned());
    }
    if cfg.shards == 0 || cfg.shard >= cfg.shards {
        return Err("shard must be < shards and shards > 0".to_owned());
    }
    if matches!(cfg.module, ModuleChoice::Udp | ModuleChoice::Tcp) && cfg.port.is_none() {
        return Err("UDP/TCP modules require --target-port".to_owned());
    }
    if cfg.workers == 0 {
        return Err("workers must be at least 1".to_owned());
    }
    if cfg.rate_pps == Some(0) {
        return Err("rate must be at least 1".to_owned());
    }
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <dir>".to_owned());
    }
    if cfg.checkpoint.is_some() && cfg.trace_out.is_some() {
        return Err("--trace-out is not supported with --checkpoint".to_owned());
    }
    if cfg.replay_trace.is_some() && cfg.record_wire.is_some() {
        return Err("--record-wire and --replay-trace are mutually exclusive".to_owned());
    }
    for (set, flag) in [
        (cfg.record_wire.is_some(), "--record-wire"),
        (cfg.replay_trace.is_some(), "--replay-trace"),
    ] {
        if set && cfg.workers > 1 {
            return Err(format!("{flag} records/replays one wire; use --workers 1"));
        }
        if set && cfg.checkpoint.is_some() {
            return Err(format!("{flag} is not supported with --checkpoint"));
        }
    }
    Ok(cfg)
}

/// Fails fast — before any scanning — if `path`'s parent directory does
/// not exist, so a long scan can never end with an unwritable output.
fn ensure_parent_dir(path: &str, flag: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "{flag} {path}: parent directory {} does not exist",
                parent.display()
            ));
        }
    }
    Ok(())
}

fn module_for(cfg: &CliConfig) -> Box<dyn ProbeModule + Send + Sync> {
    match cfg.module {
        ModuleChoice::Icmp => Box::new(IcmpEchoProbe),
        ModuleChoice::Tcp => Box::new(TcpSynProbe {
            port: cfg.port.expect("validated"),
        }),
        ModuleChoice::Udp => {
            let port = cfg.port.expect("validated");
            let request = ServiceKind::from_port(port)
                .map(|k| k.request())
                .unwrap_or(AppRequest::DnsQuery);
            Box::new(UdpProbe { port, request })
        }
    }
}

/// Writes one `worker-K.ndjson` event ring per worker into `dir`
/// (created if missing) — with several workers there is no single merged
/// trace, and interleaving rings would fake an ordering that never was.
fn write_worker_traces(dir: &str, scanner: &ParallelScanner<World>) -> Result<(), String> {
    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    for w in 0..scanner.workers() {
        let out = path.join(format!("worker-{w}.ndjson"));
        let ndjson = scanner.worker_telemetry(w).tracer.to_ndjson();
        std::fs::write(&out, ndjson).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(())
}

/// The single-worker scan path over any network backend — the plain
/// world, a [`WireRecorder`] around it, or a [`ReplayNet`]. Returns the
/// results and the network back (recorders need finishing).
fn run_single<N: Network>(
    cfg: &CliConfig,
    scan_config: ScanConfig,
    module: &dyn ProbeModule,
    blocklist: &Blocklist,
    make_net: impl FnOnce(&Telemetry) -> N,
) -> Result<(ScanResults, N), String> {
    let telemetry = if cfg.trace_out.is_some() {
        Telemetry::with_tracing()
    } else {
        Telemetry::new()
    };
    let net = make_net(&telemetry);
    let mut scanner = Scanner::with_telemetry(net, scan_config, telemetry.clone());
    if !cfg.quiet {
        // One virtual tick per send slot, so the configured packet rate
        // fixes the tick↔second conversion; a status line every
        // simulated second is an interval of `tps` ticks.
        let tps = cfg.rate_pps.unwrap_or(100_000);
        scanner.set_monitor(Monitor::new(&telemetry.registry, tps, tps));
    }
    let results = scanner.run_all(cfg.targets.ranges(), module, blocklist);
    if let Some(path) = &cfg.metrics_out {
        let json = telemetry.registry.snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &cfg.trace_out {
        let ndjson = telemetry.tracer.to_ndjson();
        std::fs::write(path, ndjson).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok((results, scanner.into_network()))
}

/// Runs one scan invocation. `Ok(true)` means the scan was interrupted by
/// an armed kill point with its state checkpointed (exit code 3).
fn run(cfg: CliConfig) -> Result<bool, String> {
    // Fail on unwritable outputs before spending any scan time on them.
    for (path, flag) in [
        (&cfg.output, "--output"),
        (&cfg.metrics_out, "--metrics-out"),
        (&cfg.trace_out, "--trace-out"),
    ] {
        if let Some(path) = path {
            ensure_parent_dir(path, flag)?;
        }
    }
    let mut blocklist = Blocklist::with_standard_reserved();
    for p in &cfg.blocked {
        blocklist.insert(
            p.parse()
                .map_err(|e| format!("bad blocklist prefix {p:?}: {e}"))?,
            Verdict::Deny,
        );
    }
    let scan_config = ScanConfig {
        seed: cfg.seed,
        shard: cfg.shard,
        shards: cfg.shards,
        max_targets: cfg.max_targets,
        rate_pps: cfg.rate_pps,
        ..Default::default()
    };
    let module = module_for(&cfg);
    let started = std::time::Instant::now();
    let results: ScanResults;
    let mut sink_error = None;
    if let Some(dir) = &cfg.checkpoint {
        // Checkpointed session: journal + periodic snapshots, resumable.
        let world_seed = cfg.world_seed;
        let kill = cfg.kill_after_probes;
        let signal = AbortSignal::new();
        let spec = SessionSpec {
            workers: cfg.workers,
            config: scan_config,
            ranges: cfg.targets.ranges(),
            dir: std::path::Path::new(dir),
            every: cfg.checkpoint_every,
            resume: cfg.resume,
            world_seed,
        };
        let kill_signal = signal.clone();
        let outcome = run_session(
            &spec,
            module.as_ref(),
            &blocklist,
            Some(&signal),
            move |_, telemetry| {
                let mut world = World::new(world_seed);
                world.set_telemetry(telemetry);
                if let Some(n) = kill {
                    world.arm_kill(
                        KillPoint {
                            after_probes: Some(n),
                            ..Default::default()
                        },
                        kill_signal.clone(),
                    );
                }
                world
            },
        )
        .map_err(|e| match e {
            StateError::Mismatch(why) => format!(
                "cannot resume: this invocation's configuration does not match \
                 the checkpointed session; refusing to continue against the \
                 wrong targets ({why})"
            ),
            other => format!("checkpoint: {other}"),
        })?;
        results = outcome.results;
        sink_error = outcome.sink_error;
        if let Some(path) = &cfg.metrics_out {
            let json = outcome.snapshot.to_json();
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        }
    } else if cfg.workers > 1 {
        // Parallel path: each worker owns a nested shard slot, a world
        // replica and a telemetry registry; results and metrics merge
        // deterministically, so the CSV and the snapshot are byte-identical
        // to a single-worker run. The live monitor stays off — there is no
        // single registry to render mid-run. Event rings are likewise
        // per-worker, so --trace-out names a directory here.
        if let Some(dir) = &cfg.trace_out {
            if std::path::Path::new(dir).is_file() {
                return Err(format!(
                    "--trace-out {dir}: {} workers write one event ring each; \
                     pass a directory (it will hold worker-N.ndjson), not a file",
                    cfg.workers
                ));
            }
        }
        let world_seed = cfg.world_seed;
        let make_world = move |_w: usize, telemetry: &Telemetry| {
            let mut world = World::new(world_seed);
            world.set_telemetry(telemetry);
            world
        };
        let mut scanner = if cfg.trace_out.is_some() {
            ParallelScanner::new_traced(cfg.workers, scan_config, make_world)
        } else {
            ParallelScanner::new(cfg.workers, scan_config, make_world)
        };
        results = scanner.run_all(cfg.targets.ranges(), module.as_ref(), &blocklist);
        if let Some(path) = &cfg.metrics_out {
            let json = scanner.snapshot().to_json();
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(dir) = &cfg.trace_out {
            write_worker_traces(dir, &scanner)?;
        }
    } else if let Some(trace_path) = &cfg.replay_trace {
        // Replay: no simulator at all — the recorded trace answers every
        // probe, and any divergence from the recording is a hard error.
        let net = ReplayNet::from_file(std::path::Path::new(trace_path))
            .map_err(|e| format!("--replay-trace {trace_path}: {e}"))?;
        let (r, net) = run_single(&cfg, scan_config, module.as_ref(), &blocklist, |_| net)?;
        if net.desyncs() > 0 || net.mismatched_sends() > 0 {
            return Err(format!(
                "replay diverged from the recorded trace ({} desyncs, {} mismatched \
                 sends); same seed/config/targets as the recording run?",
                net.desyncs(),
                net.mismatched_sends()
            ));
        }
        results = r;
    } else if let Some(record_path) = &cfg.record_wire {
        ensure_parent_dir(record_path, "--record-wire")?;
        let world_seed = cfg.world_seed;
        let (r, recorder) = run_single(
            &cfg,
            scan_config,
            module.as_ref(),
            &blocklist,
            |telemetry| {
                let mut world = World::new(world_seed);
                world.set_telemetry(telemetry);
                WireRecorder::new(world)
            },
        )?;
        recorder
            .save(std::path::Path::new(record_path))
            .map_err(|e| format!("write {record_path}: {e}"))?;
        results = r;
    } else {
        let world_seed = cfg.world_seed;
        let (r, _world) = run_single(
            &cfg,
            scan_config,
            module.as_ref(),
            &blocklist,
            |telemetry| {
                let mut world = World::new(world_seed);
                world.set_telemetry(telemetry);
                world
            },
        )?;
        results = r;
    }

    let csv = xmap::output::to_csv(&results.records);
    match &cfg.output {
        Some(path) => std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{csv}"),
    }
    if !cfg.quiet {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "# {}: sent {} | received {} | valid {} | blocked {} | hit rate {:.4}% | {:.2?}{}",
            module.name(),
            results.stats.sent,
            results.stats.received,
            results.stats.valid,
            results.stats.blocked,
            results.stats.hit_rate() * 100.0,
            started.elapsed(),
            if results.stats.paced_secs > 0.0 {
                format!(
                    " | would take {:.1}s at the configured rate",
                    results.stats.paced_secs
                )
            } else {
                String::new()
            }
        );
        if results.interrupted {
            let _ = writeln!(
                err,
                "# scan interrupted; state checkpointed — rerun with --resume to continue"
            );
        }
    }
    if let Some(e) = sink_error {
        // The scan itself completed; only durability is compromised. Warn
        // rather than fail so the results are not discarded, but flag that
        // the on-disk checkpoint may lag the printed output.
        eprintln!(
            "# WARNING: checkpoint durability degraded and not recovered ({e}); \
             results above are complete, but the session directory may be stale"
        );
    }
    Ok(results.interrupted)
}

/// Hop-limit walk toward an address, printing each responding hop.
fn run_trace(addr: &str, world_seed: u64) -> Result<(), String> {
    let dst: xmap_addr::Ip6 = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut scanner = Scanner::new(World::new(world_seed), ScanConfig::default());
    let mut session = scanner.targeted();
    let mut responses = Vec::new();
    let mut silent = 0;
    for ttl in 1u8..=64 {
        session.probe(dst, &IcmpEchoProbe, ttl, &mut responses);
        match responses.first() {
            Some((src, result)) => {
                silent = 0;
                println!("{ttl:>3}  {src}  {result:?}");
                if !matches!(result, xmap::ProbeResult::TimeExceeded) {
                    return Ok(());
                }
            }
            None => {
                println!("{ttl:>3}  *");
                silent += 1;
                if silent >= 2 {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

/// De-aliasing check: probe several random IIDs under the prefix; aliased
/// prefixes answer every probe from the probed address itself.
fn run_alias_check(prefix: &str, world_seed: u64) -> Result<(), String> {
    let p: xmap_addr::Prefix = prefix
        .parse()
        .map_err(|e| format!("bad prefix {prefix:?}: {e}"))?;
    let mut scanner = Scanner::new(World::new(world_seed), ScanConfig::default());
    let mut session = scanner.targeted();
    let mut answers = Vec::new();
    let mut self_replies = 0;
    const K: u64 = 4;
    for attempt in 0..K {
        let dst = xmap::fill_host_bits(p, 0xa11a5 + attempt);
        session.probe(dst, &IcmpEchoProbe, 64, &mut answers);
        let alive = answers
            .iter()
            .any(|(src, r)| matches!(r, xmap::ProbeResult::Alive) && *src == dst);
        println!(
            "probe {dst}: {}",
            if alive {
                "echo reply (self)"
            } else {
                "no self-reply"
            }
        );
        if alive {
            self_replies += 1;
        } else {
            break;
        }
    }
    println!(
        "{p}: {}",
        if self_replies == K {
            "ALIASED"
        } else {
            "not aliased"
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Mode dispatch: `xmap trace <addr>` / `xmap alias <prefix>`.
    if args.first().map(String::as_str) == Some("trace") {
        let Some(addr) = args.get(1) else {
            eprintln!("xmap: trace requires an address");
            return ExitCode::from(2);
        };
        return match run_trace(addr, 0xDA7A_5EED) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xmap: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("alias") {
        let Some(prefix) = args.get(1) else {
            eprintln!("xmap: alias requires a prefix");
            return ExitCode::from(2);
        };
        return match run_alias_check(prefix, 0xDA7A_5EED) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xmap: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("scan") {
        args.remove(0);
    }
    match parse_args(&args) {
        Ok(cfg) => match run(cfg) {
            Ok(false) => ExitCode::SUCCESS,
            // Interrupted-but-checkpointed is its own exit code so scripts
            // can distinguish "resume me" from hard failures.
            Ok(true) => ExitCode::from(3),
            Err(e) => {
                eprintln!("xmap: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) if e == "help" => {
            eprintln!("usage: xmap [options] <target>... (see the module docs)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xmap: {e}");
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
    fn parses_minimal_invocation() {
        let cfg = parse_args(&args("2405:200::/32-64")).unwrap();
        assert_eq!(cfg.targets.ranges().len(), 1);
        assert_eq!(cfg.module, ModuleChoice::Icmp);
        assert_eq!(cfg.shards, 1);
    }

    #[test]
    fn parses_full_invocation() {
        let cfg = parse_args(&args(
            "-M tcp6_synscan -p 80 -x 1000 -R 25000 -s 7 --world-seed 9 \
             --shard 1 --shards 4 -b 2405:200:dead::/48 \
             -o /tmp/out.csv -q 2405:200::/32-64 2601::/24-56",
        ))
        .unwrap();
        assert_eq!(cfg.module, ModuleChoice::Tcp);
        assert_eq!(cfg.port, Some(80));
        assert_eq!(cfg.max_targets, Some(1000));
        assert_eq!(cfg.rate_pps, Some(25000));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.world_seed, 9);
        assert_eq!((cfg.shard, cfg.shards), (1, 4));
        assert_eq!(cfg.blocked, vec!["2405:200:dead::/48".to_owned()]);
        assert_eq!(cfg.output.as_deref(), Some("/tmp/out.csv"));
        assert!(cfg.quiet);
        assert_eq!(cfg.targets.ranges().len(), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("")).is_err());
        assert!(parse_args(&args("not-a-range")).is_err());
        assert!(parse_args(&args("-M nope 2405:200::/32")).is_err());
        assert!(
            parse_args(&args("-M udp6_scan 2405:200::/32")).is_err(),
            "udp needs port"
        );
        assert!(parse_args(&args("--shard 4 --shards 4 2405:200::/32")).is_err());
        assert!(
            parse_args(&args("-x 2405:200::/32")).is_err(),
            "missing value"
        );
        assert!(
            parse_args(&args("-p 99999 2405:200::/32")).is_err(),
            "port overflow"
        );
        assert!(parse_args(&args("--rate 0 2405:200::/32")).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let cfg = parse_args(&args(
            "--metrics-out /tmp/m.json --trace-out /tmp/t.ndjson 2405:200::/32-64",
        ))
        .unwrap();
        assert_eq!(cfg.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(cfg.trace_out.as_deref(), Some("/tmp/t.ndjson"));
        for removed in ["--status-interval 0.5", "--permutation feistel"] {
            let err = parse_args(&args(&format!("{removed} 2405:200::/32"))).unwrap_err();
            assert!(err.contains("unknown option"), "{removed}: {err}");
        }
    }

    #[test]
    fn parses_workers_flag() {
        let cfg = parse_args(&args("--workers 4 2405:200::/32-64")).unwrap();
        assert_eq!(cfg.workers, 4);
        assert_eq!(parse_args(&args("2405:200::/32-64")).unwrap().workers, 1);
        assert!(parse_args(&args("--workers 0 2405:200::/32")).is_err());
        let cfg = parse_args(&args("--workers 2 --trace-out /tmp/t 2405:200::/32")).unwrap();
        assert_eq!(
            cfg.trace_out.as_deref(),
            Some("/tmp/t"),
            "multi-worker tracing parses; the directory check happens at run time"
        );
    }

    #[test]
    fn multi_worker_trace_writes_one_ring_per_worker() {
        let dir = std::env::temp_dir().join(format!("xmap-trace-rings-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_owned();
        let cfg = parse_args(&args(&format!(
            "-x 2048 -q --workers 3 --trace-out {dir_s} 2402:3a80::/32-64"
        )))
        .unwrap();
        run(cfg).unwrap();
        for w in 0..3 {
            let ring = dir.join(format!("worker-{w}.ndjson"));
            assert!(ring.is_file(), "missing {}", ring.display());
        }

        // A plain file in place of the directory is a clean pre-scan error.
        let file = std::env::temp_dir().join(format!("xmap-trace-file-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let cfg = parse_args(&args(&format!(
            "-x 64 -q --workers 2 --trace-out {} 2402:3a80::/32-64",
            file.display()
        )))
        .unwrap();
        let err = run(cfg).unwrap_err();
        assert!(err.contains("pass a directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn parallel_workers_match_single_worker_output() {
        let cfg = parse_args(&args("-x 1024 -q --workers 3 2402:3a80::/32-64")).unwrap();
        let scan_config = ScanConfig {
            seed: cfg.seed,
            max_targets: cfg.max_targets,
            ..Default::default()
        };
        let run_with = |workers: usize| {
            let world_seed = cfg.world_seed;
            let mut ps = ParallelScanner::new(workers, scan_config.clone(), move |_, telemetry| {
                let mut world = World::new(world_seed);
                world.set_telemetry(telemetry);
                world
            });
            let results = ps.run_all(
                cfg.targets.ranges(),
                &IcmpEchoProbe,
                &Blocklist::allow_all(),
            );
            (
                xmap::output::to_csv(&results.records),
                ps.snapshot().to_json(),
            )
        };
        let (csv1, json1) = run_with(1);
        let (csv3, json3) = run_with(cfg.workers);
        assert_eq!(csv1, csv3);
        assert_eq!(json1, json3);
    }

    #[test]
    fn parses_checkpoint_flags() {
        let cfg = parse_args(&args(
            "--checkpoint /tmp/ck --checkpoint-every 512 --resume \
             --kill-after-probes 100 2405:200::/32-64",
        ))
        .unwrap();
        assert_eq!(cfg.checkpoint.as_deref(), Some("/tmp/ck"));
        assert_eq!(cfg.checkpoint_every, 512);
        assert!(cfg.resume);
        assert_eq!(cfg.kill_after_probes, Some(100));
        assert_eq!(
            parse_args(&args("--checkpoint /tmp/ck 2405:200::/32"))
                .unwrap()
                .checkpoint_every,
            1024
        );
        assert!(
            parse_args(&args("--resume 2405:200::/32")).is_err(),
            "resume needs a checkpoint dir"
        );
        assert!(
            parse_args(&args(
                "--checkpoint /tmp/ck --trace-out /tmp/t 2405:200::/32"
            ))
            .is_err(),
            "tracing is per-worker, not per-session"
        );
    }

    #[test]
    fn parses_wire_trace_flags() {
        // The trace file alone selects replay.
        let cfg = parse_args(&args("--replay-trace /tmp/w.ndjson 2405:200::/32")).unwrap();
        assert_eq!(cfg.replay_trace.as_deref(), Some("/tmp/w.ndjson"));
        let err = parse_args(&args("--transport sim 2405:200::/32")).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(parse_args(&args(
            "--record-wire /tmp/a --replay-trace /tmp/b 2405:200::/32"
        ))
        .is_err());
        assert!(
            parse_args(&args("--workers 2 --record-wire /tmp/w 2405:200::/32")).is_err(),
            "recording is single-wire"
        );
        assert!(parse_args(&args(
            "--checkpoint /tmp/ck --replay-trace /tmp/w 2405:200::/32"
        ))
        .is_err());
    }

    /// A `--record-wire` run's trace must replay to the same CSV through
    /// `--replay-trace`.
    #[test]
    fn sim_record_and_replay_round_trip_through_the_cli() {
        let tmp = std::env::temp_dir().join(format!("xmap-cli-wire-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let csv_sim = tmp.join("sim.csv");
        let csv_replay = tmp.join("replay.csv");
        let trace = tmp.join("wire.ndjson");

        let base = "-x 2048 -q -s 3 2402:3a80::/32-64";
        let cfg = parse_args(&args(&format!(
            "{base} -o {} --record-wire {}",
            csv_sim.display(),
            trace.display()
        )))
        .unwrap();
        run(cfg).unwrap();
        let cfg = parse_args(&args(&format!(
            "{base} --replay-trace {} -o {}",
            trace.display(),
            csv_replay.display()
        )))
        .unwrap();
        run(cfg).unwrap();

        let sim = std::fs::read_to_string(&csv_sim).unwrap();
        let replay = std::fs::read_to_string(&csv_replay).unwrap();
        assert!(sim.lines().count() > 1, "the recorded scan found nothing");
        assert_eq!(sim, replay, "--replay-trace diverged from the recording");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn missing_parent_dir_is_a_clean_error() {
        let err = ensure_parent_dir("/nonexistent-xmap-dir/out.csv", "--output").unwrap_err();
        assert!(err.contains("--output"), "{err}");
        assert!(err.contains("does not exist"), "{err}");
        assert!(ensure_parent_dir("out.csv", "--output").is_ok());
        assert!(ensure_parent_dir("/tmp/out.csv", "--output").is_ok());
    }

    #[test]
    fn udp_module_picks_service_request() {
        let cfg = parse_args(&args("-M udp6_scan -p 53 2405:200::/32")).unwrap();
        let module = module_for(&cfg);
        assert_eq!(module.name(), "udp6_scan");
    }

    #[test]
    fn end_to_end_scan_produces_csv() {
        let cfg = parse_args(&args("-x 4096 -q 2402:3a80::/32-64")).unwrap();
        // Run against a tiny slice; validate via the library directly.
        let mut scanner = Scanner::new(
            World::new(cfg.world_seed),
            ScanConfig {
                seed: cfg.seed,
                max_targets: cfg.max_targets,
                ..Default::default()
            },
        );
        let results = scanner.run_all(
            cfg.targets.ranges(),
            &IcmpEchoProbe,
            &Blocklist::with_standard_reserved(),
        );
        assert!(results.stats.sent > 0);
        let csv = xmap::output::to_csv(&results.records);
        assert!(csv.starts_with(xmap::output::CSV_HEADER));
        assert_eq!(
            xmap::output::from_csv(&csv).unwrap().len(),
            results.records.len()
        );
    }
}
