//! `xmap-serve` — the multi-tenant scan-campaign daemon and its
//! control client.
//!
//! ```text
//! xmap-serve daemon --root DIR --socket PATH [--workers N]
//!                   [--max-per-tenant N] [--max-total N]
//!                   [--weight TENANT=W]... [-q]
//!
//! xmap-serve ctl --socket PATH ping
//! xmap-serve ctl --socket PATH submit --tenant T --type campaign
//!                   [--targets-per-block N] [--seed N] [--world-seed N]
//!                   [--mop-up TICKS]
//! xmap-serve ctl --socket PATH submit --tenant T --type loopscan
//!                   [--probes-per-block N] [--seed N] [--world-seed N]
//! xmap-serve ctl --socket PATH submit --tenant T --type appscan
//!                   --target ADDR [--target ADDR]... [--seed N] [--world-seed N]
//! xmap-serve ctl --socket PATH status|drain
//! xmap-serve ctl --socket PATH cancel --job N
//! ```
//!
//! The daemon runs until drained (`ctl drain`) or killed; a restart on
//! the same `--root` resumes every in-flight job. Exit codes: 0 drained
//! cleanly, 1 storage fault (state on disk stays resumable), 2 usage
//! error.

use std::process::ExitCode;

#[cfg(unix)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => daemon_main(&args[1..]),
        Some("ctl") => ctl_main(&args[1..]),
        Some("-h") | Some("--help") => {
            print_help();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("xmap-serve: expected a `daemon` or `ctl` subcommand");
            print_help();
            ExitCode::from(2)
        }
    }
}

#[cfg(not(unix))]
fn main() -> ExitCode {
    eprintln!("xmap-serve: the control socket requires a Unix platform");
    ExitCode::from(2)
}

#[cfg(unix)]
fn print_help() {
    eprintln!(
        "usage:\n  xmap-serve daemon --root DIR --socket PATH [--workers N]\n\
         \x20                 [--max-per-tenant N] [--max-total N] [--weight TENANT=W]... [-q]\n\
         \x20 xmap-serve ctl --socket PATH ping|status|drain\n\
         \x20 xmap-serve ctl --socket PATH submit --tenant T --type campaign|loopscan|appscan ...\n\
         \x20 xmap-serve ctl --socket PATH cancel --job N"
    );
}

#[cfg(unix)]
fn daemon_main(args: &[String]) -> ExitCode {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};

    use xmap_serve::daemon::{Daemon, ServeConfig};
    use xmap_serve::proto::socket;
    use xmap_serve::sched::AdmissionPolicy;

    let mut root: Option<PathBuf> = None;
    let mut sock: Option<PathBuf> = None;
    let mut cfg = ServeConfig::default();
    let mut quiet = false;
    let mut iter = args.iter().peekable();
    let result = (|| -> Result<(), String> {
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
                "--root" => root = Some(PathBuf::from(value(&mut iter, arg)?)),
                "--socket" => sock = Some(PathBuf::from(value(&mut iter, arg)?)),
                "--workers" => cfg.workers = int(&mut iter, arg)?.max(1) as usize,
                "--max-per-tenant" => {
                    cfg.admission = AdmissionPolicy {
                        max_active_per_tenant: int(&mut iter, arg)? as usize,
                        ..cfg.admission
                    }
                }
                "--max-total" => {
                    cfg.admission = AdmissionPolicy {
                        max_active_total: int(&mut iter, arg)? as usize,
                        ..cfg.admission
                    }
                }
                "--weight" => {
                    let raw = value(&mut iter, arg)?;
                    let (tenant, w) = raw
                        .split_once('=')
                        .ok_or_else(|| format!("--weight expects TENANT=W, got {raw:?}"))?;
                    let w: u64 = w
                        .parse()
                        .map_err(|_| format!("--weight {raw:?}: weight must be an integer"))?;
                    cfg.tenant_weights.insert(tenant.to_owned(), w);
                }
                "-q" | "--quiet" => quiet = true,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(())
    })();
    if let Err(msg) = result {
        eprintln!("xmap-serve daemon: {msg}");
        return ExitCode::from(2);
    }
    let (Some(root), Some(sock)) = (root, sock) else {
        eprintln!("xmap-serve daemon: --root and --socket are required");
        return ExitCode::from(2);
    };
    let daemon = match Daemon::open(&root, cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xmap-serve daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (jobs, units) = daemon.resumed();
    if !quiet {
        eprintln!(
            "# xmap-serve: root {} resumed {jobs} jobs ({units} units pending)",
            root.display()
        );
    }
    // A stale socket file from a killed daemon would fail the bind.
    let _ = std::fs::remove_file(&sock);
    let listener = match std::os::unix::net::UnixListener::bind(&sock) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xmap-serve daemon: bind {}: {e}", sock.display());
            return ExitCode::FAILURE;
        }
    };
    let stopped = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        let engine = scope.spawn(|| {
            let out = daemon.run();
            stopped.store(true, Ordering::Release);
            socket::poke(&sock);
            out
        });
        socket::serve(&daemon, &listener, &stopped);
        engine.join().expect("engine thread does not panic")
    });
    let _ = std::fs::remove_file(&sock);
    match outcome {
        Ok(drained) => {
            if !quiet {
                eprintln!(
                    "# xmap-serve: drained ({} jobs completed)",
                    drained.completed
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xmap-serve daemon: {e}");
            eprintln!(
                "# xmap-serve: state under {} remains resumable",
                root.display()
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn ctl_main(args: &[String]) -> ExitCode {
    use std::path::PathBuf;

    use xmap_serve::proto::socket;
    use xmap_state::json::{self, push_json_string, Value};

    let mut sock: Option<PathBuf> = None;
    let mut verb: Option<String> = None;
    let mut tenant = "default".to_owned();
    let mut kind: Option<String> = None;
    let mut targets_per_block = 1u64 << 12;
    let mut probes_per_block = 256u64;
    let mut targets: Vec<String> = Vec::new();
    let mut seed = 1u64;
    let mut world_seed = 0xDA7A_5EEDu64;
    let mut mop_up: Option<u64> = None;
    let mut job: Option<u64> = None;
    let mut iter = args.iter().peekable();
    let result = (|| -> Result<(), String> {
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
                "--socket" => sock = Some(PathBuf::from(value(&mut iter, arg)?)),
                "ping" | "status" | "drain" | "submit" | "cancel" => {
                    if verb.is_some() {
                        return Err(format!("unexpected second command {arg:?}"));
                    }
                    verb = Some(arg.clone());
                }
                "--tenant" => tenant = value(&mut iter, arg)?,
                "--type" => kind = Some(value(&mut iter, arg)?),
                "--targets-per-block" => targets_per_block = int(&mut iter, arg)?,
                "--probes-per-block" => probes_per_block = int(&mut iter, arg)?,
                "--target" => targets.push(value(&mut iter, arg)?),
                "-s" | "--seed" => seed = int(&mut iter, arg)?,
                "--world-seed" => world_seed = int(&mut iter, arg)?,
                "--mop-up" => mop_up = Some(int(&mut iter, arg)?),
                "--job" => job = Some(int(&mut iter, arg)?),
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(())
    })();
    if let Err(msg) = result {
        eprintln!("xmap-serve ctl: {msg}");
        return ExitCode::from(2);
    }
    let Some(sock) = sock else {
        eprintln!("xmap-serve ctl: --socket is required");
        return ExitCode::from(2);
    };
    let Some(verb) = verb else {
        eprintln!("xmap-serve ctl: expected ping|status|drain|submit|cancel");
        return ExitCode::from(2);
    };
    let request = match verb.as_str() {
        "ping" => "{\"cmd\":\"ping\"}".to_owned(),
        "status" => "{\"cmd\":\"status\"}".to_owned(),
        "drain" => "{\"cmd\":\"drain\"}".to_owned(),
        "cancel" => {
            let Some(job) = job else {
                eprintln!("xmap-serve ctl: cancel requires --job N");
                return ExitCode::from(2);
            };
            format!("{{\"cmd\":\"cancel\",\"job\":{job}}}")
        }
        "submit" => {
            let spec = match kind.as_deref() {
                Some("campaign") => {
                    let mop = mop_up
                        .map(|t| format!(",\"mop_up_ticks\":{t}"))
                        .unwrap_or_default();
                    format!(
                        "{{\"type\":\"periphery-campaign\",\"targets_per_block\":{targets_per_block},\
                         \"seed\":{seed},\"world_seed\":{world_seed}{mop}}}"
                    )
                }
                Some("loopscan") => format!(
                    "{{\"type\":\"loopscan-survey\",\"probes_per_block\":{probes_per_block},\
                     \"seed\":{seed},\"world_seed\":{world_seed}}}"
                ),
                Some("appscan") => {
                    if targets.is_empty() {
                        eprintln!("xmap-serve ctl: appscan submit requires --target ADDR");
                        return ExitCode::from(2);
                    }
                    let mut list = String::new();
                    for (i, t) in targets.iter().enumerate() {
                        if i > 0 {
                            list.push(',');
                        }
                        push_json_string(&mut list, t);
                    }
                    format!(
                        "{{\"type\":\"appscan-grab\",\"targets\":[{list}],\
                         \"seed\":{seed},\"world_seed\":{world_seed}}}"
                    )
                }
                _ => {
                    eprintln!("xmap-serve ctl: submit requires --type campaign|loopscan|appscan");
                    return ExitCode::from(2);
                }
            };
            let mut req = String::from("{\"cmd\":\"submit\",\"tenant\":");
            push_json_string(&mut req, &tenant);
            req.push_str(",\"spec\":");
            req.push_str(&spec);
            req.push('}');
            req
        }
        _ => unreachable!("verb is validated above"),
    };
    let response = match socket::request(&sock, &request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xmap-serve ctl: {}: {e}", sock.display());
            return ExitCode::FAILURE;
        }
    };
    println!("{response}");
    match json::parse(&response, "daemon response")
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
    {
        Some(true) => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}
