//! The control plane: newline-delimited JSON requests over a Unix
//! domain socket.
//!
//! One request per line, one response per line, any number of requests
//! per connection. Requests are objects with a `cmd` field:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"submit","tenant":"alice","spec":{"type":"periphery-campaign",
//!     "targets_per_block":4096,"seed":7,"world_seed":99}}
//! {"cmd":"status"}
//! {"cmd":"cancel","job":3}
//! {"cmd":"drain"}
//! ```
//!
//! Responses always carry `"ok"`: `{"ok":true,...}` on success,
//! `{"ok":false,"error":"..."}` on failure. A malformed line never
//! kills the daemon — it produces an error response.
//!
//! Everything except the socket plumbing is synchronous, pure
//! string-to-string code ([`handle_line`]), so the whole protocol is
//! unit-testable without a socket.

use xmap_addr::Ip6;
use xmap_state::json::{self, push_json_string, Value};

use crate::daemon::Daemon;
use crate::job::JobSpec;

/// Handles one request line against `daemon`, returning the response
/// line (without the trailing newline).
pub fn handle_line(daemon: &Daemon, line: &str) -> String {
    match run_cmd(daemon, line) {
        Ok(body) => body,
        Err(msg) => {
            let mut out = String::from("{\"ok\":false,\"error\":");
            push_json_string(&mut out, &msg);
            out.push('}');
            out
        }
    }
}

fn run_cmd(daemon: &Daemon, line: &str) -> Result<String, String> {
    let req = json::parse(line, "control request").map_err(|e| e.to_string())?;
    let cmd = req
        .req_str("cmd", "control request")
        .map_err(|e| e.to_string())?;
    match cmd.as_str() {
        "ping" => Ok("{\"ok\":true,\"pong\":true}".to_owned()),
        "submit" => {
            let tenant = req
                .req_str("tenant", "submit request")
                .map_err(|e| e.to_string())?;
            let spec = parse_spec(
                req.get("spec")
                    .ok_or_else(|| "submit request: missing `spec`".to_owned())?,
            )?;
            let job = daemon.submit(&tenant, spec).map_err(|e| e.to_string())?;
            Ok(format!("{{\"ok\":true,\"job\":{job}}}"))
        }
        "cancel" => {
            let job = req
                .req_u64("job", "cancel request")
                .map_err(|e| e.to_string())?;
            daemon.cancel(job).map_err(|e| e.to_string())?;
            Ok(format!("{{\"ok\":true,\"job\":{job}}}"))
        }
        "drain" => {
            daemon.drain();
            Ok("{\"ok\":true,\"draining\":true}".to_owned())
        }
        "status" => Ok(render_status(daemon)),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses the `spec` object of a submit request.
pub fn parse_spec(spec: &Value) -> Result<JobSpec, String> {
    let kind = spec
        .req_str("type", "job spec")
        .map_err(|e| e.to_string())?;
    let seed = spec
        .req_u64("seed", "job spec")
        .map_err(|e| e.to_string())?;
    let world_seed = spec
        .req_u64("world_seed", "job spec")
        .map_err(|e| e.to_string())?;
    match kind.as_str() {
        "periphery-campaign" => {
            let mut block_targets = Vec::new();
            if let Some(raw) = spec.get("block_targets").and_then(Value::as_arr) {
                for v in raw {
                    let pair = v.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        "campaign spec: block_targets entries must be [block, targets] pairs"
                            .to_owned()
                    })?;
                    let idx = pair[0].as_u64().ok_or_else(|| {
                        "campaign spec: block index must be an integer".to_owned()
                    })?;
                    let n = pair[1].as_u64().filter(|n| *n >= 1).ok_or_else(|| {
                        "campaign spec: per-block targets must be a positive integer".to_owned()
                    })?;
                    let blocks = xmap_netsim::isp::SAMPLE_BLOCKS.len() as u64;
                    if idx >= blocks {
                        return Err(format!(
                            "campaign spec: block {idx} out of range (campaign has {blocks} blocks)"
                        ));
                    }
                    block_targets.push((idx as usize, n));
                }
            }
            Ok(JobSpec::PeripheryCampaign {
                targets_per_block: spec
                    .req_u64("targets_per_block", "campaign spec")
                    .map_err(|e| e.to_string())?,
                seed,
                world_seed,
                mop_up_ticks: spec.get("mop_up_ticks").and_then(Value::as_u64),
                block_targets,
            })
        }
        "loopscan-survey" => Ok(JobSpec::LoopscanSurvey {
            probes_per_block: spec
                .req_u64("probes_per_block", "survey spec")
                .map_err(|e| e.to_string())?,
            seed,
            world_seed,
        }),
        "appscan-grab" => {
            let raw = spec
                .get("targets")
                .and_then(Value::as_arr)
                .ok_or_else(|| "grab spec: missing `targets` array".to_owned())?;
            if raw.is_empty() {
                return Err("grab spec: `targets` must be non-empty".to_owned());
            }
            let mut targets = Vec::with_capacity(raw.len());
            for v in raw {
                let s = v
                    .as_str()
                    .ok_or_else(|| "grab spec: targets must be address strings".to_owned())?;
                targets.push(
                    s.parse::<Ip6>()
                        .map_err(|e| format!("grab spec: bad address `{s}`: {e}"))?,
                );
            }
            Ok(JobSpec::AppscanGrab {
                targets,
                seed,
                world_seed,
            })
        }
        "adaptive-campaign" => {
            let root_bits = match spec.get("root_bits").and_then(Value::as_u64) {
                Some(b) if b == 0 || b > 64 => {
                    return Err(format!("adaptive spec: root_bits {b} out of range 1..=64"))
                }
                Some(b) => Some(b as u8),
                None => None,
            };
            Ok(JobSpec::AdaptiveCampaign {
                probe_budget: spec
                    .req_u64("probe_budget", "adaptive spec")
                    .map_err(|e| e.to_string())?,
                root_bits,
                seed,
                world_seed,
            })
        }
        other => Err(format!("unknown job type `{other}`")),
    }
}

fn render_status(daemon: &Daemon) -> String {
    let report = daemon.status();
    let mut out = String::with_capacity(256);
    out.push_str("{\"ok\":true,\"draining\":");
    out.push_str(if report.draining { "true" } else { "false" });
    out.push_str(&format!(
        ",\"queue_depth\":{},\"jobs\":[",
        report.queue_depth
    ));
    for (i, j) in report.jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"job\":{},\"tenant\":", j.job));
        push_json_string(&mut out, &j.tenant);
        out.push_str(&format!(
            ",\"kind\":\"{}\",\"state\":\"{}\",\"units_done\":{},\"units_total\":{},\
             \"sent\":{},\"budget\":{}}}",
            j.kind, j.state, j.units_done, j.units_total, j.sent, j.budget
        ));
    }
    out.push_str("],\"tenants\":{");
    for (i, (tenant, sent)) in report.tenant_sent.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, tenant);
        let depth = report.tenant_depth.get(tenant).copied().unwrap_or(0);
        out.push_str(&format!(":{{\"sent\":{sent},\"pending_units\":{depth}}}"));
    }
    out.push_str("}}");
    out
}

/// Socket plumbing (Unix only): the daemon side serves connections
/// serially (`ctl` clients are one-shot), the client side sends one
/// request and reads one response.
#[cfg(unix)]
pub mod socket {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::daemon::Daemon;

    /// Serves control connections until `stopped` is observed set (the
    /// engine pokes the socket after draining to unblock `accept`).
    pub fn serve(daemon: &Daemon, listener: &UnixListener, stopped: &AtomicBool) {
        for conn in listener.incoming() {
            if stopped.load(Ordering::Acquire) {
                break;
            }
            // A broken connection only loses that client.
            let Ok(stream) = conn else { continue };
            let _ = serve_conn(daemon, stream);
        }
    }

    fn serve_conn(daemon: &Daemon, stream: UnixStream) -> std::io::Result<()> {
        let mut writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut response = super::handle_line(daemon, &line);
            response.push('\n');
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
        }
        Ok(())
    }

    /// Unblocks a [`serve`] loop stuck in `accept` by connecting once.
    pub fn poke(path: &Path) {
        let _ = UnixStream::connect(path);
    }

    /// Client side: sends one request line, returns the response line.
    pub fn request(path: &Path, line: &str) -> std::io::Result<String> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        Ok(response.trim_end().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xmap-serve-proto-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn protocol_round_trip() {
        let root = temp_root("rt");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        assert_eq!(
            handle_line(&daemon, "{\"cmd\":\"ping\"}"),
            "{\"ok\":true,\"pong\":true}"
        );
        let resp = handle_line(
            &daemon,
            "{\"cmd\":\"submit\",\"tenant\":\"alice\",\"spec\":{\"type\":\"loopscan-survey\",\
             \"probes_per_block\":64,\"seed\":3,\"world_seed\":5}}",
        );
        let v = json::parse(&resp, "submit response").expect("valid json");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let job = v.req_u64("job", "submit response").expect("job id");
        let status = handle_line(&daemon, "{\"cmd\":\"status\"}");
        let v = json::parse(&status, "status response").expect("valid json");
        let jobs = v.get("jobs").and_then(Value::as_arr).expect("jobs array");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].req_u64("job", "job row").unwrap(), job);
        assert_eq!(
            jobs[0].req_str("kind", "job row").unwrap(),
            "loopscan-survey"
        );
        let resp = handle_line(&daemon, &format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"));
        assert!(resp.contains("\"ok\":true"));
        let resp = handle_line(&daemon, "{\"cmd\":\"drain\"}");
        assert!(resp.contains("\"draining\":true"));
        daemon.run().expect("drained run");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_lines_yield_error_responses() {
        let root = temp_root("bad");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        for line in [
            "not json",
            "{}",
            "{\"cmd\":\"warp\"}",
            "{\"cmd\":\"submit\",\"tenant\":\"a\",\"spec\":{\"type\":\"nope\",\"seed\":1,\"world_seed\":1}}",
            "{\"cmd\":\"submit\",\"tenant\":\"a\",\"spec\":{\"type\":\"appscan-grab\",\"targets\":[],\"seed\":1,\"world_seed\":1}}",
            "{\"cmd\":\"submit\",\"tenant\":\"a\",\"spec\":{\"type\":\"appscan-grab\",\"targets\":[\"zz\"],\"seed\":1,\"world_seed\":1}}",
            "{\"cmd\":\"cancel\",\"job\":42}",
        ] {
            let resp = handle_line(&daemon, line);
            assert!(
                resp.starts_with("{\"ok\":false,\"error\":"),
                "line `{line}` got `{resp}`"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One deeply nested line must cost its sender an error response, not
    /// the daemon its stack.
    #[test]
    fn deeply_nested_line_yields_error_response() {
        let root = temp_root("deep");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        let resp = handle_line(&daemon, &"[".repeat(200_000));
        assert!(resp.starts_with("{\"ok\":false,\"error\":"), "{resp}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn spec_parse_accepts_all_kinds() {
        let v = json::parse(
            "{\"type\":\"periphery-campaign\",\"targets_per_block\":128,\"seed\":1,\
             \"world_seed\":2,\"mop_up_ticks\":64}",
            "spec",
        )
        .unwrap();
        assert_eq!(
            parse_spec(&v).unwrap(),
            JobSpec::PeripheryCampaign {
                targets_per_block: 128,
                seed: 1,
                world_seed: 2,
                mop_up_ticks: Some(64),
                block_targets: Vec::new(),
            }
        );
        let v = json::parse(
            "{\"type\":\"periphery-campaign\",\"targets_per_block\":128,\"seed\":1,\
             \"world_seed\":2,\"block_targets\":[[2,65536],[0,64]]}",
            "spec",
        )
        .unwrap();
        assert_eq!(
            parse_spec(&v).unwrap(),
            JobSpec::PeripheryCampaign {
                targets_per_block: 128,
                seed: 1,
                world_seed: 2,
                mop_up_ticks: None,
                block_targets: vec![(2, 65536), (0, 64)],
            }
        );
        for bad in [
            "[[99,64]]",  // block index out of range
            "[[2,0]]",    // zero targets
            "[[2]]",      // not a pair
            "[\"2:64\"]", // wrong element shape
        ] {
            let v = json::parse(
                &format!(
                    "{{\"type\":\"periphery-campaign\",\"targets_per_block\":128,\"seed\":1,\
                     \"world_seed\":2,\"block_targets\":{bad}}}"
                ),
                "spec",
            )
            .unwrap();
            assert!(parse_spec(&v).is_err(), "{bad} must be rejected");
        }
        let v = json::parse(
            "{\"type\":\"appscan-grab\",\"targets\":[\"2001:db8::1\"],\"seed\":1,\"world_seed\":2}",
            "spec",
        )
        .unwrap();
        match parse_spec(&v).unwrap() {
            JobSpec::AppscanGrab { targets, .. } => assert_eq!(targets.len(), 1),
            other => panic!("wrong kind: {other:?}"),
        }
        let v = json::parse(
            "{\"type\":\"adaptive-campaign\",\"probe_budget\":2048,\"root_bits\":12,\
             \"seed\":1,\"world_seed\":2}",
            "spec",
        )
        .unwrap();
        assert_eq!(
            parse_spec(&v).unwrap(),
            JobSpec::AdaptiveCampaign {
                probe_budget: 2048,
                root_bits: Some(12),
                seed: 1,
                world_seed: 2,
            }
        );
        let v = json::parse(
            "{\"type\":\"adaptive-campaign\",\"probe_budget\":64,\"root_bits\":99,\
             \"seed\":1,\"world_seed\":2}",
            "spec",
        )
        .unwrap();
        assert!(parse_spec(&v).is_err(), "root_bits out of range");
    }

    #[test]
    fn status_reports_budget_per_job() {
        let root = temp_root("budget");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        let resp = handle_line(
            &daemon,
            "{\"cmd\":\"submit\",\"tenant\":\"bob\",\"spec\":{\"type\":\"adaptive-campaign\",\
             \"probe_budget\":512,\"root_bits\":10,\"seed\":3,\"world_seed\":5}}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let status = handle_line(&daemon, "{\"cmd\":\"status\"}");
        let v = json::parse(&status, "status response").expect("valid json");
        let jobs = v.get("jobs").and_then(Value::as_arr).expect("jobs array");
        assert_eq!(jobs[0].req_str("kind", "row").unwrap(), "adaptive-campaign");
        // 15 blocks, 512 probes budgeted each.
        assert_eq!(jobs[0].req_u64("budget", "row").unwrap(), 15 * 512);
        assert_eq!(jobs[0].req_u64("sent", "row").unwrap(), 0);
        let _ = handle_line(&daemon, "{\"cmd\":\"drain\"}");
        daemon.run().expect("drained run");
        let status = handle_line(&daemon, "{\"cmd\":\"status\"}");
        let v = json::parse(&status, "status response").expect("valid json");
        let jobs = v.get("jobs").and_then(Value::as_arr).expect("jobs array");
        let sent = jobs[0].req_u64("sent", "row").unwrap();
        let budget = jobs[0].req_u64("budget", "row").unwrap();
        assert!(sent > 0, "drained adaptive job must have probed");
        assert!(
            sent <= budget,
            "probes-sent {sent} must stay within budget {budget}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
