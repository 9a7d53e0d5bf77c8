//! Wire-trace recording and replay.
//!
//! A [`WireRecorder`] wraps any [`Network`] and journals every exchange
//! — probes sent, replies observed (immediate and delayed), and clock
//! advances — as NDJSON, one event per line (the shape a pcap-derived
//! trace would be converted into). A [`ReplayNet`] then *is* a
//! [`Network`] backed by such a trace: it re-serves the recorded
//! replies in order, so a scan with the same seed and configuration
//! reproduces the original run's artifacts byte for byte without the
//! simulator (or, one day, the wire) being present. A scanner built
//! over a `ReplayNet` is the backend behind `--replay-trace`.
//!
//! ## Trace format (`xmap-wire-trace/v2`)
//!
//! ```text
//! {"v":2,"kind":"xmap-wire-trace"}
//! {"ev":"send","tick":0,"inflight":0,"pkt":{...}}
//! {"ev":"recv","tick":0,"pkt":{...}}   <- immediate reply to the send
//! {"ev":"tick","n":1,"tick":1,"inflight":2}
//! {"ev":"recv","tick":1,"pkt":{...}}   <- reply that came due in the advance
//! ```
//!
//! A `recv` line belongs to the nearest preceding `send` or `tick`
//! line; that positional attachment is what lets replay reproduce the
//! immediate-vs-delayed split the scan loop's RTT accounting depends on.
//! `inflight` is the recorded network's [`Network::in_flight`] right
//! after the call, so the replay answers the loop's in-flight questions
//! as the recording did. A v1 trace, which did not record it, is
//! refused with [`ReplayError::Version`].

use std::fmt;
use std::path::Path;

use xmap_addr::Ip6;
use xmap_netsim::packet::{
    AppData, Icmpv6, Invoking, Ipv6Packet, Network, Payload, QuotedProto, TcpFlags, UnreachCode,
};
use xmap_netsim::services::{intern_vendor, AppRequest, AppResponse, SoftwareId};
use xmap_state::json::{self, push_json_string, Value};

/// The wire-trace format version this build writes and reads.
const TRACE_VERSION: u64 = 2;

/// Errors loading or replaying a wire trace.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace file could not be read.
    Io(std::io::Error),
    /// The trace is an `xmap-wire-trace` of another format version.
    Version(u64),
    /// The trace text is not a well-formed `xmap-wire-trace/v2`.
    Corrupt(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "wire trace I/O error: {e}"),
            ReplayError::Version(v) => write!(
                f,
                "unsupported wire trace version: found `xmap-wire-trace/v{v}`, \
                 this build reads v{TRACE_VERSION}; re-record the trace"
            ),
            ReplayError::Corrupt(why) => write!(f, "corrupt wire trace: {why}"),
        }
    }
}

impl std::error::Error for ReplayError {}

// ---------------------------------------------------------------------
// Packet codec
// ---------------------------------------------------------------------

fn push_addr(out: &mut String, ip: Ip6) {
    push_json_string(out, &ip.to_string());
}

fn encode_invoking(out: &mut String, inv: &Invoking) {
    out.push_str("{\"src\":");
    push_addr(out, inv.src);
    out.push_str(",\"dst\":");
    push_addr(out, inv.dst);
    out.push_str(",\"proto\":");
    match inv.proto {
        QuotedProto::Icmp { ident, seq } => {
            out.push_str(&format!(
                "{{\"t\":\"icmp\",\"ident\":{ident},\"seq\":{seq}}}"
            ));
        }
        QuotedProto::Udp { src_port, dst_port } => {
            out.push_str(&format!(
                "{{\"t\":\"udp\",\"sp\":{src_port},\"dp\":{dst_port}}}"
            ));
        }
        QuotedProto::Tcp { src_port, dst_port } => {
            out.push_str(&format!(
                "{{\"t\":\"tcp\",\"sp\":{src_port},\"dp\":{dst_port}}}"
            ));
        }
        QuotedProto::OtherIcmp => out.push_str("{\"t\":\"other\"}"),
    }
    out.push('}');
}

fn encode_opt_vendor(out: &mut String, vendor: Option<&'static str>) {
    match vendor {
        None => out.push_str("null"),
        Some(v) => push_json_string(out, v),
    }
}

fn encode_app(out: &mut String, data: &AppData) {
    match data {
        AppData::None => out.push_str("{\"t\":\"none\"}"),
        AppData::Request(req) => {
            let kind = match req {
                AppRequest::DnsQuery => "dns",
                AppRequest::NtpVersionQuery => "ntp",
                AppRequest::FtpConnect => "ftp",
                AppRequest::SshVersionRequest => "ssh",
                AppRequest::TelnetLogin => "telnet",
                AppRequest::HttpGet => "http",
                AppRequest::TlsCertificateRequest => "tls",
            };
            out.push_str(&format!("{{\"t\":\"req\",\"kind\":\"{kind}\"}}"));
        }
        AppData::Response(resp) => {
            out.push_str("{\"t\":\"resp\",");
            match resp {
                AppResponse::DnsAnswer { software } => {
                    out.push_str(&format!("\"kind\":\"dns\",\"sw\":{}", software.0));
                }
                AppResponse::NtpVersionReply { version } => {
                    out.push_str(&format!("\"kind\":\"ntp\",\"ver\":{version}"));
                }
                AppResponse::FtpBanner { software } => {
                    out.push_str(&format!("\"kind\":\"ftp\",\"sw\":{}", software.0));
                }
                AppResponse::SshBanner { software } => {
                    out.push_str(&format!("\"kind\":\"ssh\",\"sw\":{}", software.0));
                }
                AppResponse::TelnetPrompt { vendor_banner } => {
                    out.push_str("\"kind\":\"telnet\",\"vendor\":");
                    encode_opt_vendor(out, *vendor_banner);
                }
                AppResponse::HttpPage {
                    software,
                    login_page,
                    vendor,
                } => {
                    out.push_str(&format!(
                        "\"kind\":\"http\",\"sw\":{},\"login\":{login_page},\"vendor\":",
                        software.0
                    ));
                    encode_opt_vendor(out, *vendor);
                }
                AppResponse::TlsCertificate { vendor } => {
                    out.push_str("\"kind\":\"tls\",\"vendor\":");
                    encode_opt_vendor(out, *vendor);
                }
            }
            out.push('}');
        }
    }
}

/// Appends the JSON object encoding of `pkt` to `out`.
pub fn encode_packet(out: &mut String, pkt: &Ipv6Packet) {
    out.push_str("{\"src\":");
    push_addr(out, pkt.src);
    out.push_str(",\"dst\":");
    push_addr(out, pkt.dst);
    out.push_str(&format!(",\"hop\":{},\"pl\":", pkt.hop_limit));
    match &pkt.payload {
        Payload::Icmp(Icmpv6::EchoRequest { ident, seq }) => {
            out.push_str(&format!(
                "{{\"t\":\"echo_req\",\"ident\":{ident},\"seq\":{seq}}}"
            ));
        }
        Payload::Icmp(Icmpv6::EchoReply { ident, seq }) => {
            out.push_str(&format!(
                "{{\"t\":\"echo_rep\",\"ident\":{ident},\"seq\":{seq}}}"
            ));
        }
        Payload::Icmp(Icmpv6::DestUnreachable { code, invoking }) => {
            let code = match code {
                UnreachCode::NoRoute => "no_route",
                UnreachCode::AdminProhibited => "admin",
                UnreachCode::AddressUnreachable => "addr",
                UnreachCode::PortUnreachable => "port",
                UnreachCode::SourcePolicy => "policy",
                UnreachCode::RejectRoute => "reject",
            };
            out.push_str(&format!("{{\"t\":\"unreach\",\"code\":\"{code}\",\"inv\":"));
            encode_invoking(out, invoking);
            out.push('}');
        }
        Payload::Icmp(Icmpv6::TimeExceeded { invoking }) => {
            out.push_str("{\"t\":\"time_exc\",\"inv\":");
            encode_invoking(out, invoking);
            out.push('}');
        }
        Payload::Udp {
            src_port,
            dst_port,
            data,
        } => {
            out.push_str(&format!(
                "{{\"t\":\"udp\",\"sp\":{src_port},\"dp\":{dst_port},\"app\":"
            ));
            encode_app(out, data);
            out.push('}');
        }
        Payload::Tcp {
            src_port,
            dst_port,
            flags,
            data,
        } => {
            let flags = match flags {
                TcpFlags::Syn => "syn",
                TcpFlags::SynAck => "syn_ack",
                TcpFlags::Rst => "rst",
                TcpFlags::Ack => "ack",
                TcpFlags::Fin => "fin",
            };
            out.push_str(&format!(
                "{{\"t\":\"tcp\",\"sp\":{src_port},\"dp\":{dst_port},\"flags\":\"{flags}\",\"app\":"
            ));
            encode_app(out, data);
            out.push('}');
        }
    }
    out.push('}');
}

fn corrupt(why: impl Into<String>) -> ReplayError {
    ReplayError::Corrupt(why.into())
}

fn req_u64(v: &Value, key: &str, what: &str) -> Result<u64, ReplayError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| corrupt(format!("{what}: missing numeric `{key}`")))
}

fn req_str<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, ReplayError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| corrupt(format!("{what}: missing string `{key}`")))
}

fn decode_addr(v: &Value, key: &str, what: &str) -> Result<Ip6, ReplayError> {
    req_str(v, key, what)?
        .parse()
        .map_err(|_| corrupt(format!("{what}: bad address in `{key}`")))
}

fn decode_port(v: &Value, key: &str, what: &str) -> Result<u16, ReplayError> {
    u16::try_from(req_u64(v, key, what)?)
        .map_err(|_| corrupt(format!("{what}: `{key}` out of u16 range")))
}

fn decode_invoking(v: &Value, what: &str) -> Result<Invoking, ReplayError> {
    let src = decode_addr(v, "src", what)?;
    let dst = decode_addr(v, "dst", what)?;
    let p = v
        .get("proto")
        .ok_or_else(|| corrupt(format!("{what}: missing `proto`")))?;
    let proto = match req_str(p, "t", what)? {
        "icmp" => QuotedProto::Icmp {
            ident: decode_port(p, "ident", what)?,
            seq: decode_port(p, "seq", what)?,
        },
        "udp" => QuotedProto::Udp {
            src_port: decode_port(p, "sp", what)?,
            dst_port: decode_port(p, "dp", what)?,
        },
        "tcp" => QuotedProto::Tcp {
            src_port: decode_port(p, "sp", what)?,
            dst_port: decode_port(p, "dp", what)?,
        },
        "other" => QuotedProto::OtherIcmp,
        t => return Err(corrupt(format!("{what}: unknown quoted proto `{t}`"))),
    };
    Ok(Invoking { src, dst, proto })
}

/// Re-interns a recorded vendor string. Known strings resolve back to
/// the simulation's static vocabulary; unknown ones (a trace from a
/// different build) are leaked once — traces carry a small closed set.
fn decode_vendor(v: &Value, key: &str) -> Option<&'static str> {
    let s = v.get(key)?.as_str()?;
    intern_vendor(s).or_else(|| Some(&*Box::leak(s.to_owned().into_boxed_str())))
}

fn decode_app(v: &Value, what: &str) -> Result<AppData, ReplayError> {
    match req_str(v, "t", what)? {
        "none" => Ok(AppData::None),
        "req" => {
            let req = match req_str(v, "kind", what)? {
                "dns" => AppRequest::DnsQuery,
                "ntp" => AppRequest::NtpVersionQuery,
                "ftp" => AppRequest::FtpConnect,
                "ssh" => AppRequest::SshVersionRequest,
                "telnet" => AppRequest::TelnetLogin,
                "http" => AppRequest::HttpGet,
                "tls" => AppRequest::TlsCertificateRequest,
                k => return Err(corrupt(format!("{what}: unknown request kind `{k}`"))),
            };
            Ok(AppData::Request(req))
        }
        "resp" => {
            let sw = |key: &str| -> Result<SoftwareId, ReplayError> {
                Ok(SoftwareId(u16::try_from(req_u64(v, key, what)?).map_err(
                    |_| corrupt(format!("{what}: software id out of range")),
                )?))
            };
            let resp = match req_str(v, "kind", what)? {
                "dns" => AppResponse::DnsAnswer {
                    software: sw("sw")?,
                },
                "ntp" => AppResponse::NtpVersionReply {
                    version: u8::try_from(req_u64(v, "ver", what)?)
                        .map_err(|_| corrupt(format!("{what}: ntp version out of range")))?,
                },
                "ftp" => AppResponse::FtpBanner {
                    software: sw("sw")?,
                },
                "ssh" => AppResponse::SshBanner {
                    software: sw("sw")?,
                },
                "telnet" => AppResponse::TelnetPrompt {
                    vendor_banner: decode_vendor(v, "vendor"),
                },
                "http" => AppResponse::HttpPage {
                    software: sw("sw")?,
                    login_page: v
                        .get("login")
                        .and_then(Value::as_bool)
                        .ok_or_else(|| corrupt(format!("{what}: missing `login`")))?,
                    vendor: decode_vendor(v, "vendor"),
                },
                "tls" => AppResponse::TlsCertificate {
                    vendor: decode_vendor(v, "vendor"),
                },
                k => return Err(corrupt(format!("{what}: unknown response kind `{k}`"))),
            };
            Ok(AppData::Response(resp))
        }
        t => Err(corrupt(format!("{what}: unknown app payload `{t}`"))),
    }
}

/// Decodes a packet object produced by [`encode_packet`].
pub fn decode_packet(v: &Value) -> Result<Ipv6Packet, ReplayError> {
    let what = "packet";
    let src = decode_addr(v, "src", what)?;
    let dst = decode_addr(v, "dst", what)?;
    let hop_limit = u8::try_from(req_u64(v, "hop", what)?)
        .map_err(|_| corrupt("packet: hop limit out of range"))?;
    let pl = v.get("pl").ok_or_else(|| corrupt("packet: missing `pl`"))?;
    let payload = match req_str(pl, "t", what)? {
        "echo_req" => Payload::Icmp(Icmpv6::EchoRequest {
            ident: decode_port(pl, "ident", what)?,
            seq: decode_port(pl, "seq", what)?,
        }),
        "echo_rep" => Payload::Icmp(Icmpv6::EchoReply {
            ident: decode_port(pl, "ident", what)?,
            seq: decode_port(pl, "seq", what)?,
        }),
        "unreach" => {
            let code = match req_str(pl, "code", what)? {
                "no_route" => UnreachCode::NoRoute,
                "admin" => UnreachCode::AdminProhibited,
                "addr" => UnreachCode::AddressUnreachable,
                "port" => UnreachCode::PortUnreachable,
                "policy" => UnreachCode::SourcePolicy,
                "reject" => UnreachCode::RejectRoute,
                c => return Err(corrupt(format!("packet: unknown unreach code `{c}`"))),
            };
            let inv = pl
                .get("inv")
                .ok_or_else(|| corrupt("packet: missing `inv`"))?;
            Payload::Icmp(Icmpv6::DestUnreachable {
                code,
                invoking: decode_invoking(inv, "invoking")?,
            })
        }
        "time_exc" => {
            let inv = pl
                .get("inv")
                .ok_or_else(|| corrupt("packet: missing `inv`"))?;
            Payload::Icmp(Icmpv6::TimeExceeded {
                invoking: decode_invoking(inv, "invoking")?,
            })
        }
        "udp" => Payload::Udp {
            src_port: decode_port(pl, "sp", what)?,
            dst_port: decode_port(pl, "dp", what)?,
            data: decode_app(
                pl.get("app")
                    .ok_or_else(|| corrupt("packet: missing `app`"))?,
                "app",
            )?,
        },
        "tcp" => Payload::Tcp {
            src_port: decode_port(pl, "sp", what)?,
            dst_port: decode_port(pl, "dp", what)?,
            flags: match req_str(pl, "flags", what)? {
                "syn" => TcpFlags::Syn,
                "syn_ack" => TcpFlags::SynAck,
                "rst" => TcpFlags::Rst,
                "ack" => TcpFlags::Ack,
                "fin" => TcpFlags::Fin,
                f => return Err(corrupt(format!("packet: unknown tcp flags `{f}`"))),
            },
            data: decode_app(
                pl.get("app")
                    .ok_or_else(|| corrupt("packet: missing `app`"))?,
                "app",
            )?,
        },
        t => return Err(corrupt(format!("packet: unknown payload `{t}`"))),
    };
    Ok(Ipv6Packet {
        src,
        dst,
        hop_limit,
        payload,
    })
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// A [`Network`] wrapper that journals every exchange as an NDJSON wire
/// trace while delegating to the wrapped network.
///
/// Attach it under a scan (`Scanner::new(WireRecorder::new(world), ..)`),
/// run, then [`finish`](WireRecorder::finish) or
/// [`save`](WireRecorder::save) the trace for later replay.
#[derive(Debug)]
pub struct WireRecorder<N> {
    inner: N,
    lines: String,
    clock: u64,
    staged: Vec<Ipv6Packet>,
}

impl<N: Network> WireRecorder<N> {
    /// Starts recording over `inner`.
    pub fn new(inner: N) -> Self {
        let mut lines = String::new();
        lines.push_str(&format!(
            "{{\"v\":{TRACE_VERSION},\"kind\":\"xmap-wire-trace\"}}\n"
        ));
        WireRecorder {
            inner,
            lines,
            clock: 0,
            staged: Vec::new(),
        }
    }

    /// Borrows the wrapped network.
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// The trace recorded so far, consuming the recorder.
    pub fn finish(self) -> String {
        self.lines
    }

    /// Writes the trace to `path`, returning the wrapped network.
    pub fn save(self, path: &Path) -> std::io::Result<N> {
        std::fs::write(path, &self.lines)?;
        Ok(self.inner)
    }

    /// Journals a `recv` line for each staged reply and hands them on.
    fn record_recvs(&mut self, out: &mut Vec<Ipv6Packet>) {
        for p in self.staged.drain(..) {
            self.lines.push_str(&format!(
                "{{\"ev\":\"recv\",\"tick\":{},\"pkt\":",
                self.clock
            ));
            encode_packet(&mut self.lines, &p);
            self.lines.push_str("}\n");
            out.push(p);
        }
    }
}

impl<N: Network> Network for WireRecorder<N> {
    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        debug_assert!(self.staged.is_empty());
        self.lines.push_str(&format!(
            "{{\"ev\":\"send\",\"tick\":{},\"inflight\":",
            self.clock
        ));
        let mut pkt = String::new();
        encode_packet(&mut pkt, &packet);
        self.inner.handle_into(packet, &mut self.staged);
        self.lines
            .push_str(&format!("{},\"pkt\":{pkt}}}\n", self.inner.in_flight()));
        self.record_recvs(out);
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        self.clock += ticks;
        debug_assert!(self.staged.is_empty());
        self.inner.tick_into(ticks, &mut self.staged);
        self.lines.push_str(&format!(
            "{{\"ev\":\"tick\",\"n\":{ticks},\"tick\":{},\"inflight\":{}}}\n",
            self.clock,
            self.inner.in_flight()
        ));
        self.record_recvs(out);
    }

    fn flush_telemetry(&mut self) {
        self.inner.flush_telemetry();
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn restore_clock(&mut self, tick: u64) {
        self.clock = tick;
        self.inner.restore_clock(tick);
    }

    fn reset(&mut self) {
        // The journal is kept; its tick stamps restart with the network's.
        self.clock = 0;
        self.inner.reset();
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// One recorded call or reply. A call carries the recorded network's
/// `in_flight()` right after it.
#[derive(Debug)]
enum Event {
    Send(Ipv6Packet, usize),
    Recv(Ipv6Packet),
    Tick(u64, usize),
}

/// A [`Network`] that re-serves a recorded wire trace.
///
/// Drive it with the *same* scan configuration and seed that produced
/// the trace: each `handle_into` call consumes the next recorded send
/// (and its immediate replies), each `tick_into` call the next recorded
/// advance (and its due replies). Probes that do not match the recorded send
/// are counted in [`mismatched_sends`](ReplayNet::mismatched_sends) —
/// the recorded replies are served regardless, so a diverging replay
/// fails loudly at artifact comparison instead of silently hanging.
/// [`in_flight`](Network::in_flight) answers what the recorded network
/// answered after the last call consumed (0 before the first).
#[derive(Debug)]
pub struct ReplayNet {
    events: Vec<Event>,
    cursor: usize,
    in_flight: usize,
    mismatched_sends: u64,
    desyncs: u64,
}

impl ReplayNet {
    /// Parses a trace produced by [`WireRecorder`].
    pub fn from_trace(text: &str) -> Result<Self, ReplayError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| corrupt("empty trace"))?;
        let hv = json::parse(header, "wire-trace header").map_err(|e| corrupt(e.to_string()))?;
        let version = hv.get("v").and_then(Value::as_u64);
        match version {
            _ if hv.get("kind").and_then(Value::as_str) != Some("xmap-wire-trace") => {
                return Err(corrupt("not an xmap-wire-trace header"));
            }
            Some(TRACE_VERSION) => {}
            Some(v) => return Err(ReplayError::Version(v)),
            None => return Err(corrupt("wire-trace header without a numeric `v`")),
        }
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = json::parse(line, "wire-trace event").map_err(|e| corrupt(e.to_string()))?;
            let what = format!("event {}", i + 1);
            let in_flight = || -> Result<usize, ReplayError> {
                usize::try_from(req_u64(&v, "inflight", &what)?)
                    .map_err(|_| corrupt(format!("{what}: `inflight` out of range")))
            };
            let pkt = || -> Result<Ipv6Packet, ReplayError> {
                decode_packet(
                    v.get("pkt")
                        .ok_or_else(|| corrupt(format!("{what}: event without `pkt`")))?,
                )
            };
            events.push(match req_str(&v, "ev", &what)? {
                "send" => Event::Send(pkt()?, in_flight()?),
                "recv" => Event::Recv(pkt()?),
                "tick" => Event::Tick(req_u64(&v, "n", &what)?, in_flight()?),
                ev => return Err(corrupt(format!("{what}: unknown event `{ev}`"))),
            });
        }
        Ok(ReplayNet {
            events,
            cursor: 0,
            in_flight: 0,
            mismatched_sends: 0,
            desyncs: 0,
        })
    }

    /// Loads and parses a trace file.
    pub fn from_file(path: &Path) -> Result<Self, ReplayError> {
        let text = std::fs::read_to_string(path).map_err(ReplayError::Io)?;
        ReplayNet::from_trace(&text)
    }

    /// Probes whose bytes differed from the recorded send at the same
    /// position (zero on a faithful replay).
    pub fn mismatched_sends(&self) -> u64 {
        self.mismatched_sends
    }

    /// Structural divergences: a send where the trace recorded a tick
    /// (or vice versa), or driving past the end of the trace.
    pub fn desyncs(&self) -> u64 {
        self.desyncs
    }

    /// Whether every recorded event has been consumed.
    pub fn fully_consumed(&self) -> bool {
        self.cursor == self.events.len()
    }

    /// Appends the consecutive recv events at the cursor to `out`.
    fn serve_recvs(&mut self, out: &mut Vec<Ipv6Packet>) {
        while let Some(Event::Recv(p)) = self.events.get(self.cursor) {
            out.push(p.clone());
            self.cursor += 1;
        }
    }
}

impl Network for ReplayNet {
    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        match self.events.get(self.cursor) {
            Some(Event::Send(recorded, in_flight)) => {
                if *recorded != packet {
                    self.mismatched_sends += 1;
                }
                self.in_flight = *in_flight;
                self.cursor += 1;
                self.serve_recvs(out);
            }
            _ => self.desyncs += 1,
        }
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        match self.events.get(self.cursor) {
            Some(Event::Tick(n, in_flight)) => {
                if *n != ticks {
                    self.desyncs += 1;
                }
                self.in_flight = *in_flight;
                self.cursor += 1;
                self.serve_recvs(out);
            }
            _ => self.desyncs += 1,
        }
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::World;

    fn handle(net: &mut impl Network, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        net.handle_into(packet, &mut out);
        out
    }

    fn tick(net: &mut impl Network, ticks: u64) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        net.tick_into(ticks, &mut out);
        out
    }

    fn probe(i: u128) -> Ipv6Packet {
        Ipv6Packet::echo_request(
            Ip6::new(0xfd00 << 112 | 1),
            Ip6::new((0x2405_0200u128) << 96 | (i << 64) | 0x1),
            64,
            (i as u16) ^ 0x5aa5,
            i as u16,
        )
    }

    #[test]
    fn record_then_replay_reproduces_every_exchange() {
        let mut rec = WireRecorder::new(World::new(11));
        let mut recorded: Vec<(Vec<Ipv6Packet>, Vec<Ipv6Packet>)> = Vec::new();
        for i in 0..200u128 {
            let h = handle(&mut rec, probe(i));
            let t = tick(&mut rec, 1);
            recorded.push((h, t));
        }
        // Drain in-flight jittered replies like a scan would.
        let mut drained = Vec::new();
        while rec.in_flight() > 0 {
            drained.push(tick(&mut rec, 1));
        }
        let trace = rec.finish();

        let mut replay = ReplayNet::from_trace(&trace).expect("parse own trace");
        for (i, (h, t)) in recorded.iter().enumerate() {
            assert_eq!(&handle(&mut replay, probe(i as u128)), h, "probe {i}");
            assert_eq!(&tick(&mut replay, 1), t, "tick {i}");
        }
        for d in &drained {
            assert!(replay.in_flight() > 0);
            assert_eq!(&tick(&mut replay, 1), d);
        }
        assert_eq!(replay.in_flight(), 0);
        assert!(replay.fully_consumed());
        assert_eq!(replay.mismatched_sends(), 0);
        assert_eq!(replay.desyncs(), 0);
    }

    #[test]
    fn mismatched_probe_is_counted_not_fatal() {
        let mut rec = WireRecorder::new(World::new(11));
        let _ = handle(&mut rec, probe(1));
        let trace = rec.finish();
        let mut replay = ReplayNet::from_trace(&trace).expect("parse");
        let _ = handle(&mut replay, probe(2));
        assert_eq!(replay.mismatched_sends(), 1);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        assert!(ReplayNet::from_trace("{\"v\":2,\"kind\":\"other\"}\n").is_err());
        assert!(ReplayNet::from_trace("").is_err());
        assert!(ReplayNet::from_trace("not json\n").is_err());
    }

    /// The replay answers `in_flight` with what the recorded network
    /// answered after each call, not with what the trace has left.
    #[test]
    fn in_flight_follows_the_recording() {
        use xmap_netsim::world::{Allocation, WorldConfig};
        // Pod 0x13 of 2402:3a80::/32 is about half allocated in this
        // world, and jitter holds most replies for a few ticks.
        let config = WorldConfig::lossless(4242, 30)
            .with_allocation(Allocation::Clustered {
                pod_bits: 8,
                active_frac: 0.01,
            })
            .with_fault(xmap_netsim::FaultPlan::none().seeded(3).with_jitter(4));
        let probe = |i: u128| {
            let mut p = probe(i);
            p.dst = Ip6::new(0x2402_3a80u128 << 96 | (0x1300 | i) << 64 | 0xbeef);
            p
        };
        let mut rec = WireRecorder::new(World::with_config(config));
        let mut seen = Vec::new();
        for i in 0..64u128 {
            handle(&mut rec, probe(i));
            seen.push(rec.in_flight());
            tick(&mut rec, 1);
            seen.push(rec.in_flight());
        }
        let trace = rec.finish();
        assert!(seen.contains(&0) && seen.iter().any(|&n| n > 0), "{seen:?}");
        let mut replay = ReplayNet::from_trace(&trace).expect("parse");
        assert_eq!(replay.in_flight(), 0);
        for (i, pair) in seen.chunks(2).enumerate() {
            handle(&mut replay, probe(i as u128));
            assert_eq!(replay.in_flight(), pair[0], "after send {i}");
            tick(&mut replay, 1);
            assert_eq!(replay.in_flight(), pair[1], "after tick {i}");
        }
    }

    #[test]
    fn a_v1_trace_is_refused_by_version() {
        let v1 = "{\"v\":1,\"kind\":\"xmap-wire-trace\"}\n{\"ev\":\"tick\",\"n\":1,\"tick\":1}\n";
        let err = ReplayNet::from_trace(v1).unwrap_err();
        assert!(matches!(err, ReplayError::Version(1)), "{err:?}");
        assert!(err.to_string().contains("xmap-wire-trace/v1"), "{err}");
    }

    #[test]
    fn packet_codec_roundtrips_every_shape() {
        let inv = Invoking {
            src: Ip6::new(1),
            dst: Ip6::new(2),
            proto: QuotedProto::Icmp { ident: 3, seq: 4 },
        };
        let shapes = vec![
            Payload::Icmp(Icmpv6::EchoRequest { ident: 9, seq: 8 }),
            Payload::Icmp(Icmpv6::EchoReply { ident: 9, seq: 8 }),
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::RejectRoute,
                invoking: inv,
            }),
            Payload::Icmp(Icmpv6::TimeExceeded { invoking: inv }),
            Payload::Udp {
                src_port: 53,
                dst_port: 54,
                data: AppData::Request(AppRequest::DnsQuery),
            },
            Payload::Tcp {
                src_port: 80,
                dst_port: 81,
                flags: TcpFlags::SynAck,
                data: AppData::Response(AppResponse::HttpPage {
                    software: SoftwareId(3),
                    login_page: true,
                    vendor: intern_vendor("ZTE"),
                }),
            },
            Payload::Tcp {
                src_port: 23,
                dst_port: 23,
                flags: TcpFlags::Ack,
                data: AppData::Response(AppResponse::TelnetPrompt {
                    vendor_banner: None,
                }),
            },
        ];
        for payload in shapes {
            let pkt = Ipv6Packet {
                src: Ip6::new(0xfd00 << 112 | 1),
                dst: Ip6::new(0x2405 << 112 | 77),
                hop_limit: 200,
                payload,
            };
            let mut s = String::new();
            encode_packet(&mut s, &pkt);
            let v = json::parse(&s, "roundtrip").expect("well-formed");
            let back = decode_packet(&v).expect("decodes");
            assert_eq!(back, pkt);
        }
    }
}
