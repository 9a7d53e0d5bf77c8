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
//! ## Trace format (`xmap-wire-trace/v1`)
//!
//! ```text
//! {"v":1,"kind":"xmap-wire-trace"}
//! {"ev":"send","tick":0,"pkt":{...}}
//! {"ev":"recv","tick":0,"pkt":{...}}   <- immediate reply to the send
//! {"ev":"tick","n":1,"tick":1}
//! {"ev":"recv","tick":1,"pkt":{...}}   <- reply that came due in the advance
//! ```
//!
//! A `recv` line belongs to the nearest preceding `send` or `tick`
//! line; that positional attachment is what lets replay reproduce the
//! immediate-vs-delayed split the scan loop's RTT accounting depends on.

use std::fmt;
use std::path::Path;

use xmap_addr::Ip6;
use xmap_netsim::packet::{
    AppData, Icmpv6, Invoking, Ipv6Packet, Network, Payload, QuotedProto, TcpFlags, UnreachCode,
};
use xmap_netsim::services::{intern_vendor, AppRequest, AppResponse, SoftwareId};
use xmap_state::json::{self, push_json_string, Value};

/// Errors loading or replaying a wire trace.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace file could not be read.
    Io(std::io::Error),
    /// The trace text is not a well-formed `xmap-wire-trace/v1`.
    Corrupt(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "wire trace I/O error: {e}"),
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
        lines.push_str("{\"v\":1,\"kind\":\"xmap-wire-trace\"}\n");
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

    fn record_event(&mut self, ev: &str, pkt: Option<&Ipv6Packet>) {
        self.lines
            .push_str(&format!("{{\"ev\":\"{ev}\",\"tick\":{}", self.clock));
        if let Some(p) = pkt {
            self.lines.push_str(",\"pkt\":");
            encode_packet(&mut self.lines, p);
        }
        self.lines.push_str("}\n");
    }
}

impl<N: Network> Network for WireRecorder<N> {
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        self.handle_into(packet, &mut out);
        out
    }

    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        self.record_event("send", Some(&packet));
        debug_assert!(self.staged.is_empty());
        self.inner.handle_into(packet, &mut self.staged);
        let mut staged = std::mem::take(&mut self.staged);
        for p in staged.drain(..) {
            self.record_event("recv", Some(&p));
            out.push(p);
        }
        self.staged = staged;
    }

    fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        self.tick_into(ticks, &mut out);
        out
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        self.clock += ticks;
        self.lines.push_str(&format!(
            "{{\"ev\":\"tick\",\"n\":{ticks},\"tick\":{}}}\n",
            self.clock
        ));
        debug_assert!(self.staged.is_empty());
        self.inner.tick_into(ticks, &mut self.staged);
        let mut staged = std::mem::take(&mut self.staged);
        for p in staged.drain(..) {
            self.record_event("recv", Some(&p));
            out.push(p);
        }
        self.staged = staged;
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

#[derive(Debug)]
enum Event {
    Send(Ipv6Packet),
    /// `true` when the reply was delayed (attached to a tick event).
    Recv(Ipv6Packet, bool),
    Tick(u64),
}

/// A [`Network`] that re-serves a recorded wire trace.
///
/// Drive it with the *same* scan configuration and seed that produced
/// the trace: each `handle` call consumes the next recorded send (and
/// its immediate replies), each `tick` call the next recorded advance
/// (and its due replies). Probes that do not match the recorded send
/// are counted in [`mismatched_sends`](ReplayNet::mismatched_sends) —
/// the recorded replies are served regardless, so a diverging replay
/// fails loudly at artifact comparison instead of silently hanging.
#[derive(Debug)]
pub struct ReplayNet {
    events: Vec<Event>,
    cursor: usize,
    /// `delayed_after[i]`: delayed recv events at index >= i — the
    /// replay's `in_flight` answer, precomputed.
    delayed_after: Vec<usize>,
    mismatched_sends: u64,
    desyncs: u64,
}

impl ReplayNet {
    /// Parses a trace produced by [`WireRecorder`].
    pub fn from_trace(text: &str) -> Result<Self, ReplayError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| corrupt("empty trace"))?;
        let hv = json::parse(header, "wire-trace header").map_err(|e| corrupt(e.to_string()))?;
        if hv.get("kind").and_then(Value::as_str) != Some("xmap-wire-trace")
            || hv.get("v").and_then(Value::as_u64) != Some(1)
        {
            return Err(corrupt("not an xmap-wire-trace/v1 header"));
        }
        let mut events = Vec::new();
        let mut after_tick = false;
        for (i, line) in lines.enumerate() {
            let v = json::parse(line, "wire-trace event").map_err(|e| corrupt(e.to_string()))?;
            let what = format!("event {}", i + 1);
            match req_str(&v, "ev", &what)? {
                "send" => {
                    after_tick = false;
                    let pkt = v
                        .get("pkt")
                        .ok_or_else(|| corrupt(format!("{what}: send without `pkt`")))?;
                    events.push(Event::Send(decode_packet(pkt)?));
                }
                "recv" => {
                    let pkt = v
                        .get("pkt")
                        .ok_or_else(|| corrupt(format!("{what}: recv without `pkt`")))?;
                    events.push(Event::Recv(decode_packet(pkt)?, after_tick));
                }
                "tick" => {
                    after_tick = true;
                    events.push(Event::Tick(req_u64(&v, "n", &what)?));
                }
                ev => return Err(corrupt(format!("{what}: unknown event `{ev}`"))),
            }
        }
        let mut delayed_after = vec![0usize; events.len() + 1];
        for i in (0..events.len()).rev() {
            delayed_after[i] =
                delayed_after[i + 1] + matches!(events[i], Event::Recv(_, true)) as usize;
        }
        Ok(ReplayNet {
            events,
            cursor: 0,
            delayed_after,
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
        while let Some(Event::Recv(p, _)) = self.events.get(self.cursor) {
            out.push(p.clone());
            self.cursor += 1;
        }
    }
}

impl Network for ReplayNet {
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        self.handle_into(packet, &mut out);
        out
    }

    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        match self.events.get(self.cursor) {
            Some(Event::Send(recorded)) => {
                if *recorded != packet {
                    self.mismatched_sends += 1;
                }
                self.cursor += 1;
                self.serve_recvs(out);
            }
            _ => self.desyncs += 1,
        }
    }

    fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
        let mut out = Vec::new();
        self.tick_into(ticks, &mut out);
        out
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        match self.events.get(self.cursor) {
            Some(Event::Tick(n)) => {
                if *n != ticks {
                    self.desyncs += 1;
                }
                self.cursor += 1;
                self.serve_recvs(out);
            }
            _ => self.desyncs += 1,
        }
    }

    fn in_flight(&self) -> usize {
        self.delayed_after[self.cursor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::World;

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
            let h = rec.handle(probe(i));
            let t = rec.tick(1);
            recorded.push((h, t));
        }
        // Drain in-flight jittered replies like a scan would.
        let mut drained = Vec::new();
        while rec.in_flight() > 0 {
            drained.push(rec.tick(1));
        }
        let trace = rec.finish();

        let mut replay = ReplayNet::from_trace(&trace).expect("parse own trace");
        for (i, (h, t)) in recorded.iter().enumerate() {
            assert_eq!(&replay.handle(probe(i as u128)), h, "probe {i}");
            assert_eq!(&replay.tick(1), t, "tick {i}");
        }
        for d in &drained {
            assert!(replay.in_flight() > 0 || d.is_empty());
            assert_eq!(&replay.tick(1), d);
        }
        assert_eq!(replay.in_flight(), 0);
        assert!(replay.fully_consumed());
        assert_eq!(replay.mismatched_sends(), 0);
        assert_eq!(replay.desyncs(), 0);
    }

    #[test]
    fn mismatched_probe_is_counted_not_fatal() {
        let mut rec = WireRecorder::new(World::new(11));
        let _ = rec.handle(probe(1));
        let trace = rec.finish();
        let mut replay = ReplayNet::from_trace(&trace).expect("parse");
        let _ = replay.handle(probe(2));
        assert_eq!(replay.mismatched_sends(), 1);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        assert!(ReplayNet::from_trace("{\"v\":2,\"kind\":\"other\"}\n").is_err());
        assert!(ReplayNet::from_trace("").is_err());
        assert!(ReplayNet::from_trace("not json\n").is_err());
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
