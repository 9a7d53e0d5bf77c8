//! The real-wire TAP backend stub.
//!
//! A production deployment of the reactor puts ICMPv6 on an actual wire
//! through a TAP/TUN device; this module documents that shape behind the
//! `tap` cargo feature without pulling in OS bindings (the workspace
//! builds offline and `#![forbid(unsafe_code)]`, so no `ioctl`).
//!
//! ## The real-wire shape
//!
//! ```text
//! open("/dev/net/tun")  -> fd
//! ioctl(fd, TUNSETIFF, ifreq { ifr_name, IFF_TAP | IFF_NO_PI })
//! ```
//!
//! then, against the [`Transport`](crate::Transport) contract:
//!
//! * `send_batch` — serialize each probe into an Ethernet + IPv6 frame
//!   and `write(fd)` the batch (coalesced with `sendmmsg` on a raw
//!   socket backend).
//! * `poll_recv` — drain frames already parked in the receive queue by
//!   the poller; the queue is the same [`BoundedQueue`](crate::BoundedQueue)
//!   the simulator backend uses, stamped with the tick derived from a
//!   monotonic clock quantized to the send-slot period.
//! * `register_deadline` — the crucial one on a wire: the poller blocks
//!   in `poll(fd, timeout)` where `timeout` is the gap to the earliest
//!   registered engine deadline, so retransmit timers fire on time even
//!   when the wire is silent.
//! * `advance` — on a wire the clock advances by itself; the
//!   implementation just releases the poller for one quantum.
//!
//! Determinism note: a wire is *not* deterministic, so the byte-identity
//! guarantees of `SimTransport` do not apply — recording a run through
//! [`WireRecorder`](crate::WireRecorder) re-enters the deterministic
//! envelope, which is exactly the record-once / replay-forever workflow
//! the trace format exists for.

use std::fmt;

/// Configuration for a TAP transport.
#[derive(Debug, Clone)]
pub struct TapConfig {
    /// Interface name to attach to (e.g. `tap0`).
    pub ifname: String,
    /// Send-slot period in microseconds (the tick quantum the wire
    /// clock is mapped onto).
    pub slot_micros: u64,
}

impl Default for TapConfig {
    fn default() -> Self {
        TapConfig {
            ifname: "tap0".to_owned(),
            slot_micros: 20, // 50 kpps — the paper's periphery scan rate
        }
    }
}

/// Why a TAP transport could not be opened.
#[derive(Debug)]
pub enum TapError {
    /// This build has no TAP support compiled in.
    Unsupported(&'static str),
}

impl fmt::Display for TapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapError::Unsupported(why) => write!(f, "TAP transport unavailable: {why}"),
        }
    }
}

impl std::error::Error for TapError {}

/// Attempts to open a TAP transport.
///
/// Always refuses in this workspace: without the `tap` feature the
/// backend is not compiled in at all, and with it the offline toolchain
/// still lacks the `ioctl` bindings a device attach needs — the module
/// documents the contract so a bindings-equipped build can fill in the
/// `Transport` impl without touching the engine.
pub fn open(config: &TapConfig) -> Result<std::convert::Infallible, TapError> {
    #[cfg(feature = "tap")]
    {
        let _ = config;
        Err(TapError::Unsupported(
            "the `tap` feature documents the wire shape; device attach needs ioctl bindings \
             this offline build does not carry",
        ))
    }
    #[cfg(not(feature = "tap"))]
    {
        let _ = config;
        Err(TapError::Unsupported(
            "built without the `tap` feature; use --transport sim or replay",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_refuses_with_clear_error() {
        let err = open(&TapConfig::default()).unwrap_err();
        assert!(err.to_string().contains("TAP transport unavailable"));
    }
}
