//! Scan-feasibility arithmetic (Section III-B / IV-E).
//!
//! The paper's headline feasibility claims:
//!
//! * a 1 Gbps scanner probes all 2⁴⁰ /64 sub-prefixes of a /24 block in
//!   ~8 days and all 2³⁶ /60 sub-prefixes in ~14 hours;
//! * the measurement setup (<15 Mbps, 25 kpps) covers one 32-bit sample
//!   space in ~48 hours.
//!
//! These are pure arithmetic over probe size and packet rate; this module
//! reproduces them and, combined with a measured in-memory probe-generation
//! rate (the benchmark's `scan_lossless` workload and its
//! `core.scanner.ns_per_probe` ledger row), grounds the claims in this
//! implementation.

use std::time::Duration;

/// Bytes on the wire per ICMPv6 probe: 14 (Ethernet) + 40 (IPv6) + 8
/// (ICMPv6 echo header) + 8 (payload) + 16 (preamble + IFG overhead).
pub const PROBE_WIRE_BYTES: u64 = 86;

/// Packets per second achievable at `bandwidth_bps` with `probe_bytes`
/// packets.
pub fn pps_at_bandwidth(bandwidth_bps: u64, probe_bytes: u64) -> f64 {
    bandwidth_bps as f64 / (probe_bytes as f64 * 8.0)
}

/// Wall-clock duration to probe a `space_bits`-bit space once at `pps`.
pub fn scan_duration(space_bits: u8, pps: f64) -> Duration {
    let probes = 2f64.powi(space_bits as i32);
    Duration::from_secs_f64(probes / pps)
}

/// A feasibility report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feasibility {
    /// Size of the scan space in bits.
    pub space_bits: u8,
    /// Packet rate used.
    pub pps: f64,
    /// Time to cover the space once.
    pub duration: Duration,
}

impl Feasibility {
    /// Builds the row for a space at a bandwidth.
    pub fn at_bandwidth(space_bits: u8, bandwidth_bps: u64) -> Self {
        let pps = pps_at_bandwidth(bandwidth_bps, PROBE_WIRE_BYTES);
        Feasibility {
            space_bits,
            pps,
            duration: scan_duration(space_bits, pps),
        }
    }

    /// Builds the row for a space at an explicit packet rate.
    pub fn at_pps(space_bits: u8, pps: f64) -> Self {
        Feasibility {
            space_bits,
            pps,
            duration: scan_duration(space_bits, pps),
        }
    }

    /// Duration in days.
    pub fn days(&self) -> f64 {
        self.duration.as_secs_f64() / 86_400.0
    }

    /// Duration in hours.
    pub fn hours(&self) -> f64 {
        self.duration.as_secs_f64() / 3_600.0
    }
}

/// The three headline rows of the paper, in order: (/64s of a /24 at
/// 1 Gbps, /60s of a /24 at 1 Gbps, one 32-bit sample space at 25 kpps).
pub fn paper_rows() -> [Feasibility; 3] {
    [
        Feasibility::at_bandwidth(40, 1_000_000_000),
        Feasibility::at_bandwidth(36, 1_000_000_000),
        Feasibility::at_pps(32, 25_000.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_pps_is_about_1_45m() {
        let pps = pps_at_bandwidth(1_000_000_000, PROBE_WIRE_BYTES);
        assert!((1.4e6..1.5e6).contains(&pps), "{pps}");
    }

    #[test]
    fn slash64_space_takes_about_8_days_at_1gbps() {
        let row = Feasibility::at_bandwidth(40, 1_000_000_000);
        assert!((7.0..10.0).contains(&row.days()), "{} days", row.days());
    }

    #[test]
    fn slash60_space_takes_about_14_hours_at_1gbps() {
        let row = Feasibility::at_bandwidth(36, 1_000_000_000);
        assert!((11.0..15.0).contains(&row.hours()), "{} hours", row.hours());
    }

    #[test]
    fn sample_block_takes_about_48_hours_at_25kpps() {
        let row = Feasibility::at_pps(32, 25_000.0);
        assert!((46.0..50.0).contains(&row.hours()), "{} hours", row.hours());
    }

    #[test]
    fn rows_ordering() {
        let rows = paper_rows();
        assert_eq!(rows[0].space_bits, 40);
        assert!(rows[0].duration > rows[1].duration);
    }
}
