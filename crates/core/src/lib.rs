//! XMap — a fast IPv6/IPv4 network scanner, reimplemented in Rust.
//!
//! This crate reproduces the scanner contribution of *Fast IPv6 Network
//! Periphery Discovery and Security Implications* (DSN 2021): a
//! ZMap-lineage stateless scanner whose address-generation module can
//! randomly permute **any bit range** of the address space (e.g.
//! `2001:db8::/32-64`), with modular probe modules, prefix blocklists,
//! keyed stateless response validation, sharding and rate accounting.
//!
//! Instead of raw sockets it drives any [`xmap_netsim::Network`] — in this
//! workspace, a deterministic simulated Internet — which makes every scan
//! reproducible and testable.
//!
//! # Quick start
//!
//! ```
//! use xmap::{Blocklist, IcmpEchoProbe, ProbeResult, ScanConfig, Scanner};
//! use xmap_netsim::World;
//!
//! # fn main() -> Result<(), xmap_addr::ParseAddrError> {
//! // Scan a slice of Reliance Jio's sample block for peripheries.
//! let mut scanner = Scanner::new(
//!     World::new(7),
//!     ScanConfig { max_targets: Some(5_000), ..Default::default() },
//! );
//! let results = scanner.run(
//!     &"2405:200::/32-64".parse()?,
//!     &IcmpEchoProbe,
//!     &Blocklist::with_standard_reserved(),
//! );
//! for record in &results.records {
//!     if let ProbeResult::Unreachable { .. } = record.result {
//!         // `record.responder` is a periphery's exposed WAN address.
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocklist;
pub mod checkpoint;
pub mod cyclic;
pub mod feasibility;
pub mod feistel;
pub mod math;
pub mod output;
pub mod parallel;
pub mod probe;
mod retry;
pub mod scanner;
pub mod target;
pub mod telemetry;
pub mod validate;
pub mod walk;

pub use blocklist::{Blocklist, ScopedBlocklist, Verdict};
pub use checkpoint::{
    build_manifest, run_session, RangeMode, RunResume, RunSink, ScanSession, SessionOutcome,
    SessionSpec, WorkerResume,
};
pub use cyclic::Cycle;
pub use feistel::FeistelPermutation;
pub use parallel::{insert_exec_counters, merge_worker_snapshots, ParallelScanner, MAX_ATTEMPTS};
pub use probe::{IcmpEchoProbe, ProbeModule, ProbeResult, TcpSynProbe, UdpProbe};
pub use scanner::{
    Confidence, Permutation, ScanConfig, ScanRecord, ScanResults, ScanStats, Scanner, SecondChance,
    Targeted, YieldGate,
};
pub use target::{fill_host_bits, TargetSpec};
pub use telemetry::ScanMetrics;
pub use validate::Validator;
pub use walk::{IndexWalk, SplitUnit};
