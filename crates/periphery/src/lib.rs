//! IPv6 network-periphery discovery (Sections III–IV of the paper).
//!
//! Built on the [`xmap`] scanner and any [`xmap_netsim::Network`], this
//! crate implements the measurement methodology:
//!
//! * [`boundary`] — the subnet-boundary (sub-prefix length) inference
//!   algorithm of Section IV-A,
//! * [`campaign`] — the periphery-discovery campaign over the fifteen
//!   sample blocks: probe once per sub-prefix, harvest ICMPv6 errors,
//!   deduplicate, classify same/diff, extract EUI-64 MACs (Table II),
//! * [`vendor`] — device-vendor identification from embedded MAC addresses
//!   and application-level information (Table IV),
//! * IID statistics via [`xmap_addr::IidHistogram`] (Tables III/V/X).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod alias;
pub mod baseline;
pub mod boundary;
pub mod campaign;
pub mod parallel;
pub mod vendor;

pub use adaptive::{AdaptiveCampaign, AdaptiveConfig, AdaptiveOutcome};
pub use alias::{check_aliased, is_aliased, AliasVerdict};
pub use baseline::{hitlist_scan, traceroute_discovery, BaselineComparison};
pub use boundary::{infer_boundary, BoundaryInference};
pub use campaign::{
    decode_block, encode_block, BlockResult, Campaign, CampaignResult, DiscoveredPeriphery,
};
pub use parallel::{BlockMode, CampaignOutcome, ParallelCampaign, UnitMode, UnitPlan};
pub use vendor::{identify, VendorCounts};
pub use xmap::SplitUnit;
