//! Routing-loop vulnerability measurement (Section VI).
//!
//! Implements the paper's loop methodology end to end:
//!
//! * [`detect`] — the crafted-hop-limit detection primitive: a Time
//!   Exceeded at hop limit *h* confirmed by another at *h+2* marks a
//!   looping destination (h = 32, below which Internet paths stay),
//! * [`survey`] — the Internet-wide survey over BGP-advertised prefixes
//!   (Tables IX and X, Figure 5) and the depth survey over the fifteen
//!   sample blocks (Table XI, Figure 6),
//! * [`amplification`] — packet-level amplification measurement on the
//!   explicit engine, including the spoofed-source doubling trick
//!   (Section VI-A's >200× factor),
//! * [`case_study`] — the 95-router / 4-OS controlled testbed of
//!   Table XII.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplification;
pub mod case_study;
pub mod detect;
pub mod disclosure;
pub mod mitigation;
pub mod survey;
pub mod telemetry;

pub use amplification::{
    amplification_sweep_with, measure_amplification, measure_amplification_with,
    measure_spoofed_doubling, AmplificationPoint,
};
pub use case_study::{run_case_studies, CaseStudyRow};
pub use detect::{detect_loop, detect_loop_with, LoopVerdict, PROBE_HOP_LIMIT};
pub use disclosure::{DisclosureCampaign, OperatorNotice, Severity, VendorAdvisory};
pub use mitigation::{patch_model, verify_mitigation, MitigationReport};
pub use survey::{BgpSurvey, BgpSurveyResult, DepthSurvey, DepthSurveyResult};
pub use telemetry::LoopscanTelemetry;
