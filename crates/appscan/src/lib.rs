//! Application-layer scanning of discovered peripheries (Section V).
//!
//! The paper probes seven security services (eight ports) on every
//! discovered periphery with ZGrab2 and analyzes the results along four
//! axes, all implemented here:
//!
//! * [`mod@grab`] — per-service banner grabbing over the simulated transport
//!   (UDP request/response; TCP SYN → handshake → request → response),
//! * [`survey`] — the full campaign across peripheries and blocks
//!   (Tables V and VII, Figures 2 and 3),
//! * [`software`] — banner parsing into (product, version) and staleness
//!   analysis (Table VIII),
//! * [`cve`] — the embedded CVE snapshot joining software versions to
//!   known vulnerabilities (Table VIII's #CVE column).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cve;
pub mod grab;
pub mod report;
pub mod software;
pub mod survey;

pub use grab::{grab, grab_with, GrabOutcome};
pub use report::{fig2_rows, fig3_rows, VendorServiceMatrix};
pub use software::{parse_banner, resolve_banner, SoftwareStats};
pub use survey::{ServiceObservation, ServiceSurvey, SurveyRunner};
