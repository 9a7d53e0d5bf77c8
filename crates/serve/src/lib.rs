//! `xmap-serve`: a multi-tenant scan-campaign daemon.
//!
//! Every binary in this workspace is one-shot: it runs a campaign,
//! writes results, exits. This crate turns the same deterministic
//! executors into a *service* — a long-running daemon that accepts
//! typed scan jobs ([`JobSpec`]: periphery campaigns, loopscan depth
//! surveys, appscan service grabs), admits them under per-tenant
//! budgets, schedules their units fairly across one shared worker pool,
//! and survives being killed at any instant.
//!
//! # Architecture
//!
//! * [`job`] — the typed job enum. Each job decomposes into independent
//!   **units** (one sample block for campaigns and surveys, one target
//!   address for grabs). A unit runs on a fresh [`xmap::Scanner`] over a
//!   fresh seeded [`xmap_netsim::World`] replica, so its result is a pure
//!   function of `(spec, unit)` — the property every resume and fairness
//!   guarantee in this crate leans on.
//! * [`sched`] — admission control plus a two-level queue: per-job unit
//!   queues drained by a deficit-round-robin dispatcher, so one
//!   tenant's fifteen-block campaign cannot starve another's two-block
//!   job.
//! * [`ledger`] — the job ledger, an `xmap-state` WAL journaling
//!   submit/complete/cancel events and every finished unit's result;
//!   replaying it after a crash reconstructs the live jobs and their
//!   finished units.
//! * [`daemon`] — the engine: worker pool, per-job telemetry
//!   [`Registry`](xmap_telemetry::Registry) instances, published
//!   artifacts, and resume-on-open.
//! * [`proto`] — the control plane: newline-delimited JSON over a Unix
//!   domain socket (`submit` / `status` / `cancel` / `drain` / `ping`).
//!
//! # Crash-resume invariant
//!
//! A killed daemon restarted on the same `--root` resumes every
//! in-flight job and produces `result.csv` / `metrics.json` files
//! byte-identical to an uninterrupted run: the ledger names the live
//! jobs and holds their finished units' results, unfinished units re-run
//! deterministically, and final artifacts are rendered from the
//! journalled results in unit order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod job;
pub mod ledger;
pub mod proto;
pub mod sched;

pub use daemon::{Daemon, DrainOutcome, JobStatus, ServeConfig};
pub use job::{JobSpec, UnitOutput};
pub use ledger::{Ledger, LedgerEvent};
pub use sched::{AdmissionPolicy, DrrScheduler};
