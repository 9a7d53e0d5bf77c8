//! # xmap-failpoint
//!
//! Deterministic host-side fault injection for the xmap suite.
//!
//! PR 1's `FaultPlan` made the *network* hostile — seeded loss,
//! duplication, rate-limit pressure — and the scanner robust to it. This
//! crate is the same idea for the *host*: the disk can return `EIO` or
//! `ENOSPC`, a write can land short or torn, an `fsync` can fail, a
//! process can die mid-write, and an executor worker thread can panic.
//! All of those are injectable here, scripted and repeatable, so
//! the storage and executor layers can be tortured in ordinary unit and
//! integration tests instead of waiting for a flaky disk in production.
//!
//! ## Pieces
//!
//! - [`fs`] — a thin filesystem wrapper ([`fs::FpFile`], [`fs::rename`],
//!   …) the `xmap-state` WAL/checkpoint writers route through. With no
//!   plan armed every call costs one relaxed atomic load and forwards
//!   straight to `std::fs` — the production path stays at performance
//!   parity.
//! - [`FailPlan`] / [`FailScope`] — a scripted set of filesystem fault
//!   rules, scoped to a path prefix. Scoping keeps concurrently running
//!   tests isolated: each test arms a plan over its own temp directory
//!   and only operations under that prefix consult the rules.
//! - [`FsSchedule`] — recurring fault schedules riding on a plan:
//!   periodic `EIO` bursts and disk-full (`ENOSPC`) windows over the
//!   operation stream, for long-running degraded-host scenarios where a
//!   one-shot rule would model a single incident rather than a sick
//!   device.
//! - [`ExecPlan`] / [`ExecFaults`] — scripted worker panics for the
//!   parallel executors, matched by `(worker, nth unit of work)`.
//!
//! ## Fault taxonomy
//!
//! [`FsAction`] models the failure modes a checkpoint writer actually
//! meets: a clean error with nothing persisted ([`FsAction::Fail`]), a
//! short write that persists a prefix and then errors
//! ([`FsAction::ShortWrite`] — what a full disk or a signal-interrupted
//! `write(2)` leaves behind), and a process-death emulation
//! ([`FsAction::Kill`]) that persists a prefix of the current write and
//! then fails *every* subsequent operation under the scope, so the test
//! can afterwards inspect and resume from exactly the bytes a real kill
//! would have left on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fs;

pub use exec::{ExecFaults, ExecPlan, ExecRule};
pub use fs::{FailPlan, FailScope, FaultKind, FsAction, FsOp, FsRule, FsSchedule};
