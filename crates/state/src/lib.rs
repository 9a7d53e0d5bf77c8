//! # xmap-state
//!
//! Durable checkpoint/resume state for interruptible scan campaigns.
//!
//! Whole-address-space campaigns — the ICMPv6 periphery sweeps and
//! routing-loop surveys the paper runs over BGP-announced space — are
//! multi-day jobs that die mid-run: operator aborts, rate-limit pauses,
//! machine failures. ZMap-lineage scanners only offer coarse sharding;
//! a killed shard restarts from scratch. This crate provides the missing
//! layer: a versioned checkpoint format ([`SCHEMA`]) plus a
//! write-ahead journal such that a scan killed at probe *k* — or losing
//! power there — and resumed finishes with output byte-identical to an
//! uninterrupted run. A scan worker keeps one file, a journal of records
//! and cuts ([`WorkerJournal`]), a parallel campaign one journal of
//! claims, splits, units and blocks, and an adaptive campaign one journal
//! of rounds. Every checkpoint is a journal entry; only final artifacts
//! and the session manifest are files of their own, published by tmp
//! file, fsync and rename ([`checkpoint::publish`]).
//!
//! The crate is deliberately domain-light — it knows about prefixes,
//! telemetry snapshots, bytes, and files, but not about scanners. The
//! `xmap` core crate layers its capture/restore logic on top, and the
//! netsim crate consumes [`AbortSignal`] for deterministic kill-points.
//!
//! ## Pieces
//!
//! - [`checkpoint`]: the sectioned format (ordered JSON header +
//!   CRC-protected binary sections), the one envelope every checkpoint
//!   kind is framed and parsed through ([`checkpoint::Kind`]), the
//!   mid-range scanner state it carries ([`RunState`],
//!   [`WorkerCheckpoint`]), and the worker journal that holds it as cuts
//!   ([`WorkerJournal`]).
//! - [`wal`]: the append-only journal with torn-tail recovery.
//! - [`manifest`]: the per-session configuration manifest whose
//!   fingerprint binds checkpoints to the exact scan they belong to.
//! - [`codec`]: the little-endian codec, CRC-32, and FNV-1a fingerprints.
//! - [`json`]: a tiny JSON reader for headers and manifests (the build
//!   environment has no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod json;
pub mod manifest;
pub mod wal;

pub use checkpoint::{
    CursorState, OutstandingEntry, RetryEntryState, RunState, WorkerCheckpoint, WorkerJournal,
};
pub use codec::Fingerprint;
pub use error::StateError;
pub use manifest::Manifest;
pub use wal::Wal;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The schema every checkpoint header and session manifest names. A file
/// naming any other schema is refused with [`StateError::Version`].
pub const SCHEMA: &str = "xmap-checkpoint/v2";

/// A cheaply clonable abort flag shared between a scan driver, its
/// workers, and (in tests) the simulated network's kill-points.
///
/// Setting it requests a cooperative stop: scanners finish the current
/// slot, leave the last durable checkpoint in place, and return with
/// their results marked interrupted. It is intentionally one-way — there
/// is no reset — so a signal observed anywhere means the whole session
/// is winding down.
#[derive(Debug, Clone, Default)]
pub struct AbortSignal(Arc<AtomicBool>);

impl AbortSignal {
    /// Creates a new, unset signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the stop. Idempotent.
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_signal_is_shared() {
        let a = AbortSignal::new();
        let b = a.clone();
        assert!(!b.is_set());
        a.set();
        assert!(b.is_set());
        a.set();
        assert!(a.is_set());
    }
}
