//! Wire-trace record and replay, and the benchmark ledger's reactor
//! subjects.
//!
//! The scan loop drives any `Network` directly (`handle_into` per
//! probe, `tick_into` per slot; see `DESIGN.md` §5i). This crate holds
//! two such networks:
//!
//! * [`WireRecorder`] journals every exchange of the network it wraps
//!   as an NDJSON wire trace;
//! * [`ReplayNet`] re-serves a recorded trace with no simulator,
//!   counting every call that departs from the recording.
//!
//! The rest is on no scan path. [`Transport`], [`SimTransport`],
//! [`RecvEntry`] and [`BoundedQueue`] are a send-batch / tick-stamped
//! staging-queue / poll contract over a `Network`, and [`TimerHeap`] a
//! deadline-ordered timer with a deterministic `(deadline, seq)`
//! tie-break. They stay as the benchmark ledger's
//! `reactor.transport`, `reactor.queue` and `reactor.timer` subjects,
//! and the heap as the reference model the scanner's per-attempt retry
//! lanes are tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod replay;
pub mod timer;
pub mod transport;

pub use queue::BoundedQueue;
pub use replay::{ReplayError, ReplayNet, WireRecorder};
pub use timer::TimerHeap;
pub use transport::{RecvEntry, SimTransport, Transport};
