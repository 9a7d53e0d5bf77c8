//! The scan reactor: bounded event queues behind a pluggable
//! [`Transport`] boundary, and a timer heap.
//!
//! The network-facing parts of the scan loop, factored out of the
//! scanner so the loop itself never names a concrete network:
//!
//! * [`BoundedQueue`] — the receive-side event queue. Backpressure is
//!   reported (saturation counter + high watermark), never enforced by
//!   dropping: a reply that made it off the wire is always delivered.
//! * [`Transport`] — the boundary the scan loop drives: `send_batch` /
//!   `poll_recv` / `advance` and a clock.
//!   [`SimTransport`] wraps any `Network` — the simulator, a
//!   [`WireRecorder`] around it, or a [`ReplayNet`] re-serving a recorded
//!   NDJSON wire trace.
//!
//! Beside them, [`TimerHeap`]: deadline-ordered timers with a
//! deterministic `(deadline, seq)` tie-break, for deadlines armed in any
//! order. The scan loop's retries arrive in deadline order per attempt and
//! sit in per-attempt lanes inside `xmap`; the heap is the reference model
//! those lanes are tested against and the timer the benchmark ledger
//! times.
//!
//! Determinism contract: a transport stamps every delivered packet with
//! the virtual tick it arrived at ([`RecvEntry::tick`]), and delivers
//! packets in arrival order. The scan loop computes RTTs and record
//! order from those stamps, so its artifacts depend on arrival times
//! only, never on when it polled — see `DESIGN.md` §5i.

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
