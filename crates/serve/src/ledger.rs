//! The job ledger: a WAL journaling every job-lifecycle event.
//!
//! The ledger is the daemon's source of truth for *which jobs exist*.
//! Replaying it yields the live set: every `Submitted` job that has no
//! terminal (`Completed` / `Cancelled`) record. Unit-level progress is
//! deliberately **not** journaled here — it lives in per-job checkpoint
//! directories, where a finished unit is exactly a readable checkpoint
//! file. That split keeps the ledger tiny (a handful of records per
//! job) and makes unit commit idempotent: re-running a unit whose
//! checkpoint was lost to a torn write rewrites the same bytes.
//!
//! Every append is fsynced before the daemon acknowledges the event, so
//! an acknowledged submit survives any later crash, power loss included.
//! The underlying [`Wal`] tolerates a torn tail: a crash mid-append loses
//! only the unacknowledged record.

use std::path::Path;

use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{StateError, Wal};

use crate::job::JobSpec;

/// One job-lifecycle event in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// A job was admitted: it must eventually complete or be cancelled.
    Submitted {
        /// Daemon-assigned job id (sequential from 1).
        job: u64,
        /// Owning tenant.
        tenant: String,
        /// The full job spec (replayable without external state).
        spec: JobSpec,
    },
    /// The job finished and its final artifacts were published.
    Completed {
        /// The finished job.
        job: u64,
    },
    /// The job was cancelled by a tenant.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
}

impl LedgerEvent {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            LedgerEvent::Submitted { job, tenant, spec } => {
                e.u8(1);
                e.u64(*job);
                e.str(tenant);
                spec.encode(&mut e);
            }
            LedgerEvent::Completed { job } => {
                e.u8(2);
                e.u64(*job);
            }
            LedgerEvent::Cancelled { job } => {
                e.u8(3);
                e.u64(*job);
            }
        }
        e.finish()
    }

    fn decode(raw: &[u8]) -> Result<LedgerEvent, StateError> {
        let mut d = Decoder::new(raw, "job ledger entry");
        let ev = match d.u8()? {
            1 => LedgerEvent::Submitted {
                job: d.u64()?,
                tenant: d.str()?,
                spec: JobSpec::decode(&mut d)?,
            },
            2 => LedgerEvent::Completed { job: d.u64()? },
            3 => LedgerEvent::Cancelled { job: d.u64()? },
            tag => {
                return Err(StateError::Corrupt(format!(
                    "job ledger: unknown event tag {tag}"
                )))
            }
        };
        d.expect_end()?;
        Ok(ev)
    }
}

/// An append-only journal of [`LedgerEvent`]s backed by an
/// `xmap-state` [`Wal`].
#[derive(Debug)]
pub struct Ledger {
    wal: Wal,
}

impl Ledger {
    /// Opens (or creates) the ledger at `path`, returning it positioned
    /// for appends plus every intact historical event in order. A torn
    /// tail from a crash mid-append is truncated away.
    pub fn open(path: &Path) -> Result<(Ledger, Vec<LedgerEvent>), StateError> {
        if !path.exists() {
            return Ok((
                Ledger {
                    wal: Wal::create(path)?,
                },
                Vec::new(),
            ));
        }
        let recovered = Wal::recover(path)?;
        let mut events = Vec::with_capacity(recovered.entries.len());
        for raw in &recovered.entries {
            events.push(LedgerEvent::decode(raw)?);
        }
        let keep = recovered.entries.len() as u64;
        let (wal, _) = Wal::open_truncated(path, keep)?;
        Ok((Ledger { wal }, events))
    }

    /// Appends one event and fsyncs it, so the event is on disk before
    /// the daemon acknowledges it to the tenant.
    pub fn append(&mut self, event: &LedgerEvent) -> Result<(), StateError> {
        self.wal.append(&event.encode())?;
        self.wal.sync()
    }

    /// Count of events journalled so far.
    pub fn len(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Whether the ledger holds no events yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "xmap-serve-ledger-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    fn sample_events() -> Vec<LedgerEvent> {
        vec![
            LedgerEvent::Submitted {
                job: 1,
                tenant: "alice".to_owned(),
                spec: JobSpec::LoopscanSurvey {
                    probes_per_block: 128,
                    seed: 3,
                    world_seed: 5,
                },
            },
            LedgerEvent::Submitted {
                job: 2,
                tenant: "bob".to_owned(),
                spec: JobSpec::PeripheryCampaign {
                    targets_per_block: 1024,
                    seed: 9,
                    world_seed: 2,
                    mop_up_ticks: None,
                    block_targets: Vec::new(),
                },
            },
            LedgerEvent::Cancelled { job: 2 },
            LedgerEvent::Completed { job: 1 },
        ]
    }

    #[test]
    fn ledger_replays_in_order() {
        let path = temp_path("replay");
        let (mut ledger, past) = Ledger::open(&path).expect("open");
        assert!(past.is_empty());
        assert!(ledger.is_empty());
        for ev in sample_events() {
            ledger.append(&ev).expect("append");
        }
        drop(ledger);
        let (ledger, past) = Ledger::open(&path).expect("reopen");
        assert_eq!(past, sample_events());
        assert_eq!(ledger.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn acknowledged_event_survives_power_loss() {
        let path = temp_path("power");
        let scope = xmap_failpoint::FailPlan::observe(&path).arm();
        let (mut ledger, _) = Ledger::open(&path).expect("open");
        let first = &sample_events()[..1];
        ledger.append(&first[0]).expect("append");
        // Power cut after the acknowledgement: only synced bytes survive.
        scope.lose_unsynced();
        drop(scope);
        drop(ledger);
        let (_, past) = Ledger::open(&path).expect("reopen");
        assert_eq!(past, first);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_drops_only_last_record() {
        let path = temp_path("torn");
        let (mut ledger, _) = Ledger::open(&path).expect("open");
        for ev in sample_events() {
            ledger.append(&ev).expect("append");
        }
        drop(ledger);
        // Chop bytes off the tail: the final record decays, the rest hold.
        let raw = std::fs::read(&path).expect("read");
        std::fs::write(&path, &raw[..raw.len() - 3]).expect("truncate");
        let (_, past) = Ledger::open(&path).expect("reopen torn");
        assert_eq!(past, sample_events()[..3]);
        let _ = std::fs::remove_file(&path);
    }
}
