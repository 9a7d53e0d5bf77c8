//! The job ledger: a WAL journaling every job-lifecycle event and every
//! finished unit.
//!
//! The ledger is the daemon's one source of truth. Replaying it yields
//! the live set — every `Submitted` job that has no terminal
//! (`Completed` / `Cancelled`) record — and each live job's finished
//! units: a `UnitDone` record holds the unit's output and telemetry
//! delta. It keeps every unit's output, finished jobs' included, and
//! [`Ledger::open`] decodes all of it; nothing compacts it.
//!
//! Every append is fsynced before the daemon acknowledges the event or
//! marks the unit done, so it survives any later crash, power loss
//! included. The underlying [`Wal`] tolerates a torn tail: a crash
//! mid-append loses only the unacknowledged record. A failed append cuts
//! the file back to its last synced event and closes the ledger until it
//! is reopened, so no event ever lands after torn or unacknowledged bytes.

use std::path::Path;

use xmap_failpoint::fs as fp;
use xmap_state::checkpoint::{decode_snapshot, encode_snapshot};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::wal::frame_len;
use xmap_state::{StateError, Wal};
use xmap_telemetry::Snapshot;

use crate::job::{JobSpec, UnitOutput};

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
    /// One unit of a job finished.
    UnitDone {
        /// The job the unit belongs to.
        job: u64,
        /// The unit's index within the job.
        unit: usize,
        /// The unit's result.
        output: UnitOutput,
        /// The unit's telemetry delta.
        metrics: Snapshot,
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
            LedgerEvent::UnitDone {
                job,
                unit,
                output,
                metrics,
            } => {
                e.u8(4);
                e.u64(*job);
                e.u64(*unit as u64);
                output.encode(&mut e);
                e.bytes(&encode_snapshot(metrics));
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
            4 => LedgerEvent::UnitDone {
                job: d.u64()?,
                // A unit past `usize` is out of range for every job.
                unit: usize::try_from(d.u64()?).unwrap_or(usize::MAX),
                output: UnitOutput::decode(&mut d)?,
                metrics: decode_snapshot(&d.bytes()?)?,
            },
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
    /// `None` once an append failed: the ledger is closed until reopened.
    wal: Option<Wal>,
    /// Bytes of the events synced so far, where a failed append cuts back to.
    synced: u64,
    events: u64,
}

impl Ledger {
    /// Opens (or creates) the ledger at `path`, returning it positioned
    /// for appends plus every intact historical event in order. A torn
    /// tail from a crash mid-append is truncated away. A new ledger's
    /// directory is fsynced, so its name survives a power cut.
    pub fn open(path: &Path) -> Result<(Ledger, Vec<LedgerEvent>), StateError> {
        let fresh = !path.exists();
        let recovered = Wal::recover(path)?;
        let events = (recovered.entries.iter())
            .map(|raw| LedgerEvent::decode(raw))
            .collect::<Result<Vec<_>, _>>()?;
        let wal = Wal::reopen(path, &recovered.entries)?;
        if fresh {
            let dir =
                (path.parent().filter(|d| !d.as_os_str().is_empty())).unwrap_or(Path::new("."));
            fp::sync_file(dir)
                .map_err(|e| StateError::io(format!("sync ledger dir {}", dir.display()), e))?;
        }
        let ledger = Ledger {
            wal: Some(wal),
            synced: recovered.valid_len,
            events: events.len() as u64,
        };
        Ok((ledger, events))
    }

    /// Appends one event and fsyncs it, so the event is on disk before
    /// the daemon acknowledges it to the tenant. On failure the file is
    /// cut back to the last synced event and the ledger closes.
    pub fn append(&mut self, event: &LedgerEvent) -> Result<(), StateError> {
        let mut wal = self.wal.take().ok_or_else(|| {
            StateError::io(
                "append job ledger",
                std::io::Error::other("closed by an earlier failed append; reopen the root"),
            )
        })?;
        let payload = event.encode();
        if let Err(e) = wal.append(&payload).and_then(|_| wal.sync()) {
            wal.abandon(self.synced);
            return Err(e);
        }
        self.wal = Some(wal);
        self.synced += frame_len(payload.len());
        self.events += 1;
        Ok(())
    }

    /// Count of events journalled so far.
    pub fn len(&self) -> u64 {
        self.events
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
    fn unit_results_replay_as_journalled() {
        let path = temp_path("unit");
        let spec = JobSpec::LoopscanSurvey {
            probes_per_block: 64,
            seed: 3,
            world_seed: 5,
        };
        let (output, metrics) = spec.run_unit(2);
        let events = vec![
            LedgerEvent::Submitted {
                job: 1,
                tenant: "alice".to_owned(),
                spec,
            },
            LedgerEvent::UnitDone {
                job: 1,
                unit: 2,
                output,
                metrics,
            },
        ];
        let (mut ledger, _) = Ledger::open(&path).expect("open");
        for ev in &events {
            ledger.append(ev).expect("append");
        }
        drop(ledger);
        let (_, past) = Ledger::open(&path).expect("reopen");
        assert_eq!(past, events);
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

    /// A short write on the second append, torn (`keep` 5) or empty
    /// (`keep` 0), fails that append and closes the ledger: the third
    /// append fails too, and a reopen finds only the first event — never
    /// the failed one, and never an event journalled after torn bytes.
    #[test]
    fn failed_append_closes_the_ledger_at_its_last_synced_event() {
        use xmap_failpoint::{FailPlan, FaultKind, FsAction, FsOp, FsRule};
        for keep in [0, 5] {
            let path = temp_path("short");
            let scope = FailPlan {
                prefix: path.clone(),
                rules: vec![FsRule {
                    op: FsOp::Write,
                    suffix: None,
                    nth: 1,
                    action: FsAction::ShortWrite {
                        keep,
                        kind: FaultKind::Eio,
                    },
                }],
                schedules: Vec::new(),
            }
            .arm();
            let (mut ledger, _) = Ledger::open(&path).expect("open");
            let events = sample_events();
            ledger.append(&events[0]).expect("first append");
            assert!(ledger.append(&events[1]).is_err(), "keep {keep}: second");
            assert!(ledger.append(&events[2]).is_err(), "keep {keep}: third");
            assert_eq!(scope.fired(), 1);
            drop(scope);
            drop(ledger);
            let (_, past) = Ledger::open(&path).expect("reopen");
            assert_eq!(past, events[..1], "keep {keep}");
            let _ = std::fs::remove_file(&path);
        }
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
