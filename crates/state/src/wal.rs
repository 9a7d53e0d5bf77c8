//! Write-ahead journal: every checkpoint in the workspace is an entry of
//! one. Four journals use it — a scan worker's `worker-N.ckpt` (records
//! and cuts, [`crate::WorkerJournal`]), a parallel campaign's
//! `campaign.ckpt`, an adaptive campaign's `adaptive.ckpt` and the serve
//! daemon's `ledger.wal` — and [`Wal`] holds the policy they share: how
//! a journal opens ([`Wal::open`], [`Wal::start`]), appends, fails (it
//! closes at its last sync) and is rewritten ([`Wal::rewrite`]).
//!
//! On-disk entry layout (all little-endian):
//!
//! ```text
//! [seq: u64][len: u32][payload: len bytes][crc32: u32]
//! ```
//!
//! `seq` is the zero-based entry index and must be contiguous; `crc32`
//! covers the seq, len, and payload bytes. Recovery scans forward and
//! stops at the first entry that is truncated, CRC-corrupt, or breaks the
//! sequence — everything before it is intact, everything after is the
//! torn tail.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use xmap_failpoint::fs::FpFile;

use crate::checkpoint::{publish, sync_dir, MAGIC};
use crate::codec::crc32;
use crate::error::StateError;

const HEADER_LEN: usize = 8 + 4;
const TRAILER_LEN: usize = 4;

/// Bytes one entry with a `payload_len`-byte payload takes on disk.
pub fn frame_len(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len + TRAILER_LEN) as u64
}

/// Appends the frame of entry `seq`, holding `payload`, to `out`.
fn push_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The bytes of a journal holding exactly `entries`.
pub(crate) fn framed(entries: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(|e| frame_len(e.len()) as usize).sum());
    for (seq, entry) in entries.iter().enumerate() {
        push_frame(&mut out, seq as u64, entry);
    }
    out
}

/// An open journal positioned for appending. All writes route through
/// the failpoint filesystem wrapper, so tests can inject `EIO`/`ENOSPC`,
/// short writes, and kill-points at any journal operation.
#[derive(Debug)]
pub struct Wal {
    /// `None` once a failed write, flush or sync closed the journal.
    writer: Option<BufWriter<FpFile>>,
    path: PathBuf,
    next_seq: u64,
    /// Bytes appended so far, buffered ones included.
    len: u64,
    /// Entries durable as of the last successful sync (or the open).
    synced_seq: u64,
    /// The journal's length as of the last successful sync: where a
    /// failure cuts it back to.
    synced_len: u64,
}

/// The result of scanning a journal file: its intact entries (everything
/// past them is a torn tail).
#[derive(Debug)]
pub struct Recovered {
    /// Payloads of intact entries, in sequence order (entry `i` has seq `i`).
    pub entries: Vec<Vec<u8>>,
}

impl Wal {
    /// Creates (or truncates) a journal at `path`, syncing nothing: the
    /// caller makes the new name durable.
    pub fn create(path: &Path) -> Result<Wal, StateError> {
        let file = FpFile::create(path)
            .map_err(|e| StateError::io(format!("create journal {}", path.display()), e))?;
        let mut wal = Wal::closed(path, 0, 0);
        wal.writer = Some(BufWriter::new(file));
        Ok(wal)
    }

    /// Starts a journal at `path` over any earlier one, creating its
    /// directory if missing. `first`, when given, is appended as entry 0
    /// and synced; then the directory is synced, so the new file's name
    /// is durable too.
    pub fn start(path: &Path, first: Option<&[u8]>) -> Result<Wal, StateError> {
        let dir = parent_dir(path);
        fs::create_dir_all(dir)
            .map_err(|e| StateError::io(format!("create dir {}", dir.display()), e))?;
        let mut wal = Wal::create(path)?;
        if let Some(entry) = first {
            wal.append(entry)?;
            wal.sync()?;
        }
        sync_dir(dir)?;
        Ok(wal)
    }

    /// Opens the journal at `path` to resume it. `keep` sees every intact
    /// entry and returns how many of them to keep, or refuses the
    /// journal, before anything on disk changes. The journal is reopened
    /// just past the kept entries, which are returned; everything after
    /// them is dropped. When it keeps none (a missing or empty file
    /// included), the journal starts over as [`Wal::start`] with
    /// `first`. A file opening with [`MAGIC`] is refused as
    /// [`Wal::recover`] refuses it.
    pub fn open(
        path: &Path,
        first: Option<&[u8]>,
        keep: impl FnOnce(&[Vec<u8>]) -> Result<usize, StateError>,
    ) -> Result<(Wal, Vec<Vec<u8>>), StateError> {
        let mut entries = Wal::recover(path)?.entries;
        let kept = keep(&entries)?;
        entries.truncate(kept);
        if entries.is_empty() {
            return Ok((Wal::start(path, first)?, entries));
        }
        let keep_bytes = entries.iter().map(|p| frame_len(p.len())).sum();
        let mut wal = Wal::closed(path, keep_bytes, entries.len() as u64);
        wal.revive()?;
        Ok((wal, entries))
    }

    /// Scans the journal at `path`, returning every intact entry. A
    /// missing file recovers as empty. Torn or corrupt tails do not error
    /// — that is the normal state after a kill. A file that opens with [`MAGIC`] is a sectioned checkpoint
    /// an older build wrote in the journal's place, refused as
    /// [`StateError::Version`].
    pub fn recover(path: &Path) -> Result<Recovered, StateError> {
        let raw = match fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(StateError::io(
                    format!("read journal {}", path.display()),
                    e,
                ))
            }
        };
        if raw.starts_with(MAGIC) {
            return Err(StateError::Version(format!(
                "{}: a sectioned checkpoint is an older layout, this build journals it; \
                 re-run without --resume",
                path.display()
            )));
        }
        let mut entries = Vec::new();
        let mut pos = 0usize;
        loop {
            let remaining = raw.len() - pos;
            if remaining < HEADER_LEN {
                break;
            }
            let seq = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(raw[pos + 8..pos + 12].try_into().unwrap()) as usize;
            if seq != entries.len() as u64 {
                break;
            }
            let total = HEADER_LEN + len + TRAILER_LEN;
            if remaining < total {
                break;
            }
            let body_end = pos + HEADER_LEN + len;
            let stored = u32::from_le_bytes(raw[body_end..body_end + 4].try_into().unwrap());
            if crc32(&raw[pos..body_end]) != stored {
                break;
            }
            entries.push(raw[pos + HEADER_LEN..body_end].to_vec());
            pos += total;
        }
        Ok(Recovered { entries })
    }

    /// The closed journal at `path`, `len` bytes and `seq` entries long,
    /// all of them synced.
    fn closed(path: &Path, len: u64, seq: u64) -> Wal {
        Wal {
            writer: None,
            path: path.to_path_buf(),
            next_seq: seq,
            len,
            synced_seq: seq,
            synced_len: len,
        }
    }

    /// The writer, unless a failure closed the journal.
    fn writer(&mut self) -> io::Result<&mut BufWriter<FpFile>> {
        (self.writer.as_mut()).ok_or_else(|| io::Error::other("closed by an earlier failed write"))
    }

    /// Appends one entry, returning its sequence number. Buffered: call
    /// [`Wal::flush`] or [`Wal::sync`] to write it out.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StateError> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(frame_len(payload.len()) as usize);
        push_frame(&mut frame, seq, payload);
        let written = self.writer().and_then(|w| w.write_all(&frame));
        written.map_err(|e| self.fail("append", e))?;
        self.next_seq += 1;
        self.len += frame.len() as u64;
        Ok(seq)
    }

    /// Flushes buffered entries to the operating system.
    pub fn flush(&mut self) -> Result<(), StateError> {
        let flushed = self.writer().and_then(|w| w.flush());
        flushed.map_err(|e| self.fail("flush", e))
    }

    /// Flushes buffered entries and fsyncs the file: every entry appended
    /// so far survives a power cut.
    pub fn sync(&mut self) -> Result<(), StateError> {
        self.flush()?;
        let synced = self.writer().and_then(|w| w.get_ref().sync_all());
        synced.map_err(|e| self.fail("sync", e))?;
        self.synced_seq = self.next_seq;
        self.synced_len = self.len;
        Ok(())
    }

    /// Closes the journal after a failed `op`: bytes still buffered are
    /// discarded, not flushed, and the file is cut back to its last
    /// synced length. Best effort — on a dead disk the cut fails too, and
    /// recovery drops the torn tail. Returns the error to report.
    fn fail(&mut self, op: &str, err: io::Error) -> StateError {
        if let Some(file) = self.close() {
            let _ = file.set_len(self.synced_len);
        }
        self.next_seq = self.synced_seq;
        self.len = self.synced_len;
        StateError::io(format!("{op} journal {}", self.path.display()), err)
    }

    /// Drops the writer, discarding what it still buffers, and hands back
    /// its file.
    fn close(&mut self) -> Option<FpFile> {
        let (file, _unwritten) = self.writer.take()?.into_parts();
        Some(file)
    }

    /// Reopens a journal a failure closed, at its last synced length, so
    /// appends resume after the last synced entry. An open journal is
    /// left as it is.
    pub fn revive(&mut self) -> Result<(), StateError> {
        if self.writer.is_some() {
            return Ok(());
        }
        let reopened = FpFile::open_rw(&self.path).and_then(|mut file| {
            file.set_len(self.synced_len)?;
            file.seek_end()?;
            Ok(file)
        });
        let file = reopened
            .map_err(|e| StateError::io(format!("reopen journal {}", self.path.display()), e))?;
        self.writer = Some(BufWriter::new(file));
        (self.len, self.next_seq) = (self.synced_len, self.synced_seq);
        Ok(())
    }

    /// Replaces the journal with `kept`, which become entries `0..`:
    /// tmp file, fsync and rename ([`publish`]), then reopens it to
    /// append after them and fsyncs the directory. Call it on a synced
    /// journal; anything appended since the last sync is dropped. A
    /// failure before the rename leaves the journal as it was, and open;
    /// one after it leaves the rewritten journal closed.
    pub fn rewrite(&mut self, kept: &[Vec<u8>]) -> Result<(), StateError> {
        let bytes = framed(kept);
        publish(&self.path, &bytes)?;
        // The open handle still names the replaced file.
        self.close();
        (self.synced_len, self.synced_seq) = (bytes.len() as u64, kept.len() as u64);
        self.revive()?;
        sync_dir(parent_dir(&self.path)).inspect_err(|_| {
            self.close();
        })
    }

    /// The sequence number the next [`Wal::append`] will use — i.e. the
    /// count of entries journalled so far.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether a failure closed the journal.
    pub fn is_closed(&self) -> bool {
        self.writer.is_none()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    (path.parent().filter(|d| !d.as_os_str().is_empty())).unwrap_or(Path::new("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xmap-wal-{}-{tag}-{n}.wal", std::process::id()))
    }

    /// Opens `path` keeping exactly its first `keep` intact entries; a
    /// journal holding fewer is refused as corrupt, left as it is.
    fn open_keeping(path: &Path, keep: usize) -> Result<(Wal, Vec<Vec<u8>>), StateError> {
        Wal::open(path, None, |entries| {
            if entries.len() < keep {
                return Err(StateError::Corrupt(format!(
                    "{} holds {} intact entries, {keep} required",
                    path.display(),
                    entries.len()
                )));
            }
            Ok(keep)
        })
    }

    fn payload(i: u64) -> Vec<u8> {
        // Variable-length payloads exercise offset arithmetic.
        let mut p = vec![0u8; 5 + (i as usize % 7)];
        p[0] = i as u8;
        for (j, b) in p.iter_mut().enumerate().skip(1) {
            *b = (i as usize * 31 + j) as u8;
        }
        p
    }

    #[test]
    fn roundtrip_and_recover() {
        let path = temp_path("rt");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append(&payload(i)).unwrap(), i);
        }
        wal.flush().unwrap();
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.entries.len(), 10);
        for (i, e) in rec.entries.iter().enumerate() {
            assert_eq!(e, &payload(i as u64));
        }
        let framed: u64 = rec.entries.iter().map(|e| frame_len(e.len())).sum();
        assert_eq!(framed, fs::metadata(&path).unwrap().len());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty() {
        let rec = Wal::recover(&temp_path("missing")).unwrap();
        assert!(rec.entries.is_empty());
    }

    /// The satellite requirement: truncate the journal at *every* byte
    /// offset of the last record. Recovery must keep exactly the intact
    /// prefix, and re-appending the lost record must reproduce the
    /// original file byte for byte.
    #[test]
    fn torn_tail_at_every_byte_offset() {
        let path = temp_path("torn");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..4 {
            wal.append(&payload(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        let last = payload(3);
        let last_frame = HEADER_LEN + last.len() + TRAILER_LEN;
        let intact_len = full.len() - last_frame;

        for cut in intact_len..full.len() {
            let torn = temp_path("torn-cut");
            fs::write(&torn, &full[..cut]).unwrap();

            let rec = Wal::recover(&torn).unwrap();
            assert_eq!(rec.entries.len(), 3, "cut at byte {cut}");

            // Resume path: truncate to the checkpointed count, re-emit.
            let (mut resumed, kept) = open_keeping(&torn, 3).unwrap();
            assert_eq!(kept.len(), 3);
            assert_eq!(resumed.next_seq(), 3);
            resumed.append(&last).unwrap();
            resumed.flush().unwrap();
            drop(resumed);
            assert_eq!(fs::read(&torn).unwrap(), full, "cut at byte {cut}");
            fs::remove_file(&torn).unwrap();
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_recovery() {
        let path = temp_path("crc");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..3 {
            wal.append(&payload(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of entry 1.
        let entry0 = HEADER_LEN + payload(0).len() + TRAILER_LEN;
        bytes[entry0 + HEADER_LEN] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.entries.len(), 1);
        fs::remove_file(&path).unwrap();
    }

    /// One step of a journal's life, as [`failed_operation_closes_the_journal_at_its_last_sync`]
    /// scripts it.
    #[derive(Clone, Copy)]
    enum Step {
        /// Append an entry of this many bytes.
        Append(usize),
        Flush,
        Sync,
    }

    /// Runs `script` on a new journal at `path` until an operation fails.
    /// Returns the entries synced by then and whether one failed.
    fn run_script(path: &Path, script: &[Step]) -> (Wal, Vec<Vec<u8>>, bool) {
        let mut wal = Wal::create(path).unwrap();
        let (mut appended, mut synced) = (Vec::new(), Vec::new());
        for (i, step) in script.iter().enumerate() {
            let done = match *step {
                Step::Append(len) => {
                    let entry = vec![i as u8; len];
                    let seq = wal.append(&entry);
                    appended.push(entry);
                    seq.map(drop)
                }
                Step::Flush => wal.flush(),
                Step::Sync => wal.sync().map(|()| synced = appended.clone()),
            };
            if done.is_err() {
                return (wal, synced, true);
            }
        }
        (wal, synced, false)
    }

    /// The failure rule, at every write (a flush, or an append past the
    /// buffer) and every sync in turn, torn or clean: the failed
    /// operation closes the journal, every later one fails, the file is
    /// cut back to exactly its synced entries, and a revived journal
    /// appends after them.
    #[test]
    fn failed_operation_closes_the_journal_at_its_last_sync() {
        use xmap_failpoint::{FailPlan, FaultKind, FsAction, FsOp, FsRule};
        use Step::{Append, Flush, Sync};
        // 9000 B outgrows the 8 KiB buffer: that append writes at once.
        let script = [
            Append(40),
            Append(7),
            Sync,
            Append(9000),
            Append(12),
            Flush,
            Append(30),
            Sync,
            Append(5),
            Flush,
            Append(64),
            Sync,
        ];
        let path = temp_path("policy");
        let scope = FailPlan::observe(&path).arm();
        let (wal, all, failed) = run_script(&path, &script);
        let ops = scope.ops();
        drop(scope);
        drop(wal);
        assert!(!failed && all.len() == 7, "fault-free script");
        let actions = [
            FsAction::Fail(FaultKind::Enospc),
            FsAction::ShortWrite {
                keep: 5,
                kind: FaultKind::Eio,
            },
        ];
        let mut fired = 0;
        for op in [FsOp::Write, FsOp::Sync] {
            for nth in 0..ops {
                for action in actions {
                    let scope = FailPlan {
                        prefix: path.clone(),
                        rules: vec![FsRule {
                            op,
                            suffix: None,
                            nth,
                            action,
                        }],
                        schedules: Vec::new(),
                    }
                    .arm();
                    let (mut wal, synced, failed) = run_script(&path, &script);
                    let hit = scope.fired() == 1;
                    drop(scope);
                    let label = format!("{op:?} {nth} {action:?}");
                    assert_eq!(failed, hit, "{label}");
                    if !hit {
                        continue;
                    }
                    fired += 1;
                    assert!(wal.is_closed(), "{label}");
                    assert!(wal.append(b"later").is_err(), "{label}");
                    assert!(wal.flush().is_err() && wal.sync().is_err(), "{label}");
                    assert_eq!(wal.next_seq(), synced.len() as u64, "{label}");
                    let synced_len: u64 = synced.iter().map(|e| frame_len(e.len())).sum();
                    assert_eq!(fs::metadata(&path).unwrap().len(), synced_len, "{label}");
                    assert_eq!(Wal::recover(&path).unwrap().entries, synced, "{label}");
                    wal.revive().unwrap();
                    wal.append(b"after").unwrap();
                    wal.sync().unwrap();
                    drop(wal);
                    let mut expect = synced;
                    expect.push(b"after".to_vec());
                    assert_eq!(Wal::recover(&path).unwrap().entries, expect, "{label}");
                }
            }
        }
        // Six writes (the big append, two flushes and the three syncs'
        // flushes) and three syncs, each failed two ways.
        assert_eq!(fired, 18);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_keeping_rejects_short_journal() {
        let path = temp_path("short");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&payload(0)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let err = open_keeping(&path, 5).unwrap_err();
        assert!(matches!(err, StateError::Corrupt(_)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_keeping_drops_entries_past_checkpoint() {
        let path = temp_path("past");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..6 {
            wal.append(&payload(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let (wal2, kept) = open_keeping(&path, 2).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(wal2.next_seq(), 2);
        drop(wal2);
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        fs::remove_file(&path).unwrap();
    }
}
