//! Write-ahead journal.
//!
//! A scan worker appends every result record here, and each checkpoint
//! after them as a cut entry ([`crate::WorkerJournal`]), so a resumed run
//! can (a) replay records from ranges that already completed without
//! re-scanning them and (b) discard a torn tail — the partial entry a
//! kill left behind mid-write — and deterministically re-emit it by
//! re-executing from the last intact cut. [`Wal::sync`] makes everything
//! appended so far durable.
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

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use xmap_failpoint::fs::FpFile;

use crate::codec::crc32;
use crate::error::StateError;

const HEADER_LEN: usize = 8 + 4;
const TRAILER_LEN: usize = 4;

/// Bytes one entry with a `payload_len`-byte payload takes on disk.
pub fn frame_len(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len + TRAILER_LEN) as u64
}

/// An open journal positioned for appending. All writes route through
/// the failpoint filesystem wrapper, so tests can inject `EIO`/`ENOSPC`,
/// short writes, and kill-points at any journal operation.
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<FpFile>,
    path: PathBuf,
    next_seq: u64,
}

/// The result of scanning a journal file: the intact entries and the byte
/// length of the intact prefix (everything past it is a torn tail).
#[derive(Debug)]
pub struct Recovered {
    /// Payloads of intact entries, in sequence order (entry `i` has seq `i`).
    pub entries: Vec<Vec<u8>>,
    /// Byte offset one past the last intact entry.
    pub valid_len: u64,
}

impl Wal {
    /// Creates (or truncates) a journal at `path`.
    pub fn create(path: &Path) -> Result<Wal, StateError> {
        let file = FpFile::create(path)
            .map_err(|e| StateError::io(format!("create journal {}", path.display()), e))?;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            next_seq: 0,
        })
    }

    /// Scans the journal at `path`, returning every intact entry. A
    /// missing file recovers as empty. Torn or corrupt tails are reported
    /// in `valid_len` but do not error — that is the normal state after a
    /// kill.
    pub fn recover(path: &Path) -> Result<Recovered, StateError> {
        let mut raw = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)
                    .map_err(|e| StateError::io(format!("read journal {}", path.display()), e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(StateError::io(
                    format!("open journal {}", path.display()),
                    e,
                ))
            }
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
        Ok(Recovered {
            entries,
            valid_len: pos as u64,
        })
    }

    /// Recovers the journal, verifies it holds at least `keep` intact
    /// entries, truncates it to exactly `keep` entries (dropping both the
    /// torn tail and any entries a checkpoint never covered), and returns
    /// the journal positioned to append entry `keep` plus the kept
    /// payloads.
    ///
    /// `keep` is the `wal_seq` recorded in the checkpoint being resumed:
    /// entries past it were emitted after the checkpoint and will be
    /// re-emitted identically by deterministic re-execution.
    pub fn open_truncated(path: &Path, keep: u64) -> Result<(Wal, Vec<Vec<u8>>), StateError> {
        let mut rec = Self::recover(path)?;
        if (rec.entries.len() as u64) < keep {
            return Err(StateError::Corrupt(format!(
                "journal {} holds {} intact records but the checkpoint requires {keep}; \
                 the journal was damaged beyond its torn tail",
                path.display(),
                rec.entries.len()
            )));
        }
        rec.entries.truncate(keep as usize);
        let wal = Self::reopen(path, &rec.entries)?;
        Ok((wal, rec.entries))
    }

    /// Reopens the journal at `path` to append after `kept`, an intact
    /// prefix of its entries, truncating everything past them.
    pub fn reopen(path: &Path, kept: &[Vec<u8>]) -> Result<Wal, StateError> {
        let keep_bytes: u64 = kept.iter().map(|p| frame_len(p.len())).sum();
        let mut file = FpFile::open_rw(path)
            .map_err(|e| StateError::io(format!("open journal {}", path.display()), e))?;
        file.set_len(keep_bytes)
            .map_err(|e| StateError::io(format!("truncate journal {}", path.display()), e))?;
        file.seek_end()
            .map_err(|e| StateError::io(format!("seek journal {}", path.display()), e))?;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            next_seq: kept.len() as u64,
        })
    }

    /// Appends one record, returning its sequence number. Buffered; call
    /// [`Wal::flush`] before taking a checkpoint that references the seq.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StateError> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        self.writer
            .write_all(&frame)
            .map_err(|e| StateError::io(format!("append journal {}", self.path.display()), e))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Flushes buffered entries to the operating system.
    pub fn flush(&mut self) -> Result<(), StateError> {
        self.writer
            .flush()
            .map_err(|e| StateError::io(format!("flush journal {}", self.path.display()), e))
    }

    /// Flushes buffered entries and fsyncs the file: every entry appended
    /// so far survives a power cut.
    pub fn sync(&mut self) -> Result<(), StateError> {
        self.flush()?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(|e| StateError::io(format!("sync journal {}", self.path.display()), e))
    }

    /// Gives the journal up after a failed append, flush or sync: bytes
    /// still buffered are discarded, not flushed, and the file is cut
    /// back to `len` bytes, its last durable length. Best effort — on a
    /// dead disk the cut fails too, and recovery drops the torn tail.
    pub fn abandon(self, len: u64) {
        let (file, _unwritten) = self.writer.into_parts();
        let _ = file.set_len(len);
    }

    /// The sequence number the next [`Wal::append`] will use — i.e. the
    /// count of records journalled so far.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The journal's path (used by degraded-mode sinks that drop the
    /// writer after an I/O failure and reopen it on retry).
    pub fn path(&self) -> &Path {
        &self.path
    }
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
        assert_eq!(rec.valid_len, fs::metadata(&path).unwrap().len());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty() {
        let rec = Wal::recover(&temp_path("missing")).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.valid_len, 0);
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
            assert_eq!(rec.valid_len, intact_len as u64, "cut at byte {cut}");

            // Resume path: truncate to the checkpointed count, re-emit.
            let (mut resumed, kept) = Wal::open_truncated(&torn, 3).unwrap();
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

    #[test]
    fn open_truncated_rejects_short_journal() {
        let path = temp_path("short");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&payload(0)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let err = Wal::open_truncated(&path, 5).unwrap_err();
        assert!(matches!(err, StateError::Corrupt(_)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncated_drops_entries_past_checkpoint() {
        let path = temp_path("past");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..6 {
            wal.append(&payload(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let (wal2, kept) = Wal::open_truncated(&path, 2).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(wal2.next_seq(), 2);
        drop(wal2);
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        fs::remove_file(&path).unwrap();
    }
}
