//! The checkpoint format ([`SCHEMA`]).
//!
//! A checkpoint is self-describing bytes: a magic string, an ordered JSON
//! header, then CRC-protected binary sections. Layout:
//!
//! ```text
//! b"XMCKPT1\n"
//! [header_len: u32][header: ordered JSON, `header_len` bytes]\n
//! per section: [name_len: u8][name][len: u64][payload][crc32: u32]
//! ```
//!
//! The header carries identity and placement (`schema`, `kind`, the
//! kind's integer fields, the configuration fingerprint `fp`) plus the
//! section list; the sections carry bulk state. Every header integer is
//! written as `0x` and 16 hex digits, so a header's length depends only
//! on its kind and sections. Everything needed to *refuse* a wrong resume
//! lives in the header, so mismatches are detected before any bulk
//! decoding happens.
//!
//! Every checkpoint kind in the workspace — scan workers, campaign
//! directories, blocks and units, adaptive campaigns and rounds — is
//! framed and parsed through one envelope, [`Kind`]: it builds the header,
//! checks kind, fingerprint and identity fields, and hands sections out
//! through [`Opened`]. Every checkpoint is a journal entry: a scan
//! worker's are cut entries of its journal ([`WorkerJournal`]); a parallel
//! campaign's are entries of its `campaign.ckpt` journal and an adaptive
//! campaign's of its `adaptive.ckpt` journal ([`Kind::create_journal`],
//! [`Kind::entry`], [`recover_journal`], [`Opened::parse`]). The serve
//! daemon journals its finished units in its own job ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write;
use std::path::Path;

use xmap_addr::Prefix;
use xmap_failpoint::fs as fp;
use xmap_telemetry::{HistogramSnapshot, Snapshot};

use crate::codec::{crc32, Decoder, Encoder};
use crate::error::StateError;
use crate::json::{self, Value};
use crate::wal::Wal;
use crate::SCHEMA;

/// The magic every checkpoint's bytes open with. A journal never does:
/// its first entry opens with sequence number 0.
pub const MAGIC: &[u8] = b"XMCKPT1\n";

/// Section holding the mid-range [`RunState`].
const LIVE_SECTION: &str = "live";

const WORKER: Kind = Kind { name: "worker" };

/// One kind of checkpoint file: the `kind` its header names.
///
/// The envelope's rules hold for every kind:
/// - on write, the header's `sections` list is the sections written;
/// - on read, every listed section must be present, and only listed
///   sections are handed out;
/// - a wrong kind, identity field or missing section is
///   [`StateError::Corrupt`], a wrong fingerprint [`StateError::Mismatch`]
///   and any schema but [`SCHEMA`] [`StateError::Version`].
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    /// The header's `kind` value.
    pub name: &'static str,
}

impl Kind {
    /// A checkpoint of this kind, as one journal entry holds it. The
    /// header holds `schema`, `kind`, `fields` in order, the
    /// configuration fingerprint as `fp` and the names of `sections`.
    pub fn entry(&self, fields: &[(&str, u64)], fp: u64, sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame(&mut out, fields, fp, sections);
        out
    }

    /// Appends the bytes [`Kind::entry`] returns to `out`.
    fn frame(
        &self,
        out: &mut Vec<u8>,
        fields: &[(&str, u64)],
        fp: u64,
        sections: &[(&str, Vec<u8>)],
    ) {
        // Kinds, keys and section names are identifiers, never escaped.
        let mut header = format!("{{\"schema\":\"{SCHEMA}\",\"kind\":\"{}\"", self.name);
        for (key, v) in fields.iter().chain(&[("fp", fp)]) {
            let _ = write!(header, ",\"{key}\":\"{v:#018x}\"");
        }
        let names: Vec<String> = sections.iter().map(|(n, _)| format!("\"{n}\"")).collect();
        let _ = write!(header, ",\"sections\":[{}]}}", names.join(","));
        push_sectioned(out, &header, sections);
    }

    /// Parses a checkpoint of this kind; `what` names the bytes in
    /// errors. `fp`, when given, must equal the stored fingerprint; every
    /// `identity` field must equal the header's.
    pub fn parse(
        &self,
        raw: &[u8],
        what: String,
        fp: Option<u64>,
        identity: &[(&str, u64)],
    ) -> Result<Opened, StateError> {
        let ck = Opened::parse(raw, what, fp)?;
        if ck.kind != self.name {
            return Err(ck.corrupt(&format!(
                "expected kind `{}`, found `{}`",
                self.name, ck.kind
            )));
        }
        for &(key, want) in identity {
            let got = ck.field(key)?;
            if got != want {
                return Err(ck.corrupt(&format!("`{key}` is {got}, expected {want}")));
            }
        }
        Ok(ck)
    }

    /// Starts a journal at `path` over any earlier one (creating its
    /// directory if missing), with entry 0 of this kind binding it to
    /// `fp`. Entry 0 is synced, then the directory, so the new file's
    /// name is durable too.
    pub fn create_journal(
        &self,
        path: &Path,
        fields: &[(&str, u64)],
        fp: u64,
    ) -> Result<Wal, StateError> {
        let dir = (path.parent().filter(|d| !d.as_os_str().is_empty())).unwrap_or(Path::new("."));
        fs::create_dir_all(dir)
            .map_err(|e| StateError::io(format!("create dir {}", dir.display()), e))?;
        let mut wal = Wal::create(path)?;
        wal.append(&self.entry(fields, fp, &[]))?;
        wal.sync()?;
        fp::sync_file(dir).map_err(|e| StateError::io(format!("sync dir {}", dir.display()), e))?;
        Ok(wal)
    }
}

/// The intact entries of the journal at `path`, for a resume: none when
/// it is missing. A file that opens with [`MAGIC`] is a sectioned
/// checkpoint that an older build wrote in the journal's place, refused
/// as [`StateError::Version`].
pub fn recover_journal(path: &Path) -> Result<Vec<Vec<u8>>, StateError> {
    let entries = Wal::recover(path)?.entries;
    if entries.is_empty() && fs::read(path).is_ok_and(|raw| raw.starts_with(MAGIC)) {
        return Err(StateError::Version(format!(
            "{}: a sectioned checkpoint is an older layout, this build journals it; \
             re-run without --resume",
            path.display()
        )));
    }
    Ok(entries)
}

/// A checkpoint whose envelope checked out, holding its listed sections.
#[derive(Debug)]
pub struct Opened {
    what: String,
    header: Value,
    kind: String,
    fp: u64,
    sections: BTreeMap<String, Vec<u8>>,
}

impl Opened {
    /// Opens checkpoint bytes of any kind; `what` names them in errors.
    /// `fp`, when given, must equal the stored fingerprint.
    pub fn parse(raw: &[u8], what: String, fp: Option<u64>) -> Result<Opened, StateError> {
        let (header, mut present) = parse_sectioned(raw, &what)?;
        let kind = header.req_str("kind", &what)?;
        let stored = hex_field(&header, "fp", &what)?;
        if let Some(expected) = fp.filter(|&e| e != stored) {
            return Err(StateError::Mismatch(format!(
                "{what} was written under configuration {stored:#018x}, \
                 this run fingerprints as {expected:#018x}"
            )));
        }
        let listed = header
            .get("sections")
            .and_then(Value::as_arr)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `sections` list")))?;
        let mut sections = BTreeMap::new();
        for name in listed {
            let name = name.as_str().ok_or_else(|| {
                StateError::Corrupt(format!("{what}: `sections` holds a non-string"))
            })?;
            let body = present.remove(name).ok_or_else(|| {
                StateError::Corrupt(format!("{what}: lists section `{name}` but lacks it"))
            })?;
            sections.insert(name.to_owned(), body);
        }
        Ok(Opened {
            what,
            header,
            kind,
            fp: stored,
            sections,
        })
    }

    /// The header's `kind`.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The stored configuration fingerprint.
    pub(crate) fn fp(&self) -> u64 {
        self.fp
    }

    /// A required integer header field.
    pub fn field(&self, key: &str) -> Result<u64, StateError> {
        hex_field(&self.header, key, &self.what)
    }

    /// Whether the header lists section `name` and it is not yet taken.
    pub fn lists(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    /// Removes section `name` and decodes its bytes with `f`. A missing
    /// section, and any [`StateError::Corrupt`] from `f`, names the file
    /// and the section.
    pub fn take<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&[u8]) -> Result<T, StateError>,
    ) -> Result<T, StateError> {
        let raw = self
            .sections
            .remove(name)
            .ok_or_else(|| self.corrupt(&format!("missing `{name}` section")))?;
        f(&raw).map_err(|e| match e {
            StateError::Corrupt(msg) => self.corrupt(&format!("section `{name}`: {msg}")),
            other => other,
        })
    }

    /// [`Opened::take`] through a [`Decoder`] that `f` must leave at the
    /// section's end.
    pub fn decode<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Decoder) -> Result<T, StateError>,
    ) -> Result<T, StateError> {
        self.take(name, |raw| {
            let mut d = Decoder::new(raw, "payload");
            let v = f(&mut d)?;
            d.expect_end()?;
            Ok(v)
        })
    }

    /// A [`StateError::Corrupt`] naming this file.
    pub fn corrupt(&self, msg: &str) -> StateError {
        StateError::Corrupt(format!("{}: {msg}", self.what))
    }
}

/// Target-stream cursor, one variant per permutation backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorState {
    /// Multiplicative-group walk: the current group element and how many
    /// walk positions remain (both mod a prime that can exceed `u64`).
    Cyclic {
        /// Current element of the multiplicative group.
        current: u128,
        /// Walk positions left to visit, including skipped out-of-range ones.
        remaining_walk: u128,
    },
    /// Feistel permutation: the permutation is stateless, only the next
    /// domain position matters.
    Feistel {
        /// Next position in the permuted domain.
        next_pos: u64,
    },
    /// Sequential (identity) order.
    Sequential {
        /// Next position in the domain.
        next_pos: u64,
    },
}

/// One sent probe that a scheduled retry still names as its previous
/// attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutstandingEntry {
    /// Destination address the probe was sent to.
    pub dst: u128,
    /// The /64 target prefix being probed.
    pub target: Prefix,
    /// Zero-based transmission attempt.
    pub attempt: u32,
    /// Whether a response was already recorded for this probe.
    pub answered: bool,
    /// Virtual tick the probe was sent at.
    pub sent_tick: u64,
}

/// One scheduled retransmission with its backoff deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryEntryState {
    /// Run-local tick the retry becomes due.
    pub due_tick: u64,
    /// Tie-break sequence number (FIFO among same-tick retries).
    pub seq: u64,
    /// The /64 target prefix to re-probe.
    pub target: Prefix,
    /// Transmission attempt this retry will be.
    pub attempt: u32,
    /// Destination of the previous attempt (retired on retransmit).
    pub prev_dst: u128,
}

/// Mid-range scanner state, captured at a slot boundary with nothing in
/// flight downstream: what `Scanner::run` still needs that neither the
/// journal (the answered targets are the targets of the range's records)
/// nor the permutation (the probed targets are the first `probed_count`
/// of its walk) can give back. Its size follows the scheduled retries,
/// not the probes sent.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Run-local tick (slots completed since the range started).
    pub now: u64,
    /// Scanner lifetime tick at which this range started.
    pub run_start_tick: u64,
    /// WAL sequence number at which this range's records start.
    pub run_wal_start: u64,
    /// Target-stream cursor.
    pub cursor: CursorState,
    /// Fresh targets still to be drawn from the stream.
    pub remaining: u64,
    /// Permutation indices already drawn into the generator's chunk
    /// buffer but not yet consumed (the buffer runs ahead of the scan).
    pub pending_indices: Vec<u64>,
    /// The probes `retries` refer to, sorted by destination. Every other
    /// probe sent so far is dead at a quiescent cut: no reply to it can
    /// still arrive and no timer will look it up.
    pub outstanding: Vec<OutstandingEntry>,
    /// Scheduled retries, sorted by (due_tick, seq).
    pub retries: Vec<RetryEntryState>,
    /// Next retry tie-break sequence number.
    pub retry_seq: u64,
    /// Fresh targets drawn from the walk so far this range (blocked ones
    /// included).
    pub probed_count: u64,
    /// Metrics baseline captured when the range started (raw counters).
    pub baseline: [u64; 9],
}

/// A worker's durable checkpoint: placement header plus bulk state.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerCheckpoint {
    /// Worker index within the parallel executor.
    pub worker: u32,
    /// Range index this checkpoint refers to. With `run: Some(..)` the
    /// range is in progress; with `run: None` it has completed and the
    /// next range (if any) starts fresh.
    pub range_index: u32,
    /// Scanner lifetime tick (drives virtual-clock restoration).
    pub tick: u64,
    /// Number of WAL records durable at checkpoint time; resume truncates
    /// the journal to exactly this count.
    pub wal_seq: u64,
    /// Fingerprint of the session manifest this checkpoint belongs to.
    pub config_fp: u64,
    /// Full telemetry registry snapshot for this worker.
    pub metrics: Snapshot,
    /// Mid-range state, absent when the range completed.
    pub run: Option<RunState>,
}

impl WorkerCheckpoint {
    /// The journal entry that publishes this checkpoint as a cut: the
    /// [`CUT_ENTRY`] tag, then the checkpoint's sectioned bytes.
    pub fn cut_entry(&self) -> Vec<u8> {
        let mut sections = vec![("metrics", encode_snapshot(&self.metrics))];
        if let Some(run) = &self.run {
            sections.push((LIVE_SECTION, encode_run_state(run)));
        }
        let fields = [
            ("worker", self.worker as u64),
            ("range_index", self.range_index as u64),
            ("tick", self.tick),
            ("wal_seq", self.wal_seq),
        ];
        let mut out = vec![CUT_ENTRY];
        WORKER.frame(&mut out, &fields, self.config_fp, &sections);
        out
    }

    /// Writes `path` as a worker journal holding this one cut, atomically
    /// and durably (tmp file, fsync, rename).
    pub fn write_to(&self, path: &Path) -> Result<(), StateError> {
        let tmp = path.with_extension("tmp");
        let mut wal = Wal::create(&tmp)?;
        wal.append(&self.cut_entry())?;
        wal.sync()?;
        drop(wal);
        fp::rename(&tmp, path)
            .map_err(|e| StateError::io(format!("publish checkpoint {}", path.display()), e))
    }

    /// Reads and fully validates the last intact cut of the worker
    /// journal at `path`, whichever session or worker wrote it. The
    /// header's `sections` list decides whether the range is mid-flight
    /// (it lists `live`) or completed.
    pub fn read_from(path: &Path) -> Result<WorkerCheckpoint, StateError> {
        WorkerJournal::recover(path)?
            .ok_or_else(|| {
                StateError::Corrupt(format!(
                    "worker checkpoint {}: no intact cut in the journal",
                    path.display()
                ))
            })?
            .checkpoint(None, None)
    }

    fn decode(mut ck: Opened) -> Result<Self, StateError> {
        let run = if ck.lists(LIVE_SECTION) {
            Some(ck.take(LIVE_SECTION, decode_run_state)?)
        } else {
            None
        };
        Ok(WorkerCheckpoint {
            worker: ck.field("worker")? as u32,
            range_index: ck.field("range_index")? as u32,
            tick: ck.field("tick")?,
            wal_seq: ck.field("wal_seq")?,
            config_fp: ck.fp(),
            metrics: ck.take("metrics", decode_snapshot)?,
            run,
        })
    }
}

/// Tag byte opening a worker-journal entry that holds a journalled record.
pub const RECORD_ENTRY: u8 = 0;

/// Tag byte opening a worker-journal entry that holds a cut: the bytes of
/// one [`WorkerCheckpoint`], as [`WorkerCheckpoint::cut_entry`] frames it.
pub const CUT_ENTRY: u8 = 1;

/// A worker journal (`worker-N.ckpt`) read back to its last intact cut.
///
/// The journal is a [`Wal`] whose every payload opens with a tag byte:
/// [`RECORD_ENTRY`] or [`CUT_ENTRY`]. A cut's `wal_seq` counts the record
/// entries before it, so publishing a cut is one append plus one
/// [`Wal::sync`], and that fsync also makes every record before it
/// durable. Entries past the last intact cut are never resumed from.
#[derive(Debug)]
pub struct WorkerJournal {
    /// Intact entries up to and including the last cut, tags included.
    entries: Vec<Vec<u8>>,
    what: String,
}

impl WorkerJournal {
    /// Reads the journal at `path` back to its last intact cut: `None`
    /// when it holds none (a missing or empty file included).
    pub fn recover(path: &Path) -> Result<Option<WorkerJournal>, StateError> {
        let mut entries = Wal::recover(path)?.entries;
        let Some(last) = entries.iter().rposition(|e| e.first() == Some(&CUT_ENTRY)) else {
            return Ok(None);
        };
        entries.truncate(last + 1);
        Ok(Some(WorkerJournal {
            entries,
            what: format!("worker checkpoint {}", path.display()),
        }))
    }

    /// Every entry kept, tag bytes included; the last one is the cut.
    pub fn entries(&self) -> &[Vec<u8>] {
        &self.entries
    }

    /// The last cut's checkpoint bytes (its entry without the tag).
    pub fn cut(&self) -> &[u8] {
        &self
            .entries
            .last()
            .expect("a recovered journal ends with a cut")[1..]
    }

    /// Decodes the last cut. With `fp`, a cut of another session is
    /// [`StateError::Mismatch`]; with `worker`, a cut of another worker
    /// is [`StateError::Corrupt`].
    pub fn checkpoint(
        &self,
        fp: Option<u64>,
        worker: Option<u32>,
    ) -> Result<WorkerCheckpoint, StateError> {
        let identity: Vec<(&str, u64)> = worker.map(|w| ("worker", w as u64)).into_iter().collect();
        WorkerCheckpoint::decode(WORKER.parse(self.cut(), self.what.clone(), fp, &identity)?)
    }

    /// The payloads of the record entries before the last cut, in
    /// journal order, tags stripped. An entry with an unknown tag is
    /// [`StateError::Corrupt`].
    pub fn records(&self) -> Result<Vec<&[u8]>, StateError> {
        let mut records = Vec::new();
        for entry in &self.entries[..self.entries.len() - 1] {
            match entry.split_first() {
                Some((&RECORD_ENTRY, payload)) => records.push(payload),
                Some((&CUT_ENTRY, _)) => {}
                _ => {
                    return Err(StateError::Corrupt(format!(
                        "{}: journal entry with unknown tag",
                        self.what
                    )))
                }
            }
        }
        Ok(records)
    }

    /// What compaction rewrites the journal to: every record entry, then
    /// the last cut. Superseded cuts are dropped.
    pub fn compacted(mut self) -> Vec<Vec<u8>> {
        let cut = self
            .entries
            .pop()
            .expect("a recovered journal ends with a cut");
        self.entries.retain(|e| e.first() == Some(&RECORD_ENTRY));
        self.entries.push(cut);
        self.entries
    }

    /// Reopens the journal at `path` to append just past the last cut,
    /// dropping the torn tail and any entries after the cut.
    pub fn reopen(&self, path: &Path) -> Result<Wal, StateError> {
        Wal::reopen(path, &self.entries)
    }
}

/// Parses a `0x`-prefixed 64-bit integer, as headers and manifests write
/// fingerprints.
pub(crate) fn parse_hex(s: &str, what: &str) -> Result<u64, StateError> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| StateError::Corrupt(format!("{what}: invalid hex integer `{s}`")))
}

/// A required header integer, written by [`Kind::entry`] as a hex string.
fn hex_field(header: &Value, key: &str, what: &str) -> Result<u64, StateError> {
    parse_hex(&header.req_str(key, what)?, what)
}

/// Refuses a header or manifest that names any schema but [`SCHEMA`]:
/// nothing written under another schema can be continued.
pub(crate) fn check_schema(doc: &Value, what: &str) -> Result<(), StateError> {
    let schema = doc.req_str("schema", what)?;
    if schema == SCHEMA {
        return Ok(());
    }
    Err(StateError::Version(format!(
        "{what}: found `{schema}`, this build supports `{SCHEMA}`; \
         re-run without --resume"
    )))
}

/// Frames `header` and `sections` as checkpoint bytes. Checkpoints are
/// framed through [`Kind::entry`]; this takes the header verbatim, so
/// tests can build bytes no writer would.
pub fn frame_sectioned(header: &str, sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_sectioned(&mut out, header, sections);
    out
}

/// Appends the framing of `header` and `sections` to `out`.
fn push_sectioned(out: &mut Vec<u8>, header: &str, sections: &[(&str, Vec<u8>)]) {
    out.reserve(
        MAGIC.len() + header.len() + 16 + sections.iter().map(|(_, s)| s.len() + 32).sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    for (name, payload) in sections {
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
}

/// Publishes `bytes` at `path` atomically and durably: tmp file, fsync,
/// rename, every step through the failpoint layer. The new name is
/// durable once the caller fsyncs the directory.
pub fn publish(path: &Path, bytes: &[u8]) -> Result<(), StateError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fp::FpFile::create(&tmp)
            .map_err(|e| StateError::io(format!("create {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| StateError::io(format!("write {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| StateError::io(format!("sync {}", tmp.display()), e))?;
    }
    fp::rename(&tmp, path).map_err(|e| StateError::io(format!("publish {}", path.display()), e))
}

/// Parses framed bytes, validating magic, schema, and per-section CRCs.
/// Every length read from the bytes goes through [`Decoder`]'s bounds
/// checks, so no length can index past the buffer or overflow.
fn parse_sectioned(
    raw: &[u8],
    what: &str,
) -> Result<(Value, BTreeMap<String, Vec<u8>>), StateError> {
    let body = raw.strip_prefix(MAGIC).ok_or_else(|| {
        StateError::Corrupt(format!("{what}: bad magic (not an xmap checkpoint)"))
    })?;
    let mut d = Decoder::new(body, what);
    let hlen = d.u32()? as usize;
    let header_text = std::str::from_utf8(d.take(hlen)?)
        .map_err(|_| StateError::Corrupt(format!("{what}: header is not UTF-8")))?;
    d.u8()?; // the newline after the header
    let header = json::parse(header_text, what)?;
    check_schema(&header, what)?;
    let mut sections = BTreeMap::new();
    while !d.is_empty() {
        let nlen = d.u8()? as usize;
        let name = std::str::from_utf8(d.take(nlen)?)
            .map_err(|_| StateError::Corrupt(format!("{what}: section name not UTF-8")))?
            .to_owned();
        let plen = usize::try_from(d.u64()?).unwrap_or(usize::MAX);
        let payload = d
            .take(plen)
            .map_err(|_| StateError::Corrupt(format!("{what}: truncated section `{name}`")))?;
        let stored = d.u32()?;
        if crc32(payload) != stored {
            return Err(StateError::Corrupt(format!(
                "{what}: CRC mismatch in section `{name}`"
            )));
        }
        sections.insert(name, payload.to_vec());
    }
    Ok((header, sections))
}

/// Binary-encodes a telemetry snapshot (exact, unlike the JSON export
/// which is for human/CI consumption).
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut e = Encoder::new();
    e.seq(snap.counters.len());
    for (name, v) in &snap.counters {
        e.str(name);
        e.u64(*v);
    }
    e.seq(snap.gauges.len());
    for (name, v) in &snap.gauges {
        e.str(name);
        e.u64(*v);
    }
    e.seq(snap.histograms.len());
    for (name, h) in &snap.histograms {
        e.str(name);
        e.seq(h.bounds.len());
        for b in &h.bounds {
            e.u64(*b);
        }
        e.seq(h.counts.len());
        for c in &h.counts {
            e.u64(*c);
        }
        e.u64(h.count);
        e.u64(h.sum);
    }
    e.finish()
}

/// Decodes a snapshot written by [`encode_snapshot`].
pub fn decode_snapshot(raw: &[u8]) -> Result<Snapshot, StateError> {
    let mut d = Decoder::new(raw, "metrics section");
    let mut snap = Snapshot::default();
    for _ in 0..d.seq()? {
        let name = d.str()?;
        snap.counters.insert(name, d.u64()?);
    }
    for _ in 0..d.seq()? {
        let name = d.str()?;
        snap.gauges.insert(name, d.u64()?);
    }
    for _ in 0..d.seq()? {
        let name = d.str()?;
        let mut bounds = Vec::new();
        for _ in 0..d.seq()? {
            bounds.push(d.u64()?);
        }
        let mut counts = Vec::new();
        for _ in 0..d.seq()? {
            counts.push(d.u64()?);
        }
        let h = HistogramSnapshot {
            bounds,
            counts,
            count: d.u64()?,
            sum: d.u64()?,
        };
        snap.histograms.insert(name, h);
    }
    d.expect_end()?;
    Ok(snap)
}

/// Binary-encodes mid-range scanner state.
pub fn encode_run_state(run: &RunState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(run.now);
    e.u64(run.run_start_tick);
    e.u64(run.run_wal_start);
    match &run.cursor {
        CursorState::Cyclic {
            current,
            remaining_walk,
        } => {
            e.u8(0);
            e.u128(*current);
            e.u128(*remaining_walk);
        }
        CursorState::Feistel { next_pos } => {
            e.u8(1);
            e.u64(*next_pos);
        }
        CursorState::Sequential { next_pos } => {
            e.u8(2);
            e.u64(*next_pos);
        }
    }
    e.u64(run.remaining);
    e.seq(run.pending_indices.len());
    for i in &run.pending_indices {
        e.u64(*i);
    }
    e.seq(run.outstanding.len());
    for o in &run.outstanding {
        e.u128(o.dst);
        e.prefix(&o.target);
        e.u32(o.attempt);
        e.bool(o.answered);
        e.u64(o.sent_tick);
    }
    e.seq(run.retries.len());
    for r in &run.retries {
        e.u64(r.due_tick);
        e.u64(r.seq);
        e.prefix(&r.target);
        e.u32(r.attempt);
        e.u128(r.prev_dst);
    }
    e.u64(run.retry_seq);
    e.u64(run.probed_count);
    for v in run.baseline {
        e.u64(v);
    }
    e.finish()
}

/// Decodes mid-range scanner state written by [`encode_run_state`].
pub fn decode_run_state(raw: &[u8]) -> Result<RunState, StateError> {
    let mut d = Decoder::new(raw, "live section");
    let now = d.u64()?;
    let run_start_tick = d.u64()?;
    let run_wal_start = d.u64()?;
    let cursor = match d.u8()? {
        0 => CursorState::Cyclic {
            current: d.u128()?,
            remaining_walk: d.u128()?,
        },
        1 => CursorState::Feistel { next_pos: d.u64()? },
        2 => CursorState::Sequential { next_pos: d.u64()? },
        t => {
            return Err(StateError::Corrupt(format!(
                "live section: unknown cursor tag {t}"
            )))
        }
    };
    let remaining = d.u64()?;
    let mut pending_indices = Vec::new();
    for _ in 0..d.seq()? {
        pending_indices.push(d.u64()?);
    }
    let mut outstanding = Vec::new();
    for _ in 0..d.seq()? {
        outstanding.push(OutstandingEntry {
            dst: d.u128()?,
            target: d.prefix()?,
            attempt: d.u32()?,
            answered: d.bool()?,
            sent_tick: d.u64()?,
        });
    }
    let mut retries = Vec::new();
    for _ in 0..d.seq()? {
        retries.push(RetryEntryState {
            due_tick: d.u64()?,
            seq: d.u64()?,
            target: d.prefix()?,
            attempt: d.u32()?,
            prev_dst: d.u128()?,
        });
    }
    let retry_seq = d.u64()?;
    let probed_count = d.u64()?;
    let mut baseline = [0u64; 9];
    for b in &mut baseline {
        *b = d.u64()?;
    }
    d.expect_end()?;
    Ok(RunState {
        now,
        run_start_tick,
        run_wal_start,
        cursor,
        remaining,
        pending_indices,
        outstanding,
        retries,
        retry_seq,
        probed_count,
        baseline,
    })
}
