//! The failpoint filesystem wrapper and its fault-plan registry.
//!
//! Production code calls the free functions and [`FpFile`] methods here
//! instead of `std::fs` directly. When no plan is armed (the default),
//! every call is a single relaxed atomic load plus the real syscall.
//! Tests arm a [`FailPlan`] over a path prefix via [`FailPlan::arm`];
//! while the returned [`FailScope`] guard lives, operations on paths
//! under that prefix consult the plan's rules and may fail, persist
//! partial bytes, or latch the scope into a "process died" state. A scope
//! also remembers how long each file it wrote was at its last successful
//! `fsync`, and every directory entry it created, renamed or removed since
//! the last `fsync` of the entry's parent directory ([`sync_file`]), so
//! [`FailScope::lose_unsynced`] can leave exactly what a power cut would.
//! Directories made with `std::fs::create_dir*` stay outside the model:
//! they count as durable the moment they exist.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many scopes are currently armed. Zero means the fast path: no
/// lock, no rule evaluation, straight to `std::fs`.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Monotonic scope-id source.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The armed scopes. Only consulted when [`ARMED`] is nonzero.
static SCOPES: Mutex<Vec<ScopeEntry>> = Mutex::new(Vec::new());

/// The filesystem operation kinds a rule can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Creating (or truncating) a file for writing.
    Create,
    /// Re-opening an existing file for writing (journal truncation).
    Open,
    /// Writing bytes to an open file.
    Write,
    /// Truncating an open file to a length.
    SetLen,
    /// `fsync` on a file.
    Sync,
    /// Renaming a file (the atomic-publish step).
    Rename,
    /// Removing a file.
    Remove,
    /// Any operation.
    Any,
}

impl FsOp {
    fn matches(self, actual: FsOp) -> bool {
        self == FsOp::Any || self == actual
    }
}

/// Which `io::Error` an injected failure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O error (`EIO`).
    Eio,
    /// Disk full (`ENOSPC`).
    Enospc,
}

impl FaultKind {
    fn to_error(self, what: &str) -> io::Error {
        match self {
            FaultKind::Eio => io::Error::other(format!("failpoint EIO: {what}")),
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("failpoint ENOSPC: {what}"),
            ),
        }
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsAction {
    /// The operation fails cleanly; nothing is persisted.
    Fail(FaultKind),
    /// For [`FsOp::Write`]: the first `keep` bytes of the buffer are
    /// persisted, then the call errors — a short/torn write. For
    /// non-write operations this behaves like [`FsAction::Fail`].
    ShortWrite {
        /// Bytes of the matched write to persist before failing.
        keep: u64,
        /// Error the failed remainder reports.
        kind: FaultKind,
    },
    /// Emulated process death: for a write, the first `keep` bytes are
    /// persisted; then the scope latches and **every** subsequent
    /// operation under it fails. The on-disk state is exactly what a
    /// real kill at this point would leave, and the test can resume
    /// from it after dropping the scope.
    Kill {
        /// Bytes of the matched write to persist before dying.
        keep: u64,
    },
}

/// One scripted fault: fire `action` on the `nth` (0-based) operation
/// that matches `op` and, optionally, a path suffix. Each rule fires at
/// most once ([`FsAction::Kill`] latches the whole scope instead).
#[derive(Debug, Clone)]
pub struct FsRule {
    /// Operation kind to match ([`FsOp::Any`] matches everything).
    pub op: FsOp,
    /// Only operations whose path ends with this suffix are counted
    /// (`None` counts every operation under the scope prefix).
    pub suffix: Option<String>,
    /// 0-based index among the matching operations at which to fire.
    pub nth: u64,
    /// The injected failure.
    pub action: FsAction,
}

/// A recurring fault schedule over the matching-operation index stream.
///
/// Where an [`FsRule`] fires at most once (a scripted incident), a
/// schedule models an *unreliable device*: within its `[start, end)`
/// window it fires on every matching-op index `i` with
/// `(i - start) % period < burst`. That expresses periodic error bursts
/// (a controller that chokes for `burst` operations every `period`) and,
/// with `burst >= period`, a solid outage window (a disk that is simply
/// full from op `start` until op `end`).
///
/// Schedules only fail operations cleanly ([`FsAction::Fail`]
/// semantics); torn writes and kills stay the domain of one-shot rules.
#[derive(Debug, Clone)]
pub struct FsSchedule {
    /// Operation kind to match ([`FsOp::Any`] matches everything).
    pub op: FsOp,
    /// Only operations whose path ends with this suffix are counted
    /// (`None` counts every matching operation under the scope prefix).
    pub suffix: Option<String>,
    /// First matching-op index (0-based) inside the window.
    pub start: u64,
    /// Matching-op index at which the window closes (exclusive);
    /// `None` keeps the schedule active forever.
    pub end: Option<u64>,
    /// Cycle length in matching operations.
    pub period: u64,
    /// Failing operations at the head of each cycle.
    pub burst: u64,
    /// Error the fired operations report.
    pub kind: FaultKind,
}

impl FsSchedule {
    /// Periodic `EIO` bursts: inside `[start, end)`, the first `burst`
    /// of every `period` matching operations fail.
    pub fn eio_bursts(op: FsOp, start: u64, end: Option<u64>, period: u64, burst: u64) -> Self {
        FsSchedule {
            op,
            suffix: None,
            start,
            end,
            period,
            burst,
            kind: FaultKind::Eio,
        }
    }

    /// A disk-full outage: every matching operation in `[start, end)`
    /// fails with `ENOSPC`.
    pub fn disk_full_window(op: FsOp, start: u64, end: u64) -> Self {
        FsSchedule {
            op,
            suffix: None,
            start,
            end: Some(end),
            period: 1,
            burst: 1,
            kind: FaultKind::Enospc,
        }
    }

    /// Whether the schedule fires at matching-op `index`.
    fn fires_at(&self, index: u64) -> bool {
        if index < self.start {
            return false;
        }
        if let Some(end) = self.end {
            if index >= end {
                return false;
            }
        }
        (index - self.start) % self.period.max(1) < self.burst
    }
}

/// A scripted set of filesystem fault rules over one path prefix.
#[derive(Debug, Clone)]
pub struct FailPlan {
    /// Only paths under this prefix consult the rules.
    pub prefix: PathBuf,
    /// The one-shot rules, each with an independent match counter.
    pub rules: Vec<FsRule>,
    /// Recurring schedules, each with an independent match counter.
    pub schedules: Vec<FsSchedule>,
}

impl FailPlan {
    /// A plan over `prefix` with no rules — useful purely to *count*
    /// operations via [`FailScope::ops`] when sizing a torture sweep.
    pub fn observe(prefix: impl Into<PathBuf>) -> Self {
        FailPlan {
            prefix: prefix.into(),
            rules: Vec::new(),
            schedules: Vec::new(),
        }
    }

    /// A plan with a single [`FsAction::Kill`] rule firing on the
    /// `nth` operation under the prefix, persisting `keep` bytes if
    /// that operation is a write.
    pub fn kill_at(prefix: impl Into<PathBuf>, nth: u64, keep: u64) -> Self {
        FailPlan {
            prefix: prefix.into(),
            rules: vec![FsRule {
                op: FsOp::Any,
                suffix: None,
                nth,
                action: FsAction::Kill { keep },
            }],
            schedules: Vec::new(),
        }
    }

    /// Adds a recurring [`FsSchedule`] to the plan.
    pub fn with_schedule(mut self, schedule: FsSchedule) -> Self {
        self.schedules.push(schedule);
        self
    }

    /// Arms the plan. Faults inject while the returned guard lives;
    /// dropping it disarms and restores the untouched fast path.
    pub fn arm(self) -> FailScope {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let entry = ScopeEntry {
            id,
            prefix: self.prefix,
            rules: self
                .rules
                .into_iter()
                .map(|r| RuleState { rule: r, seen: 0 })
                .collect(),
            schedules: self
                .schedules
                .into_iter()
                .map(|s| ScheduleState { sched: s, seen: 0 })
                .collect(),
            killed: false,
            ops: 0,
            fired: 0,
            files: BTreeMap::new(),
            entries: Vec::new(),
        };
        SCOPES
            .lock()
            .expect("failpoint registry poisoned")
            .push(entry);
        ARMED.fetch_add(1, Ordering::Release);
        FailScope { id }
    }
}

/// RAII guard for an armed [`FailPlan`]. Dropping it disarms the plan.
#[derive(Debug)]
pub struct FailScope {
    id: u64,
}

impl FailScope {
    /// Operations observed under the scope's prefix so far.
    pub fn ops(&self) -> u64 {
        self.with_entry(|e| e.ops)
    }

    /// Whether a [`FsAction::Kill`] rule has latched the scope.
    pub fn killed(&self) -> bool {
        self.with_entry(|e| e.killed)
    }

    /// How many rules have fired so far.
    pub fn fired(&self) -> u64 {
        self.with_entry(|e| e.fired)
    }

    /// Emulated power loss. First every directory entry whose parent was
    /// not synced since is undone, newest first: a lost create removes
    /// the file, a lost rename moves the file back to its old name and
    /// brings back the file it replaced (or no file), and a lost remove
    /// brings the file back. Then every file the scope wrote goes back to
    /// its length at its last successful `sync_all` (a length tracked
    /// through renames), and a file that was never synced is removed.
    /// Bytes past that length were only in the page cache. Works on a
    /// killed scope too, and touches the disk directly, not through the
    /// registry.
    pub fn lose_unsynced(&self) {
        let (mut files, entries) =
            self.with_entry_mut(|e| (std::mem::take(&mut e.files), std::mem::take(&mut e.entries)));
        for entry in entries.into_iter().rev() {
            entry.undo(&mut files);
        }
        for (path, synced) in files {
            match synced {
                None => {
                    let _ = std::fs::remove_file(&path);
                }
                Some(len) => {
                    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
                        if f.metadata().is_ok_and(|m| m.len() > len) {
                            let _ = f.set_len(len);
                        }
                    }
                }
            }
        }
    }

    fn with_entry<T>(&self, f: impl FnOnce(&ScopeEntry) -> T) -> T {
        self.with_entry_mut(|e| f(e))
    }

    fn with_entry_mut<T>(&self, f: impl FnOnce(&mut ScopeEntry) -> T) -> T {
        let mut scopes = SCOPES.lock().expect("failpoint registry poisoned");
        let entry = scopes
            .iter_mut()
            .find(|e| e.id == self.id)
            .expect("scope alive while guard held");
        f(entry)
    }
}

impl Drop for FailScope {
    fn drop(&mut self) {
        let mut scopes = SCOPES.lock().expect("failpoint registry poisoned");
        scopes.retain(|e| e.id != self.id);
        ARMED.fetch_sub(1, Ordering::Release);
    }
}

struct ScopeEntry {
    id: u64,
    prefix: PathBuf,
    rules: Vec<RuleState>,
    schedules: Vec<ScheduleState>,
    killed: bool,
    ops: u64,
    fired: u64,
    /// Every file the scope opened for writing, with its length at its
    /// last successful sync (`None`: never synced).
    files: Files,
    /// Directory entries not yet made durable by a sync of their parent,
    /// oldest first.
    entries: Vec<PendingEntry>,
}

/// Synced length per written file, as [`FailScope::lose_unsynced`] reads it.
type Files = BTreeMap<PathBuf, Option<u64>>;

/// A directory-entry change that a sync of its parent has not made
/// durable yet, with what undoes it.
enum PendingEntry {
    /// A new file was created at the path.
    Create(PathBuf),
    /// `from` was renamed to `to`, replacing the file `displaced` held.
    Rename {
        from: PathBuf,
        to: PathBuf,
        displaced: Option<Saved>,
    },
    /// The file at the path was removed.
    Remove(PathBuf, Saved),
}

/// A file's bytes and its entry in [`Files`] (`None`: the scope never
/// wrote it), kept so a lost rename or remove can bring it back.
struct Saved {
    bytes: Vec<u8>,
    synced: Option<Option<u64>>,
}

impl Saved {
    fn restore(self, path: &Path, files: &mut Files) {
        let _ = std::fs::write(path, &self.bytes);
        match self.synced {
            Some(synced) => files.insert(path.to_path_buf(), synced),
            None => files.remove(path),
        };
    }
}

impl PendingEntry {
    /// The directory whose sync makes the entry durable.
    fn dir(&self) -> &Path {
        let path = match self {
            PendingEntry::Create(path) | PendingEntry::Remove(path, _) => path,
            PendingEntry::Rename { to, .. } => to,
        };
        parent(path)
    }

    fn undo(self, files: &mut Files) {
        match self {
            PendingEntry::Create(path) => {
                let _ = std::fs::remove_file(&path);
                files.remove(&path);
            }
            PendingEntry::Rename {
                from,
                to,
                displaced,
            } => {
                let _ = std::fs::rename(&to, &from);
                if let Some(synced) = files.remove(&to) {
                    files.insert(from, synced);
                }
                if let Some(saved) = displaced {
                    saved.restore(&to, files);
                }
            }
            PendingEntry::Remove(path, saved) => saved.restore(&path, files),
        }
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

struct RuleState {
    rule: FsRule,
    seen: u64,
}

struct ScheduleState {
    sched: FsSchedule,
    seen: u64,
}

/// What the registry decided for one operation.
enum Decision {
    /// No scope matched; forward to `std::fs` untouched.
    Pass,
    /// Fail with this error; nothing persisted.
    Fail(io::Error),
    /// Persist the first `keep` bytes of the write, then fail.
    Partial { keep: usize, error: io::Error },
}

/// Consults every armed scope for `op` on `path`. Called only when at
/// least one scope is armed.
fn consult(op: FsOp, path: &Path, write_len: usize) -> Decision {
    let mut scopes = SCOPES.lock().expect("failpoint registry poisoned");
    for entry in scopes.iter_mut() {
        if !path.starts_with(&entry.prefix) {
            continue;
        }
        entry.ops += 1;
        if entry.killed {
            return Decision::Fail(io::Error::other(format!(
                "failpoint: process killed ({})",
                path.display()
            )));
        }
        // Schedule counters advance on every matching op regardless of
        // what the one-shot rules decide, so a schedule's index stream
        // stays a pure function of the workload, not of which rules
        // happened to fire first.
        let mut scheduled: Option<FaultKind> = None;
        for ss in entry.schedules.iter_mut() {
            if !ss.sched.op.matches(op) {
                continue;
            }
            if let Some(suffix) = &ss.sched.suffix {
                let name = path.to_string_lossy();
                if !name.ends_with(suffix.as_str()) {
                    continue;
                }
            }
            let index = ss.seen;
            ss.seen += 1;
            if scheduled.is_none() && ss.sched.fires_at(index) {
                scheduled = Some(ss.sched.kind);
            }
        }
        for rs in entry.rules.iter_mut() {
            if !rs.rule.op.matches(op) {
                continue;
            }
            if let Some(suffix) = &rs.rule.suffix {
                let name = path.to_string_lossy();
                if !name.ends_with(suffix.as_str()) {
                    continue;
                }
            }
            let index = rs.seen;
            rs.seen += 1;
            if index != rs.rule.nth {
                continue;
            }
            entry.fired += 1;
            let what = format!("{op:?} {}", path.display());
            return match rs.rule.action {
                FsAction::Fail(kind) => Decision::Fail(kind.to_error(&what)),
                FsAction::ShortWrite { keep, kind } => Decision::Partial {
                    keep: (keep as usize).min(write_len),
                    error: kind.to_error(&what),
                },
                FsAction::Kill { keep } => {
                    entry.killed = true;
                    Decision::Partial {
                        keep: (keep as usize).min(write_len),
                        error: io::Error::other(format!("failpoint: killed during {what}")),
                    }
                }
            };
        }
        if let Some(kind) = scheduled {
            entry.fired += 1;
            return Decision::Fail(kind.to_error(&format!("{op:?} {}", path.display())));
        }
        // Matched the scope but neither a rule nor a schedule fired:
        // pass through. A path belongs to at most one test's prefix, so
        // stop scanning.
        return Decision::Pass;
    }
    Decision::Pass
}

/// Applies `f` to the scope `path` falls under, after an operation
/// succeeded. A no-op with nothing armed.
fn track(path: &Path, f: impl FnOnce(&mut ScopeEntry)) {
    if ARMED.load(Ordering::Acquire) == 0 {
        return;
    }
    let mut scopes = SCOPES.lock().expect("failpoint registry poisoned");
    if let Some(entry) = scopes.iter_mut().find(|e| path.starts_with(&e.prefix)) {
        f(entry);
    }
}

/// Records that `path` was synced at `len` bytes, if the scope wrote it.
fn track_synced(path: &Path, len: u64) {
    track(path, |scope| {
        if let Some(synced) = scope.files.get_mut(path) {
            *synced = Some(len);
        }
    });
}

/// Whether `path` exists, so that creating it adds no directory entry.
/// Asked only while a scope is armed; the disarmed path pays no syscall.
fn exists_when_armed(path: &Path) -> bool {
    ARMED.load(Ordering::Acquire) == 0 || path.exists()
}

/// The bytes of the file at `path`, read only while a scope is armed: a
/// lost rename or remove brings them back.
fn read_when_armed(path: &Path) -> Option<Vec<u8>> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return None;
    }
    std::fs::read(path).ok()
}

/// Fast-path check + consult. Returns `None` when the op may proceed.
fn check(op: FsOp, path: &Path, write_len: usize) -> Option<Decision> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return None;
    }
    match consult(op, path, write_len) {
        Decision::Pass => None,
        d => Some(d),
    }
}

/// A writable file routed through the failpoint registry. Implements
/// [`io::Write`], so it drops into `BufWriter` where `File` used to be.
#[derive(Debug)]
pub struct FpFile {
    inner: File,
    path: PathBuf,
}

impl FpFile {
    /// Creates (or truncates) a file, like [`File::create`].
    pub fn create(path: &Path) -> io::Result<FpFile> {
        if let Some(d) = check(FsOp::Create, path, 0) {
            return Err(decision_error(d));
        }
        let existed = exists_when_armed(path);
        let inner = File::create(path)?;
        track(path, |scope| {
            scope.files.insert(path.to_path_buf(), None);
            if !existed {
                scope.entries.push(PendingEntry::Create(path.to_path_buf()));
            }
        });
        Ok(FpFile {
            inner,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing file for writing without truncation (creating
    /// it if absent), positioned at the start.
    pub fn open_rw(path: &Path) -> io::Result<FpFile> {
        if let Some(d) = check(FsOp::Open, path, 0) {
            return Err(decision_error(d));
        }
        let existed = exists_when_armed(path);
        let inner = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if ARMED.load(Ordering::Acquire) != 0 {
            // Bytes the file held before the scope wrote to it count as synced.
            let len = inner.metadata()?.len();
            track(path, |scope| {
                scope.files.entry(path.to_path_buf()).or_insert(Some(len));
                if !existed {
                    scope.entries.push(PendingEntry::Create(path.to_path_buf()));
                }
            });
        }
        Ok(FpFile {
            inner,
            path: path.to_path_buf(),
        })
    }

    /// Truncates (or extends) the file to `len` bytes.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        if let Some(d) = check(FsOp::SetLen, &self.path, 0) {
            return Err(decision_error(d));
        }
        self.inner.set_len(len)
    }

    /// Seeks the underlying file to its end.
    pub fn seek_end(&mut self) -> io::Result<()> {
        self.inner.seek(io::SeekFrom::End(0)).map(|_| ())
    }

    /// Syncs file contents and metadata to disk, like [`File::sync_all`].
    pub fn sync_all(&self) -> io::Result<()> {
        if let Some(d) = check(FsOp::Sync, &self.path, 0) {
            return Err(decision_error(d));
        }
        self.inner.sync_all()?;
        if ARMED.load(Ordering::Acquire) != 0 {
            track_synced(&self.path, self.inner.metadata()?.len());
        }
        Ok(())
    }

    /// The path the file was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn decision_error(d: Decision) -> io::Error {
    match d {
        Decision::Fail(e) => e,
        Decision::Partial { error, .. } => error,
        Decision::Pass => unreachable!("pass filtered by check()"),
    }
}

impl Write for FpFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match check(FsOp::Write, &self.path, buf.len()) {
            None => self.inner.write(buf),
            Some(Decision::Partial { keep, error }) => {
                // A short/torn write: the prefix lands on disk, then the
                // syscall "fails". write_all callers see the error; the
                // persisted prefix is exactly what a real short write or
                // kill would have left behind.
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                Err(error)
            }
            Some(d) => Err(decision_error(d)),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Renames `from` to `to` (the atomic-publish step), like [`std::fs::rename`].
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    if let Some(d) = check(FsOp::Rename, from, 0) {
        return Err(decision_error(d));
    }
    let displaced = read_when_armed(to);
    std::fs::rename(from, to)?;
    track(from, |scope| {
        let displaced = displaced.map(|bytes| Saved {
            bytes,
            synced: scope.files.get(to).copied(),
        });
        match scope.files.remove(from) {
            Some(synced) => scope.files.insert(to.to_path_buf(), synced),
            None => scope.files.remove(to),
        };
        scope.entries.push(PendingEntry::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            displaced,
        });
    });
    Ok(())
}

/// Writes a whole file, like [`std::fs::write`] (one `Create` + one
/// `Write` operation against the registry).
pub fn write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut f = FpFile::create(path)?;
    f.write_all(contents)
}

/// Removes a file, like [`std::fs::remove_file`].
pub fn remove_file(path: &Path) -> io::Result<()> {
    if let Some(d) = check(FsOp::Remove, path, 0) {
        return Err(decision_error(d));
    }
    let removed = read_when_armed(path);
    std::fs::remove_file(path)?;
    track(path, |scope| {
        let synced = scope.files.remove(path);
        if let Some(bytes) = removed {
            let saved = Saved { bytes, synced };
            scope
                .entries
                .push(PendingEntry::Remove(path.to_path_buf(), saved));
        }
    });
    Ok(())
}

/// Opens `path` and syncs it to disk: a file written in one call by
/// [`write()`], or a directory whose entries (creates, renames, removes)
/// must become durable. A directory's sync settles its pending entries
/// in every armed scope, whichever prefix the directory falls under.
pub fn sync_file(path: &Path) -> io::Result<()> {
    if let Some(d) = check(FsOp::Sync, path, 0) {
        return Err(decision_error(d));
    }
    let f = File::open(path)?;
    f.sync_all()?;
    if ARMED.load(Ordering::Acquire) != 0 {
        track_synced(path, f.metadata()?.len());
        let mut scopes = SCOPES.lock().expect("failpoint registry poisoned");
        for scope in scopes.iter_mut() {
            scope.entries.retain(|e| e.dir() != path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xmap-fp-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disabled_path_passes_through() {
        let dir = temp_dir("off");
        let path = dir.join("plain.bin");
        let mut f = FpFile::create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        let renamed = dir.join("renamed.bin");
        rename(&path, &renamed).unwrap();
        remove_file(&renamed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_rule_fires_on_nth_matching_op() {
        let dir = temp_dir("nth");
        let scope = FailPlan {
            prefix: dir.clone(),
            rules: vec![FsRule {
                op: FsOp::Sync,
                suffix: None,
                nth: 1,
                action: FsAction::Fail(FaultKind::Enospc),
            }],
            schedules: Vec::new(),
        }
        .arm();
        let mut f = FpFile::create(&dir.join("a")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap(); // sync #0: passes
        let err = f.sync_all().unwrap_err(); // sync #1: fires
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.sync_all().unwrap(); // rule consumed
        assert_eq!(scope.fired(), 1);
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_persists_prefix_then_errors() {
        let dir = temp_dir("short");
        let path = dir.join("torn.bin");
        let scope = FailPlan {
            prefix: dir.clone(),
            rules: vec![FsRule {
                op: FsOp::Write,
                suffix: None,
                nth: 0,
                action: FsAction::ShortWrite {
                    keep: 3,
                    kind: FaultKind::Eio,
                },
            }],
            schedules: Vec::new(),
        }
        .arm();
        let mut f = FpFile::create(&path).unwrap();
        assert!(f.write_all(b"abcdef").is_err());
        drop(scope);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_latches_everything_under_scope() {
        let dir = temp_dir("kill");
        let path = dir.join("k.bin");
        let scope = FailPlan::kill_at(&dir, 2, 1).arm();
        let mut f = FpFile::create(&path).unwrap(); // op 0
        f.write_all(b"aa").unwrap(); // op 1
        assert!(f.write_all(b"bcd").is_err()); // op 2: kill, keeps 1 byte
        assert!(scope.killed());
        // Everything after the kill fails, even fresh creates.
        assert!(FpFile::create(&dir.join("other")).is_err());
        assert!(rename(&path, &dir.join("moved")).is_err());
        drop(scope);
        drop(f);
        // Surviving bytes: the two-byte write plus one byte of the next.
        assert_eq!(std::fs::read(&path).unwrap(), b"aab");
        // Disarmed: operations work again.
        assert!(FpFile::create(&dir.join("after")).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scopes_are_isolated_by_prefix() {
        let dir_a = temp_dir("iso-a");
        let dir_b = temp_dir("iso-b");
        let scope = FailPlan {
            prefix: dir_a.clone(),
            rules: vec![FsRule {
                op: FsOp::Any,
                suffix: None,
                nth: 0,
                action: FsAction::Fail(FaultKind::Eio),
            }],
            schedules: Vec::new(),
        }
        .arm();
        // dir_b is untouched by dir_a's plan.
        assert!(FpFile::create(&dir_b.join("ok")).is_ok());
        assert!(FpFile::create(&dir_a.join("no")).is_err());
        assert_eq!(scope.ops(), 1);
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn observe_counts_without_failing() {
        let dir = temp_dir("obs");
        let scope = FailPlan::observe(&dir).arm();
        let mut f = FpFile::create(&dir.join("c")).unwrap();
        f.write_all(b"1").unwrap();
        f.sync_all().unwrap();
        assert_eq!(scope.ops(), 3);
        assert_eq!(scope.fired(), 0);
        assert!(!scope.killed());
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_bursts_fire_inside_the_window_only() {
        let dir = temp_dir("burst");
        // Window [2, 8), period 3, burst 1: syncs 2 and 5 fail, 8+ pass.
        let scope = FailPlan::observe(&dir)
            .with_schedule(FsSchedule::eio_bursts(FsOp::Sync, 2, Some(8), 3, 1))
            .arm();
        let mut f = FpFile::create(&dir.join("s")).unwrap();
        f.write_all(b"x").unwrap();
        let outcomes: Vec<bool> = (0..10).map(|_| f.sync_all().is_ok()).collect();
        let expected: Vec<bool> = (0..10).map(|i| i != 2 && i != 5).collect();
        assert_eq!(outcomes, expected);
        assert_eq!(scope.fired(), 2);
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_window_rejects_every_write_with_enospc() {
        let dir = temp_dir("full");
        let scope = FailPlan::observe(&dir)
            .with_schedule(FsSchedule::disk_full_window(FsOp::Write, 1, 3))
            .arm();
        let mut f = FpFile::create(&dir.join("w")).unwrap();
        f.write_all(b"a").unwrap(); // write 0: before the window
        for _ in 1..3 {
            let err = f.write_all(b"b").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        }
        f.write_all(b"c").unwrap(); // write 3: window closed
        drop(scope);
        drop(f);
        assert_eq!(std::fs::read(dir.join("w")).unwrap(), b"ac");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shot_rule_wins_but_schedule_counter_still_advances() {
        let dir = temp_dir("mix");
        // The rule claims sync 1 with EIO; the schedule would fail syncs
        // 1 and 2 with ENOSPC. Sync 1 must report the rule's EIO, and
        // sync 2 must still fire the schedule (its counter saw sync 1).
        let mut plan =
            FailPlan::observe(&dir).with_schedule(FsSchedule::disk_full_window(FsOp::Sync, 1, 3));
        plan.rules.push(FsRule {
            op: FsOp::Sync,
            suffix: None,
            nth: 1,
            action: FsAction::Fail(FaultKind::Eio),
        });
        let scope = plan.arm();
        let mut f = FpFile::create(&dir.join("m")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap(); // sync 0
        let err = f.sync_all().unwrap_err(); // sync 1: rule wins
        assert_eq!(err.kind(), io::ErrorKind::Other);
        let err = f.sync_all().unwrap_err(); // sync 2: schedule
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.sync_all().unwrap(); // sync 3: window closed
        assert_eq!(scope.fired(), 2);
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lose_unsynced_keeps_only_what_was_synced() {
        let dir = temp_dir("power");
        let scope = FailPlan::observe(&dir).arm();
        // Synced, then appended to: the tail goes.
        let mut kept = FpFile::create(&dir.join("kept")).unwrap();
        kept.write_all(b"durable").unwrap();
        kept.sync_all().unwrap();
        kept.write_all(b"-cached").unwrap();
        // Never synced: the whole file goes.
        let mut lost = FpFile::create(&dir.join("lost")).unwrap();
        lost.write_all(b"cached").unwrap();
        // Synced under one name, then renamed: the length follows it.
        let mut moved = FpFile::create(&dir.join("moved.tmp")).unwrap();
        moved.write_all(b"abc").unwrap();
        moved.sync_all().unwrap();
        moved.write_all(b"def").unwrap();
        rename(&dir.join("moved.tmp"), &dir.join("moved")).unwrap();
        // Every entry is durable: only file contents are in question.
        sync_file(&dir).unwrap();
        scope.lose_unsynced();
        drop(scope);
        drop((kept, lost, moved));
        assert_eq!(std::fs::read(dir.join("kept")).unwrap(), b"durable");
        assert!(!dir.join("lost").exists());
        assert!(!dir.join("moved.tmp").exists());
        assert_eq!(std::fs::read(dir.join("moved")).unwrap(), b"abc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes and syncs a whole file through the layer.
    fn durable_file(path: &Path, bytes: &[u8]) {
        let mut f = FpFile::create(path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
    }

    #[test]
    fn lose_unsynced_undoes_entries_their_directory_never_synced() {
        let dir = temp_dir("entries");
        let sub = dir.join("sub");
        std::fs::create_dir(&sub).unwrap();
        std::fs::write(dir.join("old"), b"old").unwrap();
        std::fs::write(dir.join("gone"), b"gone").unwrap();
        let scope = FailPlan::observe(&dir).arm();
        // Synced contents, entries never synced: every one is undone.
        durable_file(&dir.join("fresh"), b"fresh");
        durable_file(&dir.join("new.tmp"), b"new");
        rename(&dir.join("new.tmp"), &dir.join("old")).unwrap();
        durable_file(&dir.join("first.tmp"), b"first");
        rename(&dir.join("first.tmp"), &dir.join("absent")).unwrap();
        remove_file(&dir.join("gone")).unwrap();
        // A create whose directory was synced survives.
        durable_file(&sub.join("kept"), b"kept");
        sync_file(&sub).unwrap();
        scope.lose_unsynced();
        drop(scope);
        assert!(
            !dir.join("fresh").exists(),
            "a lost create removes the file"
        );
        assert_eq!(std::fs::read(dir.join("old")).unwrap(), b"old");
        assert!(!dir.join("new.tmp").exists(), "its create was lost too");
        assert!(!dir.join("absent").exists(), "a lost rename over no file");
        assert!(!dir.join("first.tmp").exists());
        assert_eq!(std::fs::read(dir.join("gone")).unwrap(), b"gone");
        assert_eq!(std::fs::read(sub.join("kept")).unwrap(), b"kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lost_rename_keeps_the_replaced_file_to_its_synced_length() {
        let dir = temp_dir("replace");
        let scope = FailPlan::observe(&dir).arm();
        durable_file(&dir.join("a"), b"v1");
        sync_file(&dir).unwrap();
        let mut f = FpFile::create(&dir.join("a.tmp")).unwrap();
        f.write_all(b"v2").unwrap();
        f.sync_all().unwrap();
        rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        // Settled by the next sync, a rename then survives.
        durable_file(&dir.join("b.tmp"), b"b");
        rename(&dir.join("b.tmp"), &dir.join("b")).unwrap();
        sync_file(&dir).unwrap();
        durable_file(&dir.join("a.tmp"), b"v3");
        rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        scope.lose_unsynced();
        drop(scope);
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"v2");
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"b");
        assert!(!dir.join("a.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suffix_filter_counts_only_matching_paths() {
        let dir = temp_dir("suffix");
        let scope = FailPlan {
            prefix: dir.clone(),
            rules: vec![FsRule {
                op: FsOp::Create,
                suffix: Some(".ckpt".into()),
                nth: 0,
                action: FsAction::Fail(FaultKind::Eio),
            }],
            schedules: Vec::new(),
        }
        .arm();
        assert!(FpFile::create(&dir.join("a.wal")).is_ok());
        assert!(FpFile::create(&dir.join("b.ckpt")).is_err());
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
