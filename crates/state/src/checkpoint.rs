//! The `xmap-checkpoint/v1` worker checkpoint format.
//!
//! A checkpoint file is self-describing: a magic string, an ordered JSON
//! header (human-inspectable with `head -2`), then CRC-protected binary
//! sections. Layout:
//!
//! ```text
//! b"XMCKPT1\n"
//! [header_len: u32][header: ordered JSON, `header_len` bytes]\n
//! per section: [name_len: u8][name][len: u64][payload][crc32: u32]
//! ```
//!
//! The header carries identity and placement (`schema`, `kind`, `worker`,
//! `range_index`, `tick`, `wal_seq`, `config_fp`) plus the section list;
//! the sections carry bulk state (`metrics` — a full telemetry registry
//! snapshot — and optionally `live`, the mid-range scanner state).
//! Everything needed to *refuse* a wrong resume lives in the header, so
//! mismatches are detected before any bulk decoding happens.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;

use xmap_addr::{NodeState, Prefix, PrefixTree, TreeNode};
use xmap_failpoint::fs as fp;
use xmap_telemetry::{HistogramSnapshot, Snapshot};

use crate::codec::{crc32, Decoder, Encoder};
use crate::error::StateError;
use crate::json::{self, Value};

/// Schema identifier written into every header.
pub const CHECKPOINT_SCHEMA: &str = "xmap-checkpoint/v1";

const MAGIC: &[u8] = b"XMCKPT1\n";

/// Section holding the mid-range [`RunState`].
const LIVE_SECTION: &str = "live";

/// Section in which older builds kept their mid-range state: one entry
/// per probe sent so far, in a layout [`LIVE_SECTION`] does not share. A
/// file whose header lists it is refused, never decoded.
const LEGACY_RUN_SECTION: &str = "run";

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

/// AIMD rate-controller state.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveState {
    /// Current probes-per-second setpoint.
    pub current_pps: u64,
    /// Probes sent in the open measurement window.
    pub sent: u64,
    /// Valid responses in the open measurement window.
    pub valid: u64,
    /// Baseline hit rate (bit pattern preserved exactly), if established.
    pub baseline_bits: Option<u64>,
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
    /// AIMD controller state, if adaptive rating is enabled.
    pub adaptive: Option<AdaptiveState>,
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
    /// Serialises and atomically writes the checkpoint to `path`
    /// (tmp-file + rename, so a kill mid-write leaves the old file).
    pub fn write_to(&self, path: &Path) -> Result<(), StateError> {
        let mut header = String::new();
        header.push('{');
        header.push_str("\"schema\":");
        json::push_json_string(&mut header, CHECKPOINT_SCHEMA);
        header.push_str(",\"kind\":\"worker\"");
        header.push_str(&format!(",\"worker\":{}", self.worker));
        header.push_str(&format!(",\"range_index\":{}", self.range_index));
        header.push_str(&format!(",\"tick\":{}", self.tick));
        header.push_str(&format!(",\"wal_seq\":{}", self.wal_seq));
        header.push_str(&format!(",\"config_fp\":\"{:#018x}\"", self.config_fp));
        header.push_str(",\"sections\":[\"metrics\"");
        if self.run.is_some() {
            header.push_str(&format!(",\"{LIVE_SECTION}\""));
        }
        header.push_str("]}");

        let mut sections: Vec<(&str, Vec<u8>)> = vec![("metrics", encode_snapshot(&self.metrics))];
        if let Some(run) = &self.run {
            sections.push((LIVE_SECTION, encode_run_state(run)));
        }
        write_sectioned(path, &header, &sections)
    }

    /// Reads and fully validates a checkpoint from `path`. The header's
    /// `sections` list decides what the file holds: a mid-range cut of an
    /// older build (it lists `run`) is refused with
    /// [`StateError::Version`]; a completed range resumes whichever build
    /// wrote it.
    pub fn read_from(path: &Path) -> Result<WorkerCheckpoint, StateError> {
        let what = "worker checkpoint";
        let (header, mut sections) = read_sectioned(path, what)?;
        let kind = header.req_str("kind", what)?;
        if kind != "worker" {
            return Err(StateError::Corrupt(format!(
                "{what}: expected kind `worker`, found `{kind}`"
            )));
        }
        let config_fp = parse_fp(&header.req_str("config_fp", what)?, what)?;
        let metrics_raw = sections
            .remove("metrics")
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `metrics` section")))?;
        let listed: Vec<&str> = header
            .get("sections")
            .and_then(Value::as_arr)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `sections` list")))?
            .iter()
            .filter_map(Value::as_str)
            .collect();
        if listed.contains(&LEGACY_RUN_SECTION) {
            return Err(StateError::Version(format!(
                "{what} {}: holds the mid-range `{LEGACY_RUN_SECTION}` section of an older \
                 build, which this build cannot continue; re-run the scan without --resume",
                path.display()
            )));
        }
        let run = if listed.contains(&LIVE_SECTION) {
            let raw = sections.remove(LIVE_SECTION).ok_or_else(|| {
                StateError::Corrupt(format!("{what}: missing `{LIVE_SECTION}` section"))
            })?;
            Some(decode_run_state(&raw)?)
        } else {
            None
        };
        Ok(WorkerCheckpoint {
            worker: header.req_u64("worker", what)? as u32,
            range_index: header.req_u64("range_index", what)? as u32,
            tick: header.req_u64("tick", what)?,
            wal_seq: header.req_u64("wal_seq", what)?,
            config_fp,
            metrics: decode_snapshot(&metrics_raw)?,
            run,
        })
    }
}

/// Parses a `0x`-prefixed 64-bit fingerprint written by the header writers.
pub fn parse_fp(s: &str, what: &str) -> Result<u64, StateError> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| StateError::Corrupt(format!("{what}: invalid fingerprint `{s}`")))
}

/// One sub-shard range of a split scan block, as persisted in a
/// `units` checkpoint section.
///
/// The triple `(offset, stride, cap)` names the sub-progression of the
/// block's permutation walk the unit owns (base positions `offset +
/// j·stride` for `j < cap`); `started` records whether any worker ever
/// claimed the unit, so a resume planner can report Resume (partial
/// work discarded, unit re-runs) versus Fresh. A manifest of entries is
/// only valid as a *complete partition* of its block's walk — writers
/// must replace a split unit by its settled prefix plus tail parts in
/// the same atomic rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubShardEntry {
    /// First base walk position of the unit.
    pub offset: u64,
    /// Distance between consecutive base positions.
    pub stride: u64,
    /// Number of walk positions in the unit.
    pub cap: u64,
    /// Whether a worker ever claimed the unit.
    pub started: bool,
}

/// Binary-encodes a sub-shard manifest (the `units` section of a
/// campaign split-block checkpoint).
pub fn encode_sub_shards(entries: &[SubShardEntry]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.seq(entries.len());
    for u in entries {
        e.u64(u.offset);
        e.u64(u.stride);
        e.u64(u.cap);
        e.bool(u.started);
    }
    e.finish()
}

/// Decodes a manifest written by [`encode_sub_shards`].
pub fn decode_sub_shards(raw: &[u8]) -> Result<Vec<SubShardEntry>, StateError> {
    let mut d = Decoder::new(raw, "units section");
    let n = d.seq()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(SubShardEntry {
            offset: d.u64()?,
            stride: d.u64()?,
            cap: d.u64()?,
            started: d.bool()?,
        });
    }
    d.expect_end()?;
    Ok(entries)
}

/// Writes a sectioned `xmap-checkpoint/v1` file atomically. Shared by
/// worker and campaign checkpoints; `header` must be a complete JSON
/// object including `schema` and `sections`.
pub fn write_sectioned(
    path: &Path,
    header: &str,
    sections: &[(&str, Vec<u8>)],
) -> Result<(), StateError> {
    write_sectioned_opts(path, header, sections, true)
}

/// [`write_sectioned`] with an explicit durability choice. With `sync:
/// false` the temp file is *not* fsynced before the rename — the caller
/// owns durability and must [`fp::sync_file`] the published path (and
/// its directory) later, the group-commit pattern the campaign executor
/// uses to batch fsyncs across blocks. A crash inside the unsynced
/// window can leave the published file torn, which readers must treat
/// as "block never completed" rather than a fatal error.
pub fn write_sectioned_opts(
    path: &Path,
    header: &str,
    sections: &[(&str, Vec<u8>)],
    sync: bool,
) -> Result<(), StateError> {
    let mut out = Vec::with_capacity(
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
    let tmp = path.with_extension("tmp");
    {
        let mut f = fp::FpFile::create(&tmp)
            .map_err(|e| StateError::io(format!("create checkpoint {}", tmp.display()), e))?;
        f.write_all(&out)
            .map_err(|e| StateError::io(format!("write checkpoint {}", tmp.display()), e))?;
        if sync {
            f.sync_all()
                .map_err(|e| StateError::io(format!("sync checkpoint {}", tmp.display()), e))?;
        }
    }
    fp::rename(&tmp, path)
        .map_err(|e| StateError::io(format!("publish checkpoint {}", path.display()), e))
}

/// Reads a sectioned file, validating magic, schema, and per-section CRCs.
pub fn read_sectioned(
    path: &Path,
    what: &str,
) -> Result<(Value, BTreeMap<String, Vec<u8>>), StateError> {
    let raw = fs::read(path)
        .map_err(|e| StateError::io(format!("read checkpoint {}", path.display()), e))?;
    if !raw.starts_with(MAGIC) {
        return Err(StateError::Corrupt(format!(
            "{what} {}: bad magic (not an xmap checkpoint)",
            path.display()
        )));
    }
    let mut pos = MAGIC.len();
    if raw.len() < pos + 4 {
        return Err(StateError::Corrupt(format!(
            "{what}: truncated header length"
        )));
    }
    let hlen = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    if raw.len() < pos + hlen + 1 {
        return Err(StateError::Corrupt(format!("{what}: truncated header")));
    }
    let header_text = std::str::from_utf8(&raw[pos..pos + hlen])
        .map_err(|_| StateError::Corrupt(format!("{what}: header is not UTF-8")))?;
    pos += hlen + 1; // skip trailing newline
    let header = json::parse(header_text, what)?;
    let schema = header.req_str("schema", what)?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(StateError::Version(format!(
            "{what}: found `{schema}`, this build supports `{CHECKPOINT_SCHEMA}`"
        )));
    }
    let mut sections = BTreeMap::new();
    while pos < raw.len() {
        let nlen = raw[pos] as usize;
        pos += 1;
        if raw.len() < pos + nlen + 8 {
            return Err(StateError::Corrupt(format!(
                "{what}: truncated section name"
            )));
        }
        let name = std::str::from_utf8(&raw[pos..pos + nlen])
            .map_err(|_| StateError::Corrupt(format!("{what}: section name not UTF-8")))?
            .to_owned();
        pos += nlen;
        let plen = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        if raw.len() < pos + plen + 4 {
            return Err(StateError::Corrupt(format!(
                "{what}: truncated section `{name}`"
            )));
        }
        let payload = &raw[pos..pos + plen];
        pos += plen;
        let stored = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
        pos += 4;
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
    match &run.adaptive {
        None => e.u8(0),
        Some(a) => {
            e.u8(1);
            e.u64(a.current_pps);
            e.u64(a.sent);
            e.u64(a.valid);
            e.opt_u64(a.baseline_bits);
        }
    }
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
    let adaptive = match d.u8()? {
        0 => None,
        1 => Some(AdaptiveState {
            current_pps: d.u64()?,
            sent: d.u64()?,
            valid: d.u64()?,
            baseline_bits: d.opt_u64()?,
        }),
        t => {
            return Err(StateError::Corrupt(format!(
                "live section: unknown adaptive tag {t}"
            )))
        }
    };
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
        adaptive,
        baseline,
    })
}

/// Serialises a [`PrefixTree`] into the `xmap-checkpoint/v1`
/// tree-snapshot wire form: header fields, then every node in creation
/// order (prefix, state tag, probes, hits, cursor, children range).
/// Creation order is load-bearing — node indices are the tree's
/// identity, so a decoded tree resumes with byte-identical frontier
/// iteration.
pub fn encode_tree(e: &mut Encoder, tree: &PrefixTree) {
    e.prefix(&tree.root());
    e.u8(tree.leaf_len());
    e.u8(tree.branch_bits());
    e.seq(tree.len());
    for node in tree.nodes() {
        e.prefix(&node.prefix);
        e.u8(NodeState::ALL
            .iter()
            .position(|s| *s == node.state)
            .expect("every state is in ALL") as u8);
        e.u64(node.probes);
        e.u64(node.hits);
        e.u64(node.cursor);
        match node.children {
            Some((start, count)) => {
                e.bool(true);
                e.u32(start);
                e.u32(count);
            }
            None => e.bool(false),
        }
    }
}

/// Inverse of [`encode_tree`]; every structural invariant (child
/// placement, pruned-but-responsive nodes, coverage partition) is
/// re-validated, so a corrupted snapshot fails loudly instead of
/// resuming a malformed campaign.
pub fn decode_tree(d: &mut Decoder) -> Result<PrefixTree, StateError> {
    let what = "tree snapshot";
    let root = d.prefix()?;
    let leaf_len = d.u8()?;
    let branch_bits = d.u8()?;
    let n = d.seq()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let prefix = d.prefix()?;
        let tag = d.u8()? as usize;
        let state = *NodeState::ALL
            .get(tag)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: unknown node state {tag}")))?;
        let probes = d.u64()?;
        let hits = d.u64()?;
        let cursor = d.u64()?;
        let children = if d.bool()? {
            Some((d.u32()?, d.u32()?))
        } else {
            None
        };
        nodes.push(TreeNode {
            prefix,
            state,
            probes,
            hits,
            cursor,
            children,
        });
    }
    PrefixTree::from_parts(root, leaf_len, branch_bits, nodes)
        .map_err(|e| StateError::Corrupt(format!("{what}: {e}")))
}
