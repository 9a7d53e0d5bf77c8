//! Property test: checkpoint save → load is identity for arbitrary
//! scanner states (satellite requirement).
//!
//! States are built from a seeded splitmix generator driven by proptest
//! seeds, which covers the full structural space (every cursor variant,
//! empty/non-empty collections, extreme integers) while keeping the
//! generator shim-compatible.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use xmap_addr::{Prefix, PrefixTree};
use xmap_state::checkpoint::{
    decode_run_state, decode_snapshot, decode_sub_shards, decode_tree, encode_run_state,
    encode_snapshot, encode_sub_shards, encode_tree, write_sectioned, SubShardEntry,
};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{
    AdaptiveState, CursorState, OutstandingEntry, RetryEntryState, RunState, StateError,
    WorkerCheckpoint,
};
use xmap_telemetry::{HistogramSnapshot, Snapshot};

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64: full-period, seed-friendly.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn extreme_u64(&mut self) -> u64 {
        // Bias toward boundary values where encoding bugs live.
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(256),
            _ => self.next(),
        }
    }

    fn u128(&mut self) -> u128 {
        ((self.next() as u128) << 64) | self.next() as u128
    }

    fn prefix(&mut self) -> Prefix {
        let len = self.below(129) as u8;
        Prefix::new(self.u128().into(), len)
    }
}

fn arbitrary_run_state(g: &mut Gen) -> RunState {
    let cursor = match g.below(3) {
        0 => CursorState::Cyclic {
            current: g.u128(),
            remaining_walk: g.u128(),
        },
        1 => CursorState::Feistel {
            next_pos: g.extreme_u64(),
        },
        _ => CursorState::Sequential {
            next_pos: g.extreme_u64(),
        },
    };
    let adaptive = if g.below(2) == 0 {
        None
    } else {
        Some(AdaptiveState {
            current_pps: g.extreme_u64(),
            sent: g.extreme_u64(),
            valid: g.extreme_u64(),
            baseline_bits: if g.below(2) == 0 {
                None
            } else {
                Some(g.next())
            },
        })
    };
    RunState {
        now: g.extreme_u64(),
        run_start_tick: g.extreme_u64(),
        run_wal_start: g.extreme_u64(),
        cursor,
        remaining: g.extreme_u64(),
        pending_indices: (0..g.below(10)).map(|_| g.extreme_u64()).collect(),
        outstanding: (0..g.below(8))
            .map(|_| OutstandingEntry {
                dst: g.u128(),
                target: g.prefix(),
                attempt: g.below(8) as u32,
                answered: g.below(2) == 1,
                sent_tick: g.extreme_u64(),
            })
            .collect(),
        retries: (0..g.below(8))
            .map(|_| RetryEntryState {
                due_tick: g.extreme_u64(),
                seq: g.extreme_u64(),
                target: g.prefix(),
                attempt: g.below(8) as u32,
                prev_dst: g.u128(),
            })
            .collect(),
        retry_seq: g.extreme_u64(),
        probed_count: g.extreme_u64(),
        adaptive,
        baseline: std::array::from_fn(|_| g.extreme_u64()),
    }
}

fn arbitrary_snapshot(g: &mut Gen) -> Snapshot {
    let mut snap = Snapshot::default();
    for i in 0..g.below(6) {
        snap.counters
            .insert(format!("scan.c{i}.\"x\"\n"), g.extreme_u64());
    }
    for i in 0..g.below(4) {
        snap.gauges.insert(format!("g{i}"), g.extreme_u64());
    }
    for i in 0..g.below(3) {
        let bounds: Vec<u64> = (0..g.below(6)).map(|b| b * 7).collect();
        let counts: Vec<u64> = (0..bounds.len() as u64 + 1)
            .map(|_| g.extreme_u64())
            .collect();
        snap.histograms.insert(
            format!("h{i}"),
            HistogramSnapshot {
                bounds,
                counts,
                count: g.extreme_u64(),
                sum: g.extreme_u64(),
            },
        );
    }
    snap
}

fn temp_ckpt() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xmap-ckpt-prop-{}-{n}.ckpt", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Section-level round trip: encode → decode is identity.
    #[test]
    fn run_state_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let run = arbitrary_run_state(&mut g);
        let decoded = decode_run_state(&encode_run_state(&run)).unwrap();
        prop_assert_eq!(decoded, run);
    }

    #[test]
    fn snapshot_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let snap = arbitrary_snapshot(&mut g);
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// Full-file round trip: save → load through the on-disk format is
    /// identity, including the run-absent (range-complete) shape.
    #[test]
    fn worker_checkpoint_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let ckpt = WorkerCheckpoint {
            worker: g.below(64) as u32,
            range_index: g.below(1024) as u32,
            tick: g.extreme_u64(),
            wal_seq: g.extreme_u64(),
            config_fp: g.next(),
            metrics: arbitrary_snapshot(&mut g),
            run: if g.below(4) == 0 { None } else { Some(arbitrary_run_state(&mut g)) },
        };
        let path = temp_ckpt();
        ckpt.write_to(&path).unwrap();
        let loaded = WorkerCheckpoint::read_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded, ckpt);
    }

    /// Prefix-tree snapshot round trip: an arbitrary split/prune/record
    /// history encodes and decodes to the identical tree (the adaptive
    /// engine's mid-round resume depends on this being exact, statistics
    /// and cursors included).
    #[test]
    fn prefix_tree_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let root = Prefix::new((0x2405_0200u128 << 96).into(), 48);
        let leaf_len = 48 + 4 + g.below(13) as u8; // 52..=64
        let branch = 1 + g.below(8) as u8;
        let mut tree = PrefixTree::new(root, leaf_len, branch);
        for _ in 0..g.below(48) {
            let frontier = tree.frontier();
            if frontier.is_empty() {
                break;
            }
            let idx = frontier[g.below(frontier.len() as u64) as usize];
            match g.below(4) {
                0 => {
                    let probes = g.below(1 << 20);
                    tree.record(idx, probes, g.below(probes + 1));
                }
                1 => {
                    let _ = tree.prune(idx);
                }
                2 => {
                    let _ = tree.split(idx);
                }
                _ => tree.exhaust(idx),
            }
        }
        let mut e = Encoder::new();
        encode_tree(&mut e, &tree);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "tree property");
        let decoded = decode_tree(&mut d).unwrap();
        prop_assert_eq!(decoded, tree);
    }

    /// Sub-shard manifest round trip: arbitrary unit layouts (extreme
    /// offsets/strides/caps, started flags) encode and decode exactly —
    /// the split-block resume plan depends on this.
    #[test]
    fn sub_shard_manifest_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let entries: Vec<SubShardEntry> = (0..g.below(24))
            .map(|_| SubShardEntry {
                offset: g.extreme_u64(),
                stride: g.extreme_u64(),
                cap: g.extreme_u64(),
                started: g.below(2) == 1,
            })
            .collect();
        let bytes = encode_sub_shards(&entries);
        prop_assert_eq!(decode_sub_shards(&bytes).unwrap(), entries);
    }
}

/// A truncated or trailing-garbage manifest must surface as a decode
/// error, never as a silently shortened plan.
#[test]
fn sub_shard_manifest_rejects_torn_bytes() {
    let entries = vec![
        SubShardEntry {
            offset: 3,
            stride: 2,
            cap: 1 << 20,
            started: true,
        },
        SubShardEntry {
            offset: 5,
            stride: 4,
            cap: 7,
            started: false,
        },
    ];
    let bytes = encode_sub_shards(&entries);
    assert!(decode_sub_shards(&bytes[..bytes.len() - 1]).is_err());
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(decode_sub_shards(&padded).is_err());
}

/// The `run` section as the build before the `live` section wrote it: a
/// Sequential cursor, nothing pending, one answered and two probed
/// prefixes, no adaptive state, a zero baseline.
fn legacy_run_section() -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(40); // now
    e.u64(0); // run_start_tick
    e.u64(0); // run_wal_start
    e.u8(2); // cursor: Sequential
    e.u64(2); // next_pos
    e.u64(98); // remaining
    e.seq(0); // pending_indices
    e.seq(0); // outstanding
    e.seq(0); // retries
    e.u64(0); // retry_seq
    e.seq(1); // answered
    e.u128(0x2405_0200 << 96);
    e.u8(64);
    e.seq(2); // probed
    for i in 0..2u128 {
        e.u128(0x2405_0200 << 96 | i << 64);
        e.u8(64);
    }
    e.u8(0); // adaptive: None
    for _ in 0..9 {
        e.u64(0); // baseline
    }
    e.finish()
}

fn worker_header(sections: &str) -> String {
    format!(
        "{{\"schema\":\"xmap-checkpoint/v1\",\"kind\":\"worker\",\"worker\":0,\
         \"range_index\":0,\"tick\":40,\"wal_seq\":1,\
         \"config_fp\":\"0x0000000000000001\",\"sections\":{sections}}}"
    )
}

/// A mid-range cut written by an older build is refused by name, with
/// the path and the remedy — never decoded as the new layout.
#[test]
fn legacy_mid_range_checkpoint_is_refused_not_misparsed() {
    let path = temp_ckpt();
    let metrics = encode_snapshot(&Snapshot::default());
    write_sectioned(
        &path,
        &worker_header("[\"metrics\",\"run\"]"),
        &[("metrics", metrics.clone()), ("run", legacy_run_section())],
    )
    .unwrap();
    let err = WorkerCheckpoint::read_from(&path).unwrap_err();
    let StateError::Version(msg) = &err else {
        panic!("expected a version error, got {err:?}");
    };
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(msg.contains("without --resume"), "{msg}");

    // The header's list alone decides: the same bytes under a header
    // that does not list `run` are a completed range, as ever.
    write_sectioned(
        &path,
        &worker_header("[\"metrics\"]"),
        &[("metrics", metrics), ("run", legacy_run_section())],
    )
    .unwrap();
    let done = WorkerCheckpoint::read_from(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((done.tick, done.wal_seq, done.run), (40, 1, None));
}
