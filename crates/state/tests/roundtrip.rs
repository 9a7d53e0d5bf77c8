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
use xmap_addr::Prefix;
use xmap_state::checkpoint::{
    decode_run_state, decode_snapshot, encode_run_state, encode_snapshot,
};
use xmap_state::{CursorState, OutstandingEntry, RetryEntryState, RunState, WorkerCheckpoint};
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
}
