//! Failpoint-driven property tests for the storage layer.
//!
//! Three invariants, each swept over proptest-seeded inputs:
//!
//! 1. A journal torn by an injected process death at an arbitrary frame
//!    write (with an arbitrary number of surviving bytes) recovers
//!    exactly the intact prefix, and deterministic re-emission of the
//!    lost records reproduces the fault-free journal byte for byte.
//! 2. Publication is atomic under injected faults: a kill at any step of
//!    `publish` leaves the previously published file bit-exact, and a
//!    kill at any step of a journal rewrite leaves the old journal or the
//!    new one.
//! 3. The manifest mismatch path: any identity-field mutation changes
//!    the fingerprint and produces a non-empty field diff (a resume
//!    refusal); mutating the non-identity cadence field does neither.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use xmap_failpoint::{FailPlan, FsAction, FsOp, FsRule};
use xmap_state::checkpoint::publish;
use xmap_state::{Manifest, StateError, Wal};

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xmap-tprop-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A frame-write kill plan: dies on the `nth` journal write, persisting
/// `keep` bytes of it, and fails everything after (including the
/// `BufWriter` drop-flush retry, which would otherwise "heal" the tear).
fn kill_write_plan(prefix: PathBuf, nth: u64, keep: u64) -> FailPlan {
    FailPlan {
        prefix,
        rules: vec![FsRule {
            op: FsOp::Write,
            suffix: None,
            nth,
            action: FsAction::Kill { keep },
        }],
        schedules: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// WAL torn-tail recovery under injected partial writes.
    #[test]
    fn wal_recovers_intact_prefix_after_injected_kill(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = 2 + g.below(14);
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let len = 1 + g.below(40) as usize;
                (0..len).map(|j| (g.next() as u8) ^ (i as u8) ^ (j as u8)).collect()
            })
            .collect();

        // Fault-free reference journal (also gives the frame sizes).
        let dir = temp_dir("wal");
        let ref_path = dir.join("reference.wal");
        let mut wal = Wal::create(&ref_path).unwrap();
        for p in &payloads {
            wal.append(p).unwrap();
            // Flush per record so each frame is one write op — the kill
            // point below then addresses "die during frame k".
            wal.flush().unwrap();
        }
        drop(wal);
        let reference = std::fs::read(&ref_path).unwrap();

        // Die during frame `k`, keeping 0..frame_len bytes of it.
        let k = g.below(n);
        let frame_len = 8 + 4 + payloads[k as usize].len() as u64 + 4;
        let keep = g.below(frame_len);
        let torn_path = dir.join("torn.wal");
        let scope = kill_write_plan(dir.clone(), k, keep).arm();
        let mut wal = Wal::create(&torn_path).unwrap();
        let mut died = false;
        for p in &payloads {
            if wal.append(p).and_then(|_| wal.flush()).is_err() {
                died = true;
                break;
            }
        }
        prop_assert!(died, "the kill rule must fire");
        drop(wal); // drop-flush retry fails too: the scope is latched
        drop(scope);

        // Recovery keeps exactly the frames that were fully written.
        let rec = Wal::recover(&torn_path).unwrap();
        prop_assert_eq!(rec.entries.len() as u64, k, "kill at frame {} keep {}", k, keep);
        for (i, e) in rec.entries.iter().enumerate() {
            prop_assert_eq!(e, &payloads[i]);
        }

        // Truncate to the intact prefix and deterministically re-emit
        // the lost records: the journal must equal the reference.
        // Keeping exactly `k` entries, or refusing a journal with fewer.
        let open_keeping = |keep: u64| {
            Wal::open(&torn_path, None, |entries| {
                if (entries.len() as u64) < keep {
                    return Err(StateError::Corrupt(format!(
                        "{} intact entries, {keep} required",
                        entries.len()
                    )));
                }
                Ok(keep as usize)
            })
        };
        let (mut resumed, kept) = open_keeping(k).unwrap();
        prop_assert_eq!(kept.len() as u64, k);
        for p in &payloads[k as usize..] {
            resumed.append(p).unwrap();
        }
        resumed.flush().unwrap();
        drop(resumed);
        prop_assert_eq!(std::fs::read(&torn_path).unwrap(), reference);

        // Demanding more intact records than survived is a clean,
        // typed refusal — never a silent partial resume.
        let err = open_keeping(n + 1).unwrap_err();
        prop_assert!(matches!(err, StateError::Corrupt(_)), "{}", err);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Publication stays atomic under an injected kill: the previously
    /// published file is untouched, bit for bit. A journal rewrite, which
    /// publishes the same way, leaves the old journal or the new one.
    #[test]
    fn checkpoint_publish_is_atomic_under_kill(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let bytes = |g: &mut Gen| -> Vec<u8> {
            (0..1 + g.below(200)).map(|_| g.next() as u8).collect()
        };
        let dir = temp_dir("atomic");
        let path = dir.join("result.csv");
        let published = bytes(&mut g);
        publish(&path, &published).unwrap();
        let next = bytes(&mut g);

        // Kill on any op of the second publish (tmp create, tmp write,
        // tmp sync, or the rename), keeping an arbitrary prefix.
        let nth = g.below(4);
        let keep = g.below(64);
        let scope = FailPlan {
            prefix: dir.clone(),
            rules: vec![FsRule {
                op: FsOp::Any,
                suffix: None,
                nth,
                action: FsAction::Kill { keep },
            }],
            schedules: Vec::new(),
        }
        .arm();
        let result = publish(&path, &next);
        let fired = scope.killed();
        drop(scope);
        prop_assert!(fired, "kill at op {} never fired", nth);
        prop_assert!(result.is_err(), "a dead disk cannot publish");

        // The published file is exactly what it was before.
        prop_assert_eq!(std::fs::read(&path).unwrap(), published);

        // A rewrite publishes the kept entries, then reopens the journal
        // (open, truncate) and syncs the directory. Killed at any of
        // those seven steps, the journal is the old one, bit for bit,
        // until the rename, and exactly the kept entries after it.
        let journal = dir.join("journal.wal");
        let old: Vec<Vec<u8>> = (0..1 + g.below(6)).map(|_| bytes(&mut g)).collect();
        let mut wal = Wal::create(&journal).unwrap();
        for entry in &old {
            wal.append(entry).unwrap();
        }
        wal.sync().unwrap();
        let old_bytes = std::fs::read(&journal).unwrap();
        let mut kept = old[g.below(old.len() as u64) as usize..].to_vec();
        kept.push(bytes(&mut g));
        let nth = g.below(7);
        let scope = FailPlan::kill_at(dir.clone(), nth, g.below(64)).arm();
        let result = wal.rewrite(&kept);
        let fired = scope.killed();
        drop(scope);
        drop(wal);
        prop_assert!(fired, "rewrite kill at op {} never fired", nth);
        prop_assert!(result.is_err(), "a dead disk cannot rewrite");
        if nth < 4 {
            prop_assert_eq!(std::fs::read(&journal).unwrap(), old_bytes);
        } else {
            prop_assert_eq!(Wal::recover(&journal).unwrap().entries, kept);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Manifest fingerprint/diff mismatch path: every identity mutation
    /// is refused with a named field; the cadence field is exempt.
    #[test]
    fn manifest_identity_mutations_are_refused(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let manifest = Manifest {
            workers: 1 + g.below(8),
            seed: g.next(),
            world_seed: g.next(),
            shard: g.below(4),
            shards: 4,
            permutation: "cyclic".to_owned(),
            module: "icmp6_echo".to_owned(),
            max_targets: if g.below(2) == 0 { None } else { Some(g.below(1 << 20)) },
            rate_pps: None,
            probes_per_target: 1 + g.below(3),
            rto_ticks: 1 + g.below(64),
            record_silent: g.below(2) == 1,
            ranges: vec!["2405:200::/32-64".to_owned()],
            blocklist_fp: g.next(),
            every: 1 + g.below(256),
        };

        // Round trip through the on-disk JSON is identity.
        let stored = Manifest::from_json(&manifest.to_json()).unwrap();
        prop_assert_eq!(&stored, &manifest);
        prop_assert!(manifest.diff(&stored).is_empty());
        prop_assert_eq!(stored.fingerprint(), manifest.fingerprint());

        // Mutate one identity field; the diff must name it and the
        // fingerprint must move.
        let mut mutated = manifest.clone();
        let field = match g.below(8) {
            0 => { mutated.workers += 1; "workers" }
            1 => { mutated.seed ^= 1; "seed" }
            2 => { mutated.world_seed ^= 1; "world_seed" }
            3 => { mutated.module = "udp/443".to_owned(); "module" }
            4 => { mutated.probes_per_target += 1; "probes_per_target" }
            5 => { mutated.blocklist_fp ^= 0xFF; "blocklist" }
            6 => { mutated.ranges.push("2601::/24-56".to_owned()); "ranges" }
            _ => { mutated.record_silent = !mutated.record_silent; "record_silent" }
        };
        let diffs = mutated.diff(&manifest);
        prop_assert!(!diffs.is_empty(), "mutating {} must be refused", field);
        prop_assert!(
            diffs.iter().any(|d| d.contains(field)),
            "diff must name `{}`: {:?}",
            field,
            diffs
        );
        prop_assert_ne!(mutated.fingerprint(), manifest.fingerprint());

        // The checkpoint cadence is explicitly not identity: changing
        // it on resume is allowed and fingerprint-invariant.
        let mut recadenced = manifest.clone();
        recadenced.every += 1;
        prop_assert!(recadenced.diff(&manifest).is_empty());
        prop_assert_eq!(recadenced.fingerprint(), manifest.fingerprint());
    }
}
