//! The `xmap` binary's one scan driver: every invocation of a seeded scan
//! writes the same CSV bytes and the same `--metrics-out` JSON, whatever
//! `--workers` count it runs at, checkpointed or not, a killed and
//! resumed scan writes the uninterrupted CSV, and a recorded wire
//! replays to the same CSV.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};

const SEEDS: &[&str] = &["-s", "7", "--world-seed", "7", "-q"];

/// A sparse block swept at /64, capped at 20,000 targets.
const SPARSE: &[&str] = &["-x", "20000", "2405:200::/32-64"];

/// One Comcast CPE's /56 swept at /64: 256 targets behind one device,
/// each answered with an unreachable.
const ONE_DEVICE: &[&str] = &["2601:d7:49dc:e100::/56-64"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmap-cli-scan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the seeded scan of `targets` with `extra` arguments, writing
/// `<name>.csv` and `<name>.json` into `dir`.
fn xmap(dir: &Path, name: &str, targets: &[&str], extra: &[&str]) -> ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_xmap"))
        .args(SEEDS)
        .args(extra)
        .arg("-o")
        .arg(dir.join(format!("{name}.csv")))
        .arg("--metrics-out")
        .arg(dir.join(format!("{name}.json")))
        .args(targets)
        .status()
        .expect("xmap runs")
}

/// [`xmap`], which must succeed; returns the CSV's and the JSON's bytes.
fn scan(dir: &Path, name: &str, targets: &[&str], extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let status = xmap(dir, name, targets, extra);
    assert!(status.success(), "xmap {extra:?}: {status}");
    let read = |ext: &str| std::fs::read(dir.join(format!("{name}.{ext}"))).unwrap();
    (read("csv"), read("json"))
}

#[test]
fn every_worker_count_and_checkpointing_write_the_same_artifacts() {
    // CSV lines, header included: findings in the sparse block, and
    // every one of the device's 256 targets.
    for (tag, targets, lines) in [
        ("sparse", SPARSE, 11..=20_001),
        ("one-device", ONE_DEVICE, 257..=257),
    ] {
        let dir = scratch_dir(tag);
        let (csv, json) = scan(&dir, "w1", targets, &["--workers", "1"]);
        let written = csv.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        assert!(lines.contains(&written), "{tag}: {written} CSV lines");
        let ckpt1 = dir.join("ckpt1").display().to_string();
        let ckpt2 = dir.join("ckpt2").display().to_string();
        let runs: [(&str, &[&str]); 4] = [
            ("w2", &["--workers", "2"]),
            ("w4", &["--workers", "4"]),
            ("ckpt1", &["--workers", "1", "--checkpoint", &ckpt1]),
            ("ckpt2", &["--workers", "2", "--checkpoint", &ckpt2]),
        ];
        for (name, extra) in runs {
            let (other_csv, other_json) = scan(&dir, name, targets, extra);
            assert!(
                other_csv == csv,
                "{tag} {name}: CSV differs from --workers 1"
            );
            assert!(
                other_json == json,
                "{tag} {name}: metrics differ from --workers 1"
            );
        }

        // One worker killed after 100 probes, past several cuts, resumes
        // to the uninterrupted CSV.
        let killed = dir.join("killed").display().to_string();
        let session = [
            "--workers",
            "1",
            "--checkpoint",
            &killed,
            "--checkpoint-every",
            "16",
        ];
        let kill = [&session[..], &["--kill-after-probes", "100"]].concat();
        let status = xmap(&dir, "partial", targets, &kill);
        assert_eq!(status.code(), Some(3), "{tag}: the kill must interrupt");
        let resume = [&session[..], &["--resume"]].concat();
        let (resumed, _) = scan(&dir, "resumed", targets, &resume);
        assert!(
            resumed == csv,
            "{tag}: resumed CSV differs from --workers 1"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_recorded_wire_replays_to_the_same_csv() {
    let dir = scratch_dir("wire");
    let wire = dir.join("wire.ndjson").display().to_string();
    let (recorded, _) = scan(&dir, "record", SPARSE, &["--record-wire", &wire]);
    let (replayed, _) = scan(&dir, "replay", SPARSE, &["--replay-trace", &wire]);
    assert!(
        replayed == recorded,
        "--replay-trace diverged from the recording"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
