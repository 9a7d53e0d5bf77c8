//! The `xmap` binary's one scan driver: every invocation of a seeded scan
//! writes the same CSV bytes and the same `--metrics-out` JSON, whatever
//! `--workers` count it runs at, checkpointed or not, and a recorded wire
//! replays to the same CSV.

use std::path::{Path, PathBuf};
use std::process::Command;

const SCAN: &[&str] = &[
    "-s",
    "7",
    "--world-seed",
    "7",
    "-x",
    "20000",
    "-q",
    "2405:200::/32-64",
];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmap-cli-scan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the seeded scan with `extra` arguments, writing `<name>.csv` and
/// `<name>.json` into `dir`; returns both files' bytes.
fn scan(dir: &Path, name: &str, extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let csv = dir.join(format!("{name}.csv"));
    let json = dir.join(format!("{name}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_xmap"))
        .args(SCAN)
        .args(extra)
        .arg("-o")
        .arg(&csv)
        .arg("--metrics-out")
        .arg(&json)
        .status()
        .expect("xmap runs");
    assert!(status.success(), "xmap {extra:?}: {status}");
    (std::fs::read(csv).unwrap(), std::fs::read(json).unwrap())
}

#[test]
fn every_worker_count_and_checkpointing_write_the_same_artifacts() {
    let dir = scratch_dir("workers");
    let (csv, json) = scan(&dir, "w1", &["--workers", "1"]);
    assert!(
        csv.split(|&b| b == b'\n').count() > 10,
        "expected a scan with findings"
    );
    let ckpt1 = dir.join("ckpt1").display().to_string();
    let ckpt2 = dir.join("ckpt2").display().to_string();
    let runs: [(&str, &[&str]); 4] = [
        ("w2", &["--workers", "2"]),
        ("w4", &["--workers", "4"]),
        ("ckpt1", &["--workers", "1", "--checkpoint", &ckpt1]),
        ("ckpt2", &["--workers", "2", "--checkpoint", &ckpt2]),
    ];
    for (name, extra) in runs {
        let (other_csv, other_json) = scan(&dir, name, extra);
        assert!(other_csv == csv, "{name}: CSV differs from --workers 1");
        assert!(
            other_json == json,
            "{name}: metrics differ from --workers 1"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_recorded_wire_replays_to_the_same_csv() {
    let dir = scratch_dir("wire");
    let wire = dir.join("wire.ndjson").display().to_string();
    let (recorded, _) = scan(&dir, "record", &["--record-wire", &wire]);
    let (replayed, _) = scan(&dir, "replay", &["--replay-trace", &wire]);
    assert!(
        replayed == recorded,
        "--replay-trace diverged from the recording"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
