//! The checkpoint envelope against hostile bytes: every checkpoint kind's
//! header shape, cut at every offset and mutated at every header and
//! framing byte, opens to `Ok` or a typed `StateError` — never a panic —
//! and no truncated file opens at all.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use xmap_state::checkpoint::{write_sectioned, Kind, Opened};
use xmap_state::{Manifest, StateError, WorkerCheckpoint, SCHEMA};

/// The nine header shapes the workspace writes: kind, integer fields,
/// sections.
const SHAPES: [(&str, &[&str], &[&str]); 9] = [
    (
        "worker",
        &["worker", "range_index", "tick", "wal_seq"],
        &["metrics", "live"],
    ),
    ("campaign-dir", &["blocks"], &[]),
    (
        "campaign-block",
        &["block", "profile"],
        &["metrics", "block"],
    ),
    ("campaign-claim", &["block", "offset", "stride", "cap"], &[]),
    (
        "campaign-split",
        &["block", "offset", "stride", "cap", "consumed", "k"],
        &[],
    ),
    (
        "campaign-unit",
        &["block", "offset", "stride", "cap"],
        &["metrics", "unit"],
    ),
    ("adaptive-campaign", &[], &[]),
    (
        "adaptive-round",
        &["block", "round", "leaf_len", "probes"],
        &["units", "metrics"],
    ),
    ("serve-unit", &["job", "unit"], &["output", "metrics"]),
];

const FP: u64 = 0x0123_4567_89ab_cdef;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "xmap-envelope-{}-{tag}-{n}.ckpt",
        std::process::id()
    ))
}

const MAGIC: &[u8] = b"XMCKPT1\n";

/// Length of the magic, header-length word, header and its newline: the
/// bytes before the first section.
fn header_end(bytes: &[u8]) -> usize {
    let hlen = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    MAGIC.len() + 4 + hlen as usize + 1
}

/// Offsets of every framing byte after the header: each section's name
/// length, name, payload length and CRC.
fn framing_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = header_end(bytes);
    while pos < bytes.len() {
        let nlen = bytes[pos] as usize;
        let plen_at = pos + 1 + nlen;
        let plen = u64::from_le_bytes(bytes[plen_at..plen_at + 8].try_into().unwrap()) as usize;
        out.extend(pos..plen_at + 8);
        let crc_at = plen_at + 8 + plen;
        out.extend(crc_at..crc_at + 4);
        pos = crc_at + 4;
    }
    out
}

/// Opens `bytes` as `kind` with the identity the pristine file holds,
/// under `catch_unwind`, failing the test on a panic.
fn open_bytes(
    kind: Kind,
    fields: &[(&str, u64)],
    bytes: &[u8],
    label: &str,
) -> Result<Opened, StateError> {
    let path = temp_path("case");
    std::fs::write(&path, bytes).unwrap();
    let opened = catch_unwind(AssertUnwindSafe(|| kind.open(&path, Some(FP), fields)));
    std::fs::remove_file(&path).ok();
    opened.unwrap_or_else(|_| panic!("{}: open panicked on {label}", kind.name))
}

#[test]
fn every_kind_survives_truncation_and_header_mutation() {
    for (name, keys, section_names) in SHAPES {
        let kind = Kind { name };
        let fields: Vec<(&str, u64)> = keys.iter().zip(1u64..).map(|(k, v)| (*k, v * 37)).collect();
        let sections: Vec<(&str, Vec<u8>)> = section_names
            .iter()
            .zip(1u8..)
            .map(|(s, i)| (*s, vec![i; 3 + i as usize]))
            .collect();
        let path = temp_path(name);
        kind.write(&path, &fields, FP, &sections).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut ck = open_bytes(kind, &fields, &pristine, "the pristine file").unwrap();
        for (s, body) in &sections {
            assert_eq!(
                &ck.take(s, |b| Ok(b.to_vec())).unwrap(),
                body,
                "{name}: {s}"
            );
        }

        for cut in 0..pristine.len() {
            let opened = open_bytes(kind, &fields, &pristine[..cut], &format!("a cut at {cut}"));
            assert!(
                opened.is_err(),
                "{name}: a file cut at byte {cut} of {} opened",
                pristine.len()
            );
        }

        let mut offsets: Vec<usize> = (0..header_end(&pristine)).collect();
        offsets.extend(framing_offsets(&pristine));
        for at in offsets {
            for flip in [0x01u8, 0x20, 0x80, 0xff] {
                let mut bytes = pristine.clone();
                bytes[at] ^= flip;
                let label = format!("byte {at} ^ {flip:#04x}");
                if let Ok(mut ck) = open_bytes(kind, &fields, &bytes, &label) {
                    // A mutation the envelope accepts changed nothing the
                    // reader relies on: every section is still there.
                    for (s, body) in &sections {
                        let got = ck.take(s, |b| Ok(b.to_vec()));
                        assert_eq!(got.ok().as_ref(), Some(body), "{name}: {label}: {s}");
                    }
                }
            }
        }
    }
}

/// A section length near `u64::MAX` once overflowed the reader's offset
/// arithmetic; it must be a typed error.
#[test]
fn huge_section_length_is_corrupt_not_a_panic() {
    let path = temp_path("huge");
    let fields = [
        ("worker", 0),
        ("range_index", 0),
        ("tick", 0),
        ("wal_seq", 0),
    ];
    let worker = Kind { name: "worker" };
    worker
        .write(&path, &fields, 1, &[("metrics", Vec::new())])
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(header_end(&bytes));
    bytes.push(7);
    bytes.extend_from_slice(b"metrics");
    bytes.extend_from_slice(&(u64::MAX - 2).to_le_bytes());
    bytes.extend_from_slice(&[0; 8]);
    std::fs::write(&path, &bytes).unwrap();
    let read = catch_unwind(|| WorkerCheckpoint::read_from(&path));
    std::fs::remove_file(&path).ok();
    let err = read.expect("read must not panic").unwrap_err();
    assert!(matches!(err, StateError::Corrupt(_)), "{err:?}");
}

/// A header nested far past anything a writer emits is refused before it
/// can exhaust the stack.
#[test]
fn deeply_nested_header_is_corrupt() {
    let header = format!("{{\"schema\":\"{SCHEMA}\",\"kind\":{}", "[".repeat(200_000));
    let path = temp_path("deep");
    write_sectioned(&path, &header, &[]).unwrap();
    let err = Kind { name: "worker" }.open(&path, None, &[]).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, StateError::Corrupt(_)), "{err:?}");
}

/// Asserts `err` is a version error naming the previous schema and the
/// remedy.
fn assert_v1_refused(err: StateError, label: &str) {
    let StateError::Version(msg) = &err else {
        panic!("{label}: expected a version error, got {err:?}");
    };
    assert!(msg.contains("xmap-checkpoint/v1"), "{label}: {msg}");
    assert!(msg.contains("--resume"), "{label}: {msg}");
}

/// Every kind's header as the previous schema wrote it — decimal
/// integers — is refused by its schema alone, before any field is read:
/// nothing written under v1 resumes.
#[test]
fn every_v1_kind_is_refused_as_a_version_error() {
    for (name, keys, section_names) in SHAPES {
        let fields: String = keys.iter().map(|k| format!(",\"{k}\":37")).collect();
        let listed: Vec<String> = section_names.iter().map(|s| format!("\"{s}\"")).collect();
        let header = format!(
            "{{\"schema\":\"xmap-checkpoint/v1\",\"kind\":\"{name}\"{fields},\
             \"fp\":\"{FP:#018x}\",\"sections\":[{}]}}",
            listed.join(",")
        );
        let sections: Vec<(&str, Vec<u8>)> =
            section_names.iter().map(|s| (*s, vec![1, 2, 3])).collect();
        let path = temp_path(name);
        write_sectioned(&path, &header, &sections).unwrap();
        let err = Kind { name }.open(&path, Some(FP), &[]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_v1_refused(err, name);
    }
}

/// The committed sample manifest parses; set back to the previous
/// schema, it is refused the same way, before any field is read.
#[test]
fn v1_manifest_is_refused_as_a_version_error() {
    let sample = include_str!("../../../examples/data/checkpoint_manifest_sample.json");
    Manifest::from_json(sample).expect("the committed sample parses");
    let v1 = sample.replace(SCHEMA, "xmap-checkpoint/v1");
    assert_v1_refused(Manifest::from_json(&v1).unwrap_err(), "manifest");
}
