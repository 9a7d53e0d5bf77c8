#!/usr/bin/env python3
"""Validate an xmap-state session manifest against the v2 schema.

Usage: check_checkpoint_schema.py MANIFEST.json

Checks the structural contract `Manifest::to_json` promises (see
DESIGN.md §5d): schema/kind tags, field types and domains, and — as a
cross-language format check — recomputes the FNV-1a identity fingerprint
from the identity fields and compares it to the stored one. A manifest
whose fingerprint no longer matches its fields was edited after the
session started and must be rejected, exactly as the Rust reader does.
Exits nonzero with a diagnostic on the first violation. Standard library
only.
"""

import json
import sys

SCHEMA = "xmap-checkpoint/v2"
PERMUTATIONS = ("cyclic", "feistel", "sequential")
KNOWN_KEYS = {
    "schema", "kind", "workers", "seed", "world_seed", "shard", "shards",
    "permutation", "module", "max_targets", "rate_pps", "probes_per_target",
    "rto_ticks", "record_silent", "ranges", "blocklist_fp", "every",
    "fingerprint",
}

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
U64_MASK = (1 << 64) - 1


def fail(msg):
    print(f"schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def req_u64(doc, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= U64_MASK:
        fail(f"'{key}' = {v!r} must be a u64")
    return v


def opt_u64(doc, key):
    if doc.get(key) is None:
        return None
    return req_u64(doc, key)


def req_bool(doc, key):
    v = doc.get(key)
    if not isinstance(v, bool):
        fail(f"'{key}' = {v!r} must be a bool")
    return v


def req_str(doc, key):
    v = doc.get(key)
    if not isinstance(v, str) or not v:
        fail(f"'{key}' = {v!r} must be a non-empty string")
    return v


def req_fp(doc, key):
    """Fingerprints are serialised as `{:#018x}`: 0x + 16 hex digits."""
    v = req_str(doc, key)
    if len(v) != 18 or not v.startswith("0x"):
        fail(f"'{key}' = {v!r} must be 0x followed by 16 hex digits")
    try:
        return int(v, 16)
    except ValueError:
        fail(f"'{key}' = {v!r} is not hexadecimal")


class Fnv:
    """Mirror of xmap_state::codec::Fingerprint (FNV-1a, 64-bit)."""

    def __init__(self):
        self.h = FNV_OFFSET

    def push_bytes(self, data):
        for b in data:
            self.h = ((self.h ^ b) * FNV_PRIME) & U64_MASK
        return self

    def push_u64(self, v):
        return self.push_bytes(v.to_bytes(8, "little"))

    def push_str(self, s):
        raw = s.encode("utf-8")
        return self.push_u64(len(raw)).push_bytes(raw)

    def push_opt_u64(self, v):
        # Manifest::fingerprint encodes Option<u64> as (value-or-MAX, flag).
        self.push_u64(U64_MASK if v is None else v)
        return self.push_u64(0 if v is None else 1)


def recompute_fingerprint(m):
    f = Fnv()
    f.push_str(SCHEMA)
    f.push_u64(m["workers"]).push_u64(m["seed"]).push_u64(m["world_seed"])
    f.push_u64(m["shard"]).push_u64(m["shards"])
    f.push_str(m["permutation"]).push_str(m["module"])
    f.push_opt_u64(m["max_targets"]).push_opt_u64(m["rate_pps"])
    f.push_u64(m["probes_per_target"]).push_u64(m["rto_ticks"])
    f.push_u64(1 if m["record_silent"] else 0)
    f.push_u64(len(m["ranges"]))
    for r in m["ranges"]:
        f.push_str(r)
    f.push_u64(m["blocklist_fp"])
    return f.h


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        fail("top level must be an object")
    if doc.get("schema") != SCHEMA:
        fail(f"unexpected schema tag {doc.get('schema')!r}")
    if doc.get("kind") != "manifest":
        fail(f"unexpected kind {doc.get('kind')!r}")
    unknown = set(doc) - KNOWN_KEYS
    if unknown:
        fail(f"unknown keys {sorted(unknown)}")
    missing = KNOWN_KEYS - set(doc)
    if missing:
        fail(f"missing keys {sorted(missing)}")

    m = {
        "workers": req_u64(doc, "workers"),
        "seed": req_u64(doc, "seed"),
        "world_seed": req_u64(doc, "world_seed"),
        "shard": req_u64(doc, "shard"),
        "shards": req_u64(doc, "shards"),
        "permutation": req_str(doc, "permutation"),
        "module": req_str(doc, "module"),
        "max_targets": opt_u64(doc, "max_targets"),
        "rate_pps": opt_u64(doc, "rate_pps"),
        "probes_per_target": req_u64(doc, "probes_per_target"),
        "rto_ticks": req_u64(doc, "rto_ticks"),
        "record_silent": req_bool(doc, "record_silent"),
        "blocklist_fp": req_fp(doc, "blocklist_fp"),
    }
    req_u64(doc, "every")  # cadence: informational, not identity
    if m["workers"] < 1:
        fail("'workers' must be >= 1")
    if m["shards"] < 1:
        fail("'shards' must be >= 1")
    if m["shard"] >= m["shards"]:
        fail(f"'shard' {m['shard']} must be < 'shards' {m['shards']}")
    if m["permutation"] not in PERMUTATIONS:
        fail(f"'permutation' {m['permutation']!r} not one of {PERMUTATIONS}")
    if m["probes_per_target"] < 1:
        fail("'probes_per_target' must be >= 1")
    ranges = doc.get("ranges")
    if not isinstance(ranges, list) or not ranges:
        fail("'ranges' must be a non-empty array")
    for r in ranges:
        if not isinstance(r, str) or "/" not in r:
            fail(f"range {r!r} must be a 'prefix/len' string")
    m["ranges"] = ranges

    stored = req_fp(doc, "fingerprint")
    computed = recompute_fingerprint(m)
    if stored != computed:
        fail(
            f"stored fingerprint {stored:#018x} != recomputed {computed:#018x} "
            f"(manifest fields were edited after the session started)"
        )
    print(
        f"{path}: ok ({m['workers']} workers, {len(ranges)} ranges, "
        f"fingerprint {stored:#018x})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
