#!/usr/bin/env python3
"""Compare two telemetry snapshot exports, ignoring executor counters.

Usage: cmp_metrics_no_exec.py BASELINE.json CANDIDATE.json

The campaign determinism contract (DESIGN.md §5j) says a killed,
resumed, split, or re-sharded campaign reproduces the sequential run's
scan-layer metrics exactly; only the `exec.*` counters — worker panics,
requeues, poisoned blocks, splits, split shards — are allowed to differ, because
they describe the schedule that happened to run, not the scan. This
script strips every counter whose name starts with `exec.` from both
documents and requires the remainder (counters, gauges, histograms) to
be equal, mirroring the `strip_exec` helper the Rust tests use. Exits
nonzero with a per-key diagnostic on the first difference. Standard
library only.
"""

import json
import sys


def fail(msg):
    print(f"cmp_metrics_no_exec: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing '{section}' object")
    doc["counters"] = {
        k: v for k, v in doc["counters"].items() if not k.startswith("exec.")
    }
    return doc


def diff_section(name, a, b):
    for key in sorted(set(a) | set(b)):
        if key not in a:
            fail(f"{name}[{key!r}] only in candidate (= {b[key]!r})")
        if key not in b:
            fail(f"{name}[{key!r}] only in baseline (= {a[key]!r})")
        if a[key] != b[key]:
            fail(f"{name}[{key!r}]: baseline {a[key]!r} != candidate {b[key]!r}")


def main():
    if len(sys.argv) != 3:
        fail("usage: cmp_metrics_no_exec.py BASELINE.json CANDIDATE.json")
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    for section in ("counters", "gauges", "histograms"):
        diff_section(section, base[section], cand[section])
    print(
        "cmp_metrics_no_exec: snapshots identical outside exec.* "
        f"({len(base['counters'])} counters, {len(base['gauges'])} gauges, "
        f"{len(base['histograms'])} histograms)"
    )


if __name__ == "__main__":
    main()
