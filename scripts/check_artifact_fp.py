#!/usr/bin/env python3
"""Pin every benchmark workload's artifacts to the committed trajectory.

Usage: check_artifact_fp.py TRAJECTORY.ndjson CAPTURED SEED

CAPTURED holds the `<workload> artifact_fp 0x... fnv1a` lines that
`benchmark/run.sh --workload W --seed SEED` prints, one per workload.
Each fingerprint (FNV-1a over the workload's CSV and metrics snapshot)
must equal the one the last row of TRAJECTORY recorded for that
workload, and every workload of that row must be captured. The last row
must have been taken at SEED. Exits nonzero with one line per
difference. Standard library only.
"""

import json
import sys


def fail(lines):
    for line in lines:
        print(f"check_artifact_fp: {line}", file=sys.stderr)
    sys.exit(1)


def last_row(path):
    try:
        with open(path, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        fail([f"{path}: {e}"])
    if not rows:
        fail([f"{path}: no rows"])
    return len(rows), rows[-1]


def captured(path):
    fps = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 3 and fields[1] == "artifact_fp":
                    fps[fields[0]] = fields[2]
    except OSError as e:
        fail([f"{path}: {e}"])
    return fps


def main():
    if len(sys.argv) != 4:
        fail(["usage: check_artifact_fp.py TRAJECTORY.ndjson CAPTURED SEED"])
    number, row = last_row(sys.argv[1])
    got = captured(sys.argv[2])
    seed = int(sys.argv[3])
    if row.get("seed") != seed:
        fail([f"trajectory row {number} was taken at seed {row.get('seed')}, not {seed}"])
    expected = {w: r.get("artifact_fp") for w, r in row["workloads"].items()}
    bad = []
    for workload in sorted(set(expected) | set(got)):
        want, have = expected.get(workload), got.get(workload)
        if have is None:
            bad.append(f"{workload}: no artifact_fp line captured")
        elif want is None:
            bad.append(f"{workload}: not in trajectory row {number}")
        elif have != want:
            bad.append(f"{workload}: artifact_fp {have}, trajectory row {number} has {want}")
    if bad:
        fail(
            bad
            + [
                "if the artifacts are meant to change, run `bash benchmark/run.sh` "
                "and append its results to BENCH_trajectory.ndjson as a new row "
                "(README has the one-liner)"
            ]
        )
    print(f"check_artifact_fp: {len(expected)} workloads match trajectory row {number}")


if __name__ == "__main__":
    main()
