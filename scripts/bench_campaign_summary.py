#!/usr/bin/env python3
"""Summarize the campaign_scaling bench report as JSON.

Usage: bench_campaign_summary.py BENCH_OUTPUT.txt [SUMMARY.json]

Parses the harness's flat report lines, e.g.

    campaign_scaling/fifteen_blocks_4k/4: 334166299.0 ns/iter  (0.184 Melem/s)
    campaign_scaling/skewed_giant/4: 21416299.0 ns/iter  (0.724 Melem/s)
    campaign_dedup/fx_insert/17: 49735880.0 ns/iter  (2.635 Melem/s)

into a machine-readable summary: probes/sec and wall-clock per campaign
worker count (with speedup relative to the 1-worker baseline), the
skewed one-giant-block config, the responder-dedup throughput at each
population size, and a "straggler" section computed from the deterministic virtual-slot schedule model
(a line-for-line port of `xmap_periphery::split::simulate_schedule`) —
idle-slot fraction and p95 block-completion slots for the skewed mix at
4 workers, split on vs off. The model gate (splitting cuts the idle
fraction >=2x) is asserted here, so it holds even on a single-CPU CI
host where wall-clock speedups are meaningless. Writes to SUMMARY.json
(default BENCH_campaign.json next to the input) and echoes the document
to stdout so CI logs carry the numbers. Exits nonzero if no
campaign_scaling lines are found, the 1-worker baseline is missing, or
the straggler-model gate fails. Standard library only.
"""

import json
import os
import re
import sys

SCALING = re.compile(
    r"^campaign_scaling/(?P<bench>[\w-]+)/(?P<workers>\d+):\s+"
    r"(?P<ns>[0-9.]+) ns/iter(?:\s+\((?P<melems>[0-9.]+) Melem/s\))?"
)
DEDUP = re.compile(
    r"^campaign_dedup/(?P<bench>[\w-]+)/(?P<bits>\d+):\s+"
    r"(?P<ns>[0-9.]+) ns/iter(?:\s+\((?P<melems>[0-9.]+) Melem/s\))?"
)

# The skewed straggler mix the virtual-slot model scores: fifteen blocks
# where block 2 carries 16x the weight — the same mix split.rs's
# `splitting_halves_idle_fraction_on_skewed_mix` test pins in Rust.
STRAGGLER_WEIGHTS = [1 << 12] * 15
STRAGGLER_WEIGHTS[2] = 1 << 16
STRAGGLER_WORKERS = 4


def fail(msg):
    print(f"bench_campaign_summary: {msg}", file=sys.stderr)
    sys.exit(1)


def worker_cap(cap, w, n):
    """Port of xmap::worker_cap: positions of shard w among n shards."""
    if cap <= w:
        return 0
    return -((cap - w) // -n)  # ceil-div


def simulate_schedule(weights, workers, split):
    """Port of xmap_periphery::split::simulate_schedule.

    Replays the executor's schedule on a virtual slot clock: blocks are
    seeded round-robin onto worker deques, a worker pops its own front
    then steals from the next victims' backs, one weight-unit completes
    per busy worker per slot, and — with `split` on — workers idle at a
    slot boundary split the largest in-flight remainder `k = idle + 1`
    ways using the nested-shard cap math. Returns
    (makespan, idle_slots, p95_completion), all in virtual slots.
    """
    workers = max(workers, 1)
    deques = [[] for _ in range(workers)]
    for i in range(len(weights)):
        deques[i % workers].append(i)
    running = [None] * workers  # (block, remaining) per busy worker
    open_units = [1 if w > 0 else 0 for w in weights]
    completion = [0] * len(weights)
    idle_slots = 0
    slot = 0

    while True:
        # Acquire: pop own front, then steal from the next victims' backs.
        for w in range(workers):
            if running[w] is not None:
                continue
            nxt = None
            if deques[w]:
                nxt = deques[w].pop(0)
            else:
                for d in range(1, workers):
                    victim = deques[(w + d) % workers]
                    if victim:
                        nxt = victim.pop()
                        break
            if nxt is not None and weights[nxt] > 0:
                running[w] = (nxt, weights[nxt])
        # Split: idle workers fan out the largest in-flight remainder.
        if split:
            while True:
                idle = [w for w in range(workers) if running[w] is None]
                if not idle or any(deques):
                    break
                candidates = [
                    w
                    for w in range(workers)
                    if running[w] is not None and running[w][1] >= 2
                ]
                if not candidates:
                    break
                v = max(candidates, key=lambda w: (running[w][1], -w))
                block, rest = running[v]
                k = len(idle) + 1
                running[v] = (block, worker_cap(rest, 0, k))
                assigned = False
                for i, w in enumerate(idle):
                    cap = worker_cap(rest, i + 1, k)
                    if cap > 0:
                        running[w] = (block, cap)
                        open_units[block] += 1
                        assigned = True
                if not assigned:
                    break
        # Work: one weight-unit per busy worker per slot.
        busy = sum(1 for r in running if r is not None)
        if busy == 0:
            break
        idle_slots += workers - busy
        slot += 1
        for w in range(workers):
            if running[w] is None:
                continue
            block, rest = running[w]
            rest -= 1
            if rest == 0:
                open_units[block] -= 1
                if open_units[block] == 0:
                    completion[block] = slot
                running[w] = None
            else:
                running[w] = (block, rest)

    done = sorted(c for c, w in zip(completion, weights) if w > 0)
    if done:
        idx = min(max((len(done) * 95 + 99) // 100 - 1, 0), len(done) - 1)
        p95 = done[idx]
    else:
        p95 = 0
    return slot, idle_slots, p95


def straggler_row():
    """The straggler-tail row: the skewed mix at 4 workers, split on/off."""
    rows = {}
    for label, split in [("nosplit", False), ("split", True)]:
        makespan, idle, p95 = simulate_schedule(
            STRAGGLER_WEIGHTS, STRAGGLER_WORKERS, split
        )
        total = makespan * STRAGGLER_WORKERS
        rows[label] = {
            "makespan_slots": makespan,
            "idle_slots": idle,
            "idle_fraction": round(idle / total, 6) if total else 0.0,
            "p95_completion_slots": p95,
        }
    before = rows["nosplit"]["idle_fraction"]
    after = rows["split"]["idle_fraction"]
    if after * 2.0 > before:
        fail(
            f"straggler model gate: split idle fraction {after} "
            f"not >=2x below no-split {before}"
        )
    return {
        "model": "virtual-slot schedule (periphery::split::simulate_schedule)",
        "weights": "15 blocks of 2^12 slots, block 2 at 2^16",
        "workers": STRAGGLER_WORKERS,
        "nosplit": rows["nosplit"],
        "split": rows["split"],
        "idle_reduction": round(before / after, 3) if after else None,
    }


def parse(path):
    configs, skewed, dedup = {}, {}, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = SCALING.match(line.strip())
            if m:
                bench = m.group("bench")
                workers = int(m.group("workers"))
                ns = float(m.group("ns"))
                row = {
                    "bench": bench,
                    "workers": workers,
                    "ns_per_iter": ns,
                    "wall_clock_secs": round(ns / 1e9, 6),
                    "probes_per_sec": (
                        round(float(m.group("melems")) * 1e6, 1)
                        if m.group("melems")
                        else None
                    ),
                }
                if bench.startswith("skewed_giant"):
                    skewed[bench] = row
                else:
                    configs[workers] = row
                continue
            m = DEDUP.match(line.strip())
            if m:
                dedup.append(
                    {
                        "bench": m.group("bench"),
                        "log2_responders": int(m.group("bits")),
                        "ns_per_iter": float(m.group("ns")),
                        "melems_per_sec": (
                            float(m.group("melems")) if m.group("melems") else None
                        ),
                    }
                )
    return configs, skewed, dedup


def main():
    if len(sys.argv) < 2:
        fail("usage: bench_campaign_summary.py BENCH_OUTPUT.txt [SUMMARY.json]")
    src = sys.argv[1]
    out = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(os.path.dirname(src) or ".", "BENCH_campaign.json")
    )
    configs, skewed, dedup = parse(src)
    if not configs:
        fail(f"no campaign_scaling result lines in {src}")
    if 1 not in configs:
        fail("1-worker baseline missing; cannot compute speedups")
    base_ns = configs[1]["ns_per_iter"]
    for cfg in configs.values():
        cfg["speedup_vs_1_worker"] = round(base_ns / cfg["ns_per_iter"], 3)
    doc = {
        "schema": "xmap-bench-campaign/v1",
        "cpus": os.cpu_count(),
        "configs": [configs[w] for w in sorted(configs)],
        "dedup": sorted(dedup, key=lambda d: d["log2_responders"]),
        "straggler": straggler_row(),
    }
    if skewed:
        doc["skewed"] = [skewed[k] for k in sorted(skewed)]
    if doc["cpus"] == 1:
        # Make the hardware caveat impossible to miss, in both the JSON
        # document and the CI log.
        doc["warning"] = (
            "single-CPU host: workers are time-sliced, so speedup_vs_1_worker "
            "measures scheduling overhead, not parallelism; the straggler "
            "section's virtual-slot model is the hardware-independent gate"
        )
        print(
            "bench_campaign_summary: WARNING: single-CPU host — "
            "multi-worker speedups are not meaningful",
            file=sys.stderr,
        )
    rendered = json.dumps(doc, indent=2) + "\n"
    with open(out, "w", encoding="utf-8") as f:
        f.write(rendered)
    print(rendered, end="")


if __name__ == "__main__":
    main()
