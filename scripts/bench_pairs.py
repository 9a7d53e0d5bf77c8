#!/usr/bin/env python3
"""Alternating-pairs comparison of two benchmark builds.

Usage:
  bench_pairs.py PARENT_BIN CHANGE_BIN --workload W [--pairs N]
                 [--seconds S] [--seed K] [--trace 0|1]
  bench_pairs.py --self-test

PARENT_BIN and CHANGE_BIN are two built `xmap-benchmark` binaries (the
`benchmark/target/release/xmap-benchmark` of two checkouts). Each pair
runs both on the same workload and seed, alternating which side goes
first. Every run's metrics are printed as it finishes; then, per metric
of BENCHMARK.json's `end_to_end` list (and, under `--trace 1`, its
`per_layer` rows) that both sides report, the two medians, the
quartiles, the change's wins out of N pairs, and whether the gain rule
holds: the change is better in at least 9 of every 10 pairs run, and
its median beats the parent's by more than the parent's inter-quartile
distance. A pair with a bad run (not `correct`, failed ops, no `failed`
field or no result line) is left out of the medians and counts as a
loss, and no gain-rule verdict is printed for a metric that some pair
lacks. Exits 1 if any run was bad. Standard library only.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def polarity():
    """Metric name -> True if higher is better, in BENCHMARK.json order:
    the end-to-end metrics, then the per-layer rows a `--trace 1` run
    reports."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["end_to_end"] + spec.get("per_layer", [])
    return {m["name"]: m["better"] == "higher" for m in rows}


def parse_result(stdout):
    """The run's result object: the last stdout line that parses as JSON."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def run_once(binary, args):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    result = parse_result(done.stdout)
    if result is None:
        tail = done.stderr.strip().splitlines()[-1:]
        print(f"{binary}: exit {done.returncode} {' '.join(tail)}", file=sys.stderr)
    elif done.returncode != 0:
        result["correct"] = False
    return result


def problems(result):
    """Why a run does not count, or an empty list."""
    if result is None:
        return ["no result line"]
    out = []
    if result.get("correct") is not True:
        out.append("not correct")
    if "failed" not in result:
        out.append("no failed field")
    elif result["failed"] != 0:
        out.append(f"{result['failed']} failed ops")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, higher_better, ran=None):
    """One summary line per metric of `higher_better` that both sides report.

    `pairs` is a list of (parent_result, change_result) of the good pairs;
    `ran` is how many pairs were run (default: all of them good). Wins are
    counted out of `ran`, so a bad pair is a loss, and the gain-rule
    verdict is withheld for a metric not reported by every pair run.
    """
    ran = len(pairs) if ran is None else ran
    lines = []
    for name, higher in higher_better.items():
        rows = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not rows:
            continue
        parent = [p for p, _ in rows]
        change = [c for _, c in rows]
        wins = sum(1 for p, c in rows if (c > p if higher else c < p))
        pm, cm = statistics.median(parent), statistics.median(change)
        pq1, pq3 = quartiles(parent)
        cq1, cq3 = quartiles(change)
        gain = (cm - pm) if higher else (pm - cm)
        if len(rows) < ran:
            verdict = f"no gain-rule verdict ({ran - len(rows)} of {ran} pairs lack it)"
        elif wins * 10 >= 9 * ran and gain > pq3 - pq1:
            verdict = "gain rule holds"
        else:
            verdict = "gain rule does not hold"
        ratio = cm / pm if pm else float("nan")
        lines.append(
            f"{name}: parent {pm:.6g} [{pq1:.6g}-{pq3:.6g}] -> "
            f"change {cm:.6g} [{cq1:.6g}-{cq3:.6g}] x{ratio:.3f}, "
            f"change better {wins}/{ran}, {verdict}"
        )
    return lines


def metrics_line(side, i, result):
    values = " ".join(
        f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()
    )
    return f"pair {i + 1} {side}: {values}"


def run_pairs(args):
    higher_better = polarity()
    pairs = []
    bad = []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        got = {}
        for side, binary in order:
            result = run_once(binary, args)
            got[side] = result
            issues = problems(result)
            if issues:
                bad.append(f"pair {i + 1} {side}: {', '.join(issues)}")
                print(f"pair {i + 1} {side}: {', '.join(issues)}", flush=True)
            else:
                print(metrics_line(side, i, result), flush=True)
        if not problems(got["parent"]) and not problems(got["change"]):
            pairs.append((got["parent"], got["change"]))
    print(f"{args.workload}, seed {args.seed}, {args.seconds} s runs:")
    for line in summarize(pairs, higher_better, args.pairs):
        print(f"  {line}")
    for line in bad:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if bad else 0


def canned(values, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
    })


FAKE = """#!{python}
import sys
with open({log!r}, "a") as f:
    f.write({side!r} + "\\n")
with open({log!r}) as f:
    n = sum(1 for line in f if line.strip() == {side!r})
print("fake recall 1 fraction")
print({line!r} if n != {bad_run} else {bad!r})
"""


def fake_binary(tmp, side, value, bad_run=0):
    """A stand-in for an `xmap-benchmark` binary: logs its side, then
    prints a canned result line, an incorrect one on its `bad_run`-th run."""
    path = os.path.join(tmp, side)
    with open(path, "w", encoding="utf-8") as f:
        f.write(FAKE.format(
            python=sys.executable,
            log=os.path.join(tmp, "log"),
            side=side,
            bad_run=bad_run,
            line=canned({"norm_probes_per_s": value}),
            bad=canned({"norm_probes_per_s": value}, correct=False),
        ))
    os.chmod(path, 0o755)
    return path


def run_fakes(change_bad_run, pairs):
    """`run_pairs` over two fake binaries: (exit code, stdout, run order)."""
    with tempfile.TemporaryDirectory() as tmp:
        args = argparse.Namespace(
            parent=fake_binary(tmp, "parent", 16.0),
            change=fake_binary(tmp, "change", 17.5, change_bad_run),
            workload="campaign_skewed", pairs=pairs, seconds=1, seed=7, trace=0,
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_pairs(args)
        with open(os.path.join(tmp, "log"), encoding="utf-8") as f:
            order = f.read().split()
    return code, out.getvalue(), order


def self_test():
    higher = {"norm_probes_per_s": True, "peak_rss_mb": False}
    stdout = "scan_lossless recall 1 fraction\n" + canned(
        {"norm_probes_per_s": 2.0, "peak_rss_mb": 5.0}
    ) + "\n"
    r = parse_result(stdout)
    assert r["metrics"]["norm_probes_per_s"]["value"] == 2.0
    assert problems(r) == []
    assert parse_result("no json here\n") is None
    assert problems(None) == ["no result line"]
    assert problems(json.loads(canned({}, correct=False))) == ["not correct"]
    assert problems(json.loads(canned({}, failed=2))) == ["2 failed ops"]
    no_failed = json.loads(canned({}))
    del no_failed["failed"]
    assert problems(no_failed) == ["no failed field"]

    # The repo's BENCHMARK.json gives each metric its direction.
    spec = polarity()
    assert spec["norm_probes_per_s"] is True and spec["recall"] is True
    assert spec["peak_rss_mb"] is False and spec["setup_s"] is False
    assert spec["core.scanner.ns_per_probe"] is False

    def pair(p, c, rp=6.0, rc=6.0):
        return (
            json.loads(canned({"norm_probes_per_s": p, "peak_rss_mb": rp})),
            json.loads(canned({"norm_probes_per_s": c, "peak_rss_mb": rc})),
        )

    # Ten pairs, change ahead in all: the rule holds for the rate; the
    # memory metric never differs, so it does not.
    clear = [pair(16.0 + 0.1 * (i % 3), 17.5 + 0.1 * (i % 2)) for i in range(10)]
    lines = summarize(clear, higher)
    assert "change better 10/10" in lines[0] and "rule holds" in lines[0], lines
    assert "change better 0/10" in lines[1] and "does not hold" in lines[1], lines
    # Nine of ten is enough; eight is not.
    nine = clear[:9] + [pair(17.0, 16.0)]
    assert "rule holds" in summarize(nine, higher)[0]
    eight = clear[:8] + [pair(17.0, 16.0), pair(17.0, 16.0)]
    assert "does not hold" in summarize(eight, higher)[0]
    # Ahead in every pair, but by less than the parent's spread.
    spread = [pair(10.0 + i, 10.5 + i) for i in range(10)]
    line = summarize(spread, higher)[0]
    assert "change better 10/10" in line and "does not hold" in line, line
    # Lower-is-better: a smaller footprint is a win.
    smaller = [pair(16.0, 16.0, rp=6.8 + 0.01 * i, rc=5.9) for i in range(10)]
    line = summarize(smaller, higher)[1]
    assert "change better 10/10" in line and "rule holds" in line, line
    # A bad pair is a loss and withholds the verdict: nine clear wins of
    # ten pairs run is not a pass when the tenth pair failed.
    line = summarize(clear[:9], higher, 10)[0]
    assert "change better 9/10" in line and "no gain-rule verdict" in line, line

    # End to end through fake binaries: sides alternate which goes first,
    # every run's metrics are printed, and a bad run means exit 1.
    code, out, order = run_fakes(change_bad_run=0, pairs=4)
    assert code == 0, out
    assert order == ["parent", "change", "change", "parent"] * 2, order
    assert out.count("norm_probes_per_s=") == 8, out
    assert "change better 4/4" in out, out
    code, out, _ = run_fakes(change_bad_run=2, pairs=4)
    assert code == 1, out
    assert "pair 2 change: not correct" in out, out
    assert "change better 3/4" in out and "no gain-rule verdict" in out, out
    assert "rule holds" not in out, out
    print("bench_pairs self-test: ok")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent's xmap-benchmark binary")
    ap.add_argument("change", help="the change's xmap-benchmark binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=13)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
