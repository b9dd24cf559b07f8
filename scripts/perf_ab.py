#!/usr/bin/env python3
"""Alternating-pairs A/B of two source trees on the repository benchmark.

    python3 scripts/perf_ab.py --parent ../parent --change . \\
        --workload http_steady --seed 1 --seconds 40 --pairs 10 \\
        --out BENCH.json

Runs `python3 perfbench/run.py` from the root of each tree (each builds its
own .bench_build/), N pairs at one workload, seed and run length; the side
that runs first alternates each pair. Every result object is appended to
the --out JSON list with its provenance: side, pair, session (the
invocation's start time; pairs match within a session), tree (git sha, with
"-dirty" when tracked files differ from HEAD, or --parent-label /
--change-label for an archive copy), CPU model, and the kernel tier and CPU
steal perfbench printed.

The summary reads each metric's name, unit, `better` and `bound` from the
change tree's BENCHMARK.json (end-to-end metrics for --trace 0, per-layer
ones for --trace 1) and prints per metric: each side's median and
quartiles, the change's wins over the pairs (ties count for neither), the
median gap against the parent's interquartile range, and a verdict --
"within bound", "worse than bound", or "unresolved" when either side's
spread is wider than the bound (unless every change run beats every parent
run). Per-layer metrics have no bound and get no verdict.

    python3 scripts/perf_ab.py --summarize BENCH.json --workload W --trace 0
    python3 scripts/perf_ab.py --self-test

--summarize re-prints the table from records already in a file;
--self-test checks the parsing and the arithmetic on canned lines. The
script reads perfbench/ and BENCHMARK.json and writes neither.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


# ---- One run --------------------------------------------------------------

def parse_run(stdout: str) -> dict:
    """Result object, kernel tier, CPU and steal from perfbench's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    rec = {"result": json.loads(lines[-1]), "kernel_tier": None,
           "cpu": None, "steal_pct": None}
    for line in lines:
        if line.startswith("provenance {"):
            prov = json.loads(line[len("provenance "):])
            rec["kernel_tier"] = prov.get("kernel_tier")
            rec["cpu"] = prov.get("cpu")
        m = re.match(r"host: cpu steal ([0-9.]+)%", line)
        if m:
            rec["steal_pct"] = float(m.group(1))
    return rec


def tree_id(tree: str) -> str:
    """HEAD sha of a git checkout ("-dirty" if tracked files differ)."""
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], text=True,
                              capture_output=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or \
            os.path.realpath(top.stdout.strip()) != os.path.realpath(tree):
        return "unknown"
    sha = git("rev-parse", "HEAD").stdout.strip()
    dirty = git("diff", "--quiet", "HEAD", "--").returncode != 0
    return sha + ("-dirty" if dirty else "")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_side(tree: str, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}")
    return parse_run(proc.stdout)


def pair_order(pair: int) -> tuple[str, str]:
    """Even pairs run the parent first, odd pairs the change."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def append_records(path: str, records: list[dict]) -> None:
    """Rewrites `path` as a JSON list, one record per line."""
    old = []
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in old + records)
                + "\n]\n")


# ---- Arithmetic -----------------------------------------------------------

def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def is_better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def relative(x: float, base: float) -> float:
    if base == 0:
        return 0.0 if x == 0 else math.inf
    return x / abs(base)


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """Summary of one metric over paired runs (parent[i] vs change[i])."""
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(is_better(c, p, better) for p, c in zip(parent, change))
    gap = cq[1] - pq[1]
    p_iqr = pq[2] - pq[0]
    out = {"parent": pq, "change": cq, "wins": wins,
           "pairs": min(len(parent), len(change)), "gap": gap,
           "parent_iqr": p_iqr, "verdict": None}
    if bound is None:
        return out
    worse_by = relative(-gap if better == "higher" else gap, pq[1])
    spread = relative(max(p_iqr, cq[2] - cq[0]), pq[1])
    dominates = all(is_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        out["verdict"] = "worse than bound"
    elif spread > bound and not dominates:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def fmt(x: float) -> str:
    if x == 0 or math.isinf(x):
        return str(x)
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def summarize(records: list[dict], metrics: list[dict]) -> str:
    values = {s: {} for s in SIDES}
    for r in records:
        values[r["side"]][(r.get("session", ""), r["pair"])] = \
            r["result"]["metrics"]
    pairs = sorted(set(values["parent"]) & set(values["change"]))
    rows = [f"{len(pairs)} pairs; median [q1-q3] per side, change wins, "
            "median gap vs parent IQR"]
    for m in metrics:
        name = m["name"]
        got = [(values["parent"][i].get(name), values["change"][i].get(name))
               for i in pairs]
        got = [(p["value"], c["value"]) for p, c in got if p and c]
        if not got:
            continue
        s = compare([p for p, _ in got], [c for _, c in got], m["better"],
                    m.get("bound"))
        pq, cq = s["parent"], s["change"]
        rows.append(
            f"  {name} ({m['unit']}, {m['better']} is better): "
            f"parent {fmt(pq[1])} [{fmt(pq[0])}-{fmt(pq[2])}]  "
            f"change {fmt(cq[1])} [{fmt(cq[0])}-{fmt(cq[2])}]  "
            f"wins {s['wins']}/{s['pairs']}  "
            f"gap {fmt(s['gap'])} vs IQR {fmt(s['parent_iqr'])}"
            + (f"  -> {s['verdict']} ({m['bound']})" if s["verdict"] else ""))
    oks = [r["result"]["failed"] == 0 and r["result"]["correct"]
           for r in records]
    rows.append(f"  runs with failed == 0 and correct: {sum(oks)}/{len(oks)}")
    return "\n".join(rows)


def manifest_metrics(tree: str, trace: int) -> list[dict]:
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return manifest["per_layer" if trace else "end_to_end"]


# ---- Self-test --------------------------------------------------------------

CANNED_STDOUT = """\
provenance {"git_sha": "unknown", "cpu": "Test CPU", "nproc": 4, "kernel_tier": "avx512", "workload": "http_steady", "seed": 1, "seconds": 2, "trace": 0, "model": "n-CNV"}
engine: fps_b1 9725  fps_b16 29786  fps_b16_m3 11356
host: cpu steal 12.5% of the run (from /proc/stat)
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"fps_b1": {"value": 9724.5, "unit": "frames/s"}}}
"""


def self_test() -> int:
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    rec = parse_run(CANNED_STDOUT)
    check(rec["kernel_tier"] == "avx512", "kernel tier from provenance")
    check(rec["cpu"] == "Test CPU", "cpu from provenance")
    check(rec["steal_pct"] == 12.5, "steal from the host line")
    check(rec["result"]["metrics"]["fps_b1"]["value"] == 9724.5,
          "result object from the last line")
    check(pair_order(0) == ("parent", "change") and
          pair_order(1) == ("change", "parent"), "first side alternates")
    check(quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0),
          "quartiles of 1..5")
    check(quartiles([7.0]) == (7.0, 7.0, 7.0), "quartiles of one run")
    # Ties count for neither side; `better` flips the direction.
    s = compare([10, 10, 10], [11, 10, 9], "higher", None)
    check(s["wins"] == 1 and s["verdict"] is None, "wins, ties excluded")
    check(compare([10, 10, 10], [11, 10, 9], "lower", None)["wins"] == 1,
          "wins when lower is better")
    # Within: 4% slower, spreads under the bound.
    s = compare([100, 101, 99, 100], [96, 97, 95, 96], "higher", 0.25)
    check(s["verdict"] == "within bound", f"within bound: {s}")
    check(s["gap"] == -4 and s["parent_iqr"] == 0.5, f"gap and IQR: {s}")
    # Worse: latency up 50%.
    s = compare([2.0, 2.1, 1.9], [3.0, 3.1, 2.9], "lower", 0.25)
    check(s["verdict"] == "worse than bound", f"worse than bound: {s}")
    # Unresolved: the parent's own runs spread over 0..200.
    s = compare([0, 100, 200, 100], [90, 100, 110, 100], "higher", 0.25)
    check(s["verdict"] == "unresolved", f"unresolved: {s}")
    # A wide spread that the change beats run for run is resolved.
    s = compare([0, 100, 200], [300, 400, 500], "higher", 0.25)
    check(s["verdict"] == "within bound", f"dominating change: {s}")
    # A zero parent median: any fall is infinitely worse.
    check(compare([0, 0, 0], [0, 0, 0], "higher", 0.25)["verdict"] ==
          "within bound", "zero medians")
    # Append keeps earlier records; the summary pairs sides by index.
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bench.json")
        recs = [{"side": side, "pair": 0, "session": "s",
                 "result": {"correct": True, "failed": 0, "metrics": {
                     "fps_b1": {"value": v, "unit": "frames/s"}}}}
                for side, v in (("parent", 100.0), ("change", 120.0))]
        append_records(path, recs[:1])
        append_records(path, recs[1:])
        with open(path) as f:
            back = json.load(f)
        check(back == recs, "append keeps every record")
        table = summarize(back, [{"name": "fps_b1", "unit": "frames/s",
                                  "better": "higher", "bound": 0.25}])
        check("wins 1/1" in table and "within bound" in table,
              f"summary table:\n{table}")
    for f in failures:
        print(f"perf_ab self-test: FAIL {f}")
    print(f"perf_ab self-test: {'FAIL' if failures else 'OK'} "
          f"({len(failures)} failure(s))")
    return 1 if failures else 0


# ---- CLI ------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="root of the parent tree")
    ap.add_argument("--change", help="root of the changed tree")
    ap.add_argument("--parent-label", help="tree id for an archive copy")
    ap.add_argument("--change-label", help="tree id for an archive copy")
    ap.add_argument("--workload", choices=["http_steady", "http_overload"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="JSON list the records are appended to")
    ap.add_argument("--summarize", metavar="FILE",
                    help="print the table for records already in FILE")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.summarize:
        with open(args.summarize) as f:
            records = [r for r in json.load(f)
                       if r["workload"] == args.workload and
                       r["trace"] == args.trace and
                       (args.seconds is None or r["seconds"] == args.seconds)]
        print(summarize(records, manifest_metrics(ROOT, args.trace)))
        return 0
    missing = [o for o in ("parent", "change", "workload", "seconds", "out")
               if getattr(args, o) is None]
    if missing:
        ap.error("missing --" + ", --".join(missing))

    trees = {"parent": args.parent, "change": args.change}
    ids = {"parent": args.parent_label or tree_id(args.parent),
           "change": args.change_label or tree_id(args.change)}
    host_cpu = cpu_model()
    session = time.strftime("%Y-%m-%dT%H:%M:%S")
    records = []
    for pair in range(args.pairs):
        for side in pair_order(pair):
            rec = run_side(trees[side], args)
            rec.update(side=side, pair=pair, session=session, tree=ids[side],
                       cpu=rec["cpu"] or host_cpu, workload=args.workload,
                       seed=args.seed, seconds=args.seconds, trace=args.trace)
            append_records(args.out, [rec])
            records.append(rec)
            res = rec["result"]
            print(f"pair {pair} {side}: correct {res['correct']} failed "
                  f"{res['failed']} steal {rec['steal_pct']}% tier "
                  f"{rec['kernel_tier']}", flush=True)
    print(summarize(records, manifest_metrics(args.change, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
