"""Diff two sets of benchmark results: ``python3 bench/run.py --compare BASE NEW``.

Each side is a result file written by ``run.py --out`` or a directory of
them.  Per workload, NEW's median of each end-to-end metric is set against
BASE's and flagged when it is worse by more than the metric's bound in
BENCHMARK.json; an op that fails only on NEW is flagged too.  Per-layer
medians from traced runs are listed without a verdict.

Every deterministic value (simulated cycles, modelled cycles and GB/s,
pass counts, the exception type of each failing op and known defect) is compared between
results of the same seed, and each difference is listed: a change that
only makes the host faster must leave all of them identical.

Exit status 1 when anything was flagged.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def medians(results: list[dict], trace: int) -> dict:
    """workload -> (run count, metric -> median over the runs)."""
    grouped: dict = {}
    for r in results:
        if r["trace"] == trace:
            grouped.setdefault(r["workload"], []).append(r)
    out = {}
    for w, runs in grouped.items():
        values = {"fail_pct": [r["fail_pct"] for r in runs]}
        for r in runs:
            for name, m in r["metrics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
        out[w] = (len(runs), {n: statistics.median(v) for n, v in values.items()})
    return out


def deterministic(results: list[dict]) -> dict:
    by_seed: dict = {}
    for r in results:
        by_seed.setdefault(r["seed"], {}).update(r["deterministic"])
    return by_seed


def main(spec: dict, base_path: str, new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    flagged = 0
    for kind in base[0]["host_probe_ms"]:
        b, n = (statistics.median(r["host_probe_ms"][kind] for r in side) for side in (base, new))
        print(f"host probe {kind}: base {b:.4g} ms, new {n:.4g} ms (host speed; timings "
              "are scaled to the reference probe time)")

    b0, n0 = medians(base, 0), medians(new, 0)
    if not set(b0) & set(n0):
        print("no workload has untraced runs on both sides; end-to-end metrics not compared")
    for w in sorted(set(b0) & set(n0)):
        (nb, bm), (nn, nm) = b0[w], n0[w]
        print(f"== {w}: end to end, median of {nb} base vs {nn} new runs")
        for m in spec["end_to_end"]:
            b, n = bm.get(m["name"]), nm.get(m["name"])
            if b is None or n is None:
                print(f"{m['name']:<24} missing")
                flagged += 1
                continue
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            flagged += verdict != "ok"
            print(f"{m['name']:<24} {b:>14.6g} {n:>14.6g} {m['unit']:<10} "
                  f"{(n - b) / b:+8.2%}  bound {m['bound']:.0%}  {verdict}")
        print(f"{'fail_pct':<24} {bm['fail_pct']:>14.6g} {nm['fail_pct']:>14.6g} %")

    # The share of failed ops moves with how many ops fit in a run, so
    # failures are compared by op: any op that fails only on NEW is flagged.
    failing = [{f["op"] for r in side for f in r["failed_ops"]} for side in (base, new)]
    print(f"failing ops: base {sorted(failing[0])}, new {sorted(failing[1])}")
    for op in sorted(failing[1] - failing[0]):
        print(f"NEW FAILURE: {op}")
        flagged += 1

    b1, n1 = medians(base, 1), medians(new, 1)
    for w in sorted(set(b1) & set(n1)):
        (nb, bm), (nn, nm) = b1[w], n1[w]
        print(f"== {w}: per layer, median of {nb} base vs {nn} new runs")
        for m in spec["per_layer"]:
            b, n = bm.get(m["name"]), nm.get(m["name"])
            change = f"{(n - b) / b:+8.2%}" if b and n is not None else ""
            print(f"{m['name']:<40} {b!s:>22} {n!s:>22} {m['unit']:<13} {change}")

    bd, nd = deterministic(base), deterministic(new)
    seeds = sorted(set(bd) & set(nd))
    changed = [(seed, key, bd[seed].get(key), nd[seed].get(key))
               for seed in seeds for key in sorted(set(bd[seed]) | set(nd[seed]))
               if bd[seed].get(key) != nd[seed].get(key)]
    print(f"== deterministic values: {len(changed)} changed over {len(seeds)} common seeds")
    for seed, key, b, n in changed:
        print(f"seed {seed}: {key}: {b} -> {n}")
    flagged += len(changed)
    if not seeds:
        print("no seed appears on both sides; deterministic values not compared")
        flagged += 1
    return 1 if flagged else 0
