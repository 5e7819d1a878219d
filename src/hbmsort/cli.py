"""Command-line harness: dataset generation, sorting, analytic reports.

Subcommands
-----------
gen       write a benchmark dataset (by default shuffled permutation keys 1..N)
sort      run the two-phase pipeline over a dataset, or model a run dry;
          ``--mode cycles`` adds the dry-run model's timing to a real run
model     print the modelled timing of one sort (the block ``sort --dry-run``
          writes) beside the reference figures, with the resources,
          floorplan and bursts of the plan's trees
sweep     model a range of data sizes and tabulate pass counts/throughput
validate  check that a dataset is the sorted permutation 1..N

Reports are deterministic JSON (schema_version 1, fixed key order).

Exit status
-----------
0  ok
1  validation failed
2  usage or config error
3  data, capacity or write error
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import analytics, dataset, engine, mergenet
from .analytics import buffer_luts, floorplan_solve, resource_tree
from .config import AppConfig, ConfigError, load_config
from .engine import build_timing, plan_sort, verify_permutation
from .hbm import CapacityError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class _UsageError(Exception):
    """Bad or conflicting command-line arguments; :func:`main` exits with ``EXIT_USAGE``."""


def _write(save, data, path: str):
    """``save(data, path)``: every file the CLI writes goes through here."""
    try:
        save(data, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _save_json(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _write_report(report: dict, path: str | None):
    if path:
        _write(_save_json, report, path)


def _timing_dict(t: engine.RunTiming) -> dict:
    def phase(p: engine.PhaseTiming) -> dict:
        return {
            "cycles": p.cycles,
            "seconds": p.seconds,
            "gbytes_per_s": round(p.gbytes_per_s, 4),
            "root_rate": round(p.root_rate, 4),
            "passes": [{"index": k, **asdict(x)} for k, x in enumerate(p.passes)],
        }

    return {
        "phase1": phase(t.phase1),
        "phase2": phase(t.phase2),
        "overall_gbytes_per_s": round(t.overall_gbytes_per_s, 4),
        "hbm_traffic_gbytes_per_s": round(t.hbm_traffic_gbytes_per_s, 4),
        "timing_model": "trace",
    }


def _plan_dict(plan: engine.SortPlan) -> dict:
    return {
        "phase1_passes": plan.phase1_passes,
        "untuned_passes": plan.phase1_passes - 1,
        "run_length_after": [row.out_run for row in plan.passes[:-2]],
        "tuned_feed_quantum": plan.subrun_records // plan.passes[0].tree.leaves,
        "channel_records": plan.channel_records,
        "subrun_records": plan.subrun_records,
        "padded_records": plan.padded_records,
        "phase2_feeds": plan.passes[-1].tree.leaves,
    }


def _reference_dict(ref) -> dict:
    overall = analytics.perf_overall(ref.phase1_gbps, ref.phase2_gbps)
    return {
        "phase1_gbps": ref.phase1_gbps,
        "phase2_gbps": ref.phase2_gbps,
        "overall_gbps": round(overall, 4),
        "hbm_traffic_gbps": analytics.bandwidth_utilization(
            ref.phase1_gbps, ref.phase1_passes
        ),
    }


# ----------------------------------------------------------------------

def cmd_gen(args) -> int:
    try:
        spec = dataset.DatasetSpec(args.records, args.distribution, args.seed)
    except ValueError as exc:
        raise _UsageError(exc) from None
    _write(dataset.save, dataset.generate(spec), args.out)
    print(f"wrote {args.records} records ({args.records * mergenet.RECORD_BYTES} bytes) "
          f"to {args.out}")
    return EXIT_OK


def cmd_sort(args) -> int:
    if args.threads < 1:
        raise _UsageError(f"--threads must be at least 1, got {args.threads}")
    if args.records is not None and args.records < 1:
        raise _UsageError(f"--records must be at least 1, got {args.records}")
    if args.dry_run and args.mode == "functional":
        raise _UsageError("--dry-run models timing only; it cannot run --mode functional")
    if args.dry_run and (args.input, args.out) != (None, None):
        flag = "--out" if args.input is None else f"the input {args.input}"
        raise _UsageError(f"--dry-run touches no data; it cannot take {flag}")
    app = load_config(args.config)
    if args.dry_run:
        if args.records is None and "records" not in app.sort_overrides:
            raise _UsageError("--dry-run needs --records or [sort] records")
        cfg = app.sort_config(args.records)
        plan = plan_sort(cfg, app.topo)
        mode, observed = "cycles", {}
        validation = {"passed": True, "message": "dry run, no data"}
    else:
        if args.input is None:
            raise _UsageError("input dataset required unless --dry-run")
        data = dataset.load(args.input)
        if args.records not in (None, len(data)):
            raise _UsageError(f"--records {args.records} does not match the {len(data)} "
                              f"records in {args.input}")
        cfg = app.sort_config(len(data))
        result = engine.sort_records(np.asarray(data), cfg, args.threads, app.topo)
        plan = result.plan
        mode = args.mode or "functional"
        observed = {"observed_passes": plan.phase1_passes}
        message = _check_output(result.output, data, args.threads)
        validation = {"passed": message == "ok", "message": message}
        if args.out:
            _write(dataset.save, result.output, args.out)
    timing = build_timing(cfg, plan, app.topo, app.profile) if mode == "cycles" else None

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "sort",
        "mode": mode,
        "dry_run": args.dry_run,
        "config": asdict(cfg),
        "plan": _plan_dict(plan),
        **observed,
        "timing": _timing_dict(timing) if timing else None,
        "reference": _reference_dict(app.reference),
        "validation": validation,
    }
    _write_report(report, args.report)
    _print_sort_summary(report)
    return EXIT_OK if validation["passed"] else EXIT_VALIDATION


def _check_output(out: np.ndarray, data: np.ndarray, threads: int) -> str:
    """"ok" when ``out`` is ``data`` sorted by key, else what is wrong.

    Exact, with no hashing and no sampling.  Each record is packed into
    64 bits key-major, the key in the high word.  Once ``out``'s keys are
    found non-decreasing, the input is packed and sorted in two halves: an
    in-place partition at its own median puts every smaller packing below
    the middle and every larger one above, and a pool of
    ``engine._workers(threads, 2)`` threads sorts the two halves in place.
    When the sorter's keys are unique, or the payloads of equal keys
    ascend, ``out``'s packing is that sorted input.  It is packed one
    ``engine.RANGE_RECORDS`` slice at a time into one reused buffer, and
    compared with the matching slice, so the scratch is the packed input
    plus one slice.  From the first unequal slice on, the whole output is
    packed and sorted the same way and compared, so the check is exact for
    any output.
    """
    def packed(x):
        return mergenet.composite_keys(x[:, 0], x[:, 1], np.empty(len(x), dtype=np.uint64))

    def sort_halves(x):
        half = len(x) // 2
        x.partition(half)
        with ThreadPoolExecutor(engine._workers(threads, 2)) as pool:
            list(pool.map(np.ndarray.sort, (x[:half], x[half:])))

    keys = out[:, 0]
    if not np.all(keys[1:] >= keys[:-1]):
        return "output not sorted"
    b = packed(data)
    sort_halves(b)
    if len(out) == len(b):
        step = engine.RANGE_RECORDS
        buffer = np.empty(min(step, len(out)), dtype=np.uint64)
        for s in range(0, len(out), step):
            piece = out[s : s + step]
            a = mergenet.composite_keys(piece[:, 0], piece[:, 1], buffer[: len(piece)])
            if not np.array_equal(a, b[s : s + step]):
                break
        else:
            return "ok"
    a = packed(out)
    sort_halves(a)
    return "ok" if np.array_equal(a, b) else "record multiset changed"


def _print_sort_summary(report: dict):
    plan = report["plan"]
    print(f"records:        {report['config']['records']}")
    print(f"phase-1 passes: {plan['phase1_passes']}")
    if report["timing"]:
        _print_timing(report["timing"])
    print(f"validation:     {report['validation']['message']}")


def _print_timing(timing: dict):
    """The lines of a report's ``timing`` block, for ``sort`` and ``model``."""
    p1, p2 = timing["phase1"], timing["phase2"]
    print(f"phase 1:        {p1['cycles']} cycles, {p1['gbytes_per_s']} GB/s")
    print(f"phase 2:        {p2['cycles']} cycles, {p2['gbytes_per_s']} GB/s")
    print(f"overall:        {timing['overall_gbytes_per_s']} GB/s modeled")
    print(f"HBM traffic:    {timing['hbm_traffic_gbytes_per_s']} GB/s sustained in phase 1")


def cmd_model(args) -> int:
    app = load_config(args.config)
    ref = app.reference
    n = app.sort_overrides.get("records", 1 << 29)
    cfg = app.sort_config(n)
    plan = plan_sort(cfg, app.topo)
    timing = _timing_dict(build_timing(cfg, plan, app.topo, app.profile))

    first, final = plan.passes[0], plan.passes[-1]  # the bursts and trees the timing costs
    burst1, burst2 = first.burst, final.burst
    tree1 = resource_tree(first.tree, app.resource, burst1)
    tree_reused = resource_tree(first.tree, app.resource, burst2)
    extra_comparators = final.tree.comparator_total() - cfg.reuse * tree1.comparators
    plan_sol = floorplan_solve(app.floorplan, tree1.luts, cfg.parallel_trees)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "model",
        "records": n,
        "reference": _reference_dict(ref),
        "phase1_planned_gbps": timing["phase1"]["gbytes_per_s"],
        "timing": timing,
        "resources": {
            "tree_phase1_only": tree1._asdict(),
            "tree_reused": tree_reused._asdict(),
            "extra_units_comparators": extra_comparators,
        },
        "floorplan": {
            "die1_trees": plan_sol.die1_trees,
            "die2_trees": plan_sol.die2_trees,
            "objective": plan_sol.objective,
        },
        "bursts": {
            "phase1_bytes": burst1,
            "phase2_bytes": burst2,
            "phase1_buffer_luts": buffer_luts(burst1),
            "phase2_buffer_luts": buffer_luts(burst2),
        },
    }
    _write_report(report, args.report)
    print(f"reference composition: {ref.phase1_gbps} + {ref.phase2_gbps} GB/s -> "
          f"{report['reference']['overall_gbps']} GB/s overall, "
          f"{report['reference']['hbm_traffic_gbps']} GB/s HBM traffic")
    _print_timing(timing)
    print(f"floorplan: {plan_sol.die1_trees} trees on die 1, {plan_sol.die2_trees} on die 2")
    print(f"burst sizes: phase 1 {burst1} B, phase 2 {burst2} B")
    print(f"tree LUT estimate: {tree1.luts} (phase-1 burst)")
    return EXIT_OK


_SIZE_SUFFIX = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _parse_sizes(text: str) -> list[int]:
    """Comma-separated byte sizes, each a number with an optional K, M or
    G suffix that comes to a positive multiple of the record size."""
    sizes = []
    for item in text.split(","):
        t = item.strip().upper()
        scale = _SIZE_SUFFIX.get(t[-1:])
        try:
            size = Fraction(Decimal(t[:-1] if scale else t)) * (scale or 1)
        except (ArithmeticError, ValueError):  # not a number, or infinite
            size = 0
        if size <= 0 or size % mergenet.RECORD_BYTES:
            raise argparse.ArgumentTypeError(f"bad size {item!r} in {text!r}: not a positive "
                                             f"multiple of {mergenet.RECORD_BYTES} bytes")
        sizes.append(int(size))
    return sizes


def cmd_sweep(args) -> int:
    app = load_config(args.config)
    sizes = args.sizes or [32 * (1 << 20) * (1 << i) for i in range(8)]  # 32 MB .. 4 GB
    rows, samples = [], {}  # every size shares the pass timings of one config
    for size in sizes:
        records = size // mergenet.RECORD_BYTES
        cfg = app.sort_config(records)
        try:
            plan = plan_sort(cfg, app.topo)
            timing = build_timing(cfg, plan, app.topo, app.profile, samples)
        except CapacityError as exc:
            raise CapacityError(f"{size} B: {exc}") from None
        rows.append({
            "bytes": size,
            "records": records,
            "phase1_passes": plan.phase1_passes,
            "phase1_gbps": round(timing.phase1.gbytes_per_s, 4),
            "phase2_gbps": round(timing.phase2.gbytes_per_s, 4),
            "overall_gbps": round(timing.overall_gbytes_per_s, 4),
        })
    report = {"schema_version": SCHEMA_VERSION, "command": "sweep", "rows": rows}
    _write_report(report, args.report)
    print(f"{'bytes':>14} {'records':>12} {'passes':>6} {'phase1':>8} {'phase2':>8} {'overall':>8}")
    for r in rows:
        print(f"{r['bytes']:>14} {r['records']:>12} {r['phase1_passes']:>6} "
              f"{r['phase1_gbps']:>8} {r['phase2_gbps']:>8} {r['overall_gbps']:>8}")
    return EXIT_OK


def cmd_validate(args) -> int:
    data = dataset.load(args.input)
    result = verify_permutation(np.asarray(data), len(data))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "records": len(data),
        "validation": {
            "passed": result.passed,
            "first_violation": result.first_violation,
            "message": result.message,
        },
    }
    _write_report(report, args.report)
    print(f"{args.input}: {result.message}")
    return EXIT_OK if result.passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbmsort",
        description="Two-phase merge-tree sorting model for multi-channel HBM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark dataset")
    p.add_argument("out", help="output path (raw 8-byte records)")
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distribution", choices=dataset.DISTRIBUTIONS, default="permutation")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sort", help="sort a dataset or model a run dry")
    p.add_argument("input", nargs="?", help="input dataset path")
    p.add_argument("--out", help="write the sorted dataset here")
    p.add_argument("--config", help="config file path")
    p.add_argument("--mode", choices=("functional", "cycles"),
                   help="functional (default) or cycles; --dry-run runs cycles only")
    p.add_argument("--dry-run", action="store_true",
                   help="model timing from the plan only; no data is touched")
    p.add_argument("--records", type=int, help="record count for --dry-run")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="threads of each sort phase (at least 1); more than the CPU count run as the CPU count")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("model", help="modelled timing, resource and floorplan report")
    p.add_argument("--config", help="config file path")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("sweep", help="model a range of data sizes")
    p.add_argument("--config", help="config file path")
    p.add_argument("--sizes", type=_parse_sizes,
                   help="comma-separated byte sizes, e.g. 32M,64M,1G")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a sorted permutation dataset")
    p.add_argument("input")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place that prints an error and picks the
    exit status (table in the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, dataset.DatasetFormatError, CapacityError, engine.IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
