"""Command-line harness: dataset generation, sorting, analytic reports.

Subcommands
-----------
gen       write a benchmark dataset (shuffled permutation keys 1..N)
sort      run the two-phase pipeline over a dataset, or model a run dry
model     print the analytic report: performance equations, resources,
          floorplan and burst selection
sweep     model a range of data sizes and tabulate pass counts/throughput
validate  check that a dataset is the sorted permutation 1..N

Reports are deterministic JSON (schema_version 1, fixed key order); exit
status is 0 only when validation passed and no errors occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analytics, dataset, engine
from .analytics import PerfModelInput, floorplan_solve, resource_tree, select_burst_sizes
from .config import AppConfig, ConfigError, load_config
from .engine import CycleModel, SortConfig, build_timing, plan_sort, verify_permutation
from .hbm import CapacityError
from .mergetree import build_tree, compose_wide_tree

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _write_report(report: dict, path: str | None):
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _timing_dict(t: engine.RunTiming) -> dict:
    def phase(p: engine.PhaseTiming) -> dict:
        return {
            "cycles": p.cycles,
            "seconds": p.seconds,
            "gbytes_per_s": round(p.gbytes_per_s, 4),
            "root_rate": round(p.root_rate, 4),
            "passes": [
                {
                    "index": x.index,
                    "kind": x.kind,
                    "out_run": x.out_run,
                    "groups": x.groups,
                    "compute_cycles": x.compute_cycles,
                    "memory_cycles": x.memory_cycles,
                    "cycles": x.cycles,
                }
                for x in p.passes
            ],
        }

    return {
        "phase1": phase(t.phase1),
        "phase2": phase(t.phase2),
        "overall_gbytes_per_s": round(t.overall_gbytes_per_s, 4),
        "hbm_traffic_gbytes_per_s": round(t.hbm_traffic_gbytes_per_s, 4),
        "timing_model": "trace",
    }


def _config_dict(cfg: SortConfig) -> dict:
    return {
        "records": cfg.records,
        "parallel_trees": cfg.parallel_trees,
        "phase1_leaves": cfg.phase1_leaves,
        "phase1_rate": cfg.phase1_rate,
        "phase2_leaves": cfg.phase2_leaves,
        "phase2_rate": cfg.phase2_rate,
        "batch_bytes": cfg.batch_bytes,
        "phase1_burst": cfg.phase1_burst,
        "phase2_burst": cfg.phase2_burst,
        "clock_hz": cfg.clock_hz,
    }


def _plan_dict(plan: engine.SortPlan) -> dict:
    return {
        "phase1_passes": plan.phase1_passes,
        "untuned_passes": plan.untuned_passes,
        "run_length_after": list(plan.run_length_after),
        "tuned_feed_quantum": plan.tuned_feed_quantum,
        "channel_records": plan.channel_records,
        "subrun_records": plan.subrun_records,
        "padded_records": plan.padded_records,
        "phase2_feeds": plan.phase2_feeds,
        "batch_records": plan.batch_records,
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
    spec = dataset.DatasetSpec(args.records, args.distribution, args.seed)
    data = dataset.generate(spec)
    try:
        dataset.save(data, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {args.records} records ({args.records * 8} bytes) to {args.out}")
    return EXIT_OK


def cmd_sort(args) -> int:
    app = load_config(args.config)
    if args.dry_run:
        if args.records is None and "records" not in app.sort_overrides:
            print("error: --dry-run needs --records or [sort] records", file=sys.stderr)
            return EXIT_USAGE
        cfg = app.sort_config(args.records)
        plan = plan_sort(cfg, app.topo)
        timing = build_timing(cfg, plan, app.topo, app.profile)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "sort",
            "mode": "cycles",
            "dry_run": True,
            "config": _config_dict(cfg),
            "plan": _plan_dict(plan),
            "timing": _timing_dict(timing),
            "reference": _reference_dict(app.reference),
            "validation": {"passed": True, "message": "dry run, no data"},
        }
        _write_report(report, args.report)
        _print_sort_summary(report)
        return EXIT_OK

    if args.input is None:
        print("error: input dataset required unless --dry-run", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = dataset.load(args.input, mmap=True)
    except (OSError, dataset.DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    cfg = app.sort_config(args.records if args.records else len(data))
    try:
        result = engine.sort_records(
            np.asarray(data), cfg, mode=args.mode, threads=args.threads,
            topo=app.topo, profile=app.profile,
        )
    except (CapacityError, engine.IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    out = result.output
    sorted_ok = bool(np.all(np.diff(out[:, 0].astype(np.int64)) >= 0))
    multiset_ok = _same_records(out, data)
    passed = sorted_ok and multiset_ok
    message = "ok" if passed else ("output not sorted" if not sorted_ok else "record multiset changed")
    if args.out:
        dataset.save(out, args.out)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "sort",
        "mode": args.mode,
        "dry_run": False,
        "config": _config_dict(cfg),
        "plan": _plan_dict(result.plan),
        "observed_passes": result.plan.phase1_passes,
        "timing": _timing_dict(result.timing) if result.timing else None,
        "reference": _reference_dict(app.reference),
        "validation": {"passed": passed, "message": message},
    }
    _write_report(report, args.report)
    _print_sort_summary(report)
    return EXIT_OK if passed else EXIT_VALIDATION


def _same_records(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b hold the same multiset of whole 8-byte records."""
    def packed(x):
        return np.sort(np.ascontiguousarray(x, dtype=np.uint32).view(np.uint64).ravel())

    return bool(np.array_equal(packed(a), packed(b)))


def _print_sort_summary(report: dict):
    plan = report["plan"]
    print(f"records:        {report['config']['records']}")
    print(f"phase-1 passes: {plan['phase1_passes']}")
    timing = report.get("timing")
    if timing:
        p1, p2 = timing["phase1"], timing["phase2"]
        print(f"phase 1:        {p1['cycles']} cycles, {p1['gbytes_per_s']} GB/s")
        print(f"phase 2:        {p2['cycles']} cycles, {p2['gbytes_per_s']} GB/s")
        print(f"overall:        {timing['overall_gbytes_per_s']} GB/s modeled")
        print(f"HBM traffic:    {timing['hbm_traffic_gbytes_per_s']} GB/s sustained in phase 1")
    print(f"validation:     {report['validation']['message']}")


def cmd_model(args) -> int:
    app = load_config(args.config)
    ref = app.reference
    n = app.sort_overrides.get("records", 1 << 29)

    single = PerfModelInput(
        records=n, leaves=ref.single_tree_leaves,
        memory_bandwidth=ref.phase2_gbps * 1e9,
        channel_bandwidth=app.topo.channel_bandwidth,
    )
    single_gbps = analytics.perf_single_tree(single) / 1e9
    single_passes = analytics.ceil_log(ref.single_tree_leaves, n)

    cfg = app.sort_config(n)
    plan = plan_sort(cfg, app.topo)
    phase1_inp = PerfModelInput(
        records=n, leaves=cfg.phase1_leaves,
        memory_bandwidth=app.topo.channel_bandwidth,
        channel_bandwidth=app.topo.channel_bandwidth,
        parallel_trees=cfg.parallel_trees, clock_hz=cfg.clock_hz,
    )
    eq_phase1 = analytics.perf_phase1(phase1_inp) / 1e9
    planned_phase1 = analytics.perf_phase1_planned(phase1_inp, plan.phase1_passes) / 1e9

    tree1 = resource_tree(cfg.phase1_rate, cfg.phase1_leaves, app.resource,
                          burst_bytes=cfg.phase1_burst)
    tree_reused = resource_tree(cfg.phase1_rate, cfg.phase1_leaves, app.resource,
                                burst_bytes=cfg.phase2_burst)
    wide = compose_wide_tree([build_tree(cfg.phase1_rate, cfg.phase1_leaves)] * 4)
    recurrence = {
        str(p): analytics.comparator_recurrence(p, app.resource)
        for p in (2, 4, 8, 16, 32)
    }
    plan_sol = floorplan_solve(app.floorplan)
    bursts = select_burst_sizes(app.profile)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "model",
        "records": n,
        "reference": _reference_dict(ref),
        "phase1_model_gbps": round(eq_phase1, 4),
        "phase1_planned_gbps": round(planned_phase1, 4),
        "single_wide_tree": {
            "leaves": ref.single_tree_leaves,
            "passes": single_passes,
            "gbytes_per_s": round(single_gbps, 4),
        },
        "resources": {
            "tree_phase1_only": tree1._asdict(),
            "tree_reused": tree_reused._asdict(),
            "extra_units_comparators": wide.extra_unit_comparators(),
            "comparator_recurrence": recurrence,
        },
        "floorplan": {
            "die1_trees": plan_sol.die1_trees,
            "die2_trees": plan_sol.die2_trees,
            "objective": plan_sol.objective,
        },
        "bursts": {
            "phase1_bytes": bursts.phase1.burst_bytes,
            "phase2_bytes": bursts.phase2.burst_bytes,
            "phase1_buffer_luts": bursts.phase1.buffer_luts,
            "phase2_buffer_luts": bursts.phase2.buffer_luts,
        },
    }
    _write_report(report, args.report)
    print(f"reference composition: {ref.phase1_gbps} + {ref.phase2_gbps} GB/s -> "
          f"{report['reference']['overall_gbps']} GB/s overall, "
          f"{report['reference']['hbm_traffic_gbps']} GB/s HBM traffic")
    print(f"single {ref.single_tree_leaves}-leaf tree: {single_passes} passes, "
          f"{report['single_wide_tree']['gbytes_per_s']} GB/s")
    print(f"floorplan: {plan_sol.die1_trees} trees on die 1, {plan_sol.die2_trees} on die 2")
    print(f"burst sizes: phase 1 {bursts.phase1.burst_bytes} B, phase 2 {bursts.phase2.burst_bytes} B")
    print(f"tree LUT estimate: {tree1.luts} (phase-1 burst)")
    return EXIT_OK


_SIZE_SUFFIX = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    if text[-1] in _SIZE_SUFFIX:
        return int(float(text[:-1]) * _SIZE_SUFFIX[text[-1]])
    return int(text)


def cmd_sweep(args) -> int:
    app = load_config(args.config)
    if args.sizes:
        sizes = [_parse_size(s) for s in args.sizes.split(",")]
    else:
        sizes = [32 * (1 << 20) * (1 << i) for i in range(8)]  # 32 MB .. 4 GB
    model = CycleModel()
    rows = []
    for size in sizes:
        records = size // engine.RECORD_BYTES
        cfg = app.sort_config(records)
        try:
            plan = plan_sort(cfg, app.topo)
        except CapacityError as exc:
            print(f"error: {size} B: {exc}", file=sys.stderr)
            return EXIT_DATA
        timing = build_timing(cfg, plan, app.topo, app.profile, model)
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
    try:
        data = dataset.load(args.input, mmap=True)
    except (OSError, dataset.DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
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
    p.add_argument("--distribution", choices=("permutation", "uniform"),
                   default="permutation")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sort", help="sort a dataset or model a run dry")
    p.add_argument("input", nargs="?", help="input dataset path")
    p.add_argument("--out", help="write the sorted dataset here")
    p.add_argument("--config", help="config file path")
    p.add_argument("--mode", choices=("functional", "cycles"), default="functional")
    p.add_argument("--dry-run", action="store_true",
                   help="model timing from the plan only; no data is touched")
    p.add_argument("--records", type=int, help="record count for --dry-run")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("model", help="analytic performance/resource report")
    p.add_argument("--config", help="config file path")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("sweep", help="model a range of data sizes")
    p.add_argument("--config", help="config file path")
    p.add_argument("--sizes", help="comma-separated byte sizes, e.g. 32M,64M,1G")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a sorted permutation dataset")
    p.add_argument("input")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
