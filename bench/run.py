#!/usr/bin/env python3
"""Layered benchmark for hbmsort: host speed, modelled hardware and per-module cost.

Run from the repository root:

    python3 bench/run.py --workload sort-4m --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sim-pass --seed 1 --seconds 30 --trace 1 --out r.json
    python3 bench/run.py --compare BASE NEW

BASE and NEW are result files written with ``--out``, or directories of them.

hbmsort is driven only through public entry points: ``cli.main(argv)``
in-process for the sort and model operations, and module functions for
the simulator and the merge primitives.  Each process runs three
operation families, so that every end-to-end metric listed in
BENCHMARK.json is measured on every workload:

* ``sort``:  ``hbmsort sort IN --out OUT`` on a 4M-record permutation
  (32 MB); reaches dataset, config, engine and cli, never mergetree.
* ``sim``:   ``run_pass_cycles`` over 64k-record feeds in four variants;
  loads the mergetree/mergenet firing loop and bypasses engine.
* ``model``: ``hbmsort sort --dry-run`` at 32 MB..4 GB; each op builds a
  fresh CycleModel, i.e. about a dozen tiny calibration simulations.

For ``--seconds`` the three families run interleaved, op by op, each
getting host time in proportion to its weight (``WEIGHTS``, doubled for
the workload's own family); every family completes at least one cycle of
its ops.
Timings are medians per op, in seconds at a reference host speed (see
``HostClock``); span times of the traced run are raw host seconds.  Ops
that raise are counted as failed with their exception type and left out
of the timings.

Four model ops are known defects of the program: 64 MB and 1 GB raise
``CalibrationError`` and both alternative geometries exceed the tree
simulator's cycle limit.  They are left out of the timed cycle, so that
the number of failed ops does not depend on how many ops fit in a run,
and each is run once per process after the timed loop.  Their outcome
(exception type, or the modelled numbers once one succeeds) is printed
as ``KNOWN DEFECT`` lines, written to the result file and compared by
``--compare``; they are not counted in ``attempted`` or ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
public functions (see ``install_tracer``), prints the per-layer metrics,
and alternates untraced and traced cycles of the workload's own family
to report the tracing overhead.
The last line of standard output is one JSON object; the exit status is
1 when an output check failed and 2 when hbmsort's source is missing.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

THREADS = min(2, os.cpu_count() or 1)
SETUP_REPS = 5
# Relative host time per family, doubled for the workload's own family.
# The sim metrics sum four variants of about 1 s each and need the most
# samples to be steady.
WEIGHTS = {"sort-4m": 1.0, "sim-pass": 1.5, "model-sweep": 1.0}
# Traced runs alternate untraced and traced cycles of the workload's family
# until each side has run at least this many ops.
OVERHEAD_OPS = 3
SORT_RECORDS = 1 << 22
SIM_RECORDS = 1 << 16
# Records/cycle per leaf in the memory variant: 16 leaves then supply 4
# records/cycle, about half of what the (8, 16) tree drains on random data.
MEMORY_FEED_RATE = 0.25
SWEEP_BYTES = [(32 << 20) << i for i in range(8)]
GEOMETRY_BYTES = 256 << 20
# Model ops that fail on every run; see the module docstring.
KNOWN_DEFECTS = ("64M", "1G", "256M-leaves8", "256M-rate16")
GEOMETRIES = {
    "leaves8": "[sort]\nphase1_leaves = 8\nphase2_leaves = 32\n",
    "rate16": "[sort]\nphase1_rate = 16\nphase2_rate = 64\n",
}
MODULES = ("dataset", "config", "engine", "cli", "mergetree", "mergenet", "hbm", "analytics")


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def size_label(nbytes: int) -> str:
    return f"{nbytes >> 30}G" if nbytes >= 1 << 30 else f"{nbytes >> 20}M"


class HostClock:
    """Scales host seconds to a reference host speed.

    On a shared host the speed of a core drifts by up to +-30% within
    seconds and by more between runs, and every op slows with it.  A fixed
    probe that does not use hbmsort is timed just before and just after
    each op.  The op's seconds are multiplied by the reference probe time
    over the median of the probes taken from WINDOW_S before the op starts
    to WINDOW_S after it ends.  A single probe lasts milliseconds, and the
    host's speed also changes on that scale, so one probe says little
    about the second that the op took; the window keeps the slower drift
    and averages out the rest.  The simulator and the model are
    interpreter-bound and use a probe that builds a dict of tuples and
    strings; the sort and the input generation are numpy-bound and use a
    stable argsort that does not fit in the L2 cache.  These were the
    probes whose times tracked each op's times most closely on a shared
    2-CPU host.  Raw seconds are kept in the result file too.
    """

    REFERENCE_S = {"python": 0.007, "numpy": 0.040}
    WINDOW_S = 3.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 32, size=1 << 18).astype(np.uint64)
        self.origin = time.perf_counter()
        # kind -> (midpoint since origin, seconds) per probe
        self.probes: dict[str, list[tuple]] = {kind: [] for kind in self.REFERENCE_S}
        for kind in self.REFERENCE_S:  # the first run of each probe is slow
            self.probe(kind)
            self.probes[kind].clear()

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def probe(self, kind: str):
        t0 = self.now()
        if kind == "python":
            {i: (i, str(i)) for i in range(20_000)}
        else:
            np.argsort(self.keys, kind="stable")
        t1 = self.now()
        self.probes[kind].append(((t0 + t1) / 2, t1 - t0))

    def timed(self, kind: str, fn):
        """Run ``fn``, which returns host seconds or None when it failed,
        between two probes; (host seconds, start, end) or None."""
        self.probe(kind)
        t0 = self.now()
        dt = fn()
        t1 = self.now()
        self.probe(kind)
        return None if dt is None else (dt, t0, t1)

    def scaled(self, kind: str, sample) -> float:
        """Reference seconds of a sample returned by ``timed``."""
        dt, t0, t1 = sample
        near = [s for t, s in self.probes[kind]
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return dt * self.REFERENCE_S[kind] / statistics.median(near)


class CliExit(Exception):
    """``cli.main`` returned a nonzero exit status."""


class Run:
    """Op accounting, output checks and deterministic values of one process."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed_ops: list[dict] = []
        self.known_defects: list[dict] = []
        self.check_errors: list[str] = []
        self.deterministic: dict = {}
        self.clock = HostClock()

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def call(self, label: str, span: str, fn, known_defect=False, **attrs):
        """Run one op; returns (seconds, result), or None when it raised.
        A known defect's failure is recorded apart and not counted."""
        self.attempted += not known_defect
        t0 = time.perf_counter()
        try:
            with self.span(span, label=label, **attrs) as rec:
                try:
                    result = fn()
                except Exception as exc:
                    if rec is not None:
                        rec["error"] = type(exc).__name__
                    raise
        except Exception as exc:  # a failing op is counted, not fatal
            (self.known_defects if known_defect else self.failed_ops).append(
                {"op": label, "error": type(exc).__name__, "message": str(exc)[:300]}
            )
            return None
        return time.perf_counter() - t0, result

    def cli(self, label: str, argv: list[str], known_defect=False, **attrs):
        """``hbmsort ARGV`` in-process, stdout discarded; seconds or None."""
        def main():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != cli.EXIT_OK:
                raise CliExit(f"hbmsort {argv[0]} exited with status {rc}")

        done = self.call(label, "cli.main", main, known_defect, **attrs)
        return None if done is None else done[0]

    def check(self, ok: bool, what: str):
        if not ok:
            self.check_errors.append(what)

    def record(self, key: str, value):
        """Store a value that must repeat exactly whenever it is recomputed."""
        old = self.deterministic.setdefault(key, value)
        self.check(old == value, f"{key} changed between repeats: {old} -> {value}")


class Family:
    """One operation family.  ``cycle`` lists its ops as (label, callable);
    each callable returns the op's host seconds, or None when it failed."""

    probe_kind = "python"

    def __init__(self, run: Run):
        self.run = run
        self.cycle: list = []
        # op label -> (host seconds, start, end) per successful run
        self.samples: dict[str, list[tuple]] = collections.defaultdict(list)
        self.spent = 0.0
        self.steps = 0

    def step(self):
        label, op = self.cycle[self.steps % len(self.cycle)]
        t0 = time.perf_counter()
        done = self.run.clock.timed(self.probe_kind, op)
        if done is not None:
            self.samples[label].append(done)
        self.spent += time.perf_counter() - t0
        self.steps += 1

    def run_cycle(self) -> float:
        t0 = time.perf_counter()
        for _ in self.cycle:
            self.step()
        return time.perf_counter() - t0

    def typical(self, label: str):
        """Median reference seconds of the op, None when it never succeeded."""
        return median_or_none(self.run.clock.scaled(self.probe_kind, sample)
                              for sample in self.samples.get(label, ()))


class SortOps(Family):
    probe_kind = "numpy"

    def __init__(self, run: Run):
        super().__init__(run)
        self.inp = run.work / "in.bin"
        self.out = run.work / "out.bin"
        self.report = run.work / "sort.json"
        self.cycle = [("sort", self.sort_op)]

    def setup(self):
        spec = dataset.DatasetSpec(SORT_RECORDS, "permutation", self.run.seed)
        with self.run.span("dataset.generate"):
            data = dataset.generate(spec)
        dataset.save(data, str(self.inp))

    def sort_op(self):
        argv = ["sort", str(self.inp), "--out", str(self.out), "--threads", str(THREADS),
                "--report", str(self.report)]
        dt = self.run.cli("sort", argv, kind="sort")
        self.run.check(dt is not None, "sort op failed")
        if dt is None:
            return None
        out = np.fromfile(self.out, dtype="<u4").reshape(-1, 2)
        verdict = engine.verify_permutation(out, SORT_RECORDS)
        self.run.check(verdict.passed, f"sort output: {verdict.message}")
        self.run.check(dataset.payload_intact(out), "sort output: payload does not match key")
        report = json.loads(self.report.read_text())
        self.run.record("sort.phase1_passes", report["observed_passes"])
        return dt

    def metrics(self) -> dict:
        dt = self.typical("sort")
        return {"sort_rps": SORT_RECORDS / dt} if dt else {}


class SimOps(Family):
    VARIANTS = ("random", "presorted", "memory", "wide")

    def __init__(self, run: Run):
        super().__init__(run)
        self.cycle = [(v, functools.partial(self.pass_op, v)) for v in self.VARIANTS]

    @staticmethod
    def _feeds(keys, leaves: int, presorted: bool):
        """Cut keys into per-leaf sorted feeds; values number the records in
        leaf order, so a stable sort of the concatenation is the oracle."""
        if presorted:
            keys = np.sort(keys)
        per = len(keys) // leaves
        feeds = []
        for i in range(leaves):
            feed = np.empty((per, 2), dtype=np.uint32)
            feed[:, 0] = np.sort(keys[i * per : (i + 1) * per])
            feed[:, 1] = np.arange(i * per, (i + 1) * per, dtype=np.uint32)
            feeds.append(feed)
        both = np.concatenate(feeds)
        return feeds, both[np.argsort(both[:, 0], kind="stable")]

    def setup(self):
        rng = np.random.default_rng([self.run.seed, 2])
        tree = mergetree.build_tree(8, 16)
        wide = mergetree.compose_wide_tree([tree] * 4)

        def draw():
            return rng.integers(0, 1 << 32, size=SIM_RECORDS, dtype=np.uint64).astype(np.uint32)

        random = self._feeds(draw(), 16, False)
        self.cases = {
            "random": (tree, *random, None),
            "presorted": (tree, *self._feeds(draw(), 16, True), None),
            "memory": (tree, *random, MEMORY_FEED_RATE),
            "wide": (wide, *self._feeds(draw(), 64, False), None),
        }

    def pass_op(self, variant: str):
        tree, feeds, expect, rate = self.cases[variant]
        done = self.run.call(f"sim-{variant}", "mergetree.run_pass_cycles",
                             lambda: mergetree.run_pass_cycles(tree, feeds, rate),
                             variant=variant)
        if done is None:
            return None
        dt, res = done
        self.run.check(np.array_equal(res.records, expect),
                       f"sim {variant}: output is not the stable sort of its feeds")
        self.run.record(f"mergetree.cycles.{variant}", res.cycles)
        self.run.record(f"mergetree.root_rate.{variant}", res.root_active_rate)
        return dt

    def microbenchmarks(self) -> dict:
        """Merge primitives and the functional pass, traced runs only."""
        rng = np.random.default_rng([self.run.seed, 3])
        out = {}
        tree, feeds, expect, _ = self.cases["random"]
        done = self.run.call("functional", "mergetree.run_pass_functional",
                             lambda: mergetree.run_pass_functional(tree, feeds))
        if done is not None:
            out["mergetree.functional_rps"] = SIM_RECORDS / done[0]
            self.run.check(np.array_equal(done[1], expect),
                           "functional pass: output is not the stable sort of its feeds")

        def records(n):
            keys = np.sort(rng.integers(0, 1 << 20, size=n))  # narrow range: ties occur
            return [mergenet.Record(int(k), i) for i, k in enumerate(keys)]

        def oracle(a, b):
            return sorted(list(a) + list(b), key=lambda r: r.key)  # stable: a before b

        def repeat(label, span, fn):
            """Three timed runs; (median seconds, last result) or None."""
            done = [d for d in (self.run.call(label, span, fn) for _ in range(3)) if d]
            return (statistics.median(d[0] for d in done), done[-1][1]) if done else None

        for rate in (1, 2, 4, 8, 16, 32):
            pairs = [(records(rate), records(rate)) for _ in range(16)]
            merges = 16384 // rate
            self.run.check(all(list(mergenet.bitonic_merge_blocks(a, b)) == oracle(a, b)
                               for a, b in pairs), f"bitonic_merge_blocks r{rate}: wrong merge")
            done = repeat(f"bitonic-r{rate}", "mergenet.bitonic_merge_blocks",
                          lambda: [mergenet.bitonic_merge_blocks(*pairs[i % 16])
                                   for i in range(merges)])
            if done:
                out[f"mergenet.bitonic_rps.r{rate}"] = 2 * rate * merges / done[0]
        run_a, run_b = records(4096), records(4096)
        for rate in (1, 8, 32):
            done = repeat(f"mms-r{rate}", "mergenet.mms_merge_runs",
                          lambda: mergenet.mms_merge_runs(run_a, run_b, rate))
            if done:
                self.run.check(done[1][0] == oracle(run_a, run_b),
                               f"mms_merge_runs r{rate}: wrong merge")
                out[f"mergenet.mms_rps.r{rate}"] = (len(run_a) + len(run_b)) / done[0]
        return out

    def metrics(self) -> dict:
        """Rates over one pass of every variant, each at its median time."""
        times = [self.typical(v) for v in self.VARIANTS]
        if None in times:
            return {}
        cycles = sum(self.run.deterministic[f"mergetree.cycles.{v}"] for v in self.VARIANTS)
        return {"sim_rps": SIM_RECORDS * len(times) / sum(times),
                "sim_cps": cycles / sum(times)}


class ModelOps(Family):
    def __init__(self, run: Run):
        super().__init__(run)
        self.reports: dict[str, dict] = {}

    def setup(self):
        ops = [(size_label(b), ["--records", str(b // 8)]) for b in SWEEP_BYTES]
        for name, text in GEOMETRIES.items():
            path = self.run.work / f"{name}.cfg"
            path.write_text(text)
            ops.append((f"{size_label(GEOMETRY_BYTES)}-{name}",
                        ["--records", str(GEOMETRY_BYTES // 8), "--config", str(path)]))
        self.defects = [op for op in ops if op[0] in KNOWN_DEFECTS]
        ops = [op for op in ops if op[0] not in KNOWN_DEFECTS]
        order = np.random.default_rng([self.run.seed, 4]).permutation(len(ops))
        self.cycle = [(ops[i][0], functools.partial(self.model_op, *ops[i])) for i in order]

    def run_known_defects(self):
        for label, args in self.defects:
            self.model_op(label, args, known_defect=True)

    def model_op(self, label: str, args: list[str], known_defect=False):
        report_path = self.run.work / "model.json"
        argv = ["sort", "--dry-run", *args, "--report", str(report_path)]
        dt = self.run.cli(f"model-{label}", argv, known_defect, kind="model",
                          config="--config" in args)
        if dt is None:
            failed = self.run.known_defects if known_defect else self.run.failed_ops
            self.run.record(f"model.{label}.error", failed[-1]["error"])
            return None
        report = json.loads(report_path.read_text())
        self.reports[label] = report
        timing = report["timing"]
        for phase in ("phase1", "phase2"):
            self.run.record(f"model.{label}.{phase}_cycles", timing[phase]["cycles"])
            self.run.record(f"engine.model.{phase}_gbps.{label}", timing[phase]["gbytes_per_s"])
        self.run.record(f"engine.model.overall_gbps.{label}", timing["overall_gbytes_per_s"])
        self.run.record(f"model.{label}.phase1_passes", report["plan"]["phase1_passes"])
        return dt

    def metrics(self) -> dict:
        """model_s: median over the successful ops of each op's median time."""
        out = self.errors()
        typical = [self.typical(label) for label, _ in self.cycle if label in self.samples]
        if typical:
            out["model_s"] = statistics.median(typical)
        return out

    def errors(self) -> dict:
        """Absolute % gap between the modelled 4 GB run and the paper's
        measured GB/s; the model has no other reference results."""
        report = self.reports.get(size_label(SWEEP_BYTES[-1]))
        if report is None:
            return {}
        t, ref = report["timing"], report["reference"]
        pairs = {
            "phase1": (t["phase1"]["gbytes_per_s"], ref["phase1_gbps"]),
            "phase2": (t["phase2"]["gbytes_per_s"], ref["phase2_gbps"]),
            "overall": (t["overall_gbytes_per_s"], ref["overall_gbps"]),
        }
        return {f"model_err_{k}_pct": abs(m - r) / r * 100 for k, (m, r) in pairs.items()}

    def layer_values(self) -> dict:
        out = {k: v for k, v in self.run.deterministic.items() if k.startswith("engine.model.")}
        report = self.reports.get(size_label(SWEEP_BYTES[-1]))
        if report is not None:
            t = report["timing"]
            passes = t["phase1"]["passes"] + t["phase2"]["passes"]
            out["engine.model.compute_bound_passes"] = sum(
                p["compute_cycles"] > p["memory_cycles"] for p in passes)
        app = config.load_config(None)
        cfg = app.sort_config(SWEEP_BYTES[-1] // 8)
        out["hbm.efficiency.phase1"] = app.profile.efficiency(1, cfg.phase1_burst)
        out["hbm.efficiency.phase2"] = app.profile.efficiency(4, cfg.phase2_burst)
        return out

    def analytics_report(self) -> dict:
        path = self.run.work / "analytics.json"
        dt = self.run.cli("model-report", ["model", "--report", str(path)], kind="analytics")
        if dt is None:
            return {}
        report = json.loads(path.read_text())
        return {"analytics.report_s": dt,
                "analytics.phase1_planned_gbps": report["phase1_planned_gbps"]}


def install_tracer(tracer: Tracer):
    """Wrap the public functions each layer exposes to the ops above."""
    for owner, attr, name in (
        (cli, "load_config", "config.load_config"),
        (cli, "plan_sort", "engine.plan_sort"),
        (cli, "build_timing", "engine.build_timing"),
        (dataset, "load", "dataset.load"),
        (dataset, "save", "dataset.save"),
        (engine, "sort_records", "engine.sort_records"),
        (engine, "plan_sort", "engine.plan_sort"),
        (engine, "pad_input", "engine.pad_input"),
        (engine, "split_channels", "engine.split_channels"),
        (engine, "run_phase1", "engine.run_phase1"),
        (engine, "run_phase2", "engine.run_phase2"),
        (engine, "reconstruct_output", "engine.reconstruct_output"),
        (engine, "run_pass_cycles", "mergetree.run_pass_cycles"),
    ):
        tracer.wrap(owner, attr, name)


def sort_layer_values(tracer: Tracer) -> dict:
    """Per sort op: time per layer function, cli self time, phase-1 share."""
    selfs = tracer.self_times()
    per_op = []
    for root_i, root, members in tracer.ops():
        if root.get("kind") != "sort" or "error" in root:
            continue
        total = collections.Counter()
        for i in members[1:]:
            s = tracer.spans[i]
            total[s["name"]] += s["end"] - s["start"]
        total["cli.self"] = selfs[root_i]
        total["op"] = root["end"] - root["start"]
        per_op.append(total)
    names = {
        "dataset.load_s": "dataset.load", "dataset.save_s": "dataset.save",
        "engine.plan_s": "engine.plan_sort", "engine.pad_s": "engine.pad_input",
        "engine.split_s": "engine.split_channels", "engine.phase1_s": "engine.run_phase1",
        "engine.phase2_s": "engine.run_phase2",
        "engine.reconstruct_s": "engine.reconstruct_output", "cli.self_s": "cli.self",
    }
    out = {metric: median_or_none(op[span] for op in per_op) for metric, span in names.items()}
    out["engine.phase1_share"] = median_or_none(
        op["engine.run_phase1"] / op["op"] for op in per_op)
    return out


def model_layer_values(tracer: Tracer) -> dict:
    calls, seconds, config_s = [], [], []
    for _, root, members in tracer.ops():
        if root.get("kind") != "model":
            continue
        spans = [tracer.spans[i] for i in members[1:]]
        config_s += [s["end"] - s["start"] for s in spans
                     if s["name"] == "config.load_config" and root.get("config")]
        if "error" in root:
            continue
        calib = [s for s in spans if s["name"] == "mergetree.run_pass_cycles"]
        calls.append(len(calib))
        seconds.append(sum(s["end"] - s["start"] for s in calib))
    return {"mergetree.calib_calls": median_or_none(calls),
            "mergetree.calib_s": median_or_none(seconds),
            "config.load_s": median_or_none(config_s)}


def lines_of_code() -> dict:
    """Non-blank, non-comment lines per module of the package."""
    out = {}
    for path in sorted((ROOT / "src" / "hbmsort").glob("*.py")):
        lines = path.read_text().splitlines()
        out[path.stem] = sum(1 for l in lines if l.strip() and not l.strip().startswith("#"))
    metrics = {f"loc.{m}": out.get(m, 0) for m in MODULES}
    metrics["loc.total"] = sum(out.values())
    return metrics


def measure(args, work: Path, import_s: float) -> dict:
    run = Run(work, args.seed)
    families = {"sort-4m": SortOps(run), "sim-pass": SimOps(run), "model-sweep": ModelOps(run)}
    sort, sim, model = families.values()
    primary = families[args.workload]
    if args.trace:
        run.tracer = Tracer()
        install_tracer(run.tracer)

    def setup():
        t0 = time.perf_counter()
        for fam in families.values():
            fam.setup()
        return time.perf_counter() - t0

    setup_s = [run.clock.timed("numpy", setup) for _ in range(SETUP_REPS)]

    # Interleave the families op by op, giving each its share of the host
    # time, so every family samples the machine across the whole run.
    share = {fam: WEIGHTS[name] * (2 if fam is primary else 1)
             for name, fam in families.items()}
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        min(share, key=lambda f: f.spent / share[f]).step()
    for fam in families.values():
        while fam.steps < len(fam.cycle):
            fam.step()
    model.run_known_defects()

    loc = lines_of_code()
    values: dict = {}
    if args.trace:
        tracer = run.tracer
        values.update(sim.microbenchmarks())
        values.update(model.analytics_report())
        # Overhead: alternate untraced and traced cycles of the workload's family.
        plain, traced = [], []
        for _ in range(-(-OVERHEAD_OPS // len(primary.cycle))):
            tracer.unwrap_all()
            run.tracer = None
            plain.append(primary.run_cycle())
            run.tracer = tracer
            install_tracer(tracer)
            traced.append(primary.run_cycle())
        tracer.unwrap_all()
        run.tracer = None
        values["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100
        values["dataset.generate_s"] = median_or_none(
            s["end"] - s["start"] for s in tracer.spans if s["name"] == "dataset.generate")
        values.update(sort_layer_values(tracer))
        values.update(model_layer_values(tracer))
        values["engine.phase1_passes"] = run.deterministic.get("sort.phase1_passes")
        for variant in SimOps.VARIANTS:
            values[f"mergetree.host_s.{variant}"] = sim.typical(variant)
            for kind in ("cycles", "root_rate"):
                values[f"mergetree.{kind}.{variant}"] = run.deterministic.get(
                    f"mergetree.{kind}.{variant}")
        values.update(model.layer_values())
        values.update(loc)
        spans = tracer.summary()
        wanted = SPEC["per_layer"]
    else:
        values["setup_s"] = import_s + statistics.median(
            run.clock.scaled("numpy", sample) for sample in setup_s)
        for fam in families.values():
            values.update(fam.metrics())
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans = None
        wanted = SPEC["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    run.check(not missing, f"no value for {', '.join(missing)}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not run.check_errors,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": metrics,
        "fail_pct": 100 * len(run.failed_ops) / run.attempted,
        "failures": dict(collections.Counter(f["error"] for f in run.failed_ops)),
        "failed_ops": run.failed_ops,
        "known_defects": run.known_defects,
        "check_errors": run.check_errors,
        "deterministic": run.deterministic,
        "spans": spans,
        # label -> [host seconds, reference seconds, start, end] per op
        "op_samples": {name: {label: [[s[0], run.clock.scaled(fam.probe_kind, s), *s[1:]]
                                      for s in samples]
                              for label, samples in fam.samples.items()}
                       for name, fam in families.items()},
        "host_probes": run.clock.probes,
        "host_probe_ms": {kind: 1000 * statistics.median(s for _, s in probes)
                          for kind, probes in run.clock.probes.items()},
        "loc": loc,
    }


def print_table(result: dict):
    for name, m in result["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<36} {value:>14} {m['unit']}")
    print(f"{'fail_pct':<36} {result['fail_pct']:>14.6g} %  "
          f"({result['failed']} of {result['attempted']} ops: {result['failures']})")
    for kind, ms in result["host_probe_ms"].items():
        print(f"{'host_probe_ms.' + kind:<36} {ms:>14.6g} ms  (reference {HostClock.REFERENCE_S[kind] * 1000:g})")
    if result["spans"]:
        print(f"{'span':<36} {'calls':>6} {'total_s':>10} {'self_s':>10}")
        for name, row in result["spans"].items():
            print(f"{name:<36} {row['count']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for f in result["known_defects"]:
        print(f"KNOWN DEFECT: {f['op']}: {f['error']}: {f['message']}")
    for err in result["check_errors"]:
        print(f"CHECK FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="diff two result files or directories of them")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(SPEC, *args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "hbmsort" / "__init__.py").is_file():
        print(f"error: no hbmsort source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    global np, cli, config, dataset, engine, mergenet, mergetree
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from hbmsort import cli, config, dataset, engine, mergenet, mergetree
    import_s = time.perf_counter() - t0

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result = measure(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
