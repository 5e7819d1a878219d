"""Resource and floorplan models, and the two formulas that compose phase
bandwidths (``engine.build_timing`` times the phases).  The resource model
costs a plan's ``TreeSpec`` at one of the plan's bursts.

Bandwidth figures follow the write-side convention: half of the system
bandwidth feeds reads, half drains writes, and a tree's throughput is the
write-side number.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .mergenet import check_field_types
from .mergetree import TreeSpec


def perf_overall(beta1: float, beta2: float) -> float:
    """Two serial phases compose harmonically."""
    if beta1 <= 0 or beta2 <= 0:
        raise ValueError("phase bandwidths must be positive")
    return 1.0 / (1.0 / beta1 + 1.0 / beta2)


def bandwidth_utilization(phase_gbps: float, passes: int) -> float:
    """Memory traffic sustained while a phase runs `passes` passes, each
    reading and writing the full dataset: throughput x passes x 2."""
    return phase_gbps * passes * 2


@dataclass(frozen=True)
class ResourceModelParams:
    lut_per_comparator: int = 116    # calibrated against a placed 16-leaf tree
    axi_converter_luts: int = 5000
    axi_converter_ffs: int = 6000
    lut_buffer_fraction: float = 0.75  # share of leaf buffers built from LUT shift registers

    def __post_init__(self):
        check_field_types(self, ValueError)
        for name in ("axi_converter_luts", "axi_converter_ffs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.lut_per_comparator < 1:
            raise ValueError(f"lut_per_comparator must be at least 1, got {self.lut_per_comparator}")
        if not 0 <= self.lut_buffer_fraction <= 1:
            raise ValueError(f"lut_buffer_fraction must be between 0 and 1, got {self.lut_buffer_fraction}")


class TreeResources(NamedTuple):
    comparators: int
    luts: int
    buffer_luts: int
    axi_luts: int
    axi_ffs: int


def buffer_luts(burst_bytes: int) -> int:
    """LUTs for one double-buffered 512-bit-wide leaf buffer.

    One LUT holds a 32-deep 1-bit shift register, so 512 LUTs hold two
    1 KB bursts; cost scales with burst size above that and floors at 512.
    """
    rows = math.ceil(2 * burst_bytes * 8 / 512)  # 512-bit rows for two bursts
    return 512 * max(1, math.ceil(rows / 32))


def resource_tree(tree: TreeSpec, params: ResourceModelParams, burst_bytes: int) -> TreeResources:
    """Comparator count and LUT estimate for one tree: the one source of a
    tree's cost, which the floorplan also places.

    Comparators are summed over the tree's units; for the leaves == p
    family they follow the doubling recurrence L(p) = 2 L(p/2) +
    L_unit(p).  The LUT estimate adds the AXI rate converter and the
    LUT-implemented share of the leaf burst buffers.
    """
    comparators = tree.comparator_total()
    buf = round(tree.leaves * params.lut_buffer_fraction) * buffer_luts(burst_bytes)
    luts = comparators * params.lut_per_comparator + params.axi_converter_luts + buf
    return TreeResources(
        comparators=comparators,
        luts=luts,
        buffer_luts=buf,
        axi_luts=params.axi_converter_luts,
        axi_ffs=params.axi_converter_ffs,
    )


@dataclass(frozen=True)
class FloorplanProblem:
    """Distribute identical tree kernels over the two dies away from the
    memory die, under per-die resource budgets and a die-crossing signal
    budget.  Defaults encode the production 16-tree instance; the LUTs of
    one kernel come from :func:`resource_tree`."""

    die1_available: int = 235000      # a1: top die budget for tree kernels
    die2_available: int = 190000      # a2: middle die budget
    axi_width: int = 1300             # w: signals one kernel drags across a die boundary
    crossing_budget: int = 18200      # W: signals available between dies 0 and 1

    def __post_init__(self):
        check_field_types(self, ValueError)
        for name in ("die1_available", "die2_available", "axi_width", "crossing_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class FloorplanSolution(NamedTuple):
    die1_trees: int
    die2_trees: int
    objective: int


def floorplan_solve(prob: FloorplanProblem, tree_luts: int, trees: int) -> FloorplanSolution:
    """Place as many of the sorter's `trees` trees of ``tree_luts`` LUTs
    each (L, a :func:`resource_tree` estimate) off the memory die as fit.

    The most trees (u1 + u2) subject to (u1+u2)*w <= W, u1*L <= a1,
    u2*L <= a2 and u1 + u2 <= trees; of those placements, the one with the
    largest u1 (fill the die farther from the memory first).
    """
    if tree_luts < 1:
        raise ValueError(f"tree_luts must be positive, got {tree_luts}")
    u1_cap = prob.die1_available // tree_luts
    total = min(u1_cap + prob.die2_available // tree_luts, trees)
    if prob.axi_width > 0:
        total = min(total, prob.crossing_budget // prob.axi_width)
    u1 = min(u1_cap, total)
    return FloorplanSolution(u1, total - u1, total)
