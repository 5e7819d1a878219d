"""Independent reference implementations the suite checks the library against.

These deliberately use different algorithms from the code under test:
element-wise two-pointer merging instead of compare-swap networks, a heap
instead of a unit tree, plain grid enumeration for the floorplanner, a
cycle-stepped tree of stateful merge units instead of firing plans timed
in dependency order, and binary searches over a row's running counts
instead of per-record maps for the dependency columns between two rows.
:func:`timed_sort` times a whole sort from real keys, pass by pass,
against the timing model's balanced feeds.
"""

import heapq
from itertools import accumulate, pairwise

import numpy as np

from hbmsort.analytics import FloorplanProblem
from hbmsort.engine import pad_input, plan_sort
from hbmsort.mergenet import MergeOrderError, Record
from hbmsort.mergetree import run_passes_cycles


def two_pointer_merge(a, b):
    """Stable element-wise merge of two sorted Record runs; ties take A."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i].key <= b[j].key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def kway_heap_merge(feeds):
    """Heap-based k-way merge of (n, 2) uint32 arrays, stable by feed order."""
    streams = []
    for f, feed in enumerate(feeds):
        arr = np.asarray(feed)
        if arr.ndim == 1:
            arr = np.stack([arr, np.zeros_like(arr)], axis=1)
        streams.append(
            [(int(k), f, i, int(v)) for i, (k, v) in enumerate(arr)]
        )
    merged = list(heapq.merge(*streams))
    out = np.empty((len(merged), 2), dtype=np.uint32)
    for i, (k, _f, _p, v) in enumerate(merged):
        out[i, 0] = k
        out[i, 1] = v
    return out


def first_unsorted_run(runs):
    """Index of the first list in `runs` with a key above the next one, else None."""
    for i, run in enumerate(runs):
        if any(b < a for a, b in pairwise(run)):
            return i
    return None


def records_to_array(records):
    out = np.empty((len(records), 2), dtype=np.uint32)
    for i, r in enumerate(records):
        out[i, 0] = r.key
        out[i, 1] = r.value
    return out


def random_sorted_records(rng, n, key_range=None):
    hi = key_range if key_range is not None else 1 << 32
    keys = np.sort(rng.integers(0, hi, size=n, dtype=np.int64))
    return [Record(int(k), int(rng.integers(0, 1 << 32))) for k in keys]


def pass_ladder(records, leaves, wide_leaves):
    """The run lengths of the two-phase schedule in closed form: (1, l,
    ..., l**j, subrun, n_pad).  The records are padded to a multiple of l
    * wide_leaves; phase one ends in n_pad / wide_leaves-record sub-runs,
    and its untuned passes grow runs by l while one more of them would
    stay short of a sub-run."""
    align = leaves * wide_leaves
    n_pad = -(-records // align) * align
    subrun = n_pad // wide_leaves
    ladder = [1]
    while ladder[-1] * leaves < subrun:
        ladder.append(ladder[-1] * leaves)
    return tuple(ladder) + (subrun, n_pad)


def timed_sort(records, cfg):
    """Walk the plan's rows over real records on the unit-level simulator;
    returns the plan, each pass's cycles and each pass's merged output,
    all ``padded_records`` of them.

    A row's trees each take ``row.records`` consecutive records of the
    pass before (one channel in phase one, every record in phase two),
    which are sorted runs of ``in_run``.  Each group of ``out_run`` of
    them (the last may be short) is cut into its runs, and each run into
    ``leaves // runs`` consecutive quanta by ``np.array_split``'s rule,
    the rule of the model's balanced feeds: one feed per leaf.  The
    groups of one tree are timed as one forest, one pass each, and a
    row's cycles are its slowest tree's sum: the groups hand off back to
    back, with no charge between them, as in ``engine.pass_timing``.
    """
    plan = plan_sort(cfg)
    data, cycles, outputs = pad_input(records, plan), [], []
    for row in plan.passes:
        trees = []
        for share in data.reshape(-1, row.records, 2):
            feed_sets = []
            for lo in range(0, row.records, row.out_run):
                group = share[lo : lo + row.out_run]
                runs = [group[at : at + row.in_run] for at in range(0, len(group), row.in_run)]
                feed_sets.append([q for run in runs for q in np.array_split(run, row.tree.leaves // len(runs))])
            trees.append(run_passes_cycles(row.tree, feed_sets))
        cycles.append(max(sum(res.cycles for res in tree) for tree in trees))
        data = np.concatenate([res.records for tree in trees for res in tree])
        outputs.append(data)
    return plan, cycles, outputs


def halving_levels(p, l):
    """The unit rates of the (p, l) tree by level, root first, built by
    halving: rates halve and counts double from the root down to rate
    max(1, 2p/l), then rate-1 levels double the count up to l / 2."""
    levels, rate, count = [], p, 1
    while rate >= max(1, 2 * p // l):
        levels.append((rate,) * count)
        rate //= 2
        count *= 2
    while count < l:
        levels.append((1,) * count)
        count *= 2
    return tuple(levels)


def brute_force_floorplan(prob: FloorplanProblem, tree_luts: int, trees: int):
    """Full-grid enumeration of the placement of at most `trees` trees,
    max (sum, u1)."""
    best = (0, 0)
    best_key = (0, 0)
    for u1 in range(prob.die1_available // tree_luts + 1):
        for u2 in range(prob.die2_available // tree_luts + 1):
            if (u1 + u2) * prob.axi_width > prob.crossing_budget or u1 + u2 > trees:
                continue
            if (u1 + u2, u1) > best_key:
                best_key = (u1 + u2, u1)
                best = (u1, u2)
    return best


# ----------------------------------------------------------------------
# Cycle-stepped merge tree: every unit tries to fire once per cycle.
# ----------------------------------------------------------------------

class Source:
    """One sorted input of a unit: the ranks of the records that pass
    through it, ``pos`` of them read and ``count`` more visible.

    ``done`` means nothing more will arrive: every remaining record is
    visible.  ``Source(ranks)`` is an always-full leaf port.
    :meth:`fifo` makes an inter-level FIFO, which its producing unit
    fills and closes.
    """

    __slots__ = ("ranks", "pos", "count", "done")

    def __init__(self, ranks):
        self.ranks = ranks
        self.pos = 0
        self.count = len(ranks)
        self.done = True

    @classmethod
    def fifo(cls, ranks):
        src = cls(ranks)
        src.count, src.done = 0, False
        return src


class MergeUnit:
    """Streaming merge unit: one E-block in and one E-block out per firing.

    The unit reads two :class:`Source` inputs and writes to an optional
    sink FIFO of at most ``cap`` records.  The first firing primes it
    from both inputs and emits the lower half of the two head blocks;
    every later firing merges the retained upper half with the head block
    of the input whose head is smaller (ties go to input 0) and emits the
    lower half.  Once both inputs are exhausted it flushes the retained
    half.  An input that ends while the other has never been merged
    passes through block by block.  A short tail block is padded, and
    padding orders after every record, so a firing emits
    ``min(rate, ret_real + k)`` records: the ``ret_real`` real records of
    the retained half plus the ``k`` it took.

    `c0` is the guard: ``c0[m]`` counts the records of input 0 among the
    first m of the unit's merged stream (by default computed from the
    inputs' ranks).  Emitting ``out`` records needs ``c0[out]`` of them
    read from input 0 and the rest from input 1.
    """

    __slots__ = ("rate", "srcs", "sink", "cap", "c0", "out", "retained", "ret_real", "finished")

    def __init__(self, rate, srcs, c0=None):
        self.rate = rate
        self.srcs = tuple(srcs)
        self.sink = None  # None: output goes only to the caller of fire()
        self.cap = 0
        if c0 is None:
            first = set(srcs[0].ranks)
            c0 = list(accumulate((r in first for r in sorted([*srcs[0].ranks, *srcs[1].ranks])),
                                 initial=0))
        self.c0 = c0
        self.out = 0
        self.retained = False
        self.ret_real = 0
        self.finished = False

    def _take(self, src):
        """Read the head block of `src`, short only at its end."""
        k = self.rate if src.count >= self.rate else src.count
        src.pos += k
        src.count -= k
        return k

    def _emit(self, held):
        """Emit the lower half of the `held` real records (padding orders
        last), retain the rest and check the guard."""
        n = held if held < self.rate else self.rate
        self.ret_real = held - n
        out = self.out = self.out + n
        s0, s1 = self.srcs
        try:
            c0 = self.c0[out]
        except IndexError:
            c0 = out + 1  # more records out than the inputs hold
        if c0 > s0.pos or out - c0 > s1.pos:
            raise MergeOrderError(
                f"rate-{self.rate} unit emitted {out} records after reading "
                f"{s0.pos} + {s1.pos}, not the head of its merged stream"
            )
        if self.sink is not None:
            self.sink.count += n
        return n

    def _finish(self):
        self.finished = True
        if self.sink is not None:
            self.sink.done = True

    def fire(self):
        """Try one invocation; returns the number of records emitted
        (possibly 0, on a flush of padding), or None on a stall or once
        finished."""
        if self.finished:
            return None
        rate = self.rate
        if self.sink is not None and self.cap - self.sink.count < rate:
            return None  # backpressure
        s0, s1 = self.srcs
        a0, a1 = s0.count, s1.count
        end0 = s0.done and a0 == 0
        end1 = s1.done and a1 == 0

        if not self.retained:
            if end0 and end1:
                self._finish()
                return None
            if end0 or end1:
                src, av = (s1, a1) if end0 else (s0, a0)
                if av >= rate or (src.done and av > 0):
                    out = self._emit(self._take(src))
                    if src.done and src.count == 0:
                        self._finish()
                    return out
                return None
            if (a0 >= rate or s0.done) and (a1 >= rate or s1.done):
                self.retained = True
                return self._emit(self._take(s0) + self._take(s1))
            return None

        if end0 and end1:
            out = self._emit(self.ret_real)
            self.retained = False
            self._finish()
            return out
        if end0:
            src, av = s1, a1
        elif end1:
            src, av = s0, a0
        else:
            if a0 == 0 or a1 == 0:
                return None  # a live side has no visible head yet
            src = s0 if s0.ranks[s0.pos] <= s1.ranks[s1.pos] else s1
            av = src.count
        if av >= rate or (src.done and av > 0):
            return self._emit(self.ret_real + self._take(src))
        return None


def _by_node(leaf, shift, nodes):
    node = leaf >> shift
    bounds = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=nodes))))
    return np.argsort(node, kind="stable"), bounds


def cycle_stepped_pass(tree, feeds):
    """Step a pass of `tree` cycle by cycle; returns the merged (n, 2)
    records, the cycle of the root's last emission and the root's average
    records per cycle.

    Each cycle fires every unit once, root first, so a block a unit emits
    reaches its parent one cycle later and a read by the parent frees FIFO
    room in the same cycle.
    """
    arrays = [np.asarray(f, dtype=np.int64) for f in feeds]
    arrays = [a.reshape(-1, 2) if a.ndim == 2 else np.stack([a, np.zeros_like(a)], axis=1)
              for a in arrays] or [np.zeros((0, 2), dtype=np.int64)]
    merged = np.concatenate(arrays)
    order = np.argsort(merged[:, 0], kind="stable")
    records = merged[order].astype(np.uint32)
    total = len(order)
    if total == 0:
        return records, 0, 0.0
    lengths = [len(a) for a in arrays] + [0] * (tree.leaves - len(arrays))
    leaf = np.repeat(np.arange(tree.leaves), lengths)[order]

    grp, bounds = _by_node(leaf, 0, tree.leaves)
    srcs = [Source(grp[lo:hi].tolist()) for lo, hi in pairwise(bounds)]
    rows = []
    for j in range(tree.depth - 1, -1, -1):  # bottom level first
        shift = tree.depth - j
        grp, bounds = _by_node(leaf, shift, len(tree.levels[j]))
        from0 = ((leaf[grp] >> (shift - 1)) & 1) == 0
        c0 = np.concatenate(([0], np.cumsum(from0)))
        row = []
        for k, (rate, (lo, hi)) in enumerate(zip(tree.levels[j], pairwise(bounds))):
            unit = MergeUnit(rate, srcs[2 * k : 2 * k + 2], (c0[lo : hi + 1] - c0[lo]).tolist())
            if j:
                unit.sink = Source.fifo(grp[lo:hi].tolist())
                unit.cap = tree.fifo_blocks * tree.levels[j - 1][k // 2]
            row.append(unit)
        srcs = [unit.sink for unit in row]
        rows.append(row)
    units = [unit for row in reversed(rows) for unit in row]  # root first

    limit = 10_000 + 64 * total + 64 * len(units)
    root = units[0]
    cycle = last_emit = 0
    while not root.finished:
        cycle += 1
        if cycle > limit:
            raise RuntimeError(f"no progress after {limit} cycles")
        if root.fire():
            last_emit = cycle
        for unit in units[1:]:
            unit.fire()
    return records, last_emit, total / last_emit


# ----------------------------------------------------------------------
# Dependency columns between two rows of firing plans, by binary search.
# ----------------------------------------------------------------------

def searchsorted_input_deps(plan, below, bounds):
    """For each firing and input, the index into the producer's times that
    the firing waits on: the producer's firing that emits the last record
    the firing takes (or the unselected input's head), or its finish
    (index ``fires + 1``) when the firing needs the FIFO closed: to take a
    short tail, to see an input exhausted, or to flush."""
    units = np.repeat(np.arange(len(plan.start) - 1), np.diff(plan.start))
    below_fires = np.diff(below.start)
    emitted = below.out + np.repeat(bounds[:-1], below_fires)
    deps = []
    for s in (0, 1):
        k, pos, kid = plan.take[s], plan.pos[s], 2 * units + s
        closed = np.where(k > 0, k < plan.rate, pos == plan.n[s][units])
        last = np.searchsorted(emitted, bounds[kid] + pos + (k == 0))
        deps.append(np.where(closed, below_fires[kid] + 1, last - below.start[kid] + 1))
    return deps


def searchsorted_room_deps(plan, below, bounds, fifo_blocks):
    """For each firing of the units below `plan`, the index into the parent's
    times that it waits on for room in its FIFO of `fifo_blocks` blocks: the
    parent firing after which the FIFO holds at most ``cap - E`` records (0:
    none).  Then the same for each unit's finish, after all its records.  A
    need past the unit's records points past the parent's last firing."""
    cap = fifo_blocks * plan.rate
    kids = np.arange(len(below.start) - 1)
    fires = np.diff(below.start)
    before = np.concatenate(([0], below.out[:-1]))
    before[below.start[:-1]] = 0
    need = np.concatenate((before, below.n[0] + below.n[1])) - cap + below.rate
    kid = np.concatenate((np.repeat(kids, fires), kids))
    room = np.zeros(len(need), dtype=np.int64)
    units = np.repeat(np.arange(len(plan.start) - 1), np.diff(plan.start))
    for s in (0, 1):
        read = plan.pos[s] + bounds[2 * units + s]
        mine = np.flatnonzero(((kid & 1) == s) & (need > 0))
        room[mine] = (np.searchsorted(read, bounds[kid[mine]] + need[mine])
                      - plan.start[kid[mine] >> 1] + 1)
    return room[: len(before)], room[len(before):]
