"""Outside-in tracer for the l1geo benchmark.

The tracer wraps public l1geo functions from outside the package: while it
is active, every ``l1geo.*`` module attribute that refers to a traced
function is rebound to a timing wrapper.  Rebinding every alias matters
because ``suites``, ``integral_geometry``, ``valuations`` and
``pixellation`` import kernels by name; patching ``l1geo.lattice`` alone
would miss their calls.  Spans are kept in memory and written out when the
run ends.  On exit every rebound attribute gets its original value back.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from math import factorial
from time import perf_counter

# module -> traced public functions.  The steiner, crofton and kubota
# profiles are left out: no workload calls them, so their figures would
# read zero everywhere.
TRACED = {
    "suites": ("verify",),
    "generators": ("gen_random_convex", "gen_random_box", "gen_random_cellset"),
    "lattice": (
        "union_volume",
        "box_intersection",
        "boxunion_intersection",
        "boxunion_equal_pointsets",
        "boxunion_minkowski_box",
        "minkowski_sum_box",
        "project",
        "cellset_to_boxunion",
        "cellset_boolean",
        "clip_cells",
        "subdivide",
        "scale",
        "embed",
        "apply_isometry",
    ),
    "convexity": (
        "is_l1_convex",
        "convexify",
        "all_pairs_monotone_reachable",
        "is_orthogonally_convex",
        "split_halves",
    ),
    "valuations": ("intrinsic_volumes_cellset", "intrinsic_volumes_boxunion", "cellset_product"),
    "integral_geometry": ("kinematic_principal", "kinematic_higher_mc"),
    "pixellation": ("outer_pixellate", "boundary_region", "pixellation_error_bracket"),
}

ROOT = "suites.verify"


def _group_order(n: int) -> int:
    return 2**n * factorial(n)


# Work counters, computed from a call's result and arguments.  Each takes
# the result first, then the traced function's own leading parameters.
def _union_volume(result, u, *_a, **_k):
    return {"boxes": len(u.boxes)}


def _boxunion_intersection(result, u, v, *_a, **_k):
    return {"pairs": len(u.boxes) * len(v.boxes), "kept": len(result.boxes)}


def _is_l1_convex(result, x, *_a, **_k):
    m = len(x.cells)
    return {"pairs": m * (m - 1) // 2, "convex": int(bool(result))}


def _all_pairs(result, x, *_a, **_k):
    return {"cells": len(x.cells)}


def _kinematic_principal(result, x, box=None, *_a, **_k):
    return {"group_elems": _group_order(x.dimension) if box is not None else 0}


def _kinematic_higher_mc(result, x, box, k, samples, *_a, **_k):
    return {"samples": samples * _group_order(x.dimension)}


def _boundary_region(result, *_a, **_k):
    return {"cells": len(result.cells)}


def _verify(result, *_a, **_k):
    total, _, skipped = result.counts()
    return {"records": total, "skipped": skipped}


COUNTERS = {
    "lattice.union_volume": _union_volume,
    "lattice.boxunion_intersection": _boxunion_intersection,
    "convexity.is_l1_convex": _is_l1_convex,
    "convexity.all_pairs_monotone_reachable": _all_pairs,
    "integral_geometry.kinematic_principal": _kinematic_principal,
    "integral_geometry.kinematic_higher_mc": _kinematic_higher_mc,
    "pixellation.boundary_region": _boundary_region,
    "suites.verify": _verify,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, value from the function's counter totals and call count)
DERIVED = (
    ("lattice.union_volume.boxes", "count", "lower", "lattice.union_volume", lambda c, n: c["boxes"]),
    ("lattice.boxunion_intersection.pairs", "count", "lower", "lattice.boxunion_intersection", lambda c, n: c["pairs"]),
    ("lattice.boxunion_intersection.kept_frac", "ratio", "higher", "lattice.boxunion_intersection", lambda c, n: _ratio(c["kept"], c["pairs"])),
    ("convexity.is_l1_convex.pairs", "count", "lower", "convexity.is_l1_convex", lambda c, n: c["pairs"]),
    ("convexity.is_l1_convex.convex_frac", "ratio", "higher", "convexity.is_l1_convex", lambda c, n: _ratio(c["convex"], n)),
    ("convexity.all_pairs_monotone_reachable.cells", "count", "lower", "convexity.all_pairs_monotone_reachable", lambda c, n: c["cells"]),
    ("integral_geometry.kinematic_principal.group_elems", "count", "lower", "integral_geometry.kinematic_principal", lambda c, n: c["group_elems"]),
    ("integral_geometry.kinematic_higher_mc.samples", "count", "lower", "integral_geometry.kinematic_higher_mc", lambda c, n: c["samples"]),
    ("pixellation.boundary_region.cells", "count", "lower", "pixellation.boundary_region", lambda c, n: c["cells"]),
    ("suites.skipped_frac", "ratio", "lower", "suites.verify", lambda c, n: _ratio(c["skipped"], c["records"])),
)

TRACE_METRICS = (
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def traced_names(traced: dict = TRACED) -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = []
    for name in traced_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [(f"{mod}.self_s", "s", "lower") for mod in TRACED]
    specs += [(name, unit, better) for name, unit, better, _, _ in DERIVED]
    specs += list(TRACE_METRICS)
    return specs


class Tracer:
    """Context manager that times every traced l1geo function.

    A span is ``(name, parent span index or -1, start, end)``.  Calls are
    strictly nested (the benchmark runs single-threaded), so a span's self
    time is its duration minus the durations of its direct children.  Spans
    are held in flat arrays rather than tuples, so a long trace does not
    slow the garbage collector down.
    """

    def __init__(self, package: str = "l1geo", traced: dict | None = None):
        self.package = package
        self.traced = TRACED if traced is None else traced
        self.names = traced_names(self.traced)
        self.counts = {name: defaultdict(int) for name in self.names}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        name = self.names[index]
        counter = COUNTERS.get(name)
        totals = self.counts[name]

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            stack.append(sid)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    totals[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for index, name in enumerate(self.names):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"{self.package}.{mod}"), fn)
            wrappers[id(original)] = (original, self._wrap(index, original))
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def spans(self) -> list[tuple[str, int, float, float]]:
        return [
            (self.names[i], p, s, e)
            for i, p, s, e in zip(self._name, self._parent, self._start, self._end)
        ]

    def self_times(self) -> list[float]:
        """Self time of each span, index-aligned with ``spans()``."""
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * len(dur)
        for parent, d in zip(self._parent, dur):
            if parent >= 0:
                child[parent] += d
        return [d - c for d, c in zip(dur, child)]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics for this trace; names follow ``metric_specs``."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for index, t in zip(self._name, self.self_times()):
            calls[index] += 1
            own[index] += t
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = own[index]
        for mod in self.traced:
            out[f"{mod}.self_s"] = sum(
                t for name, t in zip(self.names, own) if name.startswith(mod + ".")
            )
        for metric, _, _, fn_name, value in DERIVED:
            if fn_name in self.counts:
                out[metric] = value(self.counts[fn_name], calls[self.names.index(fn_name)])
        below_root = sum(t for name, t in zip(self.names, own) if name != ROOT)
        out["trace.coverage_frac"] = _ratio(below_root, traced_wall)
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return out

    def write(self, path) -> None:
        """Write one JSON line per span: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans()):
                fh.write(json.dumps([i, *span]) + "\n")
