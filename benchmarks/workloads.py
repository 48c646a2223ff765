"""The benchmark's workloads: seeded inputs, one pass of work, correctness gate.

A pass is a fixed-size unit of work.  Pass ``p`` of a run with seed ``s``
draws its inputs from ``derive(s, workload, p)``, so a run is reproducible
from its seed alone and the library sees only the generated inputs.  Every
library call goes through the ``l1geo`` module attributes at call time, so
the tracer's rebinding sees the calls the benchmark makes.

An op is one check record for the suite workloads and one public library
call for ``large-sets``.  An op fails if it raises, yields a failing record,
or gives a result that breaks the workload's correctness check.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import l1geo

# workload -> suites run by one pass, with their VerifyConfig fields.  The
# instance counts are whole periods of each suite's instance classes
# (algebra cycles every 9 instances, valuation and pixellation every 3,
# kinematic every 6), so every pass has the same mix of instance kinds.
SUITE_PASSES = {
    # Cells in [0, 4)^n rather than the default [0, 5)^n: the time split over
    # the layers stays the same, and a pass costs half as much and varies
    # less from seed to seed, so a run averages over more of them.
    "set-algebra": (
        ("algebra", {"dimensions": (2, 3), "instances": 9, "bound": 4}),
        ("valuation", {"dimensions": (2, 3), "instances": 9, "bound": 4}),
    ),
    # One MC case per dimension at the default 20,000 samples.  Each MC
    # record is a 4-sigma test, so a run keeps their number small.
    "kinematic": (
        ("kinematic", {"dimensions": (2, 3), "instances": 12, "mc_cases": 1}),
    ),
    # Plane only: a 3-D instance's cost varies tenfold with its random shape.
    "pixellation": (("pixellation", {"dimensions": (2,), "instances": 12}),),
}

WORKLOADS = (*SUITE_PASSES, "large-sets")

# Passes in a traced run, each done once untraced and once traced.
TRACE_PASSES = {"set-algebra": 10, "kinematic": 3, "pixellation": 30, "large-sets": 2}

# large-sets runs all_pairs_monotone_reachable only up to this many cells:
# its (3^n - 1) boolean m x m arrays grow quadratically.
REACH_CELL_LIMIT = 1600


def derive(*parts) -> int:
    """Stable 63-bit seed from heterogeneous parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Tally:
    """Ops attempted and failed, plus the records that fingerprint a pass."""

    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def fingerprint(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# suite workloads


def tally_report(report, tally: Tally) -> None:
    """Count one op per record; a record that did not pass is a failed op."""
    for record in report.records:
        tally.op(record.passed)
    out = report.to_dict()
    del out["runtime_seconds"]
    tally.records.append(out)


def suite_pass(workload: str, seed: int, p) -> Tally:
    tally = Tally()
    for suite, fields in SUITE_PASSES[workload]:
        cfg = l1geo.VerifyConfig(seed=derive(seed, workload, p), threads=1, **fields)
        try:
            report = l1geo.verify(suite, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.op(False)
            continue
        tally_report(report, tally)
    return tally


def suite_warmup(workload: str, seed: int) -> None:
    for suite, fields in SUITE_PASSES[workload]:
        small = dict(fields, dimensions=(2,), instances=1)
        cfg = l1geo.VerifyConfig(seed=derive(seed, workload, "warm-up"), threads=1, **small)
        l1geo.verify(suite, cfg)


# ---------------------------------------------------------------------------
# large-sets: a few sets far larger than any suite instance


@dataclass(frozen=True)
class Case:
    name: str
    shape: object
    resolution: Fraction
    convex: bool  # the shape is convex, so its pixellation must be


def _box(mins, maxs, perm, shift):
    """A box with axes permuted by ``perm`` and translated by ``shift``."""
    lo = [mins[perm[i]] + shift[i] for i in range(len(perm))]
    hi = [maxs[perm[i]] + shift[i] for i in range(len(perm))]
    return l1geo.RatBox(lo, hi)


def large_set_cases(seed: int, p) -> list[Case]:
    """The shapes of one large-sets pass.

    Sizes are fixed per case; the seed moves each shape off the grid by a
    random sub-cell offset and, for box unions, permutes its axes, so every
    pass does the same amount of work on different cells.
    """
    rng = random.Random(derive(seed, "large-sets", p))

    def offsets(n, lam):
        return [lam * Fraction(rng.randrange(4), 4) for _ in range(n)]

    def perm(n):
        axes = list(range(n))
        rng.shuffle(axes)
        return axes

    cases = []
    lam = Fraction(1, 20)
    cases.append(Case("ball-2d", l1geo.L1Ball(offsets(2, lam), 1), lam, True))

    lam = Fraction(1, 7)
    ax, sh = perm(2), offsets(2, lam)
    u = [_box((0, 0), (1, 5), ax, sh), _box((0, 0), (5, 1), ax, sh), _box((4, 0), (5, 5), ax, sh)]
    cases.append(Case("u-2d", l1geo.BoxUnionShape(l1geo.BoxUnion(2, u)), lam, False))

    lam = Fraction(1, 8)
    cases.append(Case("ball-3d", l1geo.L1Ball(offsets(3, lam), 1), lam, True))

    lam = Fraction(1, 8)
    ax, sh = perm(3), offsets(3, lam)
    ell = [_box((0, 0, 0), (2, 1, 1), ax, sh), _box((0, 0, 0), (1, 2, 1), ax, sh)]
    cases.append(Case("ell-3d", l1geo.BoxUnionShape(l1geo.BoxUnion(3, ell)), lam, False))
    return cases


def _call(tally: Tally, check, fn, *args):
    """One op: call ``fn``; the op fails if it raises or ``check`` rejects it."""
    try:
        result = fn(*args)
        ok = bool(check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.op(False)
        return None
    tally.op(ok)
    return result


def run_case(case: Case, tally: Tally) -> None:
    """Every library call on one case, each checked against what holds by
    construction: cubes of side lambda have volume lambda^n, so both V'_n
    and the union volume equal the cell count times lambda^n."""
    x = _call(tally, lambda r: len(r) > 0, l1geo.outer_pixellate, case.shape, case.resolution)
    if x is None:
        return
    n, cells = x.dimension, x.cells
    volume = len(cells) * case.resolution**n

    def verdict_ok(v):
        if v:
            return True
        return not case.convex and v.witness[0] in cells and v.witness[1] in cells

    verdict = _call(tally, verdict_ok, l1geo.is_l1_convex, x)
    ivs = _call(tally, lambda r: r[n] == volume, l1geo.intrinsic_volumes_cellset, x)
    boxes = _call(tally, lambda r: len(r.boxes) == len(cells), l1geo.cellset_to_boxunion, x)
    if boxes is not None:
        _call(tally, lambda r: r == volume, l1geo.union_volume, boxes)
    edge = _call(
        tally, lambda r: 0 < len(r) and r.cells <= cells, l1geo.boundary_region, case.shape, case.resolution
    )
    reach = None
    if len(cells) <= REACH_CELL_LIMIT:
        reach = _call(
            tally, lambda r: r or not verdict, l1geo.all_pairs_monotone_reachable, x
        )
    tally.records.append(
        {
            "case": case.name,
            "cells": len(cells),
            "convex": None if verdict is None else bool(verdict),
            "witness": None if verdict is None or verdict.witness is None else list(map(list, verdict.witness)),
            "intrinsic_volumes": None if ivs is None else ivs.as_strings(),
            "boundary_cells": None if edge is None else len(edge),
            "reachable": reach,
        }
    )


def large_sets_pass(seed: int, p) -> Tally:
    tally = Tally()
    for case in large_set_cases(seed, p):
        run_case(case, tally)
    return tally


def large_sets_warmup() -> None:
    lam = Fraction(1, 6)
    run_case(Case("warm-up", l1geo.L1Ball((0, 0), 1), lam, True), Tally())


# ---------------------------------------------------------------------------


def run_pass(workload: str, seed: int, p) -> Tally:
    if workload == "large-sets":
        return large_sets_pass(seed, p)
    return suite_pass(workload, seed, p)


def warm_up(workload: str, seed: int) -> None:
    if workload == "large-sets":
        large_sets_warmup()
    else:
        suite_warmup(workload, seed)
