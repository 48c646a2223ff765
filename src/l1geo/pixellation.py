"""Outer pixellation of convex shapes onto grids of rational resolution.

The outer pixellation X_lambda of a shape S collects every cell whose closed
cube meets S; it contains S, is geodesically convex for the 1-norm whenever S
is, and converges to S in Hausdorff distance as lambda -> 0.  The boundary
region D(lambda) collects the meeting-but-not-contained cells; on nested
grids (lambda vs 3*lambda, both anchored at the origin) its volume shrinks by
the fixed factor (3^n - 1)/3^n.

Supported shapes: taxicab balls and finite unions of rational boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

import numpy as np

from ._util import RationalLike, as_fraction, as_point, common_denominator
from .lattice import (
    _CELL_LIMIT,
    BoxUnion,
    CellSet,
    _breakpoints,
    _check_cell_count,
    _common_arrays,
    _covered_bricks,
    _farthest_sample,
    _fit,
    _int_dtype,
    cellset_to_boxunion,
    point_box_distance,
    union_volume,  # noqa: F401  (benchmarks/tests/test_tracer.py checks this alias)
)


@dataclass(frozen=True)
class L1Ball:
    """Closed taxicab ball {x : |x - center|_1 <= radius}, radius > 0."""

    center: tuple[Fraction, ...]
    radius: Fraction

    def __init__(self, center, radius: RationalLike):
        c = tuple(as_fraction(v) for v in center)
        r = as_fraction(radius)
        if r <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class BoxUnionShape:
    """A shape given directly as a nonempty union of rational boxes."""

    region: BoxUnion

    def __init__(self, region: BoxUnion):
        if region.is_empty:
            raise ValueError("shape must be nonempty")
        object.__setattr__(self, "region", region)

    @property
    def dimension(self) -> int:
        return self.region.dimension


Shape = L1Ball | BoxUnionShape


def shape_contains_point(shape: Shape, point) -> bool:
    pt = as_point(point, shape.dimension)
    if isinstance(shape, L1Ball):
        return sum(abs(x - c) for x, c in zip(pt, shape.center)) <= shape.radius
    return any(b.contains_point(pt) for b in shape.region.boxes)


def shape_point_distance(shape: Shape, point) -> Fraction:
    """Exact taxicab distance from a point to the shape."""
    pt = as_point(point, shape.dimension)
    if isinstance(shape, L1Ball):
        gap = sum(abs(x - c) for x, c in zip(pt, shape.center)) - shape.radius
        return max(gap, Fraction(0))
    return min(point_box_distance(pt, b) for b in shape.region.boxes)


def _scaled_ball(ball: L1Ball, lam: Fraction, den: int = 1) -> tuple[int, int, list[int], int]:
    """``(d, lam, center, radius)`` as integers over the common denominator
    d of ``den``, the resolution and the ball."""
    d = lcm(den, lam.denominator, common_denominator(ball.center), ball.radius.denominator)
    values = (lam, *ball.center, ball.radius)
    lam_i, *center, radius = (v.numerator * (d // v.denominator) for v in values)
    return d, lam_i, center, radius


def _ball_cells(ball: L1Ball, lam: Fraction) -> CellSet:
    """Cells whose cube is within taxicab distance radius of the center.

    Enumerates with per-axis budget pruning in integer arithmetic, visiting
    only an O(1) neighborhood of the answer: along axis i a cell index h
    costs g_i(h) = max(lam*h - c_i, c_i - lam*(h+1), 0), and a cube meets the
    ball iff the costs sum to at most the radius.  The cubes cover the ball,
    so there are at least vol(ball) / lam^n = (2r)^n / (n! lam^n) of them;
    that bound is checked against ``_CELL_LIMIT`` first.  Then the runs along
    the last axis are found, their running count checked once per run, and
    the index array is built from the runs only when all of them pass.
    """
    n = ball.dimension
    _, lam_i, center_i, radius_i = _scaled_ball(ball, lam)
    _check_cell_count(-(-((2 * radius_i) ** n) // (factorial(n) * lam_i**n)))
    if n == 0:
        return CellSet._from_array(0, np.zeros((1, 0), dtype=np.int64), lam)

    # per run along the last axis: its length, and its first cell with the
    # number of cells before the run taken off the last index, so that adding
    # a cell's row number to that index gives the cell
    heads, lengths = [], []
    count = 0
    prefix = [0] * n

    def rec(axis: int, budget: int) -> None:
        nonlocal count
        c = center_i[axis]
        h_min = -((budget + lam_i - c) // lam_i)   # ceil((c - budget - lam)/lam)
        h_max = (c + budget) // lam_i              # floor((c + budget)/lam)
        if axis == n - 1:
            prefix[axis] = h_min - count
            heads.append(prefix.copy())
            lengths.append(h_max - h_min + 1)
            count += h_max - h_min + 1
            _check_cell_count(count)
            return
        for h in range(h_min, h_max + 1):
            cost = max(lam_i * h - c, c - lam_i * h - lam_i, 0)
            prefix[axis] = h
            rec(axis + 1, budget - cost)

    rec(0, radius_i)
    reach = (max(map(abs, center_i)) + radius_i) // lam_i + 2  # bounds every index
    rows = np.repeat(np.array(heads, dtype=_int_dtype(reach + count)), lengths, axis=0)
    rows[:, -1] += np.arange(count)
    return CellSet._from_sorted(n, rows, lam)


def _boxunion_cells(region: BoxUnion, lam: Fraction) -> CellSet:
    """Cells whose cube meets some box: per-axis integer index ranges.

    A box whose own grid passes ``_CELL_LIMIT`` is refused before any cell
    is built.  The grids are built in batches of at most that many rows, and
    the distinct cells so far are checked after each batch, so no more than
    about twice the limit is held at once.
    """
    n = region.dimension
    den, ((lows, highs),) = _common_arrays((region,), lam.denominator)
    step = lam.numerator * (den // lam.denominator)
    # cube [step*h, step*(h+1)] meets [a, b] iff step*h <= b and step*(h+1) >= a
    starts = [[-(-a // step) - 1 for a in lo] for lo in lows.tolist()]
    sizes = [[b // step + 1 - h for h, b in zip(hs, hi)] for hs, hi in zip(starts, highs.tolist())]
    dtype = _int_dtype(max((abs(h) for hs in starts for h in hs), default=0) + _CELL_LIMIT)
    cells, batch, held = None, [], 0
    for box in zip(starts, sizes):
        count = prod(box[1])
        _check_cell_count(count)
        if held + count > _CELL_LIMIT:
            cells = _with_grids(cells, batch, n, dtype, lam)
            batch, held = [], 0
        batch.append(box)
        held += count
    return _with_grids(cells, batch, n, dtype, lam)


def _with_grids(cells: CellSet | None, boxes: list, n: int, dtype, lam: Fraction) -> CellSet:
    """The cells of ``cells`` and the integer points of the boxes
    ``start + [0, sizes)``, refused when they pass ``_CELL_LIMIT``."""
    counts = [prod(sizes) for _, sizes in boxes]
    # one head per box (start, sizes, number of points before it), repeated
    # once per point: a point's rank within its box, spelt in the mixed radix
    # of the sizes, is its offset from the start
    firsts = itertools.accumulate(counts, initial=0)
    heads = [[*start, *sizes, first] for (start, sizes), first in zip(boxes, firsts)]
    cols = np.repeat(np.array(heads, dtype=dtype).T, counts, axis=1)
    rank = np.arange(cols.shape[1]) - cols[-1]
    for axis in range(n - 1, 0, -1):
        cols[axis] += rank % cols[n + axis]
        rank //= cols[n + axis]
    cols[0] += rank  # what is left is below the first side (0 when n == 0)
    rows = cols[:n].T if cells is None else np.concatenate((cells.indices, cols[:n].T))
    cells = CellSet._from_array(n, rows, lam)
    _check_cell_count(len(cells))
    return cells


def outer_pixellate(shape: Shape, resolution: RationalLike) -> CellSet:
    """All cells whose closed cube has nonempty intersection with the shape.

    Touching counts: a cube meeting the shape only in a boundary point is
    included.  The result always contains the shape and inherits taxicab
    convexity from it.
    """
    lam = as_fraction(resolution)
    if lam <= 0:
        raise ValueError("resolution must be positive")
    if isinstance(shape, L1Ball):
        return _ball_cells(shape, lam)
    return _boxunion_cells(shape.region, lam)


def boundary_region(shape: Shape, resolution: RationalLike) -> CellSet:
    """Cells whose cube meets the shape but is not contained in it: a subset
    of the outer pixellation's sorted, distinct rows, kept in their order."""
    lam = as_fraction(resolution)
    meets = outer_pixellate(shape, lam)
    n = meets.dimension
    if isinstance(shape, L1Ball):
        # a cube lies in the ball iff its farthest corner does: per axis the
        # distance to the center is largest at one of the two corner values
        _, step, center, radius = _scaled_ball(shape, lam)
        reach = max(map(abs, center), default=0)
        rows = _fit(meets.indices, scale=n * step, shift=n * (step + reach))
        lows = rows * step - np.asarray(center, dtype=rows.dtype)
        far = np.maximum(abs(lows), abs(lows + step)).sum(axis=1) > radius
        return CellSet._from_sorted(n, meets.indices[far], lam)
    # One compression grid holds the corners of the region and of the cubes,
    # so each brick lies in a box of the region or has its interior outside
    # it, and lies in the cube of a meeting cell h iff h = floor(lower corner
    # / step) on every axis.  OR-ing the uncovered bricks over each run of
    # equal floors leaves one entry per cube: set for the boundary cells.
    cubes = cellset_to_boxunion(meets)
    den, ((lows, highs), (cube_lo, cube_hi)) = _common_arrays((shape.region, cubes))
    breaks = _breakpoints(lows, highs, cube_lo, cube_hi)
    step = lam.numerator * (den // lam.denominator)
    gaps, named = ~_covered_bricks(breaks, lows, highs), []
    for i, bk in enumerate(breaks):
        owners, runs = np.unique(bk[:-1] // step, return_index=True)
        gaps = np.logical_or.reduceat(gaps, runs, axis=i)
        named.append(np.searchsorted(owners, meets.indices[:, i]))
    return CellSet._from_sorted(n, meets.indices[np.reshape(gaps[tuple(named)], -1)], lam)


def pixellation_error_bracket(
    shape: Shape, pix: CellSet, delta: RationalLike
) -> tuple[Fraction, Fraction]:
    """Bracket for the Hausdorff distance between a shape and its pixellation.

    The pixellation contains the shape, so the Hausdorff distance equals the
    directed distance from the cube union to the shape.  On each axis a cube
    is sampled at its low corner plus every multiple of delta below its side,
    and at its high corner (``lattice._box_samples`` started at the low
    corner); the samples cover each cube within taxicab radius n*delta/2, and
    point-to-shape distances are exact.
    """
    if shape.dimension != pix.dimension:
        raise ValueError("dimension mismatch")
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if pix.is_empty:
        raise ValueError("empty pixellation")
    n = pix.dimension
    if n == 0:
        return Fraction(0), Fraction(0)
    cubes = cellset_to_boxunion(pix)
    if isinstance(shape, L1Ball):
        # the ball is its center, a point box, dilated by its radius
        denom, _, center, radius = _scaled_ball(shape, pix.resolution, d.denominator)
        _, ((lows, highs),) = _common_arrays((cubes,), denom)
        mins = maxs = np.array([center], dtype=object)
    else:
        denom, ((lows, highs), (mins, maxs)) = _common_arrays((cubes, shape.region), d.denominator)
        radius = 0
    step = d.numerator * (denom // d.denominator)
    lower = Fraction(_farthest_sample(lows, lows, highs, step, mins, maxs, radius), denom)
    return lower, lower + Fraction(n, 2) * d
