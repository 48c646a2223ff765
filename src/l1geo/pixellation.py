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
from math import ceil, floor, lcm

import numpy as np

from ._util import RationalLike, as_fraction, common_denominator
from .lattice import (
    _INT64_SAFE,
    BoxUnion,
    CellSet,
    RatBox,
    _block_entries,
    _directed_distance_scaled,
    _scaled_union_arrays,
    box_intersection,
    cell_box,
    point_box_distance,
    union_volume,
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
    pt = tuple(as_fraction(v) for v in point)
    if isinstance(shape, L1Ball):
        return sum(abs(x - c) for x, c in zip(pt, shape.center)) <= shape.radius
    return any(b.contains_point(pt) for b in shape.region.boxes)


def shape_point_distance(shape: Shape, point) -> Fraction:
    """Exact taxicab distance from a point to the shape."""
    pt = tuple(as_fraction(v) for v in point)
    if isinstance(shape, L1Ball):
        gap = sum(abs(x - c) for x, c in zip(pt, shape.center)) - shape.radius
        return max(gap, Fraction(0))
    return min(point_box_distance(pt, b) for b in shape.region.boxes)


def _ball_cells(ball: L1Ball, lam: Fraction) -> list[tuple[int, ...]]:
    """Cells whose cube is within taxicab distance radius of the center.

    Enumerates with per-axis budget pruning in integer arithmetic, visiting
    only an O(1) neighborhood of the answer: along axis i a cell index h
    costs g_i(h) = max(lam*h - c_i, c_i - lam*(h+1), 0), and a cube meets the
    ball iff the costs sum to at most the radius.
    """
    n = ball.dimension
    d = lcm(lam.denominator, common_denominator(ball.center), ball.radius.denominator)
    lam_i = int(lam * d)
    center_i = [int(c * d) for c in ball.center]
    radius_i = int(ball.radius * d)

    out: list[tuple[int, ...]] = []
    prefix = [0] * n

    def rec(axis: int, budget: int) -> None:
        c = center_i[axis]
        h_min = -((budget + lam_i - c) // lam_i)   # ceil((c - budget - lam)/lam)
        h_max = (c + budget) // lam_i              # floor((c + budget)/lam)
        if axis == n - 1:
            for h in range(h_min, h_max + 1):
                prefix[axis] = h
                out.append(tuple(prefix))
            return
        for h in range(h_min, h_max + 1):
            cost = max(lam_i * h - c, c - lam_i * h - lam_i, 0)
            prefix[axis] = h
            rec(axis + 1, budget - cost)

    if n == 0:
        return [()]
    rec(0, radius_i)
    return out


def _boxunion_cells(region: BoxUnion, lam: Fraction) -> set[tuple[int, ...]]:
    """Cells whose cube meets some box: per-axis integer index ranges."""
    cells: set[tuple[int, ...]] = set()
    for b in region.boxes:
        ranges = []
        for lo, hi in zip(b.mins, b.maxs):
            # cube [lam*h, lam*(h+1)] meets [lo, hi] iff lam*h <= hi and lam*(h+1) >= lo
            ranges.append(range(ceil(lo / lam - 1), floor(hi / lam) + 1))
        cells.update(itertools.product(*ranges))
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
        return CellSet(shape.dimension, _ball_cells(shape, lam), lam)
    return CellSet(shape.dimension, _boxunion_cells(shape.region, lam), lam)


def _cube_inside_ball(cell, lam: Fraction, ball: L1Ball) -> bool:
    """A cube lies in the ball iff its farthest corner does: per axis the
    distance to the center is maximized at one of the two corner values."""
    total = Fraction(0)
    for h, c in zip(cell, ball.center):
        total += max(abs(lam * h - c), abs(lam * (h + 1) - c))
    return total <= ball.radius


def _cube_inside_boxunion(cell, lam: Fraction, region: BoxUnion) -> bool:
    """Cube containment in a box union, decided exactly by volume: the cube
    is covered iff the clipped pieces fill its full volume (box unions are
    finite unions of boxes, so a missed point leaves an open gap)."""
    cube = cell_box(cell, lam)
    pieces = []
    for b in region.boxes:
        c = box_intersection(cube, b)
        if c is not None:
            pieces.append(c)
    if not pieces:
        return False
    return union_volume(BoxUnion(len(cell), pieces)) == lam ** len(cell)


def boundary_region(shape: Shape, resolution: RationalLike) -> CellSet:
    """Cells whose cube meets the shape but is not contained in it."""
    lam = as_fraction(resolution)
    meets = outer_pixellate(shape, lam)
    if isinstance(shape, L1Ball):
        cells = [c for c in meets.cells if not _cube_inside_ball(c, lam, shape)]
    else:
        cells = [c for c in meets.cells if not _cube_inside_boxunion(c, lam, shape.region)]
    return CellSet(meets.dimension, cells, lam)


def pixellation_error_bracket(
    shape: Shape, pix: CellSet, delta: RationalLike
) -> tuple[Fraction, Fraction]:
    """Bracket for the Hausdorff distance between a shape and its pixellation.

    The pixellation contains the shape, so the Hausdorff distance equals the
    directed distance from the cube union to the shape.  Samples are per-axis
    delta-grids plus endpoints on every cube (covering radius n*delta/2), and
    point-to-shape distances are exact.
    """
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if pix.is_empty:
        raise ValueError("empty pixellation")
    n = pix.dimension
    if n == 0:
        return Fraction(0), Fraction(0)
    lam = pix.resolution

    denom = lcm(d.denominator, lam.denominator)
    if isinstance(shape, L1Ball):
        denom = lcm(denom, common_denominator(shape.center), shape.radius.denominator)
        center = [int(c * denom) for c in shape.center]
        radius = int(shape.radius * denom)
        shape_mag = max(map(abs, center)) + radius
    else:
        denom, ((mins, maxs),) = _scaled_union_arrays((shape.region,), denom)
        shape_mag = max(int(abs(mins).max()), int(abs(maxs).max()))

    lam_i = int(lam * denom)
    step_i = int(d * denom)
    # per-cell per-axis sample offsets within [0, lam], scaled
    offsets = sorted({0, lam_i} | {k * step_i for k in range(1, lam_i // step_i + 1) if k * step_i < lam_i})

    # The scan runs in int64 when the sizes bound every distance below 2^62,
    # and on exact big-int arrays otherwise: a sample point is at most
    # (cell_mag + 1) * lam_i from the origin and a shape point at most
    # shape_mag, so every per-axis gap is at most their sum.
    rows = pix.sorted_cells()
    try:
        cells = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        cells = np.asarray(rows, dtype=object)
    cell_mag = max(int(cells.max(initial=0)), -int(cells.min(initial=0)))
    dtype = np.int64 if n * ((cell_mag + 1) * lam_i + shape_mag) < _INT64_SAFE else object
    cells = cells.astype(dtype, copy=False)
    offs = np.asarray(list(itertools.product(offsets, repeat=n)), dtype=dtype)

    best = 0
    if isinstance(shape, L1Ball):
        center = np.asarray(center, dtype=dtype)
        chunk = max(1, _block_entries(dtype) // max(len(offs), 1))
        for start in range(0, len(cells), chunk):
            block = cells[start:start + chunk]
            pts = block[:, None, :] * lam_i + offs[None, :, :]
            dist = np.abs(pts - center).sum(axis=2) - radius
            best = max(best, int(dist.max()))
        best = max(best, 0)
    else:
        mins = mins.astype(dtype, copy=False)
        maxs = maxs.astype(dtype, copy=False)
        chunk = max(1, _block_entries(dtype) // max(len(offs) * mins.shape[0], 1))
        for start in range(0, len(cells), chunk):
            block = cells[start:start + chunk]
            pts = (block[:, None, :] * lam_i + offs[None, :, :]).reshape(-1, n)
            best = max(best, _directed_distance_scaled(pts, mins, maxs))
    lower = Fraction(best, denom)
    return lower, lower + Fraction(n, 2) * d
