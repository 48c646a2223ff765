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
from math import lcm

import numpy as np

from ._util import RationalLike, as_fraction, common_denominator
from .lattice import (
    BoxUnion,
    CellSet,
    _block_entries,
    _common_arrays,
    _covered_bricks,
    _directed_distance_scaled,
    _fit,
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


def _scaled_ball(ball: L1Ball, lam: Fraction, den: int = 1) -> tuple[int, int, list[int], int]:
    """``(d, lam, center, radius)`` as integers over the common denominator
    d of ``den``, the resolution and the ball."""
    d = lcm(den, lam.denominator, common_denominator(ball.center), ball.radius.denominator)
    values = (lam, *ball.center, ball.radius)
    lam_i, *center, radius = (v.numerator * (d // v.denominator) for v in values)
    return d, lam_i, center, radius


def _ball_cells(ball: L1Ball, lam: Fraction) -> list[tuple[int, ...]]:
    """Cells whose cube is within taxicab distance radius of the center.

    Enumerates with per-axis budget pruning in integer arithmetic, visiting
    only an O(1) neighborhood of the answer: along axis i a cell index h
    costs g_i(h) = max(lam*h - c_i, c_i - lam*(h+1), 0), and a cube meets the
    ball iff the costs sum to at most the radius.
    """
    n = ball.dimension
    _, lam_i, center_i, radius_i = _scaled_ball(ball, lam)

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
    den, ((lows, highs),) = _common_arrays((region,), lam.denominator)
    step = lam.numerator * (den // lam.denominator)
    cells: set[tuple[int, ...]] = set()
    for lo, hi in zip(lows.tolist(), highs.tolist()):
        # cube [step*h, step*(h+1)] meets [a, b] iff step*h <= b and step*(h+1) >= a
        ranges = [range(-(-a // step) - 1, b // step + 1) for a, b in zip(lo, hi)]
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


def boundary_region(shape: Shape, resolution: RationalLike) -> CellSet:
    """Cells whose cube meets the shape but is not contained in it."""
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
        return CellSet._from_array(n, meets.indices[far], lam)
    # One compression grid holds the corners of the region and of the cubes,
    # so each brick lies in a box of the region or has its interior outside
    # it, and lies in the cube of a meeting cell h iff h = floor(lower corner
    # / step) on every axis.  The boundary cells are the meeting cells that
    # the uncovered bricks name.
    cubes = cellset_to_boxunion(meets)
    den, ((lows, highs), (cube_lo, cube_hi)) = _common_arrays((shape.region, cubes))
    breaks, covered = _covered_bricks(lows, highs, cube_lo, cube_hi)
    step = lam.numerator * (den // lam.denominator)
    gaps = np.argwhere(~covered)
    owners = zip(*((breaks[i][gaps[:, i]] // step).tolist() for i in range(n)))
    return CellSet(n, meets.cells & set(owners), lam)


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
    cubes = cellset_to_boxunion(pix)
    if isinstance(shape, L1Ball):
        denom, _, center, radius = _scaled_ball(shape, lam, d.denominator)
        _, ((lows, _),) = _common_arrays((cubes,), denom)
        shape_mag = max(map(abs, center)) + radius
    else:
        denom, ((lows, _), (mins, maxs)) = _common_arrays((cubes, shape.region), d.denominator)
        shape_mag = max(int(abs(mins).max()), int(abs(maxs).max()))

    lam_i = int(lam * denom)
    step_i = int(d * denom)
    # per-cell per-axis sample offsets within [0, lam], scaled
    offsets = sorted({0, lam_i} | {k * step_i for k in range(1, lam_i // step_i + 1) if k * step_i < lam_i})

    # The scan runs in int64 when the sizes bound every distance below 2^62,
    # and on exact big-int arrays otherwise: a sample point is at most a
    # corner's size plus lam_i from the origin and a shape point at most
    # shape_mag, so every per-axis gap is at most their sum.
    corners = _fit(lows, scale=n, shift=n * (lam_i + shape_mag))
    dtype = corners.dtype
    offs = np.asarray(list(itertools.product(offsets, repeat=n)), dtype=dtype)

    best = 0
    if isinstance(shape, L1Ball):
        center = np.asarray(center, dtype=dtype)
        chunk = max(1, _block_entries(dtype) // max(len(offs), 1))
        for start in range(0, len(corners), chunk):
            block = corners[start:start + chunk]
            pts = block[:, None, :] + offs[None, :, :]
            dist = np.abs(pts - center).sum(axis=2) - radius
            best = max(best, int(dist.max()))
        best = max(best, 0)
    else:
        mins = mins.astype(dtype, copy=False)
        maxs = maxs.astype(dtype, copy=False)
        chunk = max(1, _block_entries(dtype) // max(len(offs) * mins.shape[0], 1))
        for start in range(0, len(corners), chunk):
            block = corners[start:start + chunk]
            pts = (block[:, None, :] + offs[None, :, :]).reshape(-1, n)
            best = max(best, _directed_distance_scaled(pts, mins, maxs))
    lower = Fraction(best, denom)
    return lower, lower + Fraction(n, 2) * d
