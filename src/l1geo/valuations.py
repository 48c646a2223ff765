"""Exact intrinsic volumes for the taxicab metric.

The degree-i intrinsic volume of a pixellated set X in R^n is the sum, over
all C(n, i) coordinate subspaces P, of the i-dimensional volume of the
projection of X onto P.  Degree 0 is the nonempty indicator, degree n the
volume.  On convex sets these are valuation-additive, invariant under signed
permutations and translations, homogeneous of degree i under dilation, and
multiplicative under cartesian products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial, prod
from operator import itemgetter

import numpy as np

from ._util import RationalLike, as_fraction
from .lattice import (
    BoxUnion,
    CellSet,
    IVVector,
    _breakpoints,
    _brick_sum,
    _cell_runs,
    _check_cell_count,
    _covered_bricks,
    _fit,
    _int_dtype,
)

def intrinsic_volumes_cellset(x: CellSet) -> IVVector:
    """Exact intrinsic-volume vector of a cell set.

    Degree i counts the distinct rows of ``indices[:, axes]`` over every
    i-subset of axes, scaled by resolution^i.  The count for every subset at
    once: shifted to start at 0, a row's mixed-radix key over the subset's
    axes names its projection one to one, so each subset is one column of
    keys, and a column's distinct keys are counted after a sort.  The keys
    are int64 when the whole radix product is below 2^62, else exact ints.
    """
    n = x.dimension
    if x.is_empty:
        return IVVector((Fraction(0),) * (n + 1))
    rows = x.indices - x.indices.min(axis=0)
    radix = (rows.max(axis=0) + 1).tolist()
    dtype = _int_dtype(prod(radix))
    subsets = [axes for i in range(1, n + 1) for axes in combinations(range(n), i)]
    weights = [[prod(radix[:a]) if a in axes else 0 for axes in subsets] for a in range(n)]
    keys = rows.astype(dtype, copy=False) @ np.array(weights, dtype=dtype).reshape(n, len(subsets))
    keys.sort(axis=0)
    counts = iter((1 + (keys[1:] != keys[:-1]).sum(axis=0)).tolist())
    values = [Fraction(1)]
    for i in range(1, n + 1):
        values.append(x.resolution**i * sum(next(counts) for _ in range(comb(n, i))))
    return IVVector(values)


def intrinsic_volumes_boxunion(u: BoxUnion) -> IVVector:
    """Exact intrinsic-volume vector of a box union (degenerate boxes allowed):
    degree i sums the exact i-volumes of the projections onto the coordinate
    i-subspaces P.  One doubled grid serves every P (``_brick_sums``): the
    volume of the projection onto P is the term (P, P), whose point bricks
    weigh 0.  That grid has prod_a (2 d_a - 1) bricks, d_a the distinct
    corner coordinates on axis a, up to 3^n times the plain grid of
    ``union_volume``; a union whose doubled grid passes
    ``_UNION_GRID_LIMIT`` (60,000,000 bricks) is refused with a ValueError
    before the table is built."""
    n = u.dimension
    subsets = [axes for i in range(n + 1) for axes in combinations(range(n), i)]
    return IVVector(_brick_sums(u, [(axes, axes) for axes in subsets]))


def intrinsic_volumes(x: CellSet | BoxUnion) -> IVVector:
    if isinstance(x, CellSet):
        return intrinsic_volumes_cellset(x)
    return intrinsic_volumes_boxunion(x)


def _brick_sums(x: CellSet | BoxUnion, terms) -> tuple[Fraction, ...]:
    """Entry d is the sum, over each term (P, L) of ``terms`` with d axes in
    L (kept axes P, length axes L within P) and each open cell of the
    projection of X onto P, of the product of the cell's lengths on L and
    its signs on the other axes of P: ``_contract`` over one
    ``_doubled_grid`` of X.

    On each axis the breakpoints 2v and 2v + 1 of every corner v cut the
    line into bricks that stand for the points v (from an even breakpoint,
    sign 1 and length 0) and the open gaps between them (from an odd one,
    sign -1), so the closed box [a, b] covers the bricks of [2a, 2b + 1).
    The covered bricks are the open cells of a complex whose union is X.
    A box covers a point brick on every axis, so the table of the
    projection onto P is the table of X OR-ed along the axes outside P: the
    grid is built once and reduced once per run of terms with the same P.
    P = () leaves a 0-d table, which counts 1 when X is nonempty.  Over
    every L within P, entry d is the additive extension of V'_d of the
    projection, which values an open cell at the product over its gap axes
    of (length * t - 1); entry 0 of the term (all axes, ()) alone is the
    Euler characteristic.
    """
    return _contract(_doubled_grid(x), terms)


@dataclass(frozen=True)
class _Grid:
    """The doubled grid of ``_brick_sums``: the covered-brick table (None
    for an empty set), each axis's brick signs and lengths in ``dtype``, and
    the common denominator of the lengths."""

    n: int
    den: int
    covered: np.ndarray | None
    signs: list[np.ndarray]
    lengths: list[np.ndarray]
    dtype: object


def _doubled_grid(x: CellSet | BoxUnion) -> _Grid:
    """Build the doubled grid of X once, for any number of ``_contract``
    calls; a cell set enters as its runs along the last axis
    (``_cell_runs``), not one box per cell."""
    u = _cell_runs(x) if isinstance(x, CellSet) else x
    if u.is_empty:
        return _Grid(u.dimension, u.den, None, [], [], None)
    lows, highs = (2 * _fit(a, scale=2, shift=1) for a in (u.lows, u.highs))
    breaks = _breakpoints(lows, lows + 1, highs, highs + 1)
    covered = _covered_bricks(breaks, lows, highs + 1)
    # an axis's brick count and the sum of its lengths are both below its span
    dtype = _int_dtype(prod(int(bk[-1]) - int(bk[0]) for bk in breaks))
    signs = [np.where(bk[:-1] % 2 == 0, 1, -1).astype(dtype, copy=False) for bk in breaks]
    lengths = [np.diff(bk // 2).astype(dtype, copy=False) for bk in breaks]
    return _Grid(u.dimension, u.den, covered, signs, lengths, dtype)


def _contract(grid: _Grid, terms) -> tuple[Fraction, ...]:
    """The sums of ``_brick_sums`` over ``terms``, on a grid already built."""
    n = grid.n
    sums = [0] * (n + 1)  # in units of 1/den^d
    if grid.covered is None:
        return tuple(map(Fraction, sums))
    for kept, group in groupby(terms, key=itemgetter(0)):
        dropped = tuple(a for a in range(n) if a not in kept)
        table = grid.covered.any(axis=dropped) if dropped else grid.covered
        for _, axes in group:
            if kept:
                weights = [
                    grid.lengths[a] if a in axes else grid.signs[a] for a in range(n) if a in kept
                ]
                sums[len(axes)] += _brick_sum(table, weights, grid.dtype)
            else:
                sums[0] += int(table)
    return tuple(Fraction(total, grid.den**d) for d, total in enumerate(sums))


def _additive_volumes(x: CellSet | BoxUnion) -> tuple[Fraction, ...]:
    """V'_0..V'_n extended additively to unions: V'_0 is the Euler
    characteristic, so this is an ``IVVector`` only on convex sets."""
    n = x.dimension
    full = tuple(range(n))
    return _brick_sums(x, [(full, axes) for j in range(n + 1) for axes in combinations(full, j)])


def euler_characteristic(x: CellSet | BoxUnion) -> int:
    """The Euler characteristic of a union of closed boxes (degenerate boxes
    allowed), or of the cubes of a cell set: 1 on a nonempty convex set.  It
    is the signed count of the open cells of the set (``_brick_sums``)."""
    return int(_brick_sums(x, [(tuple(range(x.dimension)), ())])[0])


def elementary_symmetric(lengths) -> tuple[Fraction, ...]:
    """Coefficients (e_0, ..., e_k) of prod_i (1 + u_i t) for side lengths u.

    These are the intrinsic volumes of a box with those side lengths.
    Negative lengths are rejected.
    """
    vals = [as_fraction(v) for v in lengths]
    if any(v < 0 for v in vals):
        raise ValueError("side lengths must be nonnegative")
    coeffs = [Fraction(1)]
    for u in vals:
        nxt = coeffs + [Fraction(0)]
        for j in range(len(coeffs), 0, -1):
            nxt[j] = nxt[j] + u * coeffs[j - 1]
        coeffs = nxt
    return tuple(coeffs)


def box_intrinsic_volumes(sides) -> IVVector:
    return IVVector(elementary_symmetric(sides))


def cellset_product(x: CellSet, y: CellSet) -> CellSet:
    """Cartesian product of two cell sets on a common resolution."""
    if x.resolution != y.resolution:
        raise ValueError("resolution mismatch")
    _check_cell_count(len(x) * len(y))
    rows = np.hstack((np.repeat(x.indices, len(y), axis=0), np.tile(y.indices, (len(x), 1))))
    # X's rows, each followed by Y's: sorted and distinct when both are
    return CellSet._from_sorted(x.dimension + y.dimension, rows, x.resolution)


def product_rhs(vx: IVVector, vy: IVVector) -> IVVector:
    """Predicted intrinsic volumes of a product: the convolution
    V'_k(X x Y) = sum_{i+j=k} V'_i(X) V'_j(Y)."""
    n, m = vx.dimension, vy.dimension
    out = []
    for k in range(n + m + 1):
        s = Fraction(0)
        for i in range(max(0, k - m), min(n, k) + 1):
            s += vx[i] * vy[k - i]
        out.append(s)
    return IVVector(out)


def ball_intrinsic_volumes(n: int, radius: RationalLike = 1) -> IVVector:
    """Exact intrinsic volumes of the taxicab ball of a given radius:
    degree i equals C(n, i) * (2r)^i / i!."""
    r = as_fraction(radius)
    if r < 0:
        raise ValueError("radius must be >= 0")
    vals = [Fraction(comb(n, i)) * (2 * r) ** i / factorial(i) for i in range(n + 1)]
    return IVVector(vals)
