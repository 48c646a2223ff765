"""Exact intrinsic volumes for the taxicab metric.

The degree-i intrinsic volume of a pixellated set X in R^n is the sum, over
all C(n, i) coordinate subspaces P, of the i-dimensional volume of the
projection of X onto P.  Degree 0 is the nonempty indicator, degree n the
volume.  On convex sets these are valuation-additive, invariant under signed
permutations and translations, homogeneous of degree i under dilation, and
multiplicative under cartesian products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import numpy as np

from ._util import RationalLike, as_fraction
from .lattice import (
    BoxUnion,
    CellSet,
    IVVector,
    _check_cell_count,
    _int_dtype,
    coordinate_subspaces,
    project,
    union_volume,
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
    degree i sums exact projected volumes over the i-dimensional coordinate
    subspaces."""
    n = u.dimension
    if u.is_empty:
        return IVVector((Fraction(0),) * (n + 1))
    values = [Fraction(1)]
    for i in range(1, n + 1):
        total = Fraction(0)
        for sub in coordinate_subspaces(n, i):
            total += union_volume(project(u, sub))
        values.append(total)
    return IVVector(values)


def intrinsic_volumes(x: CellSet | BoxUnion) -> IVVector:
    if isinstance(x, CellSet):
        return intrinsic_volumes_cellset(x)
    return intrinsic_volumes_boxunion(x)


def euler_characteristic(x: CellSet | BoxUnion) -> int:
    """The nonempty indicator — the combinatorial Euler characteristic of a
    taxicab-convex set (convex sets are contractible)."""
    return int(not x.is_empty)


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
    return CellSet._from_array(x.dimension + y.dimension, rows, x.resolution)


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
    vals = [Fraction(comb(n, i)) * (2 * r) ** i / factorial(i) for i in range(n + 1)]
    return IVVector(vals)
