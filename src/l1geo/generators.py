"""Seeded random instance generators for the verification suites.

All generators are deterministic functions of their arguments: the RNG is
seeded from a stable hash of the parameters, so the same call always yields
the same instance regardless of process or platform.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np

from ._util import MEMO, MISSING, RationalLike, as_fraction, derive_seed
from .convexity import convexify, is_l1_convex
from .lattice import CellSet, RatBox, _int_dtype
from .pixellation import L1Ball, outer_pixellate

MODES = ("blob", "staircase", "ball")
# generated sets of fewer cells are kept in the memo; a kept entry's charge
# counts its array's header and data, its resolution and its triple
_KEPT_CELLS = 256
_KEPT_BYTES = 384


def _unranked(picks: list[int], n: int, bound: int) -> np.ndarray:
    """The cells of [0, bound)^n with the given ranks as rows; axis 0 varies
    fastest."""
    ranks = np.asarray(picks, dtype=_int_dtype(bound**n))
    return np.stack([ranks // bound**axis % bound for axis in range(n)], axis=1)


def gen_random_convex(
    n: int,
    bound: int,
    density: float,
    seed: int,
    *,
    mode: str = "blob",
    resolution: RationalLike = 1,
) -> CellSet:
    """A random convex cell set with cells inside [0, bound)^n.

    Modes: "blob" scatters seed cells and repairs them with convexify;
    "staircase" takes the cells under a random monotone weighted-threshold
    boundary (convex by construction); "ball" pixellates a random rational
    ball.  ``density`` in [0, 1] scales the instance; density 0 yields a
    singleton in every mode.  Deterministic in (all arguments).  A result
    of fewer than ``_KEPT_CELLS`` cells is kept in the memo
    (``_util.MEMO``), keyed by the arguments' types and values, and a
    repeated call rebuilds the set from its read-only index array.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    lam = as_fraction(resolution)
    if lam <= 0:
        raise ValueError("resolution must be positive")
    # the seed reads repr(density) and str(seed), so the key keeps each
    # argument's type and repr: 0 and 0.0, or True and 1, draw differently
    key = repr((mode, lam, *((type(v), v) for v in (n, bound, density, seed))))
    kept = MEMO.get(key)
    if kept is not MISSING:
        return CellSet._from_sorted(*kept)
    out = _random_convex(n, bound, density, seed, mode, lam)
    verdict = is_l1_convex(out)
    if not verdict:
        raise AssertionError(f"generator produced a non-convex set: {verdict.witness}")
    rows = out.indices
    if len(out) < _KEPT_CELLS:
        if rows.base is not None:  # keep no larger array alive
            rows = rows.copy()
            rows.flags.writeable = False
        MEMO.put(key, (out.dimension, rows, out.resolution), sys.getsizeof(key) + rows.nbytes + _KEPT_BYTES)
    return out


def _random_convex(n: int, bound: int, density: float, seed: int, mode: str, lam: Fraction) -> CellSet:
    """The body of ``gen_random_convex`` on checked arguments, unmemoized."""
    rng = random.Random(derive_seed("gen_random_convex", mode, n, bound, repr(density), seed))

    if mode == "ball" and density > 0:
        center = tuple(
            lam * Fraction(rng.randint(0, 2 * bound), 2) for _ in range(n)
        )
        radius = lam * max(Fraction(1, 2), Fraction(round(density * bound * 2), 2))
        return outer_pixellate(L1Ball(center, radius), lam)
    if mode == "staircase" and density > 0:
        weights = [rng.randint(1, 4) for _ in range(n)]
        threshold = round(density * sum(w * (bound - 1) for w in weights))
        grid = np.indices((bound,) * n).reshape(n, -1).T
        return CellSet._from_array(n, grid[grid @ np.asarray(weights) <= threshold], lam)
    total = bound**n
    target = max(1, min(total, round(density * total)))
    picks = rng.sample(range(total), k=target)
    return convexify(CellSet._from_array(n, _unranked(picks, n, bound), lam))


def gen_random_cellset(
    n: int,
    bound: int,
    count: int,
    seed: int,
    *,
    resolution: RationalLike = 1,
) -> CellSet:
    """A random (usually non-convex) cell set: ``count`` distinct cells in
    [0, bound)^n, deterministic in the arguments."""
    if n < 1 or bound < 1:
        raise ValueError("need n >= 1 and bound >= 1")
    lam = as_fraction(resolution)
    if lam <= 0:
        raise ValueError("resolution must be positive")
    total = bound**n
    count = max(0, min(count, total))
    rng = random.Random(derive_seed("gen_random_cellset", n, bound, count, seed))
    picks = rng.sample(range(total), k=count)
    return CellSet._from_array(n, _unranked(picks, n, bound), lam)


def gen_random_box(
    n: int,
    seed: int,
    *,
    low: int = 0,
    high: int = 6,
    denominator: int = 2,
    aligned: bool = False,
    resolution: RationalLike = 1,
    min_side: RationalLike = 0,
) -> RatBox:
    """A random rational box inside resolution*[low, high]^n.

    With ``aligned`` the corners are grid multiples of the resolution;
    otherwise they are multiples of resolution/denominator.  Sides are at
    least ``min_side`` (in resolution units), deterministic in the arguments.
    """
    if high <= low:
        raise ValueError("need high > low")
    lam = as_fraction(resolution)
    floor_side = as_fraction(min_side)
    rng = random.Random(
        derive_seed("gen_random_box", n, low, high, denominator, aligned, str(lam), str(floor_side), seed)
    )
    den = 1 if aligned else denominator
    mins = []
    maxs = []
    span = (high - low) * den
    for _ in range(n):
        a = rng.randint(0, span)
        b = rng.randint(0, span)
        if a > b:
            a, b = b, a
        lo = lam * (Fraction(a, den) + low)
        hi = lam * (Fraction(b, den) + low)
        if hi - lo < lam * floor_side:
            hi = lo + lam * floor_side
        mins.append(lo)
        maxs.append(hi)
    return RatBox(tuple(mins), tuple(maxs))
