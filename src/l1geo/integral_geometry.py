"""Exact and Monte Carlo checks of integral-geometric identities.

Every identity here compares two independently computed sides:

* Steiner: intrinsic volumes of a cube dilation vs a binomial polynomial in
  the dilation width.
* Crofton: the integral of a slice valuation over all axis-parallel flats of
  a fixed dimension (an exact finite sum — slices are constant on the open
  cells of the complementary grid) vs a binomial multiple of one intrinsic
  volume.
* Kubota: projection sums over coordinate subspaces vs a binomial multiple.
* Kinematic: the measure of colliding placements of a moving copy of X
  against a fixed interval, exactly (degree 0) or by seeded Monte Carlo over
  translations (higher degree), vs a bilinear pairing of intrinsic volumes.

The invariant measure on placements is the uniform average over the 2^n n!
signed permutations times Lebesgue measure on translations.  In degree 0 the
signs drop out and only the permutation of the interval's side lengths
matters, so the exact side takes one union volume per distinct permuted side
tuple; the Monte Carlo side still samples every group element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, lcm, sqrt

import numpy as np

from ._util import as_fraction
from .lattice import (
    BoxUnion,
    CellSet,
    IVVector,
    RatBox,
    SignedPerm,
    _int_dtype,
    apply_isometry,
    boxunion_intersection,
    boxunion_minkowski_box,
    cellset_to_boxunion,
    coordinate_subspaces,
    hyperoctahedral_group,
    minkowski_sum_box,
    project,
    union_volume,
)
from .valuations import (
    elementary_symmetric,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its exact comparison value.

    ``samples`` counts draws per group element; ``standard_error`` is the
    estimated standard deviation of ``estimate``.
    """

    estimate: float
    standard_error: float
    samples: int
    seed: int
    exact_rhs: Fraction

    @property
    def z_score(self) -> float:
        gap = self.estimate - float(self.exact_rhs)
        if self.standard_error == 0:
            return 0.0 if gap == 0 else float("inf")
        return gap / self.standard_error


# ---------------------------------------------------------------------------
# Steiner


def steiner_profile(x: CellSet, dilation: int) -> tuple[IVVector, IVVector]:
    """lhs/rhs vectors for cube dilation by ``dilation`` grid steps.

    lhs_k = V'_k(X + [0, m*lam]^n) computed from the dilated set; rhs_k is
    the polynomial sum_i C(n-i, n-k) V'_i(X) (m*lam)^(k-i).
    """
    if dilation < 0:
        raise ValueError("dilation must be >= 0")
    n = x.dimension
    lam = x.resolution
    width = dilation * lam
    box = RatBox((Fraction(0),) * n, (width,) * n)
    dilated = minkowski_sum_box(x, box)
    lhs = intrinsic_volumes_cellset(dilated)
    base = intrinsic_volumes_cellset(x)
    rhs = [
        sum(
            (comb(n - i, n - k) * base[i] * width ** (k - i) for i in range(k + 1)),
            start=Fraction(0),
        )
        for k in range(n + 1)
    ]
    return lhs, IVVector(rhs)


def steiner_check(x: CellSet, k: int, dilation: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the Steiner identity in degree k."""
    if not 0 <= k <= x.dimension:
        raise ValueError("degree out of range")
    lhs, rhs = steiner_profile(x, dilation)
    return lhs[k], rhs[k]


# ---------------------------------------------------------------------------
# Crofton


def crofton_profile(x: CellSet, k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """lhs/rhs tuples over j = 0..k for flats of dimension k.

    The flat integral is an exact finite sum: flats parallel to subspace P
    meet X in a set depending only on which complementary grid cell the
    offset lies in, so the integral is lam^(n-k) times a sum of slice
    valuations over occupied complementary cells.
    """
    n = x.dimension
    if not 0 <= k <= n:
        raise ValueError("flat dimension out of range")
    lam = x.resolution
    lhs = [Fraction(0)] * (k + 1)
    weight = lam ** (n - k)
    for sub in coordinate_subspaces(n, k):
        # complement axes first: sorted, the cells of one slice are one run of rows
        cols = [*sub.complement().axes, *sub.axes]
        rows = CellSet._from_array(n, x.indices[:, cols], lam).indices
        cuts = np.flatnonzero((rows[1:, : n - k] != rows[:-1, : n - k]).any(axis=1)) + 1
        for piece in np.split(rows[:, n - k :], cuts):
            slice_iv = intrinsic_volumes_cellset(CellSet._from_array(k, piece, lam))
            for j in range(k + 1):
                lhs[j] += weight * slice_iv[j]
    base = intrinsic_volumes_cellset(x)
    rhs = [comb(n + j - k, j) * base[n + j - k] for j in range(k + 1)]
    return tuple(lhs), tuple(rhs)


def crofton_integral(x: CellSet, k: int, j: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the flat-integral identity for k-flats in degree j."""
    if not 0 <= j <= k <= x.dimension:
        raise ValueError("need 0 <= j <= k <= n")
    lhs, rhs = crofton_profile(x, k)
    return lhs[j], rhs[j]


# ---------------------------------------------------------------------------
# Kubota


def kubota_profile(x: CellSet, k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """lhs/rhs tuples over j = 0..k for projections onto k-subspaces."""
    n = x.dimension
    if not 0 <= k <= n:
        raise ValueError("subspace dimension out of range")
    lhs = [Fraction(0)] * (k + 1)
    for sub in coordinate_subspaces(n, k):
        proj_iv = intrinsic_volumes_cellset(project(x, sub))
        for j in range(k + 1):
            lhs[j] += proj_iv[j]
    base = intrinsic_volumes_cellset(x)
    rhs = [comb(n - j, n - k) * base[j] for j in range(k + 1)]
    return tuple(lhs), tuple(rhs)


def kubota_sum(x: CellSet, k: int, j: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the projection-sum identity."""
    if not 0 <= j <= k <= x.dimension:
        raise ValueError("need 0 <= j <= k <= n")
    lhs, rhs = kubota_profile(x, k)
    return lhs[j], rhs[j]


# ---------------------------------------------------------------------------
# kinematic: exact principal form


def principal_kinematic_rhs(x: CellSet, box: RatBox) -> Fraction:
    vx = intrinsic_volumes_cellset(x)
    e = elementary_symmetric(box.side_lengths())
    n = x.dimension
    return sum(
        (Fraction(1, comb(n, i)) * vx[i] * e[n - i] for i in range(n + 1)),
        start=Fraction(0),
    )


def kinematic_principal(x: CellSet, box: RatBox | None) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) for the collision measure of a moving copy of X with a box.

    lhs is the mean, over all signed permutations g, of the exact volume of
    {q : (gX + q) meets I} = I - gX.  That volume equals vol(X + g^-1(-I)):
    a sign flip only translates the box, and a permutation permutes its side
    lengths.  So lhs is the mean, over the n! permutations of the sides of I,
    of the volume of the union of the cubes of X each widened by the permuted
    sides.  Each distinct permuted side tuple occurs equally often, so one
    union volume per distinct tuple suffices: one for a cube, at most n! in
    all.  An absent interval (box=None) returns (0, 0) by convention.
    """
    if box is None:
        return Fraction(0), Fraction(0)
    n = x.dimension
    if box.dimension != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        val = Fraction(1) if not x.is_empty else Fraction(0)
        return val, val
    cubes = cellset_to_boxunion(x)
    side_orders = sorted(set(permutations(box.side_lengths())))
    total = Fraction(0)
    for sides in side_orders:
        total += union_volume(boxunion_minkowski_box(cubes, RatBox((0,) * n, sides)))
    lhs = total / len(side_orders)
    return lhs, principal_kinematic_rhs(x, box)


# ---------------------------------------------------------------------------
# kinematic: higher degrees by Monte Carlo over translations


def clip_translate(x: CellSet, g: SignedPerm, translation, box: RatBox) -> BoxUnion:
    """The exact box union (gX + q) clipped to a box; degenerate pieces kept."""
    n = x.dimension
    q = tuple(as_fraction(v) for v in translation)
    if g.dimension != n or box.dimension != n or len(q) != n:
        raise ValueError("dimension mismatch")
    moved = apply_isometry(x, g, q)
    if isinstance(moved, CellSet):
        moved = cellset_to_boxunion(moved)
    return boxunion_intersection(moved, BoxUnion(n, [box]))


def exact_clip_valuation(x: CellSet, g: SignedPerm, translation, box: RatBox, k: int) -> Fraction:
    """Reference route for the Monte Carlo integrand: clip, then take V'_k."""
    return intrinsic_volumes_boxunion(clip_translate(x, g, translation, box))[k]


def higher_kinematic_rhs(x: CellSet, box: RatBox, k: int) -> Fraction:
    vx = intrinsic_volumes_cellset(x)
    e = elementary_symmetric(box.side_lengths())
    n = x.dimension
    total = Fraction(0)
    for j in range(k, n + 1):
        i = n + k - j
        if 0 <= i <= n:
            total += Fraction(comb(j, k), comb(n, i)) * vx[i] * e[j]
    return total


_BITS = 16  # sample translations are dyadic rationals of this depth
_BLOCK_SIZE = 8192  # samples drawn per RNG stream


class _ElementLayout:
    """The cells of gX arranged for the sampler; independent of bit depth.

    The cells of gX are the rows of ``g.apply_rows(x.indices)``, int64 or
    exact big-int (object) as those of X are.  On each axis, ``coords[i]``
    lists their distinct coordinates and ``ranks[:, i]`` gives each cell's
    position in that list.  Per coordinate k-subspace P, with complement
    axes Q, ``subspaces`` holds (Q ranks, incidence, segment ranks).  A
    segment is a distinct P-projection of the cells; the segment ranks give
    its coordinate on every axis of P.  The Q ranks give the coordinates of
    the W distinct Q-projections on every axis of Q (one empty projection
    when Q is empty), and ``incidence`` is the float32 0/1 matrix
    (segments, W) marking which projections occur in which segment.  A
    product with it counts incident projections, an integer at most W <= m,
    which float32 holds exactly below 2^24 cells; more are refused.
    """

    def __init__(self, x: CellSet, g: SignedPerm, k: int):
        n = x.dimension
        cells = g.apply_rows(x.indices)
        m = cells.shape[0]
        if m >= 1 << 24:
            raise ValueError("too many cells for the sampler's float32 incidence counts")
        self.resolution = x.resolution
        self.coords = []
        self.ranks = np.empty((m, n), dtype=np.intp)
        for i in range(n):
            coords, self.ranks[:, i] = np.unique(cells[:, i], return_inverse=True)
            self.coords.append(coords)
        self.subspaces = []
        for sub in coordinate_subspaces(n, k):
            p_axes, q_axes = list(sub.axes), list(sub.complement().axes)
            segs, seg_of = np.unique(self.ranks[:, p_axes], axis=0, return_inverse=True)
            projs, proj_of = np.unique(self.ranks[:, q_axes], axis=0, return_inverse=True)
            incidence = np.zeros((segs.shape[0], projs.shape[0]), dtype=np.float32)
            incidence[seg_of.reshape(-1), proj_of.reshape(-1)] = 1
            self.subspaces.append(
                (list(zip(q_axes, projs.T)), incidence, list(zip(p_axes, segs.T)))
            )


class _ElementSampler:
    """Vectorized exact evaluator of q -> V'_k((gX + q) clipped to I).

    All coordinates are scaled by a common denominator times 2^bits so that
    dyadic sample translations, cube corners, and the clip box are integers;
    per-sample values are integer multiples of scale^-k.  The arrays are
    int64 when a bound on every coordinate and value proves that nothing
    wraps, and exact big-int (object) otherwise, so every depth is exact.
    The clipped length of a cell on axis i depends only on its coordinate on
    that axis, so it is computed once per distinct coordinate.  Per
    coordinate subspace P, cells sharing a projection onto P form one
    segment whose side lengths are common to the segment, and V'_k of the
    clipped union (clipped cubes of distinct segments have disjoint
    interiors) factorises as

        value_P(q) = sum over segments of G_seg * prod_{i in P} L+_i,

    with L+ = max(length, 0): a P axis where the segment misses the box
    makes the product 0 by itself.  G_seg is 1 when some cell of the segment
    meets the box on every complement axis Q; it is read off the (W,
    samples) liveness of the distinct Q-projections through one float32
    product with the layout's incidence matrix, whose counts are exact below
    2^24.  No (cells, samples) array is built.
    """

    def __init__(self, layout: _ElementLayout, box: RatBox, bits: int = _BITS):
        n = box.dimension
        lam = layout.resolution
        denom = lcm(
            lam.denominator,
            *(v.denominator for v in box.mins),
            *(v.denominator for v in box.maxs),
        )
        self.layout = layout
        self.n = n
        self.bits = bits
        self.denom = denom
        self.scale = denom << bits

        # The extremes are computed in Python ints, so the bound below is
        # exact; the arrays are built only once it has chosen their dtype.
        lam_scaled = int(lam * denom) << bits
        box_lo = [int(v * denom) << bits for v in box.mins]
        box_hi = [int(v * denom) << bits for v in box.maxs]
        lows_min = [int(c[0]) * lam_scaled for c in layout.coords]
        lows_max = [int(c[-1]) * lam_scaled for c in layout.coords]
        support_lo = [b - (h + lam_scaled) for b, h in zip(box_lo, lows_max)]
        support_hi = [b - lo for b, lo in zip(box_hi, lows_min)]

        # Rigorous overflow bound.  A segment's clipped lengths L+ lie
        # in [0, max_len[i]], so its product is at most the product of max_len
        # over the subspace axes and each sample's value is at most ``bound``.
        # Coordinates, their sums with a translation and the differences that
        # give the per-axis lengths stay within 4*coord_mag.
        max_len = [min(lam_scaled, box_hi[i] - box_lo[i]) for i in range(n)]
        bound = 0
        for _, incidence, seg_ranks in layout.subspaces:
            prod = 1
            for i, _ in seg_ranks:
                prod *= max(max_len[i], 1)
            bound += prod * incidence.shape[0]
        ends = [*lows_min, *(h + lam_scaled for h in lows_max), *support_lo, *support_hi]
        coord_mag = max(map(abs, ends), default=0)
        self.dtype = dtype = _int_dtype(max(bound, 4 * coord_mag))

        self.lam_scaled = lam_scaled
        self.axis_lows = [c.astype(dtype, copy=False) * lam_scaled for c in layout.coords]
        self.box_lo = np.asarray(box_lo, dtype=dtype)
        self.box_hi = np.asarray(box_hi, dtype=dtype)
        self.support_lo = np.asarray(support_lo, dtype=dtype)
        self.support_hi = np.asarray(support_hi, dtype=dtype)
        self.step = (self.support_hi - self.support_lo) >> bits
        vol = Fraction(1)
        for lo, hi in zip(support_lo, support_hi):
            vol *= Fraction(hi - lo, self.scale)
        self.support_volume = vol

    def sample_points(self, t: np.ndarray) -> np.ndarray:
        """Scaled translations for dyadic draws t in [0, 2^bits)^n."""
        return self.support_lo[None, :] + t * self.step[None, :]

    def values(self, q_scaled: np.ndarray) -> np.ndarray:
        """Integer per-sample values: V'_k at q equals values/scale^k."""
        lengths = []
        alive = []
        for i in range(self.n):
            lows = self.axis_lows[i][:, None] + q_scaled[None, :, i]
            lo = np.maximum(lows, self.box_lo[i])
            hi = np.minimum(lows + self.lam_scaled, self.box_hi[i])
            length = hi - lo                                # (U_i, nsamp)
            alive.append(length >= 0)
            lengths.append(np.maximum(length, 0))
        out = np.zeros(q_scaled.shape[0], dtype=self.dtype)
        for q_ranks, incidence, seg_ranks in self.layout.subspaces:
            live = np.ones((incidence.shape[1], q_scaled.shape[0]), dtype=bool)
            for j, ranks in q_ranks:
                live &= alive[j][ranks]                     # (W, nsamp)
            prod = (incidence @ live.astype(np.float32) > 0).astype(self.dtype)
            for i, ranks in seg_ranks:
                prod *= lengths[i][ranks]                   # (segments, nsamp)
            out += prod.sum(axis=0)
        return out


def kinematic_higher_mc(x: CellSet, box: RatBox, k: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the integrated degree-k valuation of clipped
    placements, with its exact closed-form comparison value.

    For each signed permutation g the translation integral over the support
    box is estimated from ``samples`` dyadic rational draws; draws are exact,
    per-sample values are exact rationals, and only the mean/variance
    aggregation uses floats.  Block b of group element e draws from the RNG
    stream seeded by (seed, e, b), so results are reproducible and
    independent of any execution schedule.
    """
    n = x.dimension
    if not 0 <= k <= n:
        raise ValueError("degree out of range")
    if samples < 2:
        raise ValueError("need at least 2 samples per group element")
    if box.dimension != n:
        raise ValueError("dimension mismatch")
    rhs = higher_kinematic_rhs(x, box, k)
    if x.is_empty:
        return MCEstimate(0.0, 0.0, samples, seed, rhs)

    group = hyperoctahedral_group(n)
    est_sum = 0.0
    var_sum = 0.0
    for e_idx, g in enumerate(group):
        sampler = _ElementSampler(_ElementLayout(x, g, k), box)
        scale_k = float(sampler.scale) ** k
        total = 0.0
        total_sq = 0.0
        done = 0
        block = 0
        while done < samples:
            count = min(_BLOCK_SIZE, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, e_idx, block]))
            t = rng.integers(0, 1 << sampler.bits, size=(_BLOCK_SIZE, n), dtype=np.int64)
            vals = sampler.values(sampler.sample_points(t[:count]))
            real = vals.astype(np.float64) / scale_k
            total += float(real.sum())
            total_sq += float((real * real).sum())
            done += count
            block += 1
        mean = total / samples
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        vol = float(sampler.support_volume)
        est_sum += vol * mean
        var_sum += vol * vol * var / samples
    m = len(group)
    return MCEstimate(est_sum / m, sqrt(var_sum) / m, samples, seed, rhs)
