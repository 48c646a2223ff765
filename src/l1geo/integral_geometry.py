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
tuple.  The Monte Carlo side draws for every group element from its own
stream, but evaluates them with one sampler per permutation: a sign flip is
a reflection of the draw through the centre of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, lcm, sqrt

import numpy as np

from ._util import as_point
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
    return higher_kinematic_rhs(x, box, 0)


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
    q = as_point(translation, n)
    if g.dimension != n or box.dimension != n:
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
# Samples evaluated at once.  The work arrays of a kinematic suite set then
# take about a megabyte; the kinematic benchmark ran faster, and with a lower
# peak RSS, than at 2,048 or 8,192.
_CHUNK = 4096


def _run(rows: np.ndarray):
    """``rows`` as a slice when they are consecutive, so that taking them is
    a view instead of a gather."""
    start = int(rows[0])
    if np.array_equal(rows, np.arange(start, start + rows.size)):
        return slice(start, start + rows.size)
    return rows


class _ElementLayout:
    """The cells of πX arranged for the sampler, for one permutation π of the
    axes; independent of the box and the bit depth.

    The cells of πX are the rows of ``x.indices[:, perm]``, int64 or exact
    big-int (object) as those of X are.  The 2^n signed elements with
    permutation π share this layout: a sign flip is evaluated as a reflected
    translation (``_ElementSampler.sample_points``).  On each axis,
    ``coords[i]`` lists the distinct coordinates of the cells.  The lists of
    all axes are stacked into one column of rows, axis i taking the rows
    ``axis_rows[i]``, so a cell has one row per axis.  Per coordinate
    k-subspace P, with complement axes Q, ``subspaces`` holds (Q rows,
    incidence, P axes, P rows).  A segment is a distinct P-projection of the
    cells; the P rows give its row on every axis of P.  The Q rows give the
    rows of the W distinct Q-projections on every axis of Q (none when Q is
    empty: then every segment is live), and ``incidence`` is the float32 0/1
    matrix (segments, W) marking which projections occur in which segment.
    A product with it counts incident projections, an integer at most
    W <= m, which float32 holds exactly below 2^24 cells; more are refused.
    Consecutive rows, as on a subspace of one axis, are kept as a slice.
    """

    def __init__(self, x: CellSet, perm, k: int):
        n = x.dimension
        cells = x.indices[:, list(perm)]
        m = cells.shape[0]
        if m >= 1 << 24:
            raise ValueError("too many cells for the sampler's float32 incidence counts")
        self.resolution = x.resolution
        self.coords = []
        self.axis_rows = []
        rows = np.empty((m, n), dtype=np.intp)
        start = 0
        for i in range(n):
            coords, ranks = np.unique(cells[:, i], return_inverse=True)
            rows[:, i] = ranks.reshape(-1) + start
            self.coords.append(coords)
            self.axis_rows.append(slice(start, start + coords.size))
            start += coords.size
        self.row_count = start
        self.subspaces = []
        for sub in coordinate_subspaces(n, k):
            p_axes, q_axes = list(sub.axes), list(sub.complement().axes)
            segs, seg_of = np.unique(rows[:, p_axes], axis=0, return_inverse=True)
            projs, proj_of = np.unique(rows[:, q_axes], axis=0, return_inverse=True)
            incidence = np.zeros((segs.shape[0], projs.shape[0]), dtype=np.float32)
            incidence[seg_of.reshape(-1), proj_of.reshape(-1)] = 1
            self.subspaces.append(
                ([_run(r) for r in projs.T], incidence, p_axes, [_run(r) for r in segs.T])
            )


class _ElementSampler:
    """Vectorized exact evaluator of q -> V'_k((gX + q) clipped to I) for
    every signed element g with the permutation π of a layout.

    All coordinates are scaled by a common denominator times 2^bits so that
    dyadic sample translations, cube corners, and the clip box are integers;
    per-sample values are integer multiples of scale^-k.  Values depend only
    on where the cubes lie relative to the box, so every position is measured
    from the box's low corner and every draw from the low corner of the
    support: the arrays hold the box's sides, the set's extent and the
    support's sides, whatever the set's or the box's distance from the
    origin or from each other.  They are int64 when a bound on every
    coordinate and value proves that nothing wraps, and exact big-int
    (object) otherwise, so every depth is exact.

    ``values`` takes draws of πX, one row per axis.  The clipped length of a
    cell on axis i depends only on its low corner x there: it is
    L+ = clip(x + lam) - clip(x), clipping to the box's side, and the cell
    meets that side when -lam <= x <= side.  Both are computed once per row
    of the layout.  Per coordinate subspace P, cells sharing a projection
    onto P form one segment whose side lengths are common to the segment,
    and V'_k of the clipped union (clipped cubes of distinct segments have
    disjoint interiors) factorises as

        value_P(q) = sum over segments of G_seg * prod_{i in P} L+_i,

    where a P axis on which the segment misses the box gives L+ = 0.  G_seg
    is 1 when some cell of the segment meets the box on every complement
    axis Q; it is read off the (W, samples) liveness of the distinct
    Q-projections through one float32 product with the layout's incidence
    matrix, whose counts are exact below 2^24.  No (cells, samples) array is
    built.  Every (rows, samples) array is written into work arrays that are
    kept between calls, one set shared by all subspaces.
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
        self.scale = denom << bits

        # The extremes are computed in Python ints, so the bound below is
        # exact; the arrays are built only once it has chosen their dtype.
        # The support of {q : (πX + q) meets I} on axis i is the box's side
        # plus the extent of the cells' cubes on that axis.
        lam_scaled = int(lam * denom) << bits
        sides = [int((hi - lo) * denom) << bits for lo, hi in zip(box.mins, box.maxs)]
        extents = [(int(c[-1]) - int(c[0]) + 1) * lam_scaled for c in layout.coords]
        support = [side + extent for side, extent in zip(sides, extents)]

        # Rigorous overflow bound.  A segment's clipped lengths L+ lie
        # in [0, max_len[i]], so its product is at most the product of max_len
        # over the subspace axes and each sample's value is at most ``bound``.
        # From the support's low corner, cube lows lie in [-extent, -lam] and
        # draws in [0, support], so every coordinate, sum and difference
        # below stays within 2 * support.
        max_len = [min(lam_scaled, side) for side in sides]
        bound = 0
        for _, incidence, p_axes, _ in layout.subspaces:
            prod = 1
            for i in p_axes:
                prod *= max(max_len[i], 1)
            bound += prod * incidence.shape[0]
        self.dtype = dtype = _int_dtype(max(bound, 2 * max(support, default=0)))

        self.lam_scaled = lam_scaled
        lows = [(c - c[-1] - 1).astype(dtype) * lam_scaled for c in layout.coords]
        self.row_lows = np.concatenate(lows or [np.empty(0, dtype)])[:, None]
        sizes = [c.size for c in layout.coords]
        self.row_sides = np.repeat(np.asarray(sides, dtype=dtype), sizes)[:, None]
        self.support = np.asarray(support, dtype=dtype)
        self.step = self.support >> bits
        vol = Fraction(1)
        for side in support:
            vol *= Fraction(side, self.scale)
        self.support_volume = vol
        self._work = {}

    def sample_points(self, t: np.ndarray, signs) -> np.ndarray:
        """Scaled draws, one row per axis, for dyadic t in [0, 2^bits)^n (one
        row per sample) of the signed element with this sampler's
        permutation and ``signs``, measured from the support's low corner.

        That element's own draw is t * step from the low corner of its
        support.  V'_k is invariant under the reflection through the centre
        of the box, which carries it to the draw support - t * step of πX on
        every axis whose sign is -1.  So ``values`` at the returned draws are
        the signed element's values at its own draws, integer for integer.
        """
        q = np.empty((self.n, t.shape[0]), dtype=self.dtype)
        for i, sign in enumerate(signs):
            row = q[i]
            row[...] = t[:, i]
            row *= self.step[i]
            if sign < 0:
                np.subtract(self.support[i], row, out=row)
        return q

    def values(self, draws: np.ndarray) -> np.ndarray:
        """Integer per-sample values at scaled draws measured from the
        support's low corner, one row per axis: V'_k equals values/scale^k."""
        count = draws.shape[1]
        out = np.zeros(count, dtype=self.dtype)
        for start in range(0, count, _CHUNK):
            self._add_values(draws[:, start : start + _CHUNK], out[start : start + _CHUNK])
        return out

    def _work_array(self, name: str, rows: int, count: int, dtype) -> np.ndarray:
        """A contiguous (rows, count) view of the work array ``name``, which
        grows to the largest view asked of it and is then reused."""
        size = rows * count
        buf = self._work.get(name)
        if buf is None or buf.size < size:
            buf = self._work[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(rows, count)

    def _take(self, src: np.ndarray, rows, name: str) -> np.ndarray:
        """The given rows of ``src``: a view for a slice, else gathered into
        the work array ``name``."""
        if isinstance(rows, slice):
            return src[rows]
        out = self._work_array(name, rows.size, src.shape[1], src.dtype)
        return np.take(src, rows, axis=0, out=out, mode="clip")

    def _add_values(self, draws: np.ndarray, out: np.ndarray) -> None:
        layout, work, dtype = self.layout, self._work_array, self.dtype
        count = draws.shape[1]

        x = work("x", layout.row_count, count, dtype)
        for i, rows in enumerate(layout.axis_rows):
            np.add(self.row_lows[rows], draws[i], out=x[rows])  # cube lows
        # the cell meets the box's side exactly where this clip keeps x
        clipped = np.clip(x, -self.lam_scaled, self.row_sides, out=work("scratch", *x.shape, dtype))
        alive = np.equal(clipped, x, out=work("alive", *x.shape, np.float32))
        np.maximum(clipped, 0, out=clipped)                 # clip(x)
        x += self.lam_scaled
        lengths = np.clip(x, 0, self.row_sides, out=x)
        lengths -= clipped                                  # L+ per row

        # clip(x) is spent, so each subspace's products reuse its work array
        for q_rows, incidence, _, p_rows in layout.subspaces:
            segs, projs = incidence.shape
            prod = work("scratch", segs, count, dtype)
            if q_rows:
                live = self._take(alive, q_rows[0], "live")
                for rows in q_rows[1:]:
                    factor = self._take(alive, rows, "live_factor")
                    live = np.multiply(live, factor, out=work("live", projs, count, np.float32))
                counts = np.matmul(incidence, live, out=work("counts", segs, count, np.float32))
                np.greater(counts, 0, out=prod)             # G per segment
            else:
                prod.fill(1)
            for rows in p_rows:
                prod *= self._take(lengths, rows, "prod_factor")
            out += prod.sum(axis=0, out=work("sum", 1, count, dtype)[0])


def kinematic_higher_mc(x: CellSet, box: RatBox, k: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the integrated degree-k valuation of clipped
    placements, with its exact closed-form comparison value.

    For each signed permutation g the translation integral over the support
    box is estimated from ``samples`` dyadic rational draws; draws are exact,
    per-sample values are exact rationals, and only the mean/variance
    aggregation uses floats.  Block b of group element e draws from the RNG
    stream seeded by (seed, e, b), so results are reproducible and
    independent of any execution schedule.  The elements are evaluated by
    one sampler per permutation: a sign flip reflects the draw through the
    centre of the box.
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
    perm = None
    for e_idx, g in enumerate(group):
        if g.perm != perm:  # the group lists the sign patterns of a permutation together
            perm = g.perm
            sampler = _ElementSampler(_ElementLayout(x, perm, k), box)
            scale_k = float(sampler.scale) ** k
            vol = float(sampler.support_volume)
        total = 0.0
        total_sq = 0.0
        done = 0
        block = 0
        while done < samples:
            count = min(_BLOCK_SIZE, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, e_idx, block]))
            t = rng.integers(0, 1 << sampler.bits, size=(_BLOCK_SIZE, n), dtype=np.int64)
            vals = sampler.values(sampler.sample_points(t[:count], g.signs))
            real = vals.astype(np.float64) / scale_k
            total += float(real.sum())
            total_sq += float((real * real).sum())
            done += count
            block += 1
        mean = total / samples
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        est_sum += vol * mean
        var_sum += vol * vol * var / samples
    m = len(group)
    return MCEstimate(est_sum / m, sqrt(var_sum) / m, samples, seed, rhs)
