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

Crofton and Kubota take the additive extension of V'_j to unions on the
slices and projections, and projected volumes on the right: the two agree on
convex sets and may differ on others (two separate cells have V'_0 = 2).

The invariant measure on placements is the uniform average over the 2^n n!
signed permutations times Lebesgue measure on translations.  In degree 0 the
signs drop out and only the permutation of the interval's side lengths
matters, so the exact side takes one union volume per distinct permuted side
tuple.  The Monte Carlo side draws for every group element from its own
stream, but builds one sampler of X and the interval per call: the element
g acts through its inverse on the interval, whose sides it reorders, and on
the draw, whose axes it relabels and reflects through the centre of the
interval.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod, sqrt
from numbers import Integral

import numpy as np

from ._util import as_point
from .lattice import (
    BoxUnion,
    CellSet,
    IVVector,
    RatBox,
    SignedPerm,
    _cell_runs,
    _common_arrays,
    _int_dtype,
    _moved,
    _scaled,
    apply_isometry,
    boxunion_intersection,
    coordinate_subspaces,
    hyperoctahedral_group,
    minkowski_sum_box,
    union_volume,
)
from .valuations import (
    _contract,
    _doubled_grid,
    _Grid,
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

    A flat parallel to the coordinate subspace P whose offset on the other
    axes Q lies in open gaps of the doubled grid of X (``_brick_sums``)
    meets X in the bricks over those gaps.  So the integral over the flats
    of their slices' additive V'_j is one contraction per j-subset J of P,
    with lengths on Q and J and signs on the rest of P.
    """
    if not 0 <= k <= x.dimension:
        raise ValueError("flat dimension out of range")
    return _profiles(_crofton_sides, x, [k])[0]


def _crofton_sides(grid: _Grid, base: IVVector, k: int):
    """``crofton_profile`` at k from the doubled grid and V' of X."""
    n = grid.n
    full = tuple(range(n))
    terms = [
        (full, sub.complement().axes + axes)
        for sub in coordinate_subspaces(n, k)
        for j in range(k + 1)
        for axes in combinations(sub.axes, j)
    ]
    lhs = _contract(grid, terms)[n - k :]
    rhs = [comb(n + j - k, j) * base[n + j - k] for j in range(k + 1)]
    return lhs, tuple(rhs)


def crofton_integral(x: CellSet, k: int, j: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the flat-integral identity for k-flats in degree j."""
    if not 0 <= j <= k <= x.dimension:
        raise ValueError("need 0 <= j <= k <= n")
    lhs, rhs = crofton_profile(x, k)
    return lhs[j], rhs[j]


# ---------------------------------------------------------------------------
# Kubota


def kubota_profile(x: CellSet, k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """lhs/rhs tuples over j = 0..k for projections onto k-subspaces: the lhs
    sums the additive V'_j of the projections of X, one term (P, J) per
    k-subspace P and j-subset J of its axes on the doubled grid of X
    (``_brick_sums``), which is built once per call."""
    if not 0 <= k <= x.dimension:
        raise ValueError("subspace dimension out of range")
    return _profiles(_kubota_sides, x, [k])[0]


def _kubota_sides(grid: _Grid, base: IVVector, k: int):
    """``kubota_profile`` at k from the doubled grid and V' of X."""
    n = grid.n
    terms = [
        (sub, axes)
        for sub in combinations(range(n), k)
        for j in range(k + 1)
        for axes in combinations(sub, j)
    ]
    lhs = _contract(grid, terms)[: k + 1]
    rhs = [comb(n - j, n - k) * base[j] for j in range(k + 1)]
    return lhs, tuple(rhs)


def _profiles(sides, x: CellSet, ks) -> list:
    """``sides`` (``_crofton_sides`` or ``_kubota_sides``) at every k of
    ``ks``, contracted from one doubled grid of X and one
    ``intrinsic_volumes_cellset`` of it: the profiles of every k cost one
    grid, not one each."""
    grid, base = _doubled_grid(x), intrinsic_volumes_cellset(x)
    return [sides(grid, base, k) for k in ks]


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
    all.  X enters as its runs along the last axis (``_cell_runs``), whose
    widenings cover what its widened cubes do, and the runs and the sides
    are put on one denominator once: each side order is then an integer
    addition to the runs' high corners.  An absent interval (box=None)
    returns (0, 0) by convention.
    """
    if box is None:
        return Fraction(0), Fraction(0)
    n = x.dimension
    if box.dimension != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        val = Fraction(1) if not x.is_empty else Fraction(0)
        return val, val
    den, ((lows, highs),), sides = _common_arrays((_cell_runs(x),), *box.side_lengths())
    # a positive denominator keeps the order of the scaled side tuples
    side_orders = sorted(set(permutations(sides)))
    total = Fraction(0)
    for order in side_orders:
        total += union_volume(_moved(n, den, lows, highs, [0] * n, order))
    lhs = total / len(side_orders)
    return lhs, principal_kinematic_rhs(x, box)


# ---------------------------------------------------------------------------
# kinematic: higher degrees by Monte Carlo over translations


def clip_translate(x: CellSet, g: SignedPerm, translation, box: RatBox) -> BoxUnion:
    """The exact box union (gX + q) clipped to a box; degenerate pieces kept.
    A grid-aligned placement is clipped as its runs along the last axis
    (``_cell_runs``), any other as one box per cell."""
    n = x.dimension
    q = as_point(translation, n)
    if g.dimension != n or box.dimension != n:
        raise ValueError("dimension mismatch")
    moved = apply_isometry(x, g, q)
    if isinstance(moved, CellSet):
        moved = _cell_runs(moved)
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
# Samples evaluated at once.  The work arrays of a kinematic suite set at
# degree 1 then take 0.4-0.9 MB in int32, the full-width zeros and sides
# included.  With the packed gate a chunk of 4,096 ran as fast as one of
# 8,192 and faster than one of 1,024 or 2,048, and the kinematic benchmark
# had a lower peak RSS than at 2,048 or 8,192.
_CHUNK = 4096
# Bytes that the sampler's gate indices may take, summed over the subspaces;
# it refuses a set that needs more before allocating any.  An index holds one
# entry per segment and per projection of its longest segment: m entries on
# a diagonal of m cells, and 2N^2 over the two subspaces of an L of one row
# and one column of N cells at k = 1.  The work arrays of one chunk of
# samples stay within it too.
_INCIDENCE_BUDGET = 1 << 28
# The sampler's arrays are int32 while its bound on every value stays below
# this: the bound takes 20-21 bits on the kinematic suite's degree-1 cases.
_INT32_SAFE = 1 << 31


def _run(rows: np.ndarray):
    """``rows`` as a slice when they are consecutive, so that taking them is
    a view instead of a gather."""
    start = int(rows[0])
    if np.array_equal(rows, np.arange(start, start + rows.size)):
        return slice(start, start + rows.size)
    return rows


def _gate_index(seg_of: np.ndarray, proj_of: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """The (segments, longest list) array whose row s lists the projections
    of segment s, padded with its first one; ``lists`` counts each
    segment's projections."""
    order = np.argsort(seg_of, kind="stable")
    starts = np.cumsum(lists) - lists
    projs = proj_of[order]
    index = np.repeat(projs[starts][:, None], int(lists.max(initial=0)), axis=1)
    index[seg_of[order], np.arange(order.size) - np.repeat(starts, lists)] = projs
    return index


class _Sampler:
    """Vectorized exact evaluator of q -> V'_k((sX + q) clipped to I') for the
    cells X, every sign pattern s, and every box I' whose sides are those of
    the box I in some order: one per ``kinematic_higher_mc`` call.

    Every signed element g shares it: (gX + q) clipped to I is g applied to
    (X + hq) clipped to hI, for h the inverse of g, so g's values are those of
    X on the box hI at draws with relabelled axes and reflected signs.  hI
    differs from I only by reflections, which the sampler, measuring from the
    box's corner, does not see, and by the order of its sides, which
    ``frame`` sets.

    All coordinates are scaled by a common denominator times 2^bits so that
    dyadic sample translations, cube corners, and the clip box are integers;
    per-sample values are integer multiples of scale^-k.  Every position is
    measured from the box's low corner and every draw from the low corner of
    the support, so the arrays hold the box's sides, the set's extent and the
    support's sides, whatever the set's or the box's distance from the
    origin or from each other.  One bound on every coordinate, sum,
    difference and value, for every order of the sides, picks their dtype:
    int32 below 2^31, int64 below 2^62, and exact big-int (object)
    otherwise, so nothing wraps and every depth is exact.

    On each axis the distinct coordinates of the cells are stacked into one
    column of rows, axis i taking the rows ``axis_rows[i]``, so a cell has
    one row per axis.  The clipped length of a cell on axis i depends only on
    its low corner x there: the unclamped length L = min(x + lam, side) -
    max(x, 0) is >= 0 exactly when -lam <= x <= side, that is when the cell
    meets the box's side, so liveness is the sign of L and the clipped
    length is L+ = max(L, 0).  Both are computed once per row.  Per
    coordinate k-subspace P, with complement axes Q, cells sharing a
    projection onto P form one segment whose side lengths are common to the
    segment, and V'_k of the clipped union (clipped cubes of distinct
    segments have disjoint interiors) factorises as

        value_P(q) = sum over segments of G_seg * prod_{i in P} L+_i,

    where a P axis on which the segment misses the box gives L+ = 0.  G_seg
    is 1 when some cell of the segment meets the box on every axis of Q.
    ``subspaces`` holds (Q rows, gate index, P rows): the P rows give each
    segment's row on every axis of P, the Q rows give the rows of the W
    distinct Q-projections on every axis of Q (none when Q is empty: then
    every segment is live), and row s of the (segments, longest list) gate
    index lists the projections that occur in segment s, padded with its
    first one.  Liveness is packed eight samples to a byte once per chunk;
    a projection's liveness is the AND of its Q rows' bytes, and G is the
    OR of a segment's projections, gathered through the index (OR is
    idempotent, so the padding changes nothing), unpacked to one 0/1 byte
    per sample.  The index holds at most segments x W entries and m on a
    diagonal; indices past ``_INCIDENCE_BUDGET`` are refused before they are
    built.  Consecutive rows, as on a subspace of one axis, are kept as a
    slice.  No (cells, samples) array is built: every (rows, samples) array
    is written into work arrays that are kept between calls, one set shared
    by all subspaces and frames, and ``values`` takes the samples in chunks
    (``chunk``) narrow enough for those to fit in the budget too.  The
    clamps run against full-width arrays of zeros and of the frame's sides,
    which NumPy reads faster than a scalar or a (rows, 1) column; they are
    as wide as the widest chunk taken so far, so a call drawing few samples
    allocates few columns.
    """

    def __init__(self, x: CellSet, box: RatBox, k: int, bits: int = _BITS):
        n = x.dimension
        cells = x.indices
        m = cells.shape[0]
        denom, (lam_i, *ends) = _scaled(1, x.resolution, *box.mins, *box.maxs)
        self.n = n
        self.bits = bits
        self.scale = denom << bits
        self.lam_scaled = lam_scaled = lam_i << bits
        self.sides = [(hi - lo) << bits for lo, hi in zip(ends[:n], ends[n:])]

        coords = []
        self.axis_rows = []
        rows = np.empty((m, n), dtype=np.intp)
        start = 0
        for i in range(n):
            axis, ranks = np.unique(cells[:, i], return_inverse=True)
            rows[:, i] = ranks.reshape(-1) + start
            coords.append(axis)
            self.axis_rows.append(slice(start, start + axis.size))
            start += axis.size
        self.row_count = start
        keys = []
        for sub in coordinate_subspaces(n, k):
            p_axes, q_axes = list(sub.axes), list(sub.complement().axes)
            segs, seg_of = np.unique(rows[:, p_axes], axis=0, return_inverse=True)
            projs, proj_of = np.unique(rows[:, q_axes], axis=0, return_inverse=True)
            seg_of = seg_of.reshape(-1)
            lists = np.bincount(seg_of, minlength=segs.shape[0])
            keys.append((segs, seg_of, projs, proj_of.reshape(-1), lists))
        itemsize = np.dtype(np.intp).itemsize
        nbytes = sum(itemsize * lists.size * int(lists.max(initial=0)) for *_, lists in keys)
        if nbytes > _INCIDENCE_BUDGET:
            raise ValueError(
                f"the sampler's gate indices would take {nbytes:,} bytes, "
                f"over its budget of {_INCIDENCE_BUDGET:,}"
            )
        self.subspaces = []
        for segs, seg_of, projs, proj_of, lists in keys:
            self.subspaces.append((
                [_run(r) for r in projs.T],
                _gate_index(seg_of, proj_of, lists),
                [_run(r) for r in segs.T],
            ))

        # The extremes are computed in Python ints, so the bound below is
        # exact; the arrays are built only once it has chosen their dtype.
        # The support of {q : (X + q) meets I'} on axis i is the box's side
        # plus the extent of the cells' cubes on that axis.  In any frame a
        # segment's clipped lengths L+ lie in [0, max_len], so each sample's
        # value is at most ``bound``.  From the support's low corner, cube
        # lows lie in [-extent, -lam] and draws in [0, support], so every
        # coordinate, sum and difference below stays within 2 * support.
        self.extents = [(int(c[-1]) - int(c[0]) + 1) * lam_scaled for c in coords]
        max_len = max((min(lam_scaled, side) for side in self.sides), default=0)
        bound = sum(max(max_len, 1) ** len(p) * index.shape[0] for _, index, p in self.subspaces)
        longest = max(self.sides, default=0) + max(self.extents, default=0)
        top = max(bound, 2 * longest)
        self.dtype = dtype = np.int32 if top < _INT32_SAFE else _int_dtype(top)
        lows = [(c - c[-1] - 1).astype(dtype) * lam_scaled for c in coords]
        self.row_lows = np.concatenate(lows or [np.empty(0, dtype)])[:, None]
        # Per sample, the work arrays of ``_add_values`` take four entries of
        # the value dtype for each row (the length, its clamp, the zeros and
        # the sides) and a bool for its liveness, two entries and a byte for
        # each segment of a subspace (the product, its factor and the
        # unpacked gate), one entry for the sum, and one bit for each packed
        # row, each projection twice, each gathered index entry and each
        # segment's gate; an object entry also holds its int.  Chunks keep
        # them within the budget.
        item = np.dtype(dtype).itemsize + (sys.getsizeof(top) if dtype is object else 0)
        segs = max(index.shape[0] for _, index, _ in self.subspaces)
        gathered = max(index.size for _, index, _ in self.subspaces)
        projs = max(p.shape[0] for _, _, p, _, _ in keys)
        packed = -(-(self.row_count + 2 * projs + gathered + segs) // 8)
        per_sample = (4 * item + 1) * self.row_count + (2 * item + 1) * segs + item + packed
        self.chunk = max(1, min(_CHUNK, _INCIDENCE_BUDGET // per_sample))
        # as wide as the widest chunk ``values`` has been given (``_clamps``)
        self.zeros = self.row_sides = np.empty((self.row_count, 0), dtype=dtype)
        self._order = None
        self._frame_sides = []
        self._work = {}
        self._views = {}

    def frame(self, order) -> Fraction:
        """Evaluate on the box whose side i is I's side ``order[i]``; returns
        the volume of its support."""
        if order != self._order:
            self._order = order
            self._frame_sides = sides = [self.sides[i] for i in order]
            support = [side + extent for side, extent in zip(sides, self.extents)]
            self._fill_sides()
            self.support = np.asarray(support, dtype=self.dtype)
            self.step = self.support >> self.bits
            self.support_volume = Fraction(prod(support), self.scale**self.n)
        return self.support_volume

    def _fill_sides(self) -> None:
        for rows, side in zip(self.axis_rows, self._frame_sides):
            self.row_sides[rows] = side

    def _clamps(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, count) views of the zeros and of the frame's sides, grown
        to ``count`` columns when narrower: their width follows the samples
        drawn, not ``chunk``."""
        if self.zeros.shape[1] < count:
            self.zeros = np.zeros((self.row_count, count), dtype=self.dtype)
            self.row_sides = np.empty_like(self.zeros)
            self._fill_sides()
        return self.zeros[:, :count], self.row_sides[:, :count]

    def sample_points(self, t: np.ndarray, signs) -> np.ndarray:
        """Scaled draws, one row per axis, for dyadic t in [0, 2^bits)^n (one
        row per sample) of the sign pattern ``signs``, measured from the
        support's low corner.

        The element's own draw is t * step from the low corner of its
        support.  V'_k is invariant under the reflection through the centre
        of the box, which carries it to the draw support - t * step of X on
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
        for start in range(0, count, self.chunk):
            self._add_values(draws[:, start : start + self.chunk], out[start : start + self.chunk])
        return out

    def _work_array(self, name: str, rows: int, count: int, dtype) -> np.ndarray:
        """A contiguous (rows, count) view of the work array ``name``, which
        grows to the largest view asked of it and is then reused.  Views are
        kept per shape; growing a buffer drops the views of the old one."""
        view = self._views.get((name, rows, count))
        if view is None:
            size = rows * count
            buf = self._work.get(name)
            if buf is None or buf.size < size:
                buf = self._work[name] = np.empty(size, dtype=dtype)
                self._views = {key: v for key, v in self._views.items() if key[0] != name}
            view = self._views[name, rows, count] = buf[:size].reshape(rows, count)
        return view

    def _take(self, src: np.ndarray, rows, name: str) -> np.ndarray:
        """The given rows of ``src``: a view for a slice, else gathered into
        the work array ``name``."""
        if isinstance(rows, slice):
            return src[rows]
        out = self._work_array(name, rows.size, src.shape[1], src.dtype)
        return src.take(rows, axis=0, out=out, mode="clip")

    def _add_values(self, draws: np.ndarray, out: np.ndarray) -> None:
        work, dtype = self._work_array, self.dtype
        count = draws.shape[1]
        zeros, sides = self._clamps(count)

        x = work("x", self.row_count, count, dtype)
        for i, rows in enumerate(self.axis_rows):
            np.add(self.row_lows[rows], draws[i], out=x[rows])  # cube lows
        # L = min(x + lam, side) - max(x, 0), in place: its sign is the
        # liveness and its positive part is L+
        low = np.maximum(x, zeros, out=work("scratch", *x.shape, dtype))
        x += self.lam_scaled
        np.minimum(x, sides, out=x)
        x -= low
        alive = np.packbits(np.greater_equal(x, 0, out=work("alive", *x.shape, bool)), axis=1)
        lengths = np.maximum(x, zeros, out=x)               # L+ per row

        # max(x, 0) is spent, so each subspace's products reuse its work array
        for q_rows, index, p_rows in self.subspaces:
            segs, longest = index.shape
            prod = work("scratch", segs, count, dtype)
            gate = 1
            if q_rows:
                live = self._take(alive, q_rows[0], "live")
                for rows in q_rows[1:]:
                    factor = self._take(alive, rows, "live_factor")
                    live = np.bitwise_and(live, factor, out=work("live", *factor.shape, np.uint8))
                gathered = self._take(live, index.reshape(-1), "gathered")
                packed = np.bitwise_or.reduce(
                    gathered.reshape(segs, longest, -1), axis=1,
                    out=work("gate", segs, live.shape[1], np.uint8),
                )
                gate = np.unpackbits(packed, axis=1, count=count)  # G per segment
            prod[...] = gate
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
    independent of any execution schedule.  A block draws only the samples it
    uses: NumPy fills bounded integers in order, so a short last block's
    draws are the first rows of the full ``_BLOCK_SIZE`` draw of its stream.
    One ``_Sampler`` serves every element: g is evaluated through h = g^-1,
    on I with its sides in h's order, at the draw relabelled and reflected
    by h.
    """
    n = x.dimension
    if not 0 <= k <= n:
        raise ValueError("degree out of range")
    if not isinstance(samples, Integral) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, not {samples!r}")
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    if box.dimension != n:
        raise ValueError("dimension mismatch")
    rhs = higher_kinematic_rhs(x, box, k)
    if x.is_empty:
        return MCEstimate(0.0, 0.0, samples, seed, rhs)

    group = hyperoctahedral_group(n)
    sampler = _Sampler(x, box, k)
    scale_k = float(sampler.scale) ** k
    est_sum = 0.0
    var_sum = 0.0
    for e_idx, g in enumerate(group):
        h = g.inverse()
        vol = float(sampler.frame(h.perm))
        total = 0.0
        total_sq = 0.0
        done = 0
        block = 0
        while done < samples:
            count = min(_BLOCK_SIZE, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, e_idx, block]))
            t = rng.integers(0, 1 << sampler.bits, size=(count, n), dtype=np.int64)
            vals = sampler.values(sampler.sample_points(t[:, h.perm], h.signs))
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
