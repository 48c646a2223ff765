"""Deciding geodesic convexity of cell sets in the taxicab metric.

A union of grid cubes is geodesically convex for the 1-norm iff every pair
of points is joined by a componentwise-monotone path inside the set.  For a
CellSet this reduces to a finite pairwise criterion on cell indices:

    for every pair of cells h, h' with max_i |h_i - h'_i| >= 2 there is a
    third cell k of the set with k_i between h_i and h'_i in every axis.

Sufficiency: two cubes whose indices differ by at most 1 in every axis touch,
and a dilation of a discrete set with a strict-betweenness witness for every
separated pair is geodesic.  Necessity: a monotone path between the centers
of two cubes separated by >= 2 in some axis crosses the open slab between
them, and the cube containing the crossing point is a strictly intermediate
cell.

The criterion holds exactly when every pair of cells is joined by a monotone
king-move path (`monotone_reachable`): a path between cells >= 2 apart has an
interior cell, which lies between them; conversely, induct on the 1-norm gap
through the between-cell, which keeps the joined path monotone.

Whether every pair is joined is decided locally (``_certified``).  For a
cell c and a sign pattern tau (a king-move step), call the far region
F_tau(c) the cells t with sign(t - c) = tau, and the near box B_tau(c) the
index box prod_i [c_i + min(tau_i, 0), c_i + max(tau_i, 0)].  A cell fails
when some step tau with tau_0 in {0, 1} has F_tau(c) holding a cell while
B_tau(c) holds c alone:

    every pair is joined iff no cell fails.

Proof sketch: fix an orthant sigma with sigma_0 = +1 and take the cells in
descending order of sigma.c.  The cells R[c] that c reaches by sigma-steps
are {c} and the R[c + s] over the steps s into the orthant.  By induction
R[c] is the orthant's cells for every c iff each target t of c's orthant
lies in the orthant of some cell c + s, which holds iff some nonzero step s
with s_i in {0, sign(t_i - c_i)}, a cell of B_tau(c) for tau = sign(t - c),
has c + s in the set.  Conversely such a cell is the first step of any
monotone path from c to t.  The 2^(n-1) orthants with sigma_0 = +1 cover
every pair, since a reversed monotone path is monotone.

The failing cells also locate the witness.  Let (a, b) be a violating pair
with a < b, and tau = sign(b - a), so tau_0 >= 0.  The near box B_tau(a)
lies in the box between a and b, which holds no third cell, and b is 2 or
more from a on some axis, so B_tau(a) holds a alone; F_tau(a) holds b.  So
the anchor of every violating pair fails, and the witness scan takes only
the failing cells as anchors.

Up to 5 dimensions, where its table fits, the test reads near boxes from a
one-byte grid of the cells (``_open_steps``) and counts far cells on one
summed-area table, which the witness scan reads too, pairing each failing
anchor only with the cells toward which its near box holds it alone.
Elsewhere it runs pair by pair (``_pairwise_failing``), at about m^2 n for m
cells rather than 3^n steps.  Below 64 cells the pairwise criterion decides
without the certificate.  All of them run on a compressed int64 copy of the
indices (``_compressed``) that keeps every relation they read, so verdicts
and witnesses are exact at any index size, big-int (object) indices included.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from math import ceil, floor, prod

import numpy as np

from ._util import MEMO, MISSING
from .lattice import Cell, CellSet, RatBox, _clip_mask, _corner_indices, _shifted_copies, _summed_area

_PREFIX_GRID_LIMIT = 30_000_000
# from this many cells the local certificate runs before the witness scans:
# on the scans of 10 pixellation benchmark passes (240 sets of 16 to 180
# cells) 20 ms against 41.5 ms, while from 32 cells the algebra suite's
# small sets took 110 ms against 94 ms (2 vCPUs, NumPy 2.4.6)
_CERTIFIED_CELLS = 64
# on l1 balls the summed-area certificate beats the pairwise one up to 5-D:
# 5.5 against 142 ms at 1,683 cells; in 6-D it loses at 85 cells (3.7 against
# 1.1 ms), in 7-D at 575 (50 against 36 ms) (2 vCPUs, NumPy 2.4.6)
_CERTIFIED_DIMENSIONS = 5
# ``convexify`` refuses a set whose convex result would give the pairwise
# kernels more cell pairs than this: a span of 32,768 cells on one axis
_PAIR_BUDGET = 1 << 29


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of the convexity test; ``witness`` is the lexicographically
    smallest violating pair when the set is not convex."""

    is_convex: bool
    witness: tuple[Cell, Cell] | None = None

    def __bool__(self) -> bool:
        return self.is_convex


def _compressed(rows: np.ndarray) -> np.ndarray:
    """The int64 copy of a cell index array that the certificate and the
    witness scans run on.

    On each axis the compressed coordinates keep the order of the distinct
    values, keep every gap of 1 and shrink every larger gap to 2.  That keeps
    the pairwise criterion (order, and whether an axis gap is >= 2), king-move
    adjacency and the lexicographic order of the cells, and it bounds every
    coordinate by 2m: no scan overflows and the prefix grid stays small
    however far apart the cells lie.  The gaps are taken in the array's own
    dtype, which is exact for big-int (object) indices and cannot wrap for
    int64 ones, whose entries lie below 2^62 in size.
    """
    order = np.argsort(rows, axis=0, kind="stable")
    axes = np.arange(rows.shape[1])
    ranked = rows[order, axes]
    gaps = ranked[1:] - ranked[:-1]
    steps = (gaps > 0).astype(np.int64) + (gaps > 1)
    comp = np.empty(rows.shape, dtype=np.int64)
    comp[order, axes] = np.concatenate((np.zeros_like(comp[:1]), np.cumsum(steps, axis=0)))
    return comp


@functools.cache
def _king(n: int) -> np.ndarray:
    """The 3^n king-move steps tau as a (3^n, n) array, in row
    sum_i (tau_i + 1) 3^(n - 1 - i); read-only, as every caller shares it."""
    steps = _shifted_copies(np.full((1, n), -1, dtype=np.int64), [2] * n)
    steps.flags.writeable = False
    return steps


def _table(comp: np.ndarray, room: int = 2, limit: float = float("inf")):
    """The flat summed-area table (``lattice._summed_area``) of the cells of
    an array with minimum 0 on every axis, scattered at c + 1 in a table
    ``room`` wider than the cells span, its shape, and the cells' flat
    indices: entry x counts the cells below x + 1 on every axis.  None when
    it would have more than ``limit`` entries."""
    shape = tuple(int(e) + room for e in comp.max(axis=0))
    if prod(shape) > limit:
        return None
    flat = np.ravel_multi_index(tuple((comp + 1).T), shape)
    return _summed_area(shape, flat, 1, len(comp)).reshape(-1), shape, flat


def _count_between(table, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cells c with lo <= c <= hi, for (boxes, n) arrays, counted on a
    ``_table`` by inclusion-exclusion over the 2^n corners of (lo, hi + 1]
    (``lattice._corner_indices``): the query's sign (-1)^(n - popcount) is
    the corners' times (-1)^n.  Overwrites ``hi``."""
    table, shape, _ = table
    hi += 1
    flat, sign = _corner_indices(lo, hi, shape)
    terms = table[flat]
    counts = np.multiply(terms, sign, out=terms).sum(axis=0, dtype=np.int64)
    return -counts if len(shape) % 2 else counts


def _certificate_table(comp: np.ndarray):
    """The ``_table`` of a compressed array where the summed-area
    certificate applies, up to ``_CERTIFIED_DIMENSIONS`` dimensions and
    ``_PREFIX_GRID_LIMIT`` entries, else None: one entry wider than the
    scans' tables, so every king-move step from a cell stays inside."""
    return _table(comp, 3, _PREFIX_GRID_LIMIT) if comp.shape[1] <= _CERTIFIED_DIMENSIONS else None


def _open_steps(table, rows) -> np.ndarray:
    """For every king-move step tau and each cell c of ``rows`` (indices of
    the cells of a ``_certificate_table``), does the near box B_tau(c) hold
    a cell other than c?  A (3^n, rows) bool array, step tau in the row of
    ``_king``.

    B_tau(c) holds a cell other than c iff some c + s with s nonzero and
    each s_i in {0, tau_i} is one: each c + s is looked up in a one-byte
    grid of the cells, 2^16 lookups a chunk, and one pass per axis carries
    s_i = 0 to s_i = +-1.
    """
    _, shape, flat = table
    n, at = len(shape), flat[rows]
    occupied = np.zeros(prod(shape), dtype=bool)
    occupied[flat] = True
    offsets = (_king(n) @ np.cumprod((1, *shape[:0:-1]))[::-1])[:, None]
    near, chunk = np.empty((3**n, len(at)), dtype=bool), max(1, (1 << 16) // 3**n)
    for start in range(0, len(at), chunk):
        near[:, start:start + chunk] = occupied[at[start:start + chunk] + offsets]
    near = near.reshape(*[3] * n, -1)
    near[(1,) * n] = False  # the zero step: c itself
    for i in range(n):
        stay = near[(slice(None),) * i + (1,)]
        near[(slice(None),) * i + (0,)] |= stay
        near[(slice(None),) * i + (2,)] |= stay
    return near.reshape(3**n, -1)


def _certified(comp: np.ndarray, table=None) -> np.ndarray:
    """One bool per cell of a compressed array (``_compressed``): does the
    cell fail the local test of the module docstring?  No cell fails iff
    every pair of cells is joined by a monotone path, and the anchor of every
    violating pair fails.

    With the table of ``_certificate_table``, the near boxes come from
    ``_open_steps``.  Zeroing an axis of a step shrinks its near box, so c
    fails iff, for a step tau (tau_0 in {0, 1}) whose near box holds c alone
    and that no such step with one more nonzero axis extends, the closed
    cone of cells t with each sign(t_i - c_i) in {0, tau_i} holds more than
    c: one count on the table.
    Chunks of 2^16 steps and 2^16 corner indices keep the arrays near a
    megabyte, besides the table and a one-byte grid of its size.  Without a
    table the test runs pair by pair (``_pairwise_failing``).
    """
    if table is None:
        return _pairwise_failing(comp)
    m, n = comp.shape
    top = comp.max(axis=0)
    fail = np.zeros(m, dtype=bool)
    chunk = max(1, (1 << 16) // 3**n)
    for start in range(0, m, chunk):
        lone = ~_open_steps(table, slice(start, start + chunk)).reshape(*[3] * n, -1)
        lone[(1,) * n] = False  # the zero step
        lone[0] = False  # tau_0 = -1
        extended = np.zeros_like(lone)
        for i in range(n):
            axis = (slice(None),) * i
            extended[axis + (1,)] |= lone[axis + (2,)] | lone[axis + (0,)]
        step, cell = np.nonzero((lone & ~extended).reshape(3**n, -1))
        cell += start
        for part in range(0, len(cell), 1 << 16 >> n):
            at = slice(part, part + (1 << 16 >> n))
            tau, c = _king(n)[step[at]], cell[at]
            # the closed cone: c_i up where tau_i = 1, down where -1, c_i where 0
            cone = _count_between(table, np.where(tau < 0, 0, comp[c]), np.where(tau > 0, top, comp[c]))
            fail[c[cone > 1]] = True
    return fail


def _pairwise_failing(comp: np.ndarray) -> np.ndarray:
    """``_certified`` pair by pair, in any dimension: cell c fails when some
    other cell t with t_0 >= c_0 has no king-move neighbour u of c with each
    u_i - c_i in {0, sign(t_i - c_i)}.

    The neighbours of c are the cells u with max_i |u_i - c_i| = 1, read
    from the pair distances, not from the 3^n steps.  A neighbour leaves out
    the targets t with t_i <= c_i on an axis where u_i = c_i + 1, and those
    with t_i >= c_i where u_i = c_i - 1: per chunk of anchors, bit-packed
    rows of those targets per axis, ORed over the axes each neighbour moves
    on.  That is about m^2 n comparisons for m cells; a chunk takes about a
    megabyte, counting min(m, 3^n) neighbours an anchor.
    """
    m, n = comp.shape
    width = (m + 7) // 8
    fail = np.zeros(m, dtype=bool)
    per_anchor = 24 * m + (2 * n + min(m, 3**n)) * width
    chunk = max(1, (1 << 20) // per_anchor)
    for start in range(0, m, chunk):
        anchors = comp[start:start + chunk]
        k = len(anchors)
        gap = np.zeros((k, m), dtype=np.int64)
        # behind[i, 0] has bit t where t_i <= c_i, behind[i, 1] where t_i >= c_i
        behind = np.empty((n, 2, k, width), dtype=np.uint8)
        for i in range(n):
            d = comp[None, :, i] - anchors[:, i, None]
            behind[i, 0] = np.packbits(d <= 0, axis=1)
            behind[i, 1] = np.packbits(d >= 0, axis=1)
            np.maximum(gap, np.abs(d, out=d), out=gap)
        a, u = np.nonzero(gap == 1)  # (anchor, neighbour), grouped by anchor
        step = comp[u] - anchors[a]
        left_out = np.zeros((len(a), width), dtype=np.uint8)
        for i in range(n):
            for side, s in ((0, 1), (1, -1)):
                e = np.flatnonzero(step[:, i] == s)
                left_out[e] |= behind[i, side, a[e]]
        # the targets t_0 >= c_0 but c itself, minus those some neighbour keeps
        missing = behind[0, 1]
        own = start + np.arange(k)
        missing[np.arange(k), own >> 3] &= ~(0x80 >> (own & 7)).astype(np.uint8)
        if len(a):
            firsts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
            missing[a[firsts]] &= np.bitwise_and.reduceat(left_out, firsts, axis=0)
        fail[start:start + k] = missing.any(axis=1)
    return fail


def _scan(comp: np.ndarray, collect: bool = False):
    """Witness scan of a compressed cell array: the pairwise criterion, by
    the prefix-sum scan or the direct one.

    From 64 cells the certificate of ``_certified`` runs first: a set with no
    failing cell is convex, and on any other the scan takes only the failing
    cells as anchors, which keeps the witness and the collected pairs (see
    the module docstring).  With the certificate's table it reads that table
    and pairs each anchor only with the cells toward which its near box holds
    it alone (``_open_steps``).  Otherwise the prefix scan runs from 16 cells
    when its 2^n corners a pair are at most the m cells the direct scan reads
    and its table has at most m^3 n entries, about the direct scan's work:
    a small set spread far apart takes the direct scan.
    """
    m, n = comp.shape
    if m < 2:
        return [] if collect else None
    anchors = None
    if m >= _CERTIFIED_CELLS:
        table = _certificate_table(comp)
        fail = _certified(comp, table)
        if not fail.any():
            return [] if collect else None
        anchors = np.flatnonzero(fail)
        if table is not None:
            return _witness_prefix(comp, collect, anchors, table, _open_steps(table, anchors))
    table = _table(comp, limit=min(_PREFIX_GRID_LIMIT, m**3 * n)) if m >= max(16, 1 << n) else None
    if table is not None:
        return _witness_prefix(comp, collect, anchors, table)
    return _witness_direct(comp, collect, anchors)


def _pairs(anchors: np.ndarray, later: np.ndarray, start: int, index: np.ndarray | None = None, near=None):
    """Mask of the pairs of a scan chunk that can violate the criterion,
    with the later cell after the anchor: those >= 2 apart on some axis, or,
    given the anchors' ``_open_steps`` columns, those toward which the
    anchor's near box holds it alone.  The anchors are the cells at
    ``index`` (by default ``start`` on), the later cells those from
    ``start`` on."""
    if near is None:
        far = np.zeros((anchors.shape[0], later.shape[0]), dtype=bool)
        for i in range(anchors.shape[1]):  # one (c, m) plane per axis, no (c, m, n) block
            far |= np.abs(anchors[:, None, i] - later[None, :, i]) >= 2
    else:
        # the row of sign(t - c) in _open_steps, in the anchor's own column
        row = np.arange(0, near.size, near.shape[0])[:, None] + np.zeros(later.shape[0], dtype=np.intp)
        for i in range(anchors.shape[1]):
            row += (np.sign(later[None, :, i] - anchors[:, None, i]) + 1) * 3 ** (anchors.shape[1] - 1 - i)
        far = ~np.take(near.T.ravel(), row)
    if index is None:
        index = np.arange(start, start + anchors.shape[0])
    far &= index[:, None] < np.arange(start, start + later.shape[0])
    return far


def _scan_chunks(arr: np.ndarray, chunk: int, count_between, collect: bool, anchors, near=None):
    """The loop of both witness scans: anchors in chunks, each paired with
    the later cells; ``count_between(lo, hi)`` counts the cells in the index
    box [lo, hi] of each pair of ``_pairs``, given as (pairs, n) arrays,
    and a pair with fewer than 3 (the pair itself and one more) violates the
    criterion.  Returns the first (lex order) violating index pair, or with
    ``collect`` the array of all pairs.  ``anchors``, sorted cell indices
    such as the failing cells of ``_certified``, restricts the anchors, and
    their ``_open_steps`` columns ``near`` their pairs (``_pairs``)."""
    found = []
    for j in range(0, arr.shape[0] if anchors is None else len(anchors), chunk):
        # every anchor from cell j on, or the next of the given ones
        index = None if anchors is None else anchors[j:j + chunk]
        start = j if anchors is None else int(index[0])
        first = arr[j:j + chunk] if anchors is None else arr[index]
        cols = None if near is None else near[:, j:j + chunk]
        sel = np.nonzero(_pairs(first, arr[start:], start, index, cols))
        a, b = first[sel[0]], arr[start + sel[1]]
        bad = count_between(np.minimum(a, b), np.maximum(a, b)) < 3
        if not bad.any():
            continue
        pairs = np.stack(sel, axis=1)[bad] + start  # row-major: lex order
        if index is not None:
            pairs[:, 0] = index[pairs[:, 0] - start]
        if not collect:
            return int(pairs[0, 0]), int(pairs[0, 1])
        found.append(pairs)
    if collect:
        return np.concatenate(found) if found else []
    return None


def _witness_direct(arr: np.ndarray, collect: bool = False, anchors: np.ndarray | None = None):
    """Pairwise scan with explicit betweenness tests, anchors chunked so the
    (chunk, m, m, n) comparison block stays small.  Contract of ``_scan_chunks``."""
    m = arr.shape[0]
    if m < 2:
        return [] if collect else None

    def count_between(lo, hi):  # (pairs, n) -> (pairs,)
        return ((arr >= lo[:, None, :]) & (arr <= hi[:, None, :])).all(axis=-1).sum(axis=-1)

    return _scan_chunks(arr, max(1, 2_000_000 // (m * m)), count_between, collect, anchors)


def _witness_prefix(arr: np.ndarray, collect: bool = False, anchors: np.ndarray | None = None, table=None, near=None):
    """Prefix-sum variant: counts the cells between each pair on the
    summed-area table of ``_table`` (``_count_between``), built here unless
    given (for an array with minimum 0 on every axis).  Vectorized over
    anchor chunks; same contract as ``_witness_direct``.
    """
    m, n = arr.shape
    if m < 2:
        return [] if collect else None
    if table is None:
        arr = arr - arr.min(axis=0)
        table = _table(arr)

    # 2^n corner indices a pair, 2^16 a chunk: about a megabyte of arrays;
    # the near columns keep few pairs (238,300 of 19.9 million on the n = 5
    # valuation suite's sets), so with them 2^16 before, 2^(n + 19) bytes at worst
    chunk = (1 << 16 if near is not None else 1 << 16 >> n) // m
    return _scan_chunks(arr, max(1, chunk), functools.partial(_count_between, table), collect, anchors, near)


def is_l1_convex(x: CellSet) -> ConvexityVerdict:
    """Decide taxicab geodesic convexity of a cell set.

    Returns the lexicographically smallest violating pair as witness when not
    convex (pairs ordered by (h, h') with h < h' lexicographically).  Below
    ``_CERTIFIED_CELLS`` cells the scan of an int64 set is memoized
    (``_util.MEMO``): each distinct small set is scanned once while its
    entry stays in the memo.
    """
    if len(x) <= 1:
        return ConvexityVerdict(True, None)
    rows = x.indices
    if len(x) >= _CERTIFIED_CELLS or rows.dtype != np.int64:
        hit = _scan(_compressed(rows))
    else:
        # a small int64 set's scan is kept in the memo, keyed by its index
        # bytes: the rows are canonical, so equal cell sets at any
        # resolution share a key, and the dimension tells a 2-D set of 3
        # cells from a 3-D set of 2 with the same bytes
        key = (x.dimension, rows.tobytes())
        hit = MEMO.get(key)
        if hit is MISSING:
            hit = _scan(_compressed(rows))
            MEMO.put(key, hit, sys.getsizeof(key) + sys.getsizeof(key[1]) + sys.getsizeof(hit))
    if hit is None:
        return ConvexityVerdict(True, None)
    a, b = rows[list(hit)].tolist()
    return ConvexityVerdict(False, (tuple(a), tuple(b)))


def convexify(x: CellSet, bound: RatBox | None = None) -> CellSet:
    """Grow X to a convex set by repeated midpoint insertion.

    Each round collects every violating pair and inserts the componentwise
    floor midpoint of each, which is a new cell strictly between the pair
    whenever some axis gap is >= 2, so every round strictly grows the set.
    Inserted cells stay inside the bounding box of X, so the loop terminates.
    ``bound``, when given, must contain X (checked); it never constrains the
    result further.

    The certificate and the witness scan cost up to one test per cell pair.
    So before it starts, it raises ValueError when two cells lie so far apart
    on an axis that the convex result, which holds a monotone path of at
    least span + 1 cells between them, would pass ``_PAIR_BUDGET`` = 2^29
    cell pairs: from a span of 32,768 cells.
    """
    n, lam = x.dimension, x.resolution
    if bound is not None:
        # cube lam * (c + [0, 1]) lies in [a, b] iff ceil(a/lam) <= c <= floor(b/lam) - 1
        lo = [ceil(v / lam) for v in bound.mins]
        hi = [floor(v / lam) - 1 for v in bound.maxs]
        outside = x.indices[~_clip_mask(x, lo, hi)]
        if len(outside):  # the rows are sorted: the first is the smallest cell
            raise ValueError(f"cell {tuple(outside[0].tolist())} lies outside the stated bound")
    if len(x) >= 2:  # inserted cells stay in the bounding box, so the span is fixed
        arr = x.indices
        span = max(int(hi) - int(lo) for lo, hi in zip(arr.min(axis=0), arr.max(axis=0)))
        if span * (span + 1) // 2 > _PAIR_BUDGET:
            raise ValueError(
                f"cells lie {span} apart on one axis; the convex result holds at least "
                f"{span + 1} cells, {span * (span + 1) // 2} cell pairs, over {_PAIR_BUDGET}"
            )
    while len(x) >= 2:
        arr = x.indices
        pairs = _scan(_compressed(arr), collect=True)
        if len(pairs) == 0:
            break
        lo, hi = arr[pairs[:, 0]], arr[pairs[:, 1]]
        grown = CellSet._from_array(n, np.concatenate((arr, lo + (hi - lo) // 2)), lam)
        if len(grown) == len(x):
            raise AssertionError("violating pairs produced no new midpoint cell")
        x = grown
    return x


def split_halves(x: CellSet, axis: int, threshold: int) -> tuple[CellSet, CellSet]:
    """Partition by cell index along an axis: (cells with h_axis >= t, rest)."""
    if not 0 <= axis < x.dimension:
        raise ValueError("axis out of range")
    upper = x.indices[:, axis] >= threshold
    return (
        CellSet._from_sorted(x.dimension, x.indices[upper], x.resolution),
        CellSet._from_sorted(x.dimension, x.indices[~upper], x.resolution),
    )


def is_orthogonally_convex(x: CellSet) -> bool:
    """Does every axis-parallel line of cells meet X in consecutive cells?

    A necessary condition for convexity: group the cells by all coordinates
    but one and require the remaining coordinate to fill an integer interval.
    """
    n, rows = x.dimension, x.indices
    for axis in range(n if len(x) >= 2 else 0):
        # sort by the other coordinates, then by this one: a line's cells are
        # consecutive rows, and must step by exactly 1
        others = [a for a in range(n) if a != axis]
        line = rows[np.lexsort([rows[:, a] for a in [axis, *reversed(others)]])]
        same = (line[1:, others] == line[:-1, others]).all(axis=1)
        if (same & (line[1:, axis] - line[:-1, axis] != 1)).any():
            return False
    return True


def monotone_reachable(x: CellSet, a: Cell, b: Cell) -> bool:
    """Is there a path of cells from a to b inside X whose king-move steps are
    all componentwise monotone toward b (never overshooting)?

    X is convex exactly when every pair of its cells is reachable (see the
    module docstring); ``all_pairs_monotone_reachable`` checks all pairs at
    once, and the convexity test passes a set that way from 64 cells.
    """
    a, b = tuple(a), tuple(b)
    cells = x.cells
    if a not in cells or b not in cells:
        raise ValueError("both endpoints must be cells of X")
    seen, stack = {a}, [a]
    while stack:
        c = stack.pop()
        if c == b:
            return True
        # on each axis a step moves one toward b or stays; the zero step is seen
        toward = [(0, 1 if q > p else -1) if q != p else (0,) for p, q in zip(c, b)]
        for step in itertools.product(*toward):
            nxt = tuple(p + s for p, s in zip(c, step))
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def all_pairs_monotone_reachable(x: CellSet) -> bool:
    """Check monotone reachability for every ordered pair of cells of X,
    exactly at any index size and in any dimension.

    The local certificate of ``_certified`` decides (see the module
    docstring): a cell c and a step tau fail it when the box between c and
    c + tau holds no other cell while the cells t with sign(t - c) = tau are
    not empty.  Up to 5 dimensions it counts boxes on a summed-area table;
    past them, or where the table would pass ``_PREFIX_GRID_LIMIT`` entries,
    it runs pair by pair at a cost of about m^2 n for m cells.
    """
    if len(x) <= 1:
        return True
    comp = _compressed(x.indices)
    return not _certified(comp, _certificate_table(comp)).any()
