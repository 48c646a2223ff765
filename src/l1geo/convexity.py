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
index box prod_i [c_i + min(tau_i, 0), c_i + max(tau_i, 0)]:

    every pair is joined iff, for every cell c and every step tau with
    tau_0 in {0, 1}, F_tau(c) holds no cell or B_tau(c) holds a cell
    other than c.

Proof sketch: fix an orthant sigma with sigma_0 = +1 and take the cells in
descending order of sigma.c.  The cells R[c] that c reaches by sigma-steps
are {c} and the R[c + s] over the steps s into the orthant (``_unreachable``).
By induction R[c] is the orthant's cells for every c iff each target t of
c's orthant lies in the orthant of some cell c + s, which holds iff some
nonzero step s with s_i in {0, sign(t_i - c_i)}, a cell of B_tau(c) for
tau = sign(t - c), has c + s in the set.  Conversely such a cell is the
first step of any monotone path from c to t.  Both counts are box counts on
one summed-area table, 2^n corners each.

Below 64 cells the pairwise criterion decides.  From 64 cells the local
test decides a set it passes, up to 5 dimensions, where its table fits.
It cannot name a witness, so on a set it rejects or does not apply to the
pairwise criterion decides below 256 cells; from 256 cells the all-pairs
reachability wavefront runs, and the pairwise scan runs only over the
pairs no path joins, to find the lexicographic witness.

All of them run on a compressed int64 copy of the indices (``_compressed``)
that keeps every relation they read, so verdicts and witnesses are exact at
any index size, big-int (object) indices included.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import ceil, floor, prod

import numpy as np

from ._util import MEMO, MISSING
from .lattice import Cell, CellSet, RatBox, _clip_mask, _corner_indices, _summed_area

_PREFIX_GRID_LIMIT = 30_000_000
_WAVEFRONT_CELLS = 256
# from this many cells the local certificate runs before the witness scans:
# on the scans of 10 pixellation benchmark passes (240 sets of 16 to 180
# cells) 20 ms against 41.5 ms, while from 32 cells the algebra suite's
# small sets took 110 ms against 94 ms (2 vCPUs, NumPy 2.4.6)
_CERTIFIED_CELLS = 64
# the local certificate's 2^n-corner box counts beat the wavefront up to 5
# dimensions: 30 ms against 36 ms on a 681-cell 5-D ball, 235 ms against
# 137 ms on a 377-cell 6-D one (2 vCPUs, NumPy 2.4.6)
_CERTIFIED_DIMENSIONS = 5
# refuse a reachability wavefront whose arrays would pass this many bytes:
# about 32,000 cells in the plane, 29,000 in space
_WAVEFRONT_BYTES = 1 << 30


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of the convexity test; ``witness`` is the lexicographically
    smallest violating pair when the set is not convex."""

    is_convex: bool
    witness: tuple[Cell, Cell] | None = None

    def __bool__(self) -> bool:
        return self.is_convex


def _compressed(rows: np.ndarray) -> np.ndarray:
    """The int64 copy of a cell index array that the witness scans and the
    reachability wavefront run on.

    On each axis the compressed coordinates keep the order of the distinct
    values, keep every gap of 1 and shrink every larger gap to 2.  That keeps
    the pairwise criterion (order, and whether an axis gap is >= 2) and the
    lexicographic order of the cells, and it bounds every coordinate by 2m:
    no scan overflows and the prefix grid stays small however far apart the
    cells lie.  The gaps are taken in the array's own dtype, which is exact
    for big-int (object) indices and cannot wrap for int64 ones, whose
    entries lie below 2^62 in size.
    """
    order = np.argsort(rows, axis=0, kind="stable")
    axes = np.arange(rows.shape[1])
    ranked = rows[order, axes]
    gaps = ranked[1:] - ranked[:-1]
    steps = (gaps > 0).astype(np.int64) + (gaps > 1)
    comp = np.empty(rows.shape, dtype=np.int64)
    comp[order, axes] = np.concatenate((np.zeros_like(comp[:1]), np.cumsum(steps, axis=0)))
    return comp


def _steps(n: int) -> list[tuple[int, ...]]:
    """The king-move steps some orthant of ``_unreachable`` takes: nonzero,
    with s_0 in {0, 1}; 2 * 3^(n - 1) - 1 of them."""
    return [s for s in itertools.product((0, 1), *[(-1, 0, 1)] * (n - 1)) if any(s)]


def _wavefront_bytes(m: int, n: int) -> int:
    """The bound of ``_unreachable`` on the bytes its arrays take over m
    cells in dimension n >= 1."""
    return (2 * n + 4) * m * ((m + 7) // 8) + (26 * (2 * 3 ** (n - 1) - 1) + 8 * n + 64) * m


def _check_wavefront(m: int, n: int, why: str = "") -> None:
    """Refuse the reachability wavefront over m cells in dimension n, before
    it allocates, when its bound passes the budget."""
    need = _wavefront_bytes(m, n)
    if need > _WAVEFRONT_BYTES:
        raise ValueError(
            f"{why}the reachability wavefront over {m} cells would take "
            f"{need} bytes, over {_WAVEFRONT_BYTES}"
        )


def _neighbours(comp: np.ndarray, steps: list[tuple[int, ...]]) -> np.ndarray:
    """The (steps, m) array of the index of cell c + s for each step s and
    cell c of a compressed array (``_compressed``), m where no cell is c + s.

    The rows are distinct, lexicographically sorted and lie in [0, 2m], so
    one sorted search per axis finds them.  On axis i, a cell's key is
    node * base + c_i + 1, where node ranks the cell's prefix on the axes
    before i and base = max + 3 exceeds every c_i + s_i + 1: the keys are
    non-decreasing, the next axis's node is the running count of key
    changes, and a query is found with ``np.searchsorted``.  A query missed
    on any axis has no neighbour.  Every key stays below m * (2m + 4), far
    inside int64.  It works one axis at a time on (steps, m) arrays: a
    query, its position, the key found there and two masks, at most 26
    bytes per step and cell.
    """
    m, n = comp.shape
    base = int(comp.max()) + 3
    shift = np.asarray(steps, dtype=np.int64)
    node = np.zeros(m, dtype=np.int64)
    query = np.zeros((len(steps), m), dtype=np.int64)
    missing = np.zeros(query.shape, dtype=bool)
    for i in range(n):
        keys = node * base + comp[:, i] + 1
        query *= base
        query += comp[:, i] + 1
        query += shift[:, i, None]
        pos = np.searchsorted(keys, query)
        np.minimum(pos, m - 1, out=pos)
        missing |= keys[pos] != query
        np.cumsum(keys[1:] != keys[:-1], out=node[1:])
        np.take(node, pos, out=query)
    pos[missing] = m
    return pos


def _unreachable(comp: np.ndarray) -> np.ndarray | None:
    """Bit-packed rows of the cell pairs no monotone path joins, or None when
    every pair is joined.

    Runs on the compressed coordinates of ``_compressed``, which keep every
    gap of 1 (so king-move adjacency) and the order on each axis (so
    monotonicity).  Row c has bit t set (``np.packbits`` layout over the m
    cells) when c does not reach t and t lies in a closed orthant
    {t : sigma_i (t_i - c_i) >= 0} of c with sigma_0 = +1.  A reversed
    monotone path is monotone, so reachability is symmetric and these 2^(n-1)
    orthants cover every pair: on lexicographically sorted rows, every pair
    c < t appears in row c.

    Per sigma, a monotone path from c to a target t of its orthant is a
    king-move path whose steps s have s_i in {0, sigma_i}, and each such step
    raises sigma.c by at least 1.  So the cells are taken in layers of equal
    sigma.c from high to low, and R[c] = {c} | union over steps of R[c + s]:
    the cells c reaches by sigma-steps.  R[c] lies in the orthant of c (so
    R[c + s] holds only targets ahead of c on every axis s moves), and the
    orthant's cells outside R[c] are the ones c misses.

    The neighbours c + s come first, from the per-axis sorted search of
    ``_neighbours``: at most 26 bytes per step and cell while it runs, and
    one 8-byte index per step and cell kept.  Then rows R[c] are bit-packed
    over the m targets, as are the per-axis rows "t_i >= v" and "t_i <= v"
    that the orthant masks are ANDed from.  So the arrays take at most

        (2n + 4) m ceil(m / 8) + (26 (2 * 3^(n-1) - 1) + 8n + 64) m

    bytes: R, the unreachable rows, one orthant mask and its gathered
    operand, and per axis one row per distinct value for each direction;
    then the lookup, and the per-cell index arrays (cell, column, value on
    each axis, level, layer order).  Above ``_WAVEFRONT_BYTES`` it refuses.
    """
    m, n = comp.shape
    _check_wavefront(m, n)
    # c + s is the cell whose row it equals, or m (an all-zero row of R)
    steps = _steps(n)
    neighbour = {s: nbr for s, nbr in zip(steps, _neighbours(comp, steps)) if (nbr < m).any()}

    cells = np.arange(m)
    col, bit = cells >> 3, (0x80 >> (cells & 7)).astype(np.uint8)
    width = (m + 7) // 8

    at_least, at_most, value_of = [], [], []
    for i in range(n):
        _, inv = np.unique(comp[:, i], return_inverse=True)
        rows = np.zeros((inv.max() + 1, width), dtype=np.uint8)
        np.bitwise_or.at(rows, (inv, col), bit)
        at_least.append(np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1])
        at_most.append(np.bitwise_or.accumulate(rows, axis=0))
        value_of.append(inv)

    reach = np.zeros((m + 1, width), dtype=np.uint8)
    unreachable = None
    for tail in itertools.product((1, -1), repeat=n - 1):
        sigma = (1, *tail)
        moves = [nbr for s, nbr in neighbour.items() if all(a * b >= 0 for a, b in zip(s, sigma))]
        reach[:] = 0
        reach[cells, col] = bit
        if moves:
            level = comp @ np.asarray(sigma)
            order = np.argsort(-level, kind="stable")
            # layer by layer, not np.split: no list of one array per layer
            cuts = np.concatenate(([0], np.flatnonzero(np.diff(level[order])) + 1, [m]))
            for start, stop in zip(cuts[:-1], cuts[1:]):
                layer = order[start:stop]
                ahead = reach[moves[0][layer]]
                for nbr in moves[1:]:
                    ahead |= reach[nbr[layer]]
                reach[layer] |= ahead
        orthant = at_least[0][value_of[0]]
        for i in range(1, n):
            orthant &= (at_least if sigma[i] > 0 else at_most)[i][value_of[i]]
        orthant ^= reach[:m]                # R[c] lies in the orthant of c
        if orthant.any():
            unreachable = orthant if unreachable is None else unreachable | orthant
    return unreachable


def _box_counts(table: np.ndarray, flat: np.ndarray, sign: np.ndarray, n: int) -> np.ndarray:
    """The cell counts of index boxes from the flat indices and signs of
    their 2^n corners (``lattice._corner_indices``) in a flat summed-area
    table of the cells scattered at c + 1: the query's sign
    (-1)^(n - popcount) is the corners' times (-1)^n."""
    terms = table[flat]
    counts = np.multiply(terms, sign, out=terms).sum(axis=0, dtype=np.int64)
    return -counts if n % 2 else counts


def _certified(comp: np.ndarray) -> bool | None:
    """Is every pair of cells of a compressed array (``_compressed``) joined
    by a monotone path?  None where the test does not apply: above
    ``_CERTIFIED_DIMENSIONS`` dimensions, or when its table would pass
    ``_PREFIX_GRID_LIMIT`` entries.

    The local test of the module docstring, for every cell c and step tau
    of ``_steps``: the near box B_tau(c) holds a cell other than c, or the
    far region F_tau(c) holds none.  Both are box counts on one summed-area
    table (``lattice._summed_area``).  The cells sit one entry in from the
    table's low edge and two from its high one, so the near boxes need no
    clipping and their 2^n corners are fixed offsets from a cell's own flat
    index.  The far count runs only where the near count is 1.  Cells are
    taken in chunks of 2^16 corner indices, near and far alike: about a
    megabyte of arrays, as in ``_witness_prefix``.
    """
    m, n = comp.shape
    shape = tuple(int(e) + 4 for e in comp.max(axis=0))
    if n > _CERTIFIED_DIMENSIONS or prod(shape) > _PREFIX_GRID_LIMIT:
        return None
    cells = comp + 1  # compressed coordinates start at 0
    top = cells.max(axis=0)
    table = _summed_area(shape, np.ravel_multi_index(tuple((cells + 1).T), shape), 1, m).reshape(-1)
    steps = np.asarray(_steps(n), dtype=np.int64)
    # the near box of c is [c + min(tau, 0), c + max(tau, 0) + 1)
    offsets, sign = _corner_indices(np.minimum(steps, 0), np.maximum(steps, 0) + 1, shape)
    sign = sign[..., None]
    base = np.ravel_multi_index(tuple(cells.T), shape)
    chunk = max(1, (1 << 16 >> n) // len(steps))
    for start in range(0, m, chunk):
        near = _box_counts(table, offsets[..., None] + base[start:start + chunk], sign, n)
        lone = np.nonzero(near < 2)  # (step, cell) pairs whose near box holds c alone
        tau, c = steps[lone[0]], cells[start + lone[1]]
        # the far region: above c_i where tau_i = 1, below where -1, at c_i where 0
        lo = np.where(tau < 0, 0, c + (tau > 0))
        hi = np.where(tau > 0, top + 1, c + (tau == 0))
        if _box_counts(table, *_corner_indices(lo, hi, shape), n).any():
            return False
    return True


def _scan(comp: np.ndarray, collect: bool = False):
    """Witness scan of a compressed cell array: the prefix-sum scan for 16
    or more cells on a small enough grid, else the direct one.

    From 64 cells the local certificate of ``_certified`` runs first where
    it applies, and returns at once on a set it passes.  On a set it fails
    or does not apply to, the scans run as below 64 cells, except that from
    256 cells the wavefront of ``_unreachable`` first decides the set whole,
    and a set it fails takes the pairwise scan over the unreachable pairs
    only, skipping the anchor chunks that have none.  That keeps the witness
    and the collected pairs: a monotone path between two cells >= 2 apart on
    some axis passes through a third cell between them, so every violating
    pair is unreachable.
    """
    unreachable = None
    if comp.shape[0] >= _CERTIFIED_CELLS and _certified(comp):
        return [] if collect else None
    if comp.shape[0] >= _WAVEFRONT_CELLS:
        unreachable = _unreachable(comp)
        if unreachable is None:
            return [] if collect else None
    if comp.shape[0] >= 16 and prod((comp.max(axis=0) + 1).tolist()) <= _PREFIX_GRID_LIMIT:
        return _witness_prefix(comp, collect, unreachable)
    return _witness_direct(comp, collect, unreachable)


def _pairs(anchors: np.ndarray, later: np.ndarray, start: int, unreachable: np.ndarray | None):
    """Mask of the pairs of a scan chunk (anchors and later cells from cell
    ``start`` on, upper triangle) >= 2 apart on some axis: the pairs that can
    violate the criterion, and with ``_unreachable`` rows only those of them
    no monotone path joins."""
    far = np.zeros((anchors.shape[0], later.shape[0]), dtype=bool)
    for i in range(anchors.shape[1]):  # one (c, m) plane per axis, no (c, m, n) block
        far |= np.abs(anchors[:, None, i] - later[None, :, i]) >= 2
    far &= np.arange(far.shape[0])[:, None] < np.arange(far.shape[1])
    if unreachable is not None:
        rows = unreachable[start:start + anchors.shape[0]]
        far &= np.unpackbits(rows, axis=1, count=start + later.shape[0])[:, start:].view(bool)
    return far


def _scan_chunks(arr: np.ndarray, chunk: int, count_between, collect: bool, unreachable):
    """The loop of both witness scans: anchors in chunks, each paired with
    the later cells; ``count_between(lo, hi)`` counts the cells in the index
    box [lo, hi] of each pair of ``_pairs``, given as (pairs, n) arrays,
    and a pair with fewer than 3 (the pair itself and one more) violates the
    criterion.  Returns the first (lex order) violating index pair, or with
    ``collect`` the array of all pairs.  With ``_unreachable`` rows it skips
    every anchor chunk whose rows are all zero: ``_pairs`` would keep none
    of its pairs."""
    found = []
    live = None if unreachable is None else unreachable.any(axis=1)
    for start in range(0, arr.shape[0], chunk):
        if live is not None and not live[start:start + chunk].any():
            continue
        sel = np.nonzero(_pairs(arr[start:start + chunk], arr[start:], start, unreachable))
        a, b = arr[start + sel[0]], arr[start + sel[1]]
        bad = count_between(np.minimum(a, b), np.maximum(a, b)) < 3
        if not bad.any():
            continue
        pairs = np.stack(sel, axis=1)[bad] + start  # row-major: lex order
        if not collect:
            return int(pairs[0, 0]), int(pairs[0, 1])
        found.append(pairs)
    if collect:
        return np.concatenate(found) if found else []
    return None


def _witness_direct(arr: np.ndarray, collect: bool = False, unreachable: np.ndarray | None = None):
    """Pairwise scan with explicit betweenness tests, anchors chunked so the
    (chunk, m, m, n) comparison block stays small.  Contract of ``_scan_chunks``."""
    m = arr.shape[0]
    if m < 2:
        return [] if collect else None

    def count_between(lo, hi):  # (pairs, n) -> (pairs,)
        return ((arr >= lo[:, None, :]) & (arr <= hi[:, None, :])).all(axis=-1).sum(axis=-1)

    return _scan_chunks(arr, max(1, 2_000_000 // (m * m)), count_between, collect, unreachable)


def _witness_prefix(arr: np.ndarray, collect: bool = False, unreachable: np.ndarray | None = None):
    """Prefix-sum variant: counts cells in an index box by inclusion-exclusion
    over the 2^n corners (``lattice._corner_indices``) of the summed-area
    table of the cells scattered at ``c + 1`` (``lattice._summed_area``),
    whose entry x counts the cells below x on every axis.  Vectorized over
    anchor chunks; same contract as ``_witness_direct``.
    """
    m, n = arr.shape
    if m < 2:
        return [] if collect else None
    shifted = arr - arr.min(axis=0)
    shape = tuple(int(e) + 2 for e in shifted.max(axis=0))
    table = _summed_area(shape, np.ravel_multi_index(tuple((shifted + 1).T), shape), 1, m).reshape(-1)

    def count_between(blo, bhi):
        bhi += 1  # exclusive, in place: a fresh array of _scan_chunks
        # the query's sign (-1)^(n - popcount) is the scatter's times (-1)^n
        flat, sign = _corner_indices(blo, bhi, shape)
        terms = table[flat]
        counts = np.multiply(terms, sign, out=terms).sum(axis=0, dtype=np.int64)
        return -counts if n % 2 else counts

    # 2^n corner indices a pair, 2^16 a chunk: about a megabyte of arrays
    return _scan_chunks(shifted, max(1, (1 << 16 >> n) // m), count_between, collect, unreachable)


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
    result further.  Raises ValueError when two cells lie so far apart on an
    axis that the reachability wavefront over the result would pass its
    budget.
    """
    n, lam = x.dimension, x.resolution
    if bound is not None:
        # cube lam * (c + [0, 1]) lies in [a, b] iff ceil(a/lam) <= c <= floor(b/lam) - 1
        lo = [ceil(v / lam) for v in bound.mins]
        hi = [floor(v / lam) - 1 for v in bound.maxs]
        outside = x.indices[~_clip_mask(x, lo, hi)]
        if len(outside):  # the rows are sorted: the first is the smallest cell
            raise ValueError(f"cell {tuple(outside[0].tolist())} lies outside the stated bound")
    while len(x) >= 2:
        arr = x.indices
        span = max(int(hi) - int(lo) for lo, hi in zip(arr.min(axis=0), arr.max(axis=0)))
        # a convex set holding two cells `span` apart on one axis holds a
        # monotone path of at least span + 1 cells between them
        _check_wavefront(span + 1, n, f"cells lie {span} apart on one axis; on the convex result ")
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
    exactly at any index size.

    Up to 5 dimensions the local certificate of ``_certified`` decides
    (see the module docstring): a cell c and a step tau fail it when the
    box between c and c + tau holds no other cell while the cells t with
    sign(t - c) = tau are not empty.  Elsewhere the wavefront of
    ``_unreachable`` decides.
    """
    if len(x) <= 1:
        return True
    comp = _compressed(x.indices)
    certified = _certified(comp)
    return _unreachable(comp) is None if certified is None else certified
