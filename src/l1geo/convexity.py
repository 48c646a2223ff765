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
through the between-cell, which keeps the joined path monotone.  Below 256
cells the pairwise criterion decides; from 256 cells the all-pairs
reachability wavefront decides, and the pairwise scan runs only on a set that
fails, over the pairs no path joins, to find the lexicographic witness.

Both run on a compressed int64 copy of the indices (``_compressed``) that
keeps every relation the criterion reads, so verdicts and witnesses are exact
at any index size, big-int (object) indices included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .lattice import Cell, CellSet, RatBox, clip_cells

_PREFIX_GRID_LIMIT = 30_000_000
_WAVEFRONT_CELLS = 256


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
    ranked = np.take_along_axis(rows, order, axis=0)
    gaps = ranked[1:] - ranked[:-1]
    steps = (gaps > 0).astype(np.int64) + (gaps > 1)
    comp = np.empty(rows.shape, dtype=np.int64)
    np.put_along_axis(
        comp, order, np.concatenate((np.zeros_like(comp[:1]), np.cumsum(steps, axis=0))), axis=0
    )
    return comp


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

    Rows R[c] are bit-packed over the m targets, as are the per-axis rows
    "t_i >= v" and "t_i <= v" that the orthant masks are ANDed from, so the
    memory is at most (2n + 4) m * ceil(m / 8) bytes: R, the unreachable
    rows, one orthant mask and its gathered operand, and per axis one row per
    distinct value for each direction; plus one neighbour index per cell and
    step, O(3^n m).
    """
    m, n = comp.shape
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

    # every step some orthant uses has s_0 in {0, 1}; c + s is the cell
    # whose row it equals, or m (an all-zero row of R) when no cell does
    steps = [s for s in itertools.product((0, 1), *[(-1, 0, 1)] * (n - 1)) if any(s)]
    _, group = np.unique(
        np.concatenate([comp] + [comp + s for s in steps]), axis=0, return_inverse=True
    )
    group = group.reshape(-1)
    at = np.full(group.max() + 1, m)
    at[group[:m]] = cells
    neighbour = {
        s: nbr for s, nbr in zip(steps, at[group[m:]].reshape(len(steps), m)) if (nbr < m).any()
    }

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
            cuts = np.flatnonzero(np.diff(level[order])) + 1
            for layer in np.split(order, cuts):
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


def _scan(comp: np.ndarray, collect: bool = False):
    """Witness scan of a compressed cell array: the prefix-sum scan for 16
    or more cells on a small enough grid, else the direct one.

    From 256 cells the wavefront of ``_unreachable`` decides first, and the
    pairwise scan runs only on a set that fails, over the unreachable pairs.
    That keeps the witness and the collected pairs: a monotone path between
    two cells >= 2 apart on some axis passes through a third cell between
    them, so every violating pair is unreachable.
    """
    unreachable = None
    if comp.shape[0] >= _WAVEFRONT_CELLS:
        unreachable = _unreachable(comp)
        if unreachable is None:
            return [] if collect else None
    grid_size = 1
    for e in comp.max(axis=0) + 1:
        grid_size *= int(e)
    if comp.shape[0] >= 16 and grid_size <= _PREFIX_GRID_LIMIT:
        return _witness_prefix(comp, collect, unreachable)
    return _witness_direct(comp, collect, unreachable)


def _pairs(anchors: np.ndarray, later: np.ndarray, start: int, unreachable: np.ndarray | None):
    """Mask ``far`` of the pairs of a scan chunk (anchors and later cells
    from cell ``start`` on, upper triangle) >= 2 apart on some axis, an index
    ``sel`` into it and the two cells of each pair it selects: the whole
    block, or with ``_unreachable`` rows only the unreachable far pairs."""
    far = np.zeros((anchors.shape[0], later.shape[0]), dtype=bool)
    for i in range(anchors.shape[1]):  # one (c, m) plane per axis, no (c, m, n) block
        far |= np.abs(anchors[:, None, i] - later[None, :, i]) >= 2
    far &= np.triu(np.ones(far.shape, dtype=bool), k=1)
    if unreachable is None:
        return far, ..., anchors[:, None, :], later[None, :, :]
    rows = unreachable[start:start + anchors.shape[0]]
    far &= np.unpackbits(rows, axis=1, count=start + later.shape[0])[:, start:].view(bool)
    sel = np.nonzero(far)
    return far, sel, anchors[sel[0]], later[sel[1]]


def _scan_chunks(arr: np.ndarray, chunk: int, count_between, collect: bool, unreachable):
    """The loop of both witness scans: anchors in chunks, each paired with
    the later cells; ``count_between(lo, hi)`` counts the cells in the index
    box [lo, hi] of each candidate pair, and a pair with fewer than 3 (the
    pair itself and one more) violates the criterion.  Returns the first (lex
    order) violating index pair, or with ``collect`` the array of all pairs;
    given the rows of ``_unreachable``, it tests only the unreachable pairs."""
    found = []
    for start in range(0, arr.shape[0], chunk):
        far, sel, a, b = _pairs(arr[start:start + chunk], arr[start:], start, unreachable)
        if not far.any():
            continue
        far[sel] &= count_between(np.minimum(a, b), np.maximum(a, b)) < 3
        if not far.any():
            continue
        pairs = np.argwhere(far) + start            # row-major: lex order
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

    def count_between(lo, hi):  # (c, m - start, n) or (pairs, n)
        return ((arr >= lo[..., None, :]) & (arr <= hi[..., None, :])).all(axis=-1).sum(axis=-1)

    return _scan_chunks(arr, max(1, 2_000_000 // (m * m)), count_between, collect, unreachable)


def _witness_prefix(arr: np.ndarray, collect: bool = False, unreachable: np.ndarray | None = None):
    """Prefix-sum variant: counts cells in an index box by inclusion-exclusion.

    Builds the cumulative count grid of the cell indicator over the bounding
    box, then answers every pair's "how many cells lie between" query in
    O(2^n) gathers, vectorized over anchor chunks.  Same contract as
    ``_witness_direct``.
    """
    m, n = arr.shape
    if m < 2:
        return [] if collect else None
    lo = arr.min(axis=0)
    extent = arr.max(axis=0) - lo + 1
    grid = np.zeros(extent, dtype=np.int32)
    shifted = arr - lo
    grid[tuple(shifted.T)] = 1
    for axis in range(n):
        np.cumsum(grid, axis=axis, out=grid)
    padded = np.zeros(tuple(e + 1 for e in extent), dtype=np.int32)
    padded[tuple(slice(1, None) for _ in range(n))] = grid
    strides = np.asarray(padded.strides, dtype=np.int64) // padded.itemsize
    flat = padded.ravel()
    corners = list(itertools.product((0, 1), repeat=n))

    def count_between(blo, bhi):
        bhi = bhi + 1                               # inclusive, exclusive
        counts = np.zeros(blo.shape[:-1], dtype=np.int64)
        for corner in corners:
            pick = np.where(np.asarray(corner, dtype=bool), bhi, blo)
            sign = -1 if (n - sum(corner)) % 2 else 1
            counts += sign * flat[pick @ strides]
        return counts

    return _scan_chunks(shifted, max(1, 1_000_000 // m), count_between, collect, unreachable)


def is_l1_convex(x: CellSet) -> ConvexityVerdict:
    """Decide taxicab geodesic convexity of a cell set.

    Returns the lexicographically smallest violating pair as witness when not
    convex (pairs ordered by (h, h') with h < h' lexicographically).
    """
    if len(x) <= 1:
        return ConvexityVerdict(True, None)
    hit = _scan(_compressed(x.indices))
    if hit is None:
        return ConvexityVerdict(True, None)
    a, b = x.indices[list(hit)].tolist()
    return ConvexityVerdict(False, (tuple(a), tuple(b)))


def convexify(x: CellSet, bound: RatBox | None = None) -> CellSet:
    """Grow X to a convex set by repeated midpoint insertion.

    Each round collects every violating pair and inserts the componentwise
    floor midpoint of each, which is a new cell strictly between the pair
    whenever some axis gap is >= 2, so every round strictly grows the set.
    Inserted cells stay inside the bounding box of X, so the loop terminates.
    ``bound``, when given, must contain X (checked); it never constrains the
    result further.  Raises ValueError when two cells lie so far apart on an
    axis that the result could not be built.
    """
    n, lam = x.dimension, x.resolution
    if bound is not None and not x.is_empty:
        # cube lam * (c + [0, 1]) lies in [a, b] iff ceil(a/lam) <= c <= floor(b/lam) - 1
        lo = [ceil(v / lam) for v in bound.mins]
        hi = [floor(v / lam) - 1 for v in bound.maxs]
        inside = clip_cells(x, lo, hi)
        if len(inside) != len(x):
            raise ValueError(f"cell {min(x.cells - inside.cells)} lies outside the stated bound")
    while len(x) >= 2:
        arr = x.indices
        span = max(int(hi) - int(lo) for lo, hi in zip(arr.min(axis=0), arr.max(axis=0)))
        if span >= _PREFIX_GRID_LIMIT:
            # a convex set holding two cells `span` apart on one axis holds
            # a monotone path of at least span + 1 cells between them
            raise ValueError(
                f"cells lie {span} apart on one axis; the convex result would "
                f"hold more than {_PREFIX_GRID_LIMIT} cells"
            )
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
        CellSet._from_array(x.dimension, x.indices[upper], x.resolution),
        CellSet._from_array(x.dimension, x.indices[~upper], x.resolution),
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
    once, and the convexity test uses it from 256 cells.
    """
    a, b = tuple(a), tuple(b)
    if a not in x.cells or b not in x.cells:
        raise ValueError("both endpoints must be cells of X")
    cells = x.cells
    n = x.dimension
    seen = set()
    stack = [a]
    while stack:
        c = stack.pop()
        if c == b:
            return True
        if c in seen:
            continue
        seen.add(c)
        options = []
        for i in range(n):
            if b[i] > c[i]:
                options.append((0, 1))
            elif b[i] < c[i]:
                options.append((0, -1))
            else:
                options.append((0,))
        for step in itertools.product(*options):
            if all(s == 0 for s in step):
                continue
            nxt = tuple(c[i] + step[i] for i in range(n))
            if nxt in cells and nxt not in seen:
                stack.append(nxt)
    return False


def all_pairs_monotone_reachable(x: CellSet) -> bool:
    """Check monotone reachability for every ordered pair of cells of X with
    the wavefront of ``_unreachable``, exactly at any index size."""
    if len(x) <= 1:
        return True
    return _unreachable(_compressed(x.indices)) is None
