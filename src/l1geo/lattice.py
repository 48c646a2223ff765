"""Core data types and exact operations for pixellated sets in R^n.

A *cell* is an integer lattice point h; at resolution lambda it names the
closed axis-aligned cube lambda*(h + [0,1]^n).  A CellSet is a finite union of
such cubes on a common grid.  RatBox / BoxUnion describe general axis-aligned
boxes with rational corners (degenerate sides allowed), which is the closure
of CellSets under projections, intersections, and non-aligned translations.

All geometry here is exact: coordinates are ``fractions.Fraction`` and every
operation returns exact rationals.  numpy is used only as an integer/bool
array engine after common-denominator scaling, never with floats: the
box-union kernels take their integer corners from ``_scaled_union_arrays``
and run in int64 when a bound proves it safe, on exact big-int (object)
arrays otherwise, with one code path for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm

import numpy as np

from ._util import RationalLike, as_fraction

Cell = tuple[int, ...]

_UNION_GRID_LIMIT = 60_000_000  # refuse compression grids bigger than this
_INT64_SAFE = 1 << 62


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class CellSet:
    """A finite set of grid cells at a common rational resolution.

    ``cells`` are integer index vectors; the represented point set is the
    union of the closed cubes ``resolution * (h + [0,1]^n)``.  The empty set
    is a CellSet with no cells.  Dimension 0 is allowed (the single cell is
    the empty tuple) so that projections onto zero axes stay in-type.
    """

    dimension: int
    cells: frozenset[Cell]
    resolution: Fraction

    def __init__(self, dimension: int, cells=(), resolution: RationalLike = 1):
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        res = as_fraction(resolution)
        if res <= 0:
            raise ValueError("resolution must be positive")
        norm = []
        for cell in cells:
            tup = tuple(cell)
            if len(tup) != dimension:
                raise ValueError(f"cell {tup} does not have dimension {dimension}")
            if not all(isinstance(c, (int, np.integer)) for c in tup):
                raise ValueError(f"cell {tup} has non-integer coordinates")
            norm.append(tuple(int(c) for c in tup))
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "cells", frozenset(norm))
        object.__setattr__(self, "resolution", res)

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    def bounding_box(self) -> "RatBox":
        """Smallest RatBox containing the represented point set (nonempty only)."""
        if not self.cells:
            raise ValueError("empty cell set has no bounding box")
        lam = self.resolution
        lo = [min(c[i] for c in self.cells) for i in range(self.dimension)]
        hi = [max(c[i] for c in self.cells) for i in range(self.dimension)]
        return RatBox([lam * v for v in lo], [lam * (v + 1) for v in hi])


@dataclass(frozen=True)
class RatBox:
    """Closed axis-aligned box with rational corners; degenerate sides allowed.

    Always nonempty: ``mins[i] <= maxs[i]`` is enforced.  Operations that can
    produce an empty intersection return ``None`` instead of a RatBox.
    """

    mins: tuple[Fraction, ...]
    maxs: tuple[Fraction, ...]

    def __init__(self, mins, maxs):
        lo = tuple(as_fraction(v) for v in mins)
        hi = tuple(as_fraction(v) for v in maxs)
        if len(lo) != len(hi):
            raise ValueError("mins and maxs must have equal length")
        for a, b in zip(lo, hi):
            if a > b:
                raise ValueError(f"box side [{a}, {b}] is empty")
        object.__setattr__(self, "mins", lo)
        object.__setattr__(self, "maxs", hi)

    @property
    def dimension(self) -> int:
        return len(self.mins)

    def side_lengths(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.mins, self.maxs))

    def volume(self) -> Fraction:
        vol = Fraction(1)
        for s in self.side_lengths():
            vol *= s
        return vol

    def contains_point(self, point) -> bool:
        pt = tuple(as_fraction(v) for v in point)
        return all(a <= x <= b for a, x, b in zip(self.mins, pt, self.maxs))

    def translate(self, offset) -> "RatBox":
        off = tuple(as_fraction(v) for v in offset)
        return RatBox(
            tuple(a + d for a, d in zip(self.mins, off)),
            tuple(b + d for b, d in zip(self.maxs, off)),
        )

    def corners(self):
        """Iterate the 2^n corner points (may repeat for degenerate sides)."""
        for choice in itertools.product(*zip(self.mins, self.maxs)):
            yield choice


def _raw_box(mins: tuple, maxs: tuple) -> RatBox:
    """Construct a RatBox from already-validated Fraction tuples."""
    box = object.__new__(RatBox)
    object.__setattr__(box, "mins", mins)
    object.__setattr__(box, "maxs", maxs)
    return box


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of RatBoxes.  Overlaps and degenerate boxes are allowed
    and are never canonicalized away; the printed form lists boxes as given."""

    dimension: int
    boxes: tuple[RatBox, ...]

    def __init__(self, dimension: int, boxes=()):
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        tup = tuple(boxes)
        for b in tup:
            if b.dimension != dimension:
                raise ValueError("box dimension mismatch")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "boxes", tup)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def bounding_box(self) -> RatBox:
        if not self.boxes:
            raise ValueError("empty box union has no bounding box")
        n = self.dimension
        return RatBox(
            [min(b.mins[i] for b in self.boxes) for i in range(n)],
            [max(b.maxs[i] for b in self.boxes) for i in range(n)],
        )


@dataclass(frozen=True)
class CoordSubspace:
    """A coordinate subspace of R^n, named by the retained axes (0-based)."""

    ambient: int
    axes: tuple[int, ...]

    def __init__(self, ambient: int, axes):
        ax = tuple(int(a) for a in axes)
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        if any(a < 0 or a >= ambient for a in ax):
            raise ValueError(f"axes {ax} out of range for ambient dimension {ambient}")
        if list(ax) != sorted(set(ax)):
            raise ValueError("axes must be strictly increasing and distinct")
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "axes", ax)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def complement(self) -> "CoordSubspace":
        keep = set(self.axes)
        return CoordSubspace(self.ambient, [a for a in range(self.ambient) if a not in keep])


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation g acting by (g.x)_i = signs[i] * x[perm[i]].

    These are exactly the linear isometries of the taxicab norm that fix the
    grid directions; together with translations they form the symmetry group
    used throughout.  ``perm`` is 0-based.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, perm, signs):
        p = tuple(int(v) for v in perm)
        s = tuple(int(v) for v in signs)
        n = len(p)
        if sorted(p) != list(range(n)):
            raise ValueError(f"{p} is not a permutation of 0..{n - 1}")
        if len(s) != n or any(v not in (-1, 1) for v in s):
            raise ValueError("signs must be +1/-1 of matching length")
        object.__setattr__(self, "perm", p)
        object.__setattr__(self, "signs", s)

    @property
    def dimension(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    def apply_point(self, point):
        pt = tuple(as_fraction(v) for v in point)
        return tuple(self.signs[i] * pt[self.perm[i]] for i in range(self.dimension))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Return g*h acting as x -> self(other(x))."""
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.dimension))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(self.dimension))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        n = self.dimension
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        perm = tuple(inv)
        signs = tuple(self.signs[perm[i]] for i in range(n))
        return SignedPerm(perm, signs)

    def apply_cell(self, cell: Cell) -> Cell:
        """Image of the cube named by ``cell`` (the image is again a grid cube)."""
        out = []
        for i in range(self.dimension):
            h = cell[self.perm[i]]
            out.append(h if self.signs[i] == 1 else -h - 1)
        return tuple(out)

    def apply_box(self, box: RatBox) -> RatBox:
        mins, maxs = [], []
        for i in range(self.dimension):
            a, b = box.mins[self.perm[i]], box.maxs[self.perm[i]]
            if self.signs[i] == 1:
                mins.append(a)
                maxs.append(b)
            else:
                mins.append(-b)
                maxs.append(-a)
        return RatBox(mins, maxs)


@dataclass(frozen=True)
class IVVector:
    """Exact intrinsic-volume vector (V'_0, ..., V'_n) of a pixellated set.

    V'_0 is the nonempty indicator (0 or 1); V'_n is the volume.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values):
        vals = tuple(as_fraction(v) for v in values)
        if not vals:
            raise ValueError("an IVVector has at least the degree-0 entry")
        if vals[0] not in (0, 1):
            raise ValueError(f"V'_0 must be 0 or 1, got {vals[0]}")
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_strings(self) -> list[str]:
        return [str(v) for v in self.values]


# ---------------------------------------------------------------------------
# enumeration of symmetry data


def coordinate_subspaces(n: int, k: int) -> tuple[CoordSubspace, ...]:
    """All k-dimensional coordinate subspaces of R^n, in lexicographic order.

    There are C(n, k) of them; k = 0 yields the single empty-axes subspace.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return tuple(CoordSubspace(n, axes) for axes in itertools.combinations(range(n), k))


def hyperoctahedral_group(n: int) -> tuple[SignedPerm, ...]:
    """All 2^n * n! signed permutations of R^n, in a fixed deterministic order
    (permutations lexicographically, then sign patterns with +1 before -1)."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPerm(perm, signs))
    return tuple(out)


# ---------------------------------------------------------------------------
# conversions and boolean algebra


def cell_box(cell: Cell, resolution: Fraction) -> RatBox:
    """The closed cube named by a cell index."""
    lam = as_fraction(resolution)
    return _raw_box(tuple(lam * c for c in cell), tuple(lam * (c + 1) for c in cell))


def cellset_to_boxunion(x: CellSet) -> BoxUnion:
    """One box per cell, in sorted cell order (deterministic)."""
    lam = x.resolution
    return BoxUnion(x.dimension, [cell_box(c, lam) for c in x.sorted_cells()])


def cellset_boolean(x: CellSet, y: CellSet, op: str) -> CellSet:
    """Index-level union / intersection / difference of equal-resolution sets.

    This is set algebra on cell indices: cubes that merely share a boundary
    face count as disjoint.  Use box-union operations for point-set behavior.
    """
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    if x.resolution != y.resolution:
        raise ValueError("resolution mismatch; subdivide to a common grid first")
    if op == "union":
        cells = x.cells | y.cells
    elif op == "intersection":
        cells = x.cells & y.cells
    elif op == "difference":
        cells = x.cells - y.cells
    else:
        raise ValueError(f"unknown boolean op {op!r}")
    return CellSet(x.dimension, cells, x.resolution)


def clip_cells(x: CellSet, lo: Cell, hi: Cell) -> CellSet:
    """Cells of X whose index lies in the integer box [lo, hi] (inclusive)."""
    if len(lo) != x.dimension or len(hi) != x.dimension:
        raise ValueError("bound dimension mismatch")
    kept = [c for c in x.cells if all(a <= v <= b for a, v, b in zip(lo, c, hi))]
    return CellSet(x.dimension, kept, x.resolution)


def _refine(x: CellSet, m: int, resolution: Fraction) -> CellSet:
    """Replace every cell by the m^n cells of its m-fold refinement."""
    n = x.dimension
    offs = list(itertools.product(range(m), repeat=n))
    cells = [
        tuple(m * c[i] + d[i] for i in range(n))
        for c in x.cells
        for d in offs
    ]
    return CellSet(n, cells, resolution)


def subdivide(x: CellSet, m: int) -> CellSet:
    """Refine the grid by an integer factor m >= 1; the point set is unchanged."""
    if m < 1:
        raise ValueError("subdivision factor must be >= 1")
    if m == 1:
        return x
    return _refine(x, m, x.resolution / m)


def scale(x: CellSet, m: int) -> CellSet:
    """Dilate the point set by an integer factor m >= 1 at the same resolution."""
    if m < 1:
        raise ValueError("scale factor must be >= 1")
    if m == 1:
        return x
    return _refine(x, m, x.resolution)


# ---------------------------------------------------------------------------
# projections, isometries, dilations, embeddings


def project(x: CellSet | BoxUnion, subspace: CoordSubspace) -> CellSet | BoxUnion:
    """Orthogonal projection onto a coordinate subspace (coordinate deletion).

    CellSets project to CellSets at the same resolution; BoxUnions to
    BoxUnions (degenerate sides survive).  Projecting onto zero axes gives
    the one-point set in dimension 0 when the input is nonempty.
    """
    if subspace.ambient != x.dimension:
        raise ValueError("subspace ambient dimension mismatch")
    axes = subspace.axes
    if isinstance(x, CellSet):
        cells = {tuple(c[a] for a in axes) for c in x.cells}
        return CellSet(len(axes), cells, x.resolution)
    boxes = [
        _raw_box(tuple(b.mins[a] for a in axes), tuple(b.maxs[a] for a in axes))
        for b in x.boxes
    ]
    return BoxUnion(len(axes), boxes)


def apply_isometry(x: CellSet | BoxUnion, g: SignedPerm, translation=None) -> CellSet | BoxUnion:
    """Apply the taxicab isometry p -> g.p + q.

    For a CellSet the translation must be cell-aligned (each q_i an integer
    multiple of the resolution); a non-aligned q yields a BoxUnion instead.
    """
    n = x.dimension
    if g.dimension != n:
        raise ValueError("isometry dimension mismatch")
    q = tuple(as_fraction(v) for v in translation) if translation is not None else (Fraction(0),) * n
    if len(q) != n:
        raise ValueError("translation dimension mismatch")
    if isinstance(x, CellSet):
        lam = x.resolution
        shifts = [qi / lam for qi in q]
        if all(s.denominator == 1 for s in shifts):
            t = [int(s) for s in shifts]
            cells = set()
            for c in x.cells:
                img = g.apply_cell(c)
                cells.add(tuple(img[i] + t[i] for i in range(n)))
            return CellSet(n, cells, lam)
        x = cellset_to_boxunion(x)
    boxes = [g.apply_box(b).translate(q) for b in x.boxes]
    return BoxUnion(n, boxes)


def box_minkowski(a: RatBox, b: RatBox) -> RatBox:
    """Minkowski sum of two boxes (componentwise interval sums)."""
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    return _raw_box(
        tuple(x + y for x, y in zip(a.mins, b.mins)),
        tuple(x + y for x, y in zip(a.maxs, b.maxs)),
    )


def minkowski_sum_box(x: CellSet | BoxUnion, box: RatBox) -> CellSet | BoxUnion:
    """Minkowski sum X + I with an interval (box) I.

    When X is a CellSet and I is cell-aligned (corners at grid multiples of
    the resolution) the result is again a CellSet on the same grid; otherwise
    the exact result is returned as a BoxUnion.
    """
    n = x.dimension
    if box.dimension != n:
        raise ValueError("dimension mismatch")
    if isinstance(x, CellSet):
        lam = x.resolution
        lo = [v / lam for v in box.mins]
        hi = [v / lam for v in box.maxs]
        if all(v.denominator == 1 for v in lo + hi):
            t = [int(v) for v in lo]
            m = [int(b) - int(a) for a, b in zip(lo, hi)]
            if not x.cells:
                return CellSet(n, (), lam)
            offs = list(itertools.product(*[range(mi + 1) for mi in m]))
            cells = {
                tuple(c[i] + d[i] + t[i] for i in range(n))
                for c in x.cells
                for d in offs
            }
            return CellSet(n, cells, lam)
        x = cellset_to_boxunion(x)
    return BoxUnion(n, [box_minkowski(b, box) for b in x.boxes])


def embed(x: CellSet, position: int) -> BoxUnion:
    """Embed X into R^(n+1) as a degenerate slab {x_position = 0}.

    Each cube becomes a box with the new coordinate pinned to [0, 0].
    """
    n = x.dimension
    if not 0 <= position <= n:
        raise ValueError(f"insert position must be in 0..{n}")
    lam = x.resolution
    boxes = []
    for c in x.sorted_cells():
        mins = [lam * v for v in c]
        maxs = [lam * (v + 1) for v in c]
        mins.insert(position, Fraction(0))
        maxs.insert(position, Fraction(0))
        boxes.append(RatBox(mins, maxs))
    return BoxUnion(n + 1, boxes)


# ---------------------------------------------------------------------------
# exact volume of a box union (coordinate compression)


def union_volume(u: BoxUnion) -> Fraction:
    """Exact Lebesgue volume of a union of boxes via coordinate compression.

    Breakpoints along each axis cut the union into grid bricks on which
    coverage is constant; the volume is the sum of covered brick volumes.
    Arithmetic is exact: corners are scaled to integers on a common
    denominator, and the covered-brick sum runs in int64 when a precomputed
    bound proves it cannot overflow and on exact big-int arrays otherwise.
    """
    if not u.boxes:
        return Fraction(0)
    n = u.dimension
    if n == 0:
        return Fraction(1)

    den, ((mins, maxs),) = _scaled_union_arrays((u,))
    breaks = [np.unique(np.concatenate((mins[:, i], maxs[:, i]))) for i in range(n)]
    shape = [len(bk) - 1 for bk in breaks]
    if any(s == 0 for s in shape):
        return Fraction(0)
    total_cells = 1
    for s in shape:
        total_cells *= s
    if total_cells > _UNION_GRID_LIMIT:
        raise ValueError(f"compression grid of {total_cells} bricks is too large")
    covered = np.zeros(shape, dtype=bool)
    starts = [np.searchsorted(breaks[i], mins[:, i]) for i in range(n)]
    stops = [np.searchsorted(breaks[i], maxs[:, i]) for i in range(n)]
    for b in range(mins.shape[0]):
        covered[tuple(slice(starts[i][b], stops[i][b]) for i in range(n))] = True
    scaled_weights = [np.diff(breaks[i]).tolist() for i in range(n)]
    bound = 1
    for w in scaled_weights:
        bound *= sum(w)
    dtype = np.int64 if bound < _INT64_SAFE else object
    acc = covered.astype(dtype)
    for w in reversed(scaled_weights):
        acc = acc @ np.asarray(w, dtype=dtype)
    return Fraction(int(acc), den**n)


# ---------------------------------------------------------------------------
# point-set operations on box unions (exact, degenerate-aware)


def box_intersection(a: RatBox, b: RatBox) -> RatBox | None:
    """Closed intersection of two boxes, or None when empty.

    Face- and corner-touching boxes intersect in a degenerate box, which is
    kept: these lower-dimensional pieces matter for point-set identities.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    mins, maxs = [], []
    for i in range(a.dimension):
        lo = max(a.mins[i], b.mins[i])
        hi = min(a.maxs[i], b.maxs[i])
        if lo > hi:
            return None
        mins.append(lo)
        maxs.append(hi)
    return RatBox(mins, maxs)


def _scaled_union_arrays(unions, den: int = 1):
    """Scale the corners of box unions to integers on one common denominator.

    Returns ``(den, [(mins, maxs), ...])`` with one pair of (boxes x n) corner
    arrays per union; ``den`` is the lcm of the given ``den`` and every corner
    denominator, so callers can fold in one of their own.  The arrays are
    int64 when every scaled corner is below 2^62 in size, and exact big-int
    (object) arrays otherwise.
    """
    n = unions[0].dimension
    corners = [b.mins + b.maxs for u in unions for b in u.boxes]
    den = lcm(den, *{val.denominator for row in corners for val in row})
    flat = [val.numerator * (den // val.denominator) for row in corners for val in row]
    safe = -_INT64_SAFE < min(flat, default=0) and max(flat, default=0) < _INT64_SAFE
    arr = np.asarray(flat, dtype=np.int64 if safe else object).reshape(len(corners), 2 * n)
    out = []
    start = 0
    for u in unions:
        part = arr[start:start + len(u.boxes)]
        out.append((part[:, :n], part[:, n:]))
        start += len(u.boxes)
    return den, out


def boxunion_intersection(u: BoxUnion, v: BoxUnion) -> BoxUnion:
    """Exact point-set intersection: all pairwise box intersections."""
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    n = u.dimension
    if u.is_empty or v.is_empty or n == 0:
        boxes = (RatBox((), ()),) if n == 0 and u.boxes and v.boxes else ()
        return BoxUnion(n, boxes)
    den, ((umin, umax), (vmin, vmax)) = _scaled_union_arrays((u, v))
    lo = np.maximum(umin[:, None, :], vmin[None, :, :])
    hi = np.minimum(umax[:, None, :], vmax[None, :, :])
    keep = (lo <= hi).all(axis=2)
    lo_kept = lo[keep].tolist()
    hi_kept = hi[keep].tolist()
    frac = {}
    for row in lo_kept:
        for val in row:
            if val not in frac:
                frac[val] = Fraction(val, den)
    for row in hi_kept:
        for val in row:
            if val not in frac:
                frac[val] = Fraction(val, den)
    boxes = [
        _raw_box(tuple(frac[a] for a in row_lo), tuple(frac[b] for b in row_hi))
        for row_lo, row_hi in zip(lo_kept, hi_kept)
    ]
    return BoxUnion(n, boxes)


def boxunion_minkowski_box(u: BoxUnion, box: RatBox) -> BoxUnion:
    """Minkowski sum of every box of U with an interval box."""
    return BoxUnion(u.dimension, [box_minkowski(b, box) for b in u.boxes])


def boxunion_equal_pointsets(u: BoxUnion, v: BoxUnion) -> bool:
    """Decide exact point-set equality of two box unions.

    The corners of all boxes cut each axis into points and open intervals;
    membership in either union is constant on every product piece (including
    the degenerate ones), so equality holds iff the coverage tables agree.
    """
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    n = u.dimension
    if n == 0:
        return u.is_empty == v.is_empty
    if u.is_empty or v.is_empty:
        return u.is_empty and v.is_empty

    _, ((umin, umax), (vmin, vmax)) = _scaled_union_arrays((u, v))
    breaks = [
        np.unique(np.concatenate((umin[:, i], vmin[:, i], umax[:, i], vmax[:, i])))
        for i in range(n)
    ]
    # piece 2*j is the point breaks[j], piece 2*j+1 the open interval
    # between breaks[j] and breaks[j+1]
    shape = [2 * len(bk) - 1 for bk in breaks]
    total = 1
    for s in shape:
        total *= s
    if total > _UNION_GRID_LIMIT:
        raise ValueError("point-set comparison grid too large")

    def coverage(mins, maxs) -> np.ndarray:
        cov = np.zeros(shape, dtype=bool)
        starts = [2 * np.searchsorted(breaks[i], mins[:, i]) for i in range(n)]
        stops = [2 * np.searchsorted(breaks[i], maxs[:, i]) + 1 for i in range(n)]
        for b in range(mins.shape[0]):
            cov[tuple(slice(starts[i][b], stops[i][b]) for i in range(n))] = True
        return cov

    return bool(np.array_equal(coverage(umin, umax), coverage(vmin, vmax)))


# ---------------------------------------------------------------------------
# metric helpers


def point_box_distance(point, box: RatBox) -> Fraction:
    """Exact taxicab distance from a point to a closed box."""
    pt = tuple(as_fraction(v) for v in point)
    if len(pt) != box.dimension:
        raise ValueError("dimension mismatch")
    dist = Fraction(0)
    for x, lo, hi in zip(pt, box.mins, box.maxs):
        dist += max(lo - x, x - hi, Fraction(0))
    return dist


def _box_samples_scaled(box: RatBox, delta: Fraction, scale_d: int) -> list[range | list[int]]:
    """Per-axis sample coordinates for one box, scaled by scale_d to integers.

    Along each axis: the endpoints plus every multiple of delta inside the
    side.  The product of these per-axis sets covers the box with taxicab
    covering radius <= n*delta/2 (consecutive sample coordinates along an
    axis are at most delta apart), which is what makes the Hausdorff bracket
    sound.  Vertices alone or full-grid points alone would not suffice.
    """
    out = []
    for lo, hi in zip(box.mins, box.maxs):
        vals = {int(lo * scale_d), int(hi * scale_d)}
        k0 = ceil(lo / delta)
        k1 = floor(hi / delta)
        step = int(delta * scale_d)
        for k in range(k0, k1 + 1):
            vals.add(k * step)
        out.append(sorted(vals))
    return out


def _block_entries(dtype: np.dtype) -> int:
    """How many entries one temporary array of a chunked distance scan may
    hold: fewer for exact big-int (object) arrays, whose entries are Python
    ints of several times the size of an int64."""
    return 2_000_000 if dtype == np.int64 else 125_000


def _directed_distance_scaled(samples: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> int:
    """max over sample points of min over boxes of the scaled taxicab distance."""
    best = 0
    m = mins.shape[0]
    chunk = max(1, _block_entries(samples.dtype) // max(m, 1))
    for start in range(0, samples.shape[0], chunk):
        pts = samples[start:start + chunk]
        gap_lo = mins[None, :, :] - pts[:, None, :]
        gap_hi = pts[:, None, :] - maxs[None, :, :]
        d = np.maximum(np.maximum(gap_lo, gap_hi), 0).sum(axis=2)
        best = max(best, int(d.min(axis=1).max()))
    return best


def hausdorff_distance(u: BoxUnion, v: BoxUnion, delta: RationalLike) -> tuple[Fraction, Fraction]:
    """Rigorous bracket (lower, upper) for the taxicab Hausdorff distance.

    The lower bound evaluates exact point-to-union distances on a finite
    sample set (per-axis delta-grids plus side endpoints, per box); the upper
    bound adds the sample covering radius n*delta/2.  Both bounds are exact
    rationals and the true distance always lies in [lower, upper].  The scan
    runs in int64 when the scaled corners bound every distance below 2^62,
    and on exact big-int arrays otherwise.
    """
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    if u.is_empty or v.is_empty:
        raise ValueError("Hausdorff distance requires nonempty sets")
    n = u.dimension
    if n == 0:
        return Fraction(0), Fraction(0)

    denom, corners = _scaled_union_arrays((u, v), d.denominator)
    # Samples lie inside the boxes, so no coordinate exceeds `mag` in size
    # and no distance exceeds 2*n*mag.
    mag = max(int(abs(a).max()) for pair in corners for a in pair)
    dtype = np.int64 if 2 * n * mag < _INT64_SAFE else object
    (mu, xu), (mv, xv) = ((a.astype(dtype, copy=False) for a in pair) for pair in corners)

    def sample_array(w: BoxUnion) -> np.ndarray:
        pts = set()
        for b in w.boxes:
            axes = _box_samples_scaled(b, d, denom)
            pts.update(itertools.product(*axes))
        return np.asarray(sorted(pts), dtype=dtype)

    su, sv = sample_array(u), sample_array(v)
    lower_scaled = max(
        _directed_distance_scaled(su, mv, xv),
        _directed_distance_scaled(sv, mu, xu),
    )
    lower = Fraction(lower_scaled, denom)
    upper = lower + Fraction(n, 2) * d
    return lower, upper
