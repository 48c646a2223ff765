"""Core data types and exact operations for pixellated sets in R^n.

A *cell* is an integer lattice point h; at resolution lambda it names the
closed axis-aligned cube lambda*(h + [0,1]^n).  A CellSet is a finite union of
such cubes on a common grid.  RatBox / BoxUnion describe general axis-aligned
boxes with rational corners (degenerate sides allowed), which is the closure
of CellSets under projections, intersections, and non-aligned translations.

All geometry here is exact: coordinates enter and leave as
``fractions.Fraction`` and every operation returns exact rationals.  numpy
is used only as an integer/bool array engine, never with floats.  A BoxUnion
stores its corners once as integer arrays over one denominator; the
box-union kernels read and return those arrays (``_common_arrays`` puts
several unions on one denominator), and Fractions are built only at the API
edge.  A CellSet likewise stores its cells once, as a sorted integer index
array, and the cell kernels (projection, refinement, isometries, Minkowski
sums with aligned boxes, clipping, index-level set algebra) select, gather,
add and sort on its rows and columns.  Every CellSet the library makes is
built from such an array by ``CellSet._from_array``, or by
``CellSet._from_sorted`` when the rows are already sorted and distinct; the
validating ``CellSet(n, cells, resolution)`` constructor is for cells given
from outside, and ``.cells`` is a frozenset view built only when asked for.
The views are built column by column (``_row_tuples``): each axis's column
is read out once as a list, and the row tuples are zipped from the columns
in C; a BoxUnion's RatBox view makes one Fraction per distinct corner value.
A CellSet enters the point-set kernels as one box per run of cells along the
last axis (``_cell_runs``); ``cellset_to_boxunion`` is the one-box-per-cell
view.
The arrays are int64 when a bound proves it safe and exact big-int (object)
arrays otherwise, with one code path for both.  Operations that multiply
cells, and the Hausdorff samples, check the number they would build against
``_CELL_LIMIT`` first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from ._util import RationalLike, as_fraction, as_point

Cell = tuple[int, ...]

_UNION_GRID_LIMIT = 60_000_000  # refuse compression grids bigger than this
_INT64_SAFE = 1 << 62
_CELL_LIMIT = 4_000_000  # refuse to build more cells or sample points than this at once
_VOLUME_BLOCK = 1 << 20  # bricks union_volume casts to its weight dtype at once


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class CellSet:
    """A finite set of grid cells at a common rational resolution.

    A cell is an integer index vector h; the represented point set is the
    union of the closed cubes ``resolution * (h + [0,1]^n)``.  The cells are
    stored once, as the read-only (cells x dimension) array ``indices``: its
    rows are sorted lexicographically and distinct, and it is int64 when every
    index is below 2^62 in size and exact big-int (object) otherwise, the rule
    BoxUnion uses.  ``cells`` is the frozenset-of-tuples view, built on first
    use.  Equality and hashing compare the dimension, the resolution and the
    index array, whose canonical form makes that a comparison of cell sets
    (the hash reads the indices as Python ints).  The empty set is a CellSet
    with no cells.  Dimension 0 is allowed (the single cell is the empty
    tuple) so that projections onto zero axes stay in-type.
    """

    dimension: int
    indices: np.ndarray
    resolution: Fraction

    def __init__(self, dimension: int, cells=(), resolution: RationalLike = 1):
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        res = as_fraction(resolution)
        if res <= 0:
            raise ValueError("resolution must be positive")
        cells = list(cells)
        try:
            rows = np.asarray(cells) if cells else np.zeros((0, dimension), dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            rows = None
        if rows is None or rows.dtype.kind not in "iu" or rows.shape != (len(cells), dimension):
            # ragged, non-integer or beyond-int64 input: checked cell by cell
            rows = np.array([_checked_cell(c, dimension) for c in cells], dtype=object)
        self._store(int(dimension), rows.reshape(len(cells), dimension), res)

    @classmethod
    def _from_array(cls, dimension: int, rows: np.ndarray, resolution: Fraction) -> "CellSet":
        """The set of the rows of an integer (m x dimension) array, which need
        not be sorted or distinct; nothing is validated."""
        x = object.__new__(cls)
        x._store(dimension, rows, resolution)
        return x

    @classmethod
    def _from_sorted(cls, dimension: int, rows: np.ndarray, resolution: Fraction) -> "CellSet":
        """``_from_array`` for rows already sorted lexicographically and
        distinct (a subset of a set's rows in their order, say): only
        re-typed, not sorted again."""
        x = object.__new__(cls)
        x._store(dimension, rows, resolution, canonical=True)
        return x

    def _store(self, dimension, rows, resolution, *, canonical: bool = False) -> None:
        rows = _fit(rows) if canonical else _distinct_rows(_fit(rows))
        rows.flags.writeable = False
        vars(self).update(dimension=dimension, indices=rows, resolution=resolution, _cells=None)

    @property
    def cells(self) -> frozenset[Cell]:
        if self._cells is None:
            vars(self)["_cells"] = frozenset(_row_tuples(self.indices.T.tolist(), len(self)))
        return self._cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        same = (self.dimension, self.resolution) == (other.dimension, other.resolution)
        return same and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        flat = tuple(self.indices.ravel().tolist())
        return hash((self.dimension, self.resolution, self.indices.shape, flat))

    def __reduce__(self):  # a copy or unpickled set gets its array read-only again
        return CellSet._from_array, (self.dimension, self.indices, self.resolution)

    def __repr__(self) -> str:
        cells, res = self.cells, self.resolution
        return f"CellSet(dimension={self.dimension!r}, cells={cells!r}, resolution={res!r})"

    @property
    def is_empty(self) -> bool:
        return self.indices.shape[0] == 0

    def __len__(self) -> int:
        return self.indices.shape[0]

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(_row_tuples(self.indices.T.tolist(), len(self)))

    def bounding_box(self) -> "RatBox":
        """Smallest RatBox containing the represented point set (nonempty only)."""
        if self.is_empty:
            raise ValueError("empty cell set has no bounding box")
        lam = self.resolution
        lo, hi = self.indices.min(axis=0).tolist(), self.indices.max(axis=0).tolist()
        return RatBox([lam * v for v in lo], [lam * (v + 1) for v in hi])


def _checked_cell(cell, dimension: int) -> Cell:
    tup = tuple(cell)
    if len(tup) != dimension:
        raise ValueError(f"cell {tup} does not have dimension {dimension}")
    if not all(isinstance(c, (int, np.integer)) for c in tup):
        raise ValueError(f"cell {tup} has non-integer coordinates")
    return tuple(int(c) for c in tup)


def _int_dtype(bound: int):
    """The dtype for integer arrays whose values, and every value a kernel
    computes from them, stay below ``bound`` in size: int64 when ``bound`` is
    below 2^62, which leaves room to add two such values, and exact big-int
    (object) otherwise.  Every integer shortcut takes its dtype from here;
    the Monte Carlo sampler narrows it to int32 below 2^31."""
    return np.int64 if bound < _INT64_SAFE else object


def _fit(rows: np.ndarray, *, scale: int = 1, shift: int = 0) -> np.ndarray:
    """An integer array re-typed by ``_int_dtype`` so that ``entry * scale``
    plus terms up to ``shift`` in size cannot wrap; not copied when it has
    that dtype already."""
    mag = max(-int(rows.min(initial=0)), int(rows.max(initial=0)))
    return rows.astype(_int_dtype(mag * scale + shift), copy=False)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer (m x n) array, sorted lexicographically."""
    m, n = rows.shape
    if n == 0:
        return rows[: min(m, 1)]
    if m > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
        fresh = np.ones(m, dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[fresh]
    return rows


def _row_tuples(columns: list, m: int) -> list[tuple]:
    """The m rows of a table given as its columns (one list or iterable of m
    values per axis), as tuples zipped in C; m empty tuples in dimension 0."""
    return list(zip(*columns)) if columns else [()] * m


def _corner_mag(lows: np.ndarray, highs: np.ndarray) -> int:
    """The largest size of a corner of the boxes ``[lows[b], highs[b]]``:
    with ``lows <= highs`` it takes one reduction per array."""
    return max(-int(lows.min(initial=0)), int(highs.max(initial=0)))


def _check_cell_count(count: int, what: str = "cells") -> None:
    if count > _CELL_LIMIT:
        raise ValueError(f"the result would take {count} {what} to build, over {_CELL_LIMIT}")


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
        return prod(self.side_lengths(), start=Fraction(1))

    def contains_point(self, point) -> bool:
        pt = as_point(point, self.dimension)
        return all(a <= x <= b for a, x, b in zip(self.mins, pt, self.maxs))

    def translate(self, offset) -> "RatBox":
        off = as_point(offset, self.dimension)
        return RatBox(
            tuple(a + d for a, d in zip(self.mins, off)),
            tuple(b + d for b, d in zip(self.maxs, off)),
        )

    def corners(self):
        """Iterate the 2^n corner points (may repeat for degenerate sides)."""
        return itertools.product(*zip(self.mins, self.maxs))


def _raw_box(mins: tuple, maxs: tuple) -> RatBox:
    """Construct a RatBox from already-validated Fraction tuples, written
    straight into the new instance's ``__dict__``."""
    box = object.__new__(RatBox)
    fields = box.__dict__
    fields["mins"] = mins
    fields["maxs"] = maxs
    return box


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of RatBoxes.  Overlaps and degenerate boxes are allowed
    and are never canonicalized away; the printed form lists boxes as given.

    The corners are stored once, as integers over one denominator: box b is
    ``[lows[b] / den, highs[b] / den]``, with ``lows`` and ``highs`` read-only
    (boxes x dimension) arrays.  They are int64 when every corner is below
    2^62 in size and exact big-int (object) arrays otherwise.  ``boxes`` is
    the RatBox view: the boxes as given to the constructor, or built from the
    arrays on first use for a union that a kernel returned, with one Fraction
    per distinct corner value and the ``mins`` and ``maxs`` tuples zipped
    from the arrays' columns.  Equality and hashing compare
    ``(dimension, boxes)``.
    """

    dimension: int
    den: int
    lows: np.ndarray
    highs: np.ndarray

    def __init__(self, dimension: int, boxes=()):
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        tup = tuple(boxes)
        for b in tup:
            if b.dimension != dimension:
                raise ValueError("box dimension mismatch")
        corners = [b.mins + b.maxs for b in tup]
        den = lcm(*{val.denominator for row in corners for val in row})
        flat = [val.numerator * (den // val.denominator) for row in corners for val in row]
        dtype = _int_dtype(max(map(abs, flat), default=0))
        arr = np.asarray(flat, dtype=dtype).reshape(len(tup), 2 * dimension)
        self._store(int(dimension), den, arr[:, :dimension], arr[:, dimension:], tup)

    @classmethod
    def _from_arrays(cls, dimension: int, den: int, lows: np.ndarray, highs: np.ndarray, mag=None):
        """A union over integer corner arrays (``lows <= highs``), re-typed to
        int64 or object by the size of its corners: ``mag`` when the caller
        knows it, equal to ``_corner_mag(lows, highs)``, else scanned."""
        dtype = _int_dtype(_corner_mag(lows, highs) if mag is None else mag)
        u = object.__new__(cls)
        u._store(dimension, den, lows.astype(dtype, copy=False), highs.astype(dtype, copy=False))
        return u

    def _store(self, dimension, den, lows, highs, boxes=None) -> None:
        lows.flags.writeable = highs.flags.writeable = False
        vars(self).update(dimension=dimension, den=den, lows=lows, highs=highs, _boxes=boxes)

    @property
    def boxes(self) -> tuple[RatBox, ...]:
        if self._boxes is None:
            m, lows, highs = len(self.lows), self.lows.T.tolist(), self.highs.T.tolist()
            frac = {val: Fraction(val, self.den) for val in set().union(*lows, *highs)}.__getitem__
            mins = _row_tuples([map(frac, col) for col in lows], m)
            maxs = _row_tuples([map(frac, col) for col in highs], m)
            vars(self)["_boxes"] = tuple(map(_raw_box, mins, maxs))
        return self._boxes

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxUnion):
            return NotImplemented
        return (self.dimension, self.boxes) == (other.dimension, other.boxes)

    def __hash__(self) -> int:
        return hash((self.dimension, self.boxes))

    def __reduce__(self):  # a copy or unpickled union gets its arrays read-only again
        return BoxUnion._from_arrays, (self.dimension, self.den, self.lows, self.highs)

    def __repr__(self) -> str:
        return f"BoxUnion(dimension={self.dimension!r}, boxes={self.boxes!r})"

    @property
    def is_empty(self) -> bool:
        return self.lows.shape[0] == 0

    def bounding_box(self) -> RatBox:
        if self.is_empty:
            raise ValueError("empty box union has no bounding box")
        return RatBox(
            [Fraction(int(v), self.den) for v in self.lows.min(axis=0)],
            [Fraction(int(v), self.den) for v in self.highs.max(axis=0)],
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
        pt = as_point(point, self.dimension)
        return tuple(self.signs[i] * pt[self.perm[i]] for i in range(self.dimension))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Return g*h acting as x -> self(other(x))."""
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.dimension))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(self.dimension))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        perm = sorted(range(self.dimension), key=self.perm.__getitem__)
        return SignedPerm(perm, [self.signs[p] for p in perm])

    def apply_cell(self, cell: Cell) -> Cell:
        """Image of the cube named by ``cell`` (the image is again a grid cube)."""
        return tuple(cell[p] if s == 1 else -cell[p] - 1 for p, s in zip(self.perm, self.signs))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Images of the cells in the rows of an integer index array: a column
        gather and a sign flip (int64 rows must lie below 2^62 in size)."""
        gathered = rows[:, list(self.perm)]
        return np.where(np.asarray(self.signs, dtype=np.int64) < 0, -1 - gathered, gathered)

    def apply_box(self, box: RatBox) -> RatBox:
        lo, hi, pairs = box.mins, box.maxs, zip(self.perm, self.signs)
        sides = [(lo[p], hi[p]) if s == 1 else (-hi[p], -lo[p]) for p, s in pairs]
        return RatBox([a for a, _ in sides], [b for _, b in sides])


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
    signs = list(itertools.product((1, -1), repeat=n))
    return tuple(SignedPerm(perm, s) for perm in itertools.permutations(range(n)) for s in signs)


# ---------------------------------------------------------------------------
# conversions and boolean algebra


def cell_box(cell: Cell, resolution: Fraction) -> RatBox:
    """The closed cube named by a cell index."""
    lam = as_fraction(resolution)
    return _raw_box(tuple(lam * c for c in cell), tuple(lam * (c + 1) for c in cell))


def cellset_to_boxunion(x: CellSet) -> BoxUnion:
    """The public one-box-per-cell view of a cell set: one cube per cell, in
    sorted cell order (deterministic).  The corners are the cell indices
    times the resolution's numerator, over its denominator, computed in int64
    only when no corner can wrap around.  Kernels that read only the point
    set take ``_cell_runs``, which has fewer boxes."""
    num = x.resolution.numerator
    rows, mag = _cube_rows(x)
    lows = rows * num
    return BoxUnion._from_arrays(x.dimension, x.resolution.denominator, lows, lows + num, mag)


def _cube_rows(x: CellSet) -> tuple[np.ndarray, int]:
    """The indices of X re-typed as ``_fit(x.indices, scale=num, shift=num)``
    does, for num the resolution's numerator, and the ``_corner_mag`` of the
    cubes ``num * (index + [0, 1])``, both from one min and one max.  The
    runs of ``_cell_runs`` have that ``_corner_mag`` too: a run starts at a
    row that is no larger on any axis than the run's other rows, and ends at
    one no smaller."""
    num = x.resolution.numerator
    # an empty array has no corners: its mag is 0
    lo, hi = (int(x.indices.min()), int(x.indices.max())) if x.indices.size else (0, -1)
    rows = x.indices.astype(_int_dtype(max(-lo, hi) * num + num), copy=False)
    return rows, max(-lo * num, hi * num + num, 0)


def _cell_runs(x: CellSet) -> BoxUnion:
    """The point set of X as one box per maximal run of cells along the last
    axis, in sorted cell order, scaled as in ``cellset_to_boxunion``.  The
    rows are sorted and distinct, so a run goes on exactly where a row steps
    from the one before it by (0, ..., 0, 1)."""
    num = x.resolution.numerator
    rows, mag = _cube_rows(x)
    lows = highs = rows
    if len(rows) > 1:  # so dimension >= 1: dimension 0 has one cell at most
        step = rows[1:] - rows[:-1]  # rows below 2^62 in size: no int64 wrap
        step[:, -1] -= 1
        cut = (step != 0).any(axis=1)
        lows, highs = rows[np.concatenate(([True], cut))], rows[np.concatenate((cut, [True]))]
    den = x.resolution.denominator
    return BoxUnion._from_arrays(x.dimension, den, lows * num, highs * num + num, mag)


def cellset_boolean(x: CellSet, y: CellSet, op: str) -> CellSet:
    """Index-level union / intersection / difference of equal-resolution sets.

    This is set algebra on cell indices: cubes that merely share a boundary
    face count as disjoint.  Use box-union operations for point-set behavior.
    """
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    if x.resolution != y.resolution:
        raise ValueError("resolution mismatch; subdivide to a common grid first")
    if op not in ("union", "intersection", "difference"):
        raise ValueError(f"unknown boolean op {op!r}")
    n, both = x.dimension, np.concatenate((x.indices, y.indices))
    if op == "union":
        return CellSet._from_array(n, both, x.resolution)
    # each side's rows are distinct, so a row of X is also in Y exactly when
    # the stable sort puts it right before an equal row (the one from Y)
    order = np.lexsort(both.T[::-1]) if n else np.arange(len(both))
    rows = both[order]
    in_y = np.zeros(len(x), dtype=bool)
    in_y[order[:-1][(rows[1:] == rows[:-1]).all(axis=1)]] = True
    kept = in_y if op == "intersection" else ~in_y
    return CellSet._from_sorted(n, x.indices[kept], x.resolution)


def _clip_mask(x: CellSet, lo: Cell, hi: Cell) -> np.ndarray:
    """Which rows of ``x.indices`` lie in the integer box [lo, hi] (inclusive)."""
    if len(lo) != x.dimension or len(hi) != x.dimension:
        raise ValueError("bound dimension mismatch")
    kept = np.ones(len(x), dtype=bool)
    for col, a, b in zip(x.indices.T, lo, hi):
        kept &= (col >= a) & (col <= b)
    return kept


def clip_cells(x: CellSet, lo: Cell, hi: Cell) -> CellSet:
    """Cells of X whose index lies in the integer box [lo, hi] (inclusive)."""
    return CellSet._from_sorted(x.dimension, x.indices[_clip_mask(x, lo, hi)], x.resolution)


def _shifted_copies(rows: np.ndarray, sides) -> np.ndarray:
    """Every row plus every integer point of the box [0, sides], as one array."""
    dims = [s + 1 for s in sides]
    offs = np.indices(dims).reshape(len(dims), prod(dims)).T
    return (rows[:, None, :] + offs).reshape(len(rows) * len(offs), len(dims))


def _refine(x: CellSet, m: int, resolution: Fraction) -> CellSet:
    """Replace every cell by the m^n cells of its m-fold refinement."""
    n = x.dimension
    _check_cell_count(len(x) * m**n)
    rows = _fit(x.indices, scale=m, shift=m) * m
    return CellSet._from_array(n, _shifted_copies(rows, [m - 1] * n), resolution)


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
    cols = list(subspace.axes)
    if isinstance(x, CellSet):
        return CellSet._from_array(len(cols), x.indices[:, cols], x.resolution)
    return BoxUnion._from_arrays(len(cols), x.den, x.lows[:, cols], x.highs[:, cols])


def apply_isometry(x: CellSet | BoxUnion, g: SignedPerm, translation=None) -> CellSet | BoxUnion:
    """Apply the taxicab isometry p -> g.p + q.

    For a CellSet the translation must be cell-aligned (each q_i an integer
    multiple of the resolution); a non-aligned q yields a BoxUnion instead.
    """
    n = x.dimension
    if g.dimension != n:
        raise ValueError("isometry dimension mismatch")
    q = as_point(translation, n) if translation is not None else (Fraction(0),) * n
    if isinstance(x, CellSet):
        lam = x.resolution
        shifts = [qi / lam for qi in q]
        if all(s.denominator == 1 for s in shifts):
            t = [int(s) for s in shifts]
            rows = g.apply_rows(_fit(x.indices, shift=1 + max(map(abs, t), default=0)))
            return CellSet._from_array(n, rows + np.asarray(t, dtype=rows.dtype), lam)
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
            _check_cell_count(len(x) * prod(w + 1 for w in m))
            rows = _fit(x.indices, shift=max((abs(a) + w for a, w in zip(t, m)), default=0))
            rows = rows + np.asarray(t, dtype=rows.dtype)
            return CellSet._from_array(n, _shifted_copies(rows, m), lam)
        x = cellset_to_boxunion(x)
    return boxunion_minkowski_box(x, box)


def embed(x: CellSet, position: int) -> BoxUnion:
    """Embed X into R^(n+1) as a degenerate slab {x_position = 0}.

    Each cube becomes a box with the new coordinate pinned to [0, 0].
    """
    n = x.dimension
    if not 0 <= position <= n:
        raise ValueError(f"insert position must be in 0..{n}")
    u = cellset_to_boxunion(x)
    lows, highs = (np.insert(a, position, 0, axis=1) for a in (u.lows, u.highs))
    return BoxUnion._from_arrays(n + 1, u.den, lows, highs)


# ---------------------------------------------------------------------------
# exact volume of a box union (coordinate compression)


def union_volume(u: BoxUnion) -> Fraction:
    """Exact Lebesgue volume of a union of boxes via coordinate compression.

    Breakpoints along each axis cut the union into grid bricks; the
    summed-area table of ``_covered_bricks`` marks the covered ones, and the
    volume sums their volumes (``_brick_sum``).  Arithmetic is exact: the
    grid is built from the union's integer corners, and the covered-brick sum
    runs in int64 when a bound proves it cannot overflow, on exact big-int
    arrays otherwise.
    """
    if u.is_empty:
        return Fraction(0)
    if u.dimension == 0:
        return Fraction(1)
    breaks = _breakpoints(u.lows, u.highs)
    # the brick widths on an axis sum to its span: the bound on the total
    dtype = _int_dtype(prod(int(bk[-1]) - int(bk[0]) for bk in breaks))
    weights = [np.diff(bk).astype(dtype, copy=False) for bk in breaks]
    total = _brick_sum(_covered_bricks(breaks, u.lows, u.highs), weights, dtype)
    return Fraction(total, u.den**u.dimension)


def _brick_sum(covered: np.ndarray, weights: list[np.ndarray], dtype) -> int:
    """The sum, over the covered bricks of a table (n >= 1 axes), of the
    product of their per-axis ``weights`` (arrays of ``dtype``), contracting
    the bool table one axis at a time in blocks of ``_VOLUME_BLOCK`` bricks."""
    weights = list(weights)
    slabs = [(covered, weights[0])]
    if covered.size > _VOLUME_BLOCK:
        # slabs across the longest axis: a block, or one slab, of the table
        # is held in the weight dtype at a time, not the whole table
        axis = max(range(covered.ndim), key=covered.shape.__getitem__)
        covered, w = np.moveaxis(covered, axis, 0), weights.pop(axis)
        weights.insert(0, w)
        rows = max(1, _VOLUME_BLOCK // prod(covered.shape[1:]))
        slabs = [(covered[i:i + rows], w[i:i + rows]) for i in range(0, len(covered), rows)]
    total = 0
    for slab, w0 in slabs:
        acc = slab.astype(dtype)
        for w in reversed(weights[1:]):
            acc = acc @ w
        total += int(acc @ w0)
    return total


def _breakpoints(*corners: np.ndarray) -> list[np.ndarray]:
    """Per axis, the sorted distinct coordinates of some corner arrays: the
    compression grid, refused above ``_UNION_GRID_LIMIT`` bricks."""
    breaks = [np.unique(np.concatenate(cols)) for cols in zip(*(a.T for a in corners))]
    total_cells = prod(max(len(bk) - 1, 0) for bk in breaks)
    if total_cells > _UNION_GRID_LIMIT:
        raise ValueError(f"compression grid of {total_cells} bricks is too large")
    return breaks


def _covered_bricks(breaks: list[np.ndarray], lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """The bool table of the bricks of the grid ``breaks`` that some box
    ``[lows[b], highs[b]]`` (corners on the grid) covers: the summed-area
    table of the boxes' signed brick corners counts the boxes over a brick
    (a difference array).  A flat axis leaves no bricks and builds no table;
    dimension 0 gives a 0-d table, True when there is a box."""
    shape = tuple(max(len(bk) - 1, 0) for bk in breaks)
    if 0 in shape:
        return np.zeros(shape, dtype=bool)
    padded = tuple(s + 1 for s in shape)
    corners = np.stack((lows, highs))
    index = np.empty(corners.shape, dtype=np.intp)
    for i, bk in enumerate(breaks):
        index[..., i] = np.searchsorted(bk, corners[..., i])
    table = _summed_area(padded, *_corner_indices(*index, padded), len(lows))
    return table[(*map(slice, shape), ...)].astype(bool)


def _corner_indices(lo: np.ndarray, hi: np.ndarray, shape: tuple[int, ...]):
    """The 2^n corners of the index boxes ``[lo, hi)`` (integer (..., n)
    arrays) as flat indices (2^n, ...) into a C-order table of ``shape``,
    corner k taking ``hi`` on the axes of the bits of k (the first axis
    highest), and their int8 signs (-1)^(bits of k), shaped to broadcast."""
    flat = np.zeros((2 ** len(shape), *lo.shape[:-1]), dtype=np.intp)
    sign = np.ones(len(flat), dtype=np.int8)
    stride, done = 1, 1
    for i in reversed(range(len(shape))):  # the corners so far, once with lo and once with hi
        np.add(flat[:done], hi[..., i] * stride, out=flat[done:2 * done])
        flat[:done] += lo[..., i] * stride
        sign[done:2 * done] = -sign[:done]
        stride, done = stride * shape[i], 2 * done
    return flat, sign.reshape(-1, *[1] * (lo.ndim - 1))


def _summed_area(shape: tuple[int, ...], flat: np.ndarray, sign, count: int) -> np.ndarray:
    """The summed-area table (Crow, SIGGRAPH 1984) of ``sign`` placed at the
    flat indices ``flat`` of a table of ``shape``: entry x is the signed count
    at the indices <= x.  ``count`` bounds every partial sum in size and picks
    the narrowest signed dtype; the table is summed in place along each axis."""
    dtype = np.int8 if count < 2**7 else np.int16 if count < 2**15 else np.int32
    table = np.zeros(shape, dtype=dtype)
    # sign broadcasts along trailing axes: NumPy 2.4.6 mis-adds int8 ones on a leading axis
    np.add.at(table.reshape(-1), flat, sign)
    for axis in range(len(shape)):
        np.add.accumulate(table, axis=axis, out=table)
    return table


# ---------------------------------------------------------------------------
# point-set operations on box unions (exact, degenerate-aware)


def box_intersection(a: RatBox, b: RatBox) -> RatBox | None:
    """Closed intersection of two boxes, or None when empty.

    Face- and corner-touching boxes intersect in a degenerate box, which is
    kept: these lower-dimensional pieces matter for point-set identities.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    mins, maxs = tuple(map(max, a.mins, b.mins)), tuple(map(min, a.maxs, b.maxs))
    return None if any(lo > hi for lo, hi in zip(mins, maxs)) else _raw_box(mins, maxs)


def _common_arrays(unions, den: int = 1):
    """The corner arrays of box unions on one common denominator.

    Returns ``(den, [(lows, highs), ...])`` with one pair per union; ``den``
    is the lcm of the given ``den`` and the unions' own, so callers can fold
    in one of their own.  A pair is re-typed by ``_int_dtype`` before the
    multiplication, so no scaled corner wraps.
    """
    den = lcm(den, *(u.den for u in unions))
    out = []
    for u in unions:
        lows, highs = u.lows, u.highs
        factor = den // u.den
        if factor != 1:
            dtype = _int_dtype(_corner_mag(lows, highs) * factor)
            lows, highs = lows.astype(dtype, copy=False), highs.astype(dtype, copy=False)
            lows, highs = lows * factor, highs * factor
        out.append((lows, highs))
    return den, out


def boxunion_intersection(u: BoxUnion, v: BoxUnion) -> BoxUnion:
    """Exact point-set intersection: all pairwise box intersections."""
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    n = u.dimension
    if n == 0:
        return BoxUnion(0, [RatBox((), ())] if not (u.is_empty or v.is_empty) else [])
    den, ((umin, umax), (vmin, vmax)) = _common_arrays((u, v))
    lo = np.maximum(umin[:, None, :], vmin[None, :, :])
    hi = np.minimum(umax[:, None, :], vmax[None, :, :])
    keep = (lo <= hi).all(axis=2)
    return BoxUnion._from_arrays(n, den, lo[keep], hi[keep])


def boxunion_minkowski_box(u: BoxUnion, box: RatBox) -> BoxUnion:
    """Minkowski sum of every box of U with an interval box."""
    den, ((lows, highs), (box_lo, box_hi)) = _common_arrays(
        (u, BoxUnion(u.dimension, [box]))
    )
    # corners below 2^62 in size add up to less than 2^63: no int64 wraparound
    return BoxUnion._from_arrays(u.dimension, den, lows + box_lo, highs + box_hi)


def boxunion_equal_pointsets(u: BoxUnion, v: BoxUnion) -> bool:
    """Decide exact point-set equality of two box unions.

    The closed box [a, b] maps to the half-open box [2a, 2b + 1): a point x
    maps to [2x, 2x + 1) and an open interval (x, y) to [2x + 1, 2y), so
    lower-dimensional pieces keep a volume of their own.  The images of both
    unions are compressed onto one grid, and the unions are equal iff they
    cover the same bricks.
    """
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    if u.is_empty or v.is_empty:
        return u.is_empty and v.is_empty
    # corners below 2^62 in size double to less than 2^63: no int64 wraparound
    _, ((umin, umax), (vmin, vmax)) = _common_arrays((u, v))
    img_u, img_v = (2 * umin, 2 * umax + 1), (2 * vmin, 2 * vmax + 1)
    breaks = _breakpoints(*img_u, *img_v)
    return bool(np.array_equal(_covered_bricks(breaks, *img_u), _covered_bricks(breaks, *img_v)))


# ---------------------------------------------------------------------------
# metric helpers


def point_box_distance(point, box: RatBox) -> Fraction:
    """Exact taxicab distance from a point to a closed box."""
    pt = as_point(point, box.dimension)
    gaps = (max(lo - x, x - hi, Fraction(0)) for x, lo, hi in zip(pt, box.mins, box.maxs))
    return sum(gaps, Fraction(0))


def _box_samples(starts, lows, highs, step: int, block: int):
    """The sample points of the boxes ``[lows[b], highs[b]]``, yielded as
    (points x n) arrays of at most ``block`` points or one box's samples.
    On each axis box b is sampled at ``starts[b] + k*step`` clipped to its
    side, for k = 0, 1, ... up to the first value at or past the high end,
    with ``starts <= lows``.  Boxes with the same number of samples on every
    axis share one offset grid, so no box is sampled more often than its own
    sides ask.  Consecutive samples on a side are at most ``step`` apart and
    both ends are samples, so the points cover every box within taxicab
    radius n*step/2.  More than ``_CELL_LIMIT`` points in all are refused
    before any is built."""
    n = starts.shape[1]
    counts = 1 - (starts - highs) // step
    if counts.dtype == object and counts.max() > _CELL_LIMIT:  # refused, maybe past int64
        _check_cell_count(sum(map(prod, counts.tolist())), "sample points")
    counts = counts.astype(np.int64, copy=False)
    cuts = []
    if (counts != counts[0]).any():
        # group the boxes by their counts; the cubes of a pixellation, all
        # one group, skip the sort
        order = np.lexsort(counts.T)
        counts, starts, lows, highs = (a[order] for a in (counts, starts, lows, highs))
        cuts = (np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)) + 1).tolist()
    bounds = itertools.pairwise([0, *cuts, len(counts)])
    groups = [(first, last, counts[first].tolist()) for first, last in bounds]
    # in Python ints: boxes x samples per box can pass int64
    total = sum((last - first) * prod(kind) for first, last, kind in groups)
    _check_cell_count(total, "sample points")
    starts, lows, highs = starts[:, None], lows[:, None], highs[:, None]
    for first, last, kind in groups:
        grid = np.array(list(itertools.product(*map(range, kind))), dtype=starts.dtype) * step
        per = max(1, block // len(grid))
        for lo in range(first, last, per):
            hi = min(lo + per, last)
            pts = np.maximum(starts[lo:hi] + grid, lows[lo:hi])
            yield np.minimum(pts, highs[lo:hi]).reshape(-1, n)


def _farthest_sample(starts, lows, highs, step: int, mins, maxs, radius: int = 0) -> int:
    """The largest taxicab distance from a sample point of ``_box_samples`` to
    the union of the boxes ``[mins[t], maxs[t]]`` dilated by ``radius`` (a
    ball is its center, as a point box, dilated by its radius), all integers
    on one scale.  With B the sum of the sizes of the source corners, the
    step and the target, an unclipped sample is below 3B and a distance below
    nB in size, so the scan is int64 when ``_int_dtype(3nB)`` allows that and
    exact big-int otherwise.  The samples are built and scanned in chunks
    whose (points x target boxes x n) temporaries hold a fixed number of
    entries, fewer for big-int arrays, whose entries are Python ints."""
    n = starts.shape[1]
    bound = _corner_mag(starts, highs) + step + _corner_mag(mins, maxs) + radius
    dtype = _int_dtype(3 * n * bound)
    starts, lows, highs, mins, maxs = (
        a.astype(dtype, copy=False) for a in (starts, lows, highs, mins, maxs)
    )
    chunk = max(1, (2_000_000 if dtype == np.int64 else 125_000) // (mins.shape[0] * n))
    best = 0
    for pts in _box_samples(starts, lows, highs, step, chunk):
        # touching boxes share samples; a sort costs about as much as a scan
        # against three target boxes, so it pays off only against more
        if mins.shape[0] > 8:
            pts = _distinct_rows(pts)
        for first in range(0, pts.shape[0], chunk):
            block = pts[first:first + chunk, None, :]
            gaps = np.maximum(np.maximum(mins - block, block - maxs), 0).sum(axis=2)
            best = max(best, int(gaps.min(axis=1).max()) - radius)
    return best


def hausdorff_distance(u: BoxUnion, v: BoxUnion, delta: RationalLike) -> tuple[Fraction, Fraction]:
    """Rigorous bracket (lower, upper) for the taxicab Hausdorff distance.

    The lower bound is the largest exact distance from a sample point of one
    union to the other union.  On each axis a box is sampled at its two
    endpoints and at every multiple of delta between them (``_box_samples``
    from the start point ``low - low % delta``); the samples cover each box
    within taxicab radius n*delta/2, so the upper bound adds that radius.
    Both bounds are exact rationals and the true distance always lies in
    [lower, upper].
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

    denom, ((mu, xu), (mv, xv)) = _common_arrays((u, v), d.denominator)
    step = d.numerator * (denom // d.denominator)
    # the starts lie on the delta-grid, less than one step below the lows
    su, sv = (a - a % step for a in (_fit(mu, shift=step), _fit(mv, shift=step)))
    lower_scaled = max(
        _farthest_sample(su, mu, xu, step, mv, xv),
        _farthest_sample(sv, mv, xv, step, mu, xu),
    )
    lower = Fraction(lower_scaled, denom)
    upper = lower + Fraction(n, 2) * d
    return lower, upper
