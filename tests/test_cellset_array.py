"""The array-backed CellSet against set-of-tuples oracles.

Each oracle below is the set-comprehension body a kernel had when a CellSet
stored a frozenset of tuples.  The oracles read only Python ints, so they
share no code with the array kernels they check.  Inputs cover dimensions
0-3, empty sets, duplicate and NumPy-integer cells, and cells shifted by
about 2^62, where the index array switches from int64 to exact big ints.
The runs along the last axis that the point-set kernels take are checked
against one box per cell, and the callers that skip the final sort against
the sorted rows.  The RatBox and cell-tuple views, which are zipped from the
arrays' columns, are checked against tuples built row by row.
"""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo import (
    BoxUnion,
    BoxUnionShape,
    CellSet,
    CoordSubspace,
    L1Ball,
    RatBox,
    SignedPerm,
    VerifyConfig,
    apply_isometry,
    boundary_region,
    boxunion_equal_pointsets,
    cell_box,
    cellset_boolean,
    cellset_product,
    cellset_to_boxunion,
    clip_cells,
    coordinate_subspaces,
    euler_characteristic,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
    is_l1_convex,
    minkowski_sum_box,
    outer_pixellate,
    project,
    scale,
    split_halves,
    subdivide,
    union_volume,
    verify,
)
from l1geo import lattice, pixellation
from l1geo.lattice import _cell_runs, _distinct_rows

BIG = 2**62
RESOLUTIONS = (F(1), F(1, 2), F(3))


# ---------------------------------------------------------------------------
# oracles: the former set-based kernel bodies


def project_oracle(cells, axes):
    return {tuple(c[a] for a in axes) for c in cells}


def refine_oracle(cells, n, m):
    offs = list(itertools.product(range(m), repeat=n))
    return {tuple(m * c[i] + d[i] for i in range(n)) for c in cells for d in offs}


def minkowski_oracle(cells, n, t, m):
    offs = list(itertools.product(*[range(mi + 1) for mi in m]))
    return {tuple(c[i] + d[i] + t[i] for i in range(n)) for c in cells for d in offs}


def isometry_oracle(cells, g, t):
    out = set()
    for c in cells:
        img = g.apply_cell(c)
        out.add(tuple(img[i] + t[i] for i in range(len(t))))
    return out


def boolean_oracle(cx, cy, op):
    return {"union": cx | cy, "intersection": cx & cy, "difference": cx - cy}[op]


def product_oracle(cx, cy):
    return {a + b for a in cx for b in cy}


def clip_oracle(cells, lo, hi):
    return {c for c in cells if all(a <= v <= b for a, v, b in zip(lo, c, hi))}


def split_oracle(cells, axis, threshold):
    upper = {c for c in cells if c[axis] >= threshold}
    return upper, set(cells) - upper


def volumes_oracle(cells, n, lam):
    if not cells:
        return (F(0),) * (n + 1)
    values = [F(1)]
    for i in range(1, n + 1):
        total = 0
        for sub in coordinate_subspaces(n, i):
            total += len({tuple(c[a] for a in sub.axes) for c in cells})
        values.append(lam**i * total)
    return tuple(values)


def runs_oracle(cells, lam):
    """The boxes of the maximal runs of sorted cells along the last axis."""
    runs = []
    for c in sorted(cells):
        if runs and runs[-1][1][:-1] == c[:-1] and runs[-1][1][-1] + 1 == c[-1]:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    return tuple(
        RatBox([lam * v for v in head], [lam * (v + 1) for v in tail]) for head, tail in runs
    )


def ball_boundary_oracle(ball, lam):
    """The meeting cells whose farthest cube corner lies outside the ball,
    in Fractions."""
    cells = set()
    for cell in outer_pixellate(ball, lam).cells:
        far = sum(max(abs(lam * h - c), abs(lam * (h + 1) - c)) for h, c in zip(cell, ball.center))
        if far > ball.radius:
            cells.add(cell)
    return cells


# ---------------------------------------------------------------------------
# helpers


def assert_cellset(x, dimension, cells, resolution):
    """x holds exactly ``cells``, stored in the canonical array form."""
    cells = set(cells)
    assert x.dimension == dimension and x.resolution == resolution
    assert isinstance(x.cells, frozenset) and x.cells == cells
    assert x.sorted_cells() == tuple(sorted(cells))
    assert len(x) == len(cells) and x.is_empty == (not cells)
    assert x.indices.shape == (len(cells), dimension)
    big = any(abs(v) >= BIG for c in cells for v in c)
    assert x.indices.dtype == (object if big else np.int64)
    assert not x.indices.flags.writeable


@st.composite
def cell_inputs(draw, max_dim=3):
    """(n, cells as passed, the same cells as Python-int tuples, resolution)."""
    n = draw(st.integers(0, max_dim))
    base = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=8))
    shift = draw(st.sampled_from([0, BIG - 6, 6 - BIG, BIG - 2, -BIG - 1, 2**63 + 5]))
    cells = [tuple(v + shift for v in c) for c in base]
    given_cells = list(cells) + cells[: draw(st.integers(0, 2))]  # duplicates
    if draw(st.booleans()) and abs(shift) < 2**63 - 8:
        given_cells = [tuple(np.int64(v) for v in c) for c in given_cells]
    return n, given_cells, cells, draw(st.sampled_from(RESOLUTIONS))


# ---------------------------------------------------------------------------
# tests


class TestAgainstOracles:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), inputs=cell_inputs())
    def test_kernels_match_set_oracles(self, data, inputs):
        n, given_cells, cells, lam = inputs
        x = CellSet(n, given_cells, lam)
        assert_cellset(x, n, cells, lam)

        axes = sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []
        sub = CoordSubspace(n, axes)
        assert_cellset(project(x, sub), len(axes), project_oracle(cells, axes), lam)

        m = data.draw(st.integers(2, 3))
        assert_cellset(subdivide(x, m), n, refine_oracle(cells, n, m), lam / m)
        assert_cellset(scale(x, m), n, refine_oracle(cells, n, m), lam)

        offsets = st.sampled_from([0, -2, 3, BIG, 2**63 - 4, -(2**63)])
        t = data.draw(st.lists(offsets, min_size=n, max_size=n))
        sides = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        box = RatBox([lam * a for a in t], [lam * (a + w) for a, w in zip(t, sides)])
        assert_cellset(minkowski_sum_box(x, box), n, minkowski_oracle(cells, n, t, sides), lam)

        perm = data.draw(st.permutations(range(n)))
        g = SignedPerm(perm, data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
        moved = apply_isometry(x, g, [lam * v for v in t])
        assert_cellset(moved, n, isometry_oracle(cells, g, t), lam)

        # Y shares some of X's cells and adds others, int64 or big-int
        y_shift = data.draw(st.sampled_from([0, BIG - 6, 2**63 + 5]))
        y_more = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=5))
        y_cells = {c for c in cells if data.draw(st.booleans())}
        y_cells |= {tuple(v + y_shift for v in c) for c in y_more}
        y = CellSet(n, y_cells, lam)
        for op in ("union", "intersection", "difference"):
            want = boolean_oracle(set(cells), y_cells, op)
            assert_cellset(cellset_boolean(x, y, op), n, want, lam)
            assert_cellset(cellset_boolean(y, x, op), n, boolean_oracle(y_cells, set(cells), op), lam)

        k = data.draw(st.integers(0, 2))
        other_cells = data.draw(st.sets(st.tuples(*[st.integers(-1, 1)] * k), max_size=3))
        y = CellSet(k, other_cells, lam)
        assert_cellset(cellset_product(x, y), n + k, product_oracle(cells, other_cells), lam)

        lo = data.draw(st.lists(st.sampled_from([-2**70, -1, 0, BIG]), min_size=n, max_size=n))
        hi = [a + data.draw(st.sampled_from([0, 2, 2**64])) for a in lo]
        assert_cellset(clip_cells(x, lo, hi), n, clip_oracle(cells, lo, hi), lam)

        if n:
            axis = data.draw(st.integers(0, n - 1))
            threshold = data.draw(st.sampled_from([0, 1, BIG - 1, -2**70]))
            upper, lower = split_halves(x, axis, threshold)
            want_upper, want_lower = split_oracle(cells, axis, threshold)
            assert_cellset(upper, n, want_upper, lam)
            assert_cellset(lower, n, want_lower, lam)

        assert intrinsic_volumes_cellset(x).values == volumes_oracle(cells, n, lam)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 3),
        center=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        radius=st.integers(1, 8),
        lam=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
        shift=st.sampled_from([0, 2**61, BIG, -BIG - 5]),
    )
    def test_ball_boundary_matches_oracle(self, n, center, radius, lam, shift):
        ball = L1Ball([F(c, 4) + shift * lam for c in center[:n]], F(radius, 4))
        assert_cellset(boundary_region(ball, lam), n, ball_boundary_oracle(ball, lam), lam)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 3),
        center=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        radius=st.integers(1, 8),
        lam=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
        shift=st.sampled_from([2**61, BIG, -BIG - 5]),
    )
    def test_far_ball_is_the_near_ball_shifted(self, n, center, radius, lam, shift):
        near = L1Ball([F(c, 4) for c in center[:n]], F(radius, 4))
        far = L1Ball([c + shift * lam for c in near.center], near.radius)
        want = {tuple(v + shift for v in c) for c in outer_pixellate(near, lam).cells}
        assert_cellset(outer_pixellate(far, lam), n, want, lam)


class TestValueSemantics:
    def test_equality_and_hash_ignore_input_order(self):
        cells = [(3, -1), (0, 0), (2**70, 5), (0, 1), (-2**65, 2)]
        for perm in itertools.permutations(cells):
            x = CellSet(2, perm + perm[:2], F(1, 2))
            y = CellSet(2, reversed(perm), F(1, 2))
            assert x == y and hash(x) == hash(y)
        small = [(1, 2), (0, 0), (np.int64(5), -3)]
        assert CellSet(2, small) == CellSet(2, small[::-1])
        assert CellSet(2, small) != CellSet(2, small[:2])
        assert CellSet(2, small) != CellSet(2, small, 2)
        assert CellSet(1, {(0,)}) != CellSet(2, {(0, 0)})
        # int64 input, and big-int input moved back into the int64 range
        near = CellSet(2, np.array(small, dtype=np.int64))
        far = CellSet(2, [(int(a) + 2**70, b) for a, b in small])
        back = apply_isometry(far, SignedPerm((0, 1), (1, 1)), (-(2**70), 0))
        assert near == back == CellSet(2, small) and far.indices.dtype == object
        assert hash(near) == hash(back) == hash(CellSet(2, small))
        # big ints computed afresh are other objects with the same values
        again = apply_isometry(back, SignedPerm((0, 1), (1, 1)), (2**70, 0))
        assert again == far and hash(again) == hash(far)

    def test_storage(self):
        x = CellSet(2, [(1, 0), (0, 5), (1, 0)])
        assert isinstance(x.cells, frozenset) and x.cells == {(1, 0), (0, 5)}
        assert x.indices.tolist() == [[0, 5], [1, 0]]
        assert not x.indices.flags.writeable
        with pytest.raises(ValueError):
            x.indices[0, 0] = 7
        assert CellSet(0, [(), ()]).indices.shape == (1, 0)
        assert CellSet(3).indices.shape == (0, 3)
        assert repr(CellSet(1, {(4,)})) == (
            "CellSet(dimension=1, cells=frozenset({(4,)}), resolution=Fraction(1, 1))"
        )

    def test_copies_keep_the_array_read_only(self):
        x = CellSet(2, {(0, 1), (2**70, 3)}, F(1, 2))
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert y == x and not y.indices.flags.writeable

    def test_error_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^cell \(1, 2, 3\) does not have dimension 2$"):
            CellSet(2, [(0, 0), (1, 2, 3)])
        with pytest.raises(ValueError, match=r"^cell \(1,\) does not have dimension 2$"):
            CellSet(2, [(1,)])
        with pytest.raises(ValueError, match=r"^cell \(1, 2.5\) has non-integer coordinates$"):
            CellSet(2, [(1, 2.5)])
        with pytest.raises(ValueError, match=r"^cell \(1.0, 2.0\) has non-integer coordinates$"):
            CellSet(2, [(1.0, 2.0)])
        with pytest.raises(ValueError, match=r"^cell \('a', 'b'\) has non-integer coordinates$"):
            CellSet(2, ["ab"])

    def test_results_past_int64_are_exact(self):
        cells = {(BIG - 1, 0), (-3, 1 - BIG)}
        x = CellSet(2, cells)
        t, sides = (2**63 - 4, -(2**63)), (2, 1)
        box = RatBox(t, [a + w for a, w in zip(t, sides)])
        assert_cellset(minkowski_sum_box(x, box), 2, minkowski_oracle(cells, 2, t, sides), 1)
        g = SignedPerm((1, 0), (-1, 1))
        assert_cellset(apply_isometry(x, g, t), 2, isometry_oracle(cells, g, t), 1)
        assert_cellset(scale(x, 3), 2, refine_oracle(cells, 2, 3), 1)
        lam = F(3, 2)
        cubes = cellset_to_boxunion(CellSet(2, cells, lam))
        assert cubes.boxes == tuple(cell_box(c, lam) for c in sorted(cells))

    @pytest.mark.parametrize("far", [2**40, 2**62 - 1, 2**65])
    def test_volumes_of_spread_out_cells(self, far):
        cells = {(0, 0, 0), (far, 1, 0), (far, far, far), (-far, 0, far)}
        lam = F(2, 3)
        assert intrinsic_volumes_cellset(CellSet(3, cells, lam)).values == volumes_oracle(
            cells, 3, lam
        )

    def test_int64_extremes_are_not_convex(self):
        x = CellSet(1, {(2**63 - 1,), (-(2**63),)})
        assert x.indices.dtype == object
        assert not is_l1_convex(x)


class TestCellLimit:
    def test_subdivide_refuses_before_allocating(self):
        with pytest.raises(ValueError, match=r"1000000000000 cells"):
            subdivide(CellSet(3, [(0, 0, 0)]), 10**4)

    def test_pixellation_counts_distinct_cells(self, monkeypatch):
        for module in (lattice, pixellation):
            monkeypatch.setattr(module, "_CELL_LIMIT", 100)
        # 100 + 81 cells in two batches, 100 of them distinct
        overlapping = BoxUnion(2, [RatBox((0, 0), (8, 8)), RatBox((1, 1), (8, 8))])
        assert len(outer_pixellate(BoxUnionShape(overlapping), 1)) == 100
        with pytest.raises(ValueError, match=r"take 121 cells to build, over 100$"):
            outer_pixellate(BoxUnionShape(BoxUnion(2, [RatBox((0, 0), (9, 9))])), 1)
        apart = BoxUnion(2, [RatBox((0, 0), (8, 8)), RatBox((9, 0), (10, 8))])
        with pytest.raises(ValueError, match=r"take 120 cells to build, over 100$"):
            outer_pixellate(BoxUnionShape(apart), 1)

    def test_minkowski_and_product_refuse(self):
        x = CellSet(3, [(0, 0, 0)])
        with pytest.raises(ValueError, match=r"8012006001 cells"):
            minkowski_sum_box(x, RatBox((0, 0, 0), (2000, 2000, 2000)))
        line = CellSet(1, [(i,) for i in range(3000)])
        with pytest.raises(ValueError, match=r"9000000 cells"):
            cellset_product(line, line)


class TestCellRuns:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 4),
        base=st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=12),
        shift=st.sampled_from([0, -7, BIG - 2, -BIG - 1, 2**70]),
        lam=st.sampled_from(RESOLUTIONS),
    )
    def test_runs_are_the_cubes(self, n, base, shift, lam):
        cells = {tuple(v + shift for v in c[:n]) for c in base}
        x = CellSet(n, cells, lam)
        runs, cubes = _cell_runs(x), cellset_to_boxunion(x)
        assert runs.boxes == runs_oracle(cells, lam)
        assert runs.lows.dtype == cubes.lows.dtype
        assert boxunion_equal_pointsets(runs, cubes)
        assert union_volume(runs) == union_volume(cubes)
        assert intrinsic_volumes_boxunion(runs) == intrinsic_volumes_boxunion(cubes)
        assert euler_characteristic(runs) == euler_characteristic(cubes)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 3),
        base=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=6),
        shift=st.sampled_from([0, -9, BIG // 3 - 2, -(BIG // 3) + 1, BIG - 2, -BIG + 1, 2**70]),
        num=st.sampled_from([1, 3, BIG - 1, BIG, 2**70]),
    )
    def test_corner_bound_without_a_scan(self, n, base, shift, num):
        # both views type their corners by the bound the indices give, with
        # no scan of the corner arrays, as a scan of them would type them
        x = CellSet(n, {tuple(v + shift for v in c[:n]) for c in base}, F(num, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_corner_mag", None)  # any call fails
            views = cellset_to_boxunion(x), _cell_runs(x)
        for u in views:
            dtype = lattice._int_dtype(lattice._corner_mag(u.lows, u.highs))
            assert u.lows.dtype == u.highs.dtype == dtype

    def test_known_runs(self):
        x = CellSet(2, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (-1, 2), (5, -2)], F(1, 2))
        assert _cell_runs(x).lows.tolist() == [[-1, 2], [0, 0], [0, 3], [1, 1], [5, -2]]
        assert _cell_runs(x).highs.tolist() == [[0, 3], [1, 2], [1, 4], [2, 3], [6, -1]]
        assert _cell_runs(x).den == 2
        line = CellSet(1, [(BIG + i,) for i in range(5)])
        assert _cell_runs(line).boxes == (RatBox((BIG,), (BIG + 5,)),)
        assert _cell_runs(CellSet(3)).is_empty
        assert _cell_runs(CellSet(0, [()])).boxes == (RatBox((), ()),)

    def test_public_view_keeps_one_box_per_cell(self):
        cells = [(2, 1), (0, 0), (0, 1), (BIG, 0)]
        lam = F(1, 3)
        cubes = cellset_to_boxunion(CellSet(2, cells, lam))
        assert cubes.boxes == tuple(cell_box(c, lam) for c in sorted(cells))


def boxes_oracle(den, lows, highs):
    """The RatBox view built box by box through the validating constructor."""
    return tuple(
        RatBox([F(v, den) for v in lo], [F(v, den) for v in hi]) for lo, hi in zip(lows, highs)
    )


class TestViews:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 3),
        corners=st.lists(
            st.tuples(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                      st.lists(st.integers(0, 3), min_size=3, max_size=3)),
            max_size=8,
        ),
        offset=st.sampled_from([0, -5, 2**62, -(2**62), 2**70]),
        den=st.sampled_from([1, 2, 6, 2**65 + 1]),
    )
    def test_boxes_match_row_by_row(self, n, corners, offset, den):
        lows = [[a + offset for a in lo[:n]] for lo, _ in corners]
        highs = [[a + w for a, w in zip(lo, side)] for lo, (_, side) in zip(lows, corners)]
        arrays = [np.array(rows, dtype=object).reshape(len(corners), n) for rows in (lows, highs)]
        u = BoxUnion._from_arrays(n, den, *arrays)
        want = boxes_oracle(den, lows, highs)
        big = any(abs(v) >= BIG for row in lows + highs for v in row)
        assert u.lows.dtype == u.highs.dtype == (object if big else np.int64)
        assert u.boxes == want and isinstance(u.boxes, tuple)
        values = [v for b in u.boxes for v in b.mins + b.maxs]
        assert all(type(v) is F for v in values)
        assert len({id(v) for v in values}) == len(set(values))  # one Fraction per value
        given_boxes = BoxUnion(n, want)
        assert u == given_boxes and hash(u) == hash(given_boxes)
        for box, same in zip(u.boxes, want):
            assert hash(box) == hash(same) and repr(box) == repr(same)

    def test_empty_and_zero_dimensional_unions(self):
        for n, m in ((0, 0), (0, 1), (0, 3), (2, 0)):
            u = BoxUnion._from_arrays(n, 1, np.zeros((m, n), np.int64), np.zeros((m, n), np.int64))
            assert u.boxes == ((RatBox((), ()),) * m if n == 0 else ())
            assert u == BoxUnion(n, u.boxes) and hash(u) == hash(BoxUnion(n, u.boxes))

    def test_built_box_is_a_frozen_dataclass(self):
        u = BoxUnion._from_arrays(2, 3, np.array([[-1, 2**70]], object), np.array([[4, 2**70 + 1]], object))
        (box,) = u.boxes
        for name in ("mins", "maxs", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(box, name, (F(0), F(0)))
        assert vars(box) == {"mins": (F(-1, 3), F(2**70, 3)), "maxs": (F(4, 3), F(2**70 + 1, 3))}
        for copied in (pickle.loads(pickle.dumps(box)), copy.deepcopy(box), dataclasses.replace(box)):
            assert copied == box and hash(copied) == hash(box)
        assert dataclasses.replace(box, maxs=(F(2), F(2**71))).maxs == (F(2), F(2**71))
        with pytest.raises(ValueError, match="is empty"):
            dataclasses.replace(box, maxs=(F(-2), F(2**71)))
        assert pickle.loads(pickle.dumps(u)).boxes == u.boxes

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 4),
        base=st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=10),
        shift=st.sampled_from([0, -7, BIG - 2, -BIG - 1, 2**70]),
    )
    def test_cell_tuples_match_row_by_row(self, n, base, shift):
        x = CellSet(n, [tuple(v + shift for v in c[:n]) for c in base])
        rows = x.indices.tolist()
        assert x.cells == frozenset(map(tuple, rows)) and isinstance(x.cells, frozenset)
        assert x.sorted_cells() == tuple(map(tuple, rows))
        assert all(type(v) is int for c in x.sorted_cells() for v in c)


def assert_sorted_rows(x):
    """x's index array is already what sorting and deduplicating gives."""
    rows = x.indices
    assert np.array_equal(rows, _distinct_rows(rows)) and len(rows) == len(set(x.cells))
    big = any(abs(v) >= BIG for v in rows.ravel().tolist())
    assert rows.dtype == (object if big else np.int64)
    assert not rows.flags.writeable


class SortedSpy:
    """Every CellSet built by ``CellSet._from_sorted``, which does not sort."""

    def __init__(self, monkeypatch):
        self.made = []
        build = CellSet._from_sorted.__func__

        def spy(cls, dimension, rows, resolution):
            self.made.append(build(cls, dimension, rows, resolution))
            return self.made[-1]

        monkeypatch.setattr(CellSet, "_from_sorted", classmethod(spy))

    def check(self, results):
        """``results`` all came from ``_from_sorted`` and have sorted rows."""
        assert {id(r) for r in results} <= {id(r) for r in self.made}
        for x in self.made:
            assert_sorted_rows(x)
        self.made.clear()


class TestSortedRowsSkipTheSort:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), inputs=cell_inputs())
    def test_subsets_and_products(self, data, inputs):
        n, given_cells, _, lam = inputs
        x = CellSet(n, given_cells, lam)
        y_cells = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=6))
        y_shift = data.draw(st.sampled_from([0, BIG - 6, 2**63 + 5]))
        y = CellSet(n, [tuple(v + y_shift for v in c) for c in y_cells] + given_cells[:2], lam)
        other = CellSet(1, data.draw(st.sets(st.tuples(st.integers(-2, 2)), max_size=3)), lam)
        lo = data.draw(st.lists(st.sampled_from([-2**70, -1, 0, BIG]), min_size=n, max_size=n))
        hi = [a + data.draw(st.sampled_from([0, 2, 2**64])) for a in lo]
        with pytest.MonkeyPatch.context() as mp:
            spy = SortedSpy(mp)
            results = [
                cellset_boolean(x, y, "intersection"),
                cellset_boolean(y, x, "difference"),
                cellset_product(x, other),
                cellset_product(other, x),
                clip_cells(x, lo, hi),
            ]
            if n:
                threshold = data.draw(st.sampled_from([0, 1, BIG - 1, -2**70]))
                results += split_halves(x, data.draw(st.integers(0, n - 1)), threshold)
            spy.check(results)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        center=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        radius=st.integers(1, 8),
        lam=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
        shift=st.sampled_from([0, 2**61, BIG, -BIG - 5]),
    )
    def test_ball_cells(self, n, center, radius, lam, shift):
        ball = L1Ball([F(c, 4) + shift * lam for c in center[:n]], F(radius, 4))
        with pytest.MonkeyPatch.context() as mp:
            spy = SortedSpy(mp)
            spy.check([outer_pixellate(ball, lam), boundary_region(ball, lam)])

    @pytest.mark.parametrize("shift", [0, 2**61, BIG, -BIG - 5])
    def test_box_union_boundary(self, shift):
        lo, hi = [(F(1, 2), F(0)), (F(1), F(1, 2))], [(F(5, 3), F(3, 4)), (F(3, 2), F(7, 3))]
        boxes = [RatBox([v + shift for v in a], [v + shift for v in b]) for a, b in zip(lo, hi)]
        shape = BoxUnionShape(BoxUnion(2, boxes))
        for lam in (F(1), F(1, 3)):
            with pytest.MonkeyPatch.context() as mp:
                spy = SortedSpy(mp)
                spy.check([boundary_region(shape, lam)])

    def test_valuation_suite_subsets(self, monkeypatch):
        spy = SortedSpy(monkeypatch)
        report = verify("valuation", VerifyConfig(dimensions=(2, 3), instances=6))
        assert report.passed and spy.made
        spy.check([])
