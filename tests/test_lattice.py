"""Core value types, measure, point-set operations, metrics."""

import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo import (
    BoxUnion,
    CellSet,
    CoordSubspace,
    IVVector,
    RatBox,
    SignedPerm,
    apply_isometry,
    box_intersection,
    box_minkowski,
    boxunion_equal_pointsets,
    boxunion_intersection,
    boxunion_minkowski_box,
    cell_box,
    cellset_boolean,
    cellset_to_boxunion,
    clip_cells,
    coordinate_subspaces,
    embed,
    gen_random_box,
    hausdorff_distance,
    hyperoctahedral_group,
    kinematic_principal,
    minkowski_sum_box,
    point_box_distance,
    print_set,
    project,
    scale,
    subdivide,
    union_volume,
)
from l1geo.lattice import _breakpoints, _covered_bricks

F = Fraction


# ---------------------------------------------------------------------------
# value types


class TestCellSet:
    def test_basic(self):
        x = CellSet(2, {(0, 0), (1, 0)}, F(1, 2))
        assert not x.is_empty
        assert x.sorted_cells() == ((0, 0), (1, 0))
        assert x.resolution == F(1, 2)

    def test_empty_and_dim0(self):
        assert CellSet(3).is_empty
        z = CellSet(0, {()})
        assert z.sorted_cells() == ((),)

    def test_validation(self):
        with pytest.raises(ValueError):
            CellSet(2, {(0,)})
        with pytest.raises(ValueError):
            CellSet(2, {(0, 0)}, 0)
        with pytest.raises(ValueError):
            CellSet(-1)
        with pytest.raises(TypeError):
            CellSet(1, {(0,)}, 0.5)

    def test_bounding_box(self):
        x = CellSet(2, {(0, 0), (2, 1)}, F(1, 2))
        box = x.bounding_box()
        assert box.mins == (F(0), F(0)) and box.maxs == (F(3, 2), F(1))


class TestRatBox:
    def test_volume_and_degenerate(self):
        b = RatBox((0, F(1, 2)), (2, F(1, 2)))
        assert b.volume() == 0
        assert b.side_lengths() == (F(2), F(0))
        assert RatBox((0,), (F(3, 2),)).volume() == F(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RatBox((1,), (0,))
        with pytest.raises(ValueError):
            RatBox((0, 0), (1,))

    def test_contains_and_translate(self):
        b = RatBox((0, 0), (1, 2))
        assert b.contains_point((F(1, 2), F(2)))
        assert not b.contains_point((F(3, 2), F(0)))
        t = b.translate((F(1), F(-1)))
        assert t.mins == (F(1), F(-1)) and t.maxs == (F(2), F(1))

    def test_corners(self):
        b = RatBox((0, 0), (1, 2))
        assert set(b.corners()) == {(0, 0), (0, 2), (1, 0), (1, 2)}


class TestSignedPerm:
    def test_identity_apply(self):
        g = SignedPerm.identity(3)
        assert g.apply_point((1, 2, 3)) == (1, 2, 3)
        assert g.apply_cell((4, -1, 0)) == (4, -1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignedPerm((0, 0), (1, 1))
        with pytest.raises(ValueError):
            SignedPerm((0, 1), (1, 2))

    def test_reflection_cell_convention(self):
        g = SignedPerm((0,), (-1,))
        # cube of cell h reflects onto cube of cell -h-1
        assert g.apply_cell((0,)) == (-1,)
        assert g.apply_cell((2,)) == (-3,)

    def test_group_laws_random(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.choice([1, 2, 3])

            def rand_g():
                p = list(range(n))
                rng.shuffle(p)
                return SignedPerm(tuple(p), tuple(rng.choice((1, -1)) for _ in range(n)))

            g, h = rand_g(), rand_g()
            x = tuple(F(rng.randint(-8, 8), 2) for _ in range(n))
            assert g.compose(h).apply_point(x) == g.apply_point(h.apply_point(x))
            assert g.inverse().apply_point(g.apply_point(x)) == x
            c = tuple(rng.randint(-4, 4) for _ in range(n))
            lam = F(1, 2)
            assert cell_box(g.apply_cell(c), lam) == g.apply_box(cell_box(c, lam))

    def test_group_enumeration(self):
        for n in (0, 1, 2, 3):
            group = hyperoctahedral_group(n)
            assert len(group) == 2**n * [1, 1, 2, 6][n]
            assert len(set(group)) == len(group)
            assert group[0] == SignedPerm.identity(n)


class TestEnumeration:
    def test_coordinate_subspaces(self):
        subs = coordinate_subspaces(3, 2)
        assert [s.axes for s in subs] == [(0, 1), (0, 2), (1, 2)]
        assert subs[0].complement().axes == (2,)
        assert coordinate_subspaces(3, 0)[0].axes == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            CoordSubspace(2, (1, 0))
        with pytest.raises(ValueError):
            CoordSubspace(2, (0, 2))


class TestIVVector:
    def test_validation(self):
        IVVector((F(1), F(2)))
        IVVector((F(0), F(0)))
        with pytest.raises(ValueError):
            IVVector((F(2), F(1)))
        with pytest.raises(ValueError):
            IVVector(())


# ---------------------------------------------------------------------------
# cell-set operations


class TestCellOps:
    def test_boolean(self):
        x = CellSet(1, {(0,), (1,)})
        y = CellSet(1, {(1,), (2,)})
        assert cellset_boolean(x, y, "union").sorted_cells() == ((0,), (1,), (2,))
        assert cellset_boolean(x, y, "intersection").sorted_cells() == ((1,),)
        assert cellset_boolean(x, y, "difference").sorted_cells() == ((0,),)
        with pytest.raises(ValueError):
            cellset_boolean(x, CellSet(1, {(0,)}, F(1, 2)), "union")
        with pytest.raises(ValueError):
            cellset_boolean(x, y, "xor")

    def test_clip(self):
        x = CellSet(2, {(0, 0), (1, 1), (3, 3)})
        assert clip_cells(x, (0, 0), (2, 2)).sorted_cells() == ((0, 0), (1, 1))

    def test_subdivide_preserves_pointset(self):
        x = CellSet(2, {(0, 0), (1, 0)}, F(1, 2))
        fine = subdivide(x, 3)
        assert fine.resolution == F(1, 6)
        assert len(fine.cells) == 2 * 9
        assert union_volume(cellset_to_boxunion(fine)) == union_volume(
            cellset_to_boxunion(x)
        )
        sub = CoordSubspace(2, (0,))
        assert boxunion_equal_pointsets(
            cellset_to_boxunion(project(fine, sub)),
            cellset_to_boxunion(project(x, sub)),
        )

    def test_scale(self):
        x = CellSet(2, {(0, 0), (1, 1)}, F(1, 2))
        big = scale(x, 2)
        assert big.resolution == F(1, 2)
        assert len(big.cells) == 2 * 4
        assert union_volume(cellset_to_boxunion(big)) == 4 * union_volume(
            cellset_to_boxunion(x)
        )

    def test_project_cellset(self):
        x = CellSet(3, {(0, 1, 2), (1, 1, 0)})
        p = project(x, CoordSubspace(3, (0, 2)))
        assert p.dimension == 2 and p.sorted_cells() == ((0, 2), (1, 0))
        # composition law: projecting a projection = projecting once
        q = project(p, CoordSubspace(2, (1,)))
        assert q.sorted_cells() == project(x, CoordSubspace(3, (2,))).sorted_cells()
        zero = project(x, CoordSubspace(3, ()))
        assert zero.dimension == 0 and zero.sorted_cells() == ((),)
        assert project(CellSet(3), CoordSubspace(3, ())).is_empty

    def test_apply_isometry_aligned_stays_cellset(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        g = SignedPerm((0, 1), (-1, -1))
        moved = apply_isometry(x, g, (F(2), F(1)))
        assert isinstance(moved, CellSet)
        assert moved.sorted_cells() == ((0, 0), (1, -1), (1, 0))

    def test_apply_isometry_unaligned_becomes_boxunion(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        g = hyperoctahedral_group(2)[3]
        moved = apply_isometry(x, g, (F(1, 3), F(0)))
        assert isinstance(moved, BoxUnion)
        assert union_volume(moved) == 3

    def test_minkowski_aligned_matches_box_route(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        box = RatBox((0, 0), (1, 2))
        fast = minkowski_sum_box(x, box)
        assert isinstance(fast, CellSet)
        slow = minkowski_sum_box(cellset_to_boxunion(x), box)
        assert boxunion_equal_pointsets(cellset_to_boxunion(fast), slow)

    def test_minkowski_unaligned(self):
        x = CellSet(1, {(0,)})
        out = minkowski_sum_box(x, RatBox((0,), (F(1, 2),)))
        assert isinstance(out, BoxUnion)
        assert union_volume(out) == F(3, 2)

    def test_minkowski_zero_width(self):
        x = CellSet(2, {(0, 0), (2, 2)})
        out = minkowski_sum_box(x, RatBox((0, 0), (0, 0)))
        assert isinstance(out, CellSet) and out.sorted_cells() == x.sorted_cells()

    def test_embed(self):
        x = CellSet(2, {(0, 0), (1, 1)}, F(1, 2))
        slab = embed(x, 1)
        assert slab.dimension == 3
        assert union_volume(slab) == 0
        assert all(b.mins[1] == b.maxs[1] == 0 for b in slab.boxes)


# ---------------------------------------------------------------------------
# measure


def brute_union_volume(boxes):
    total = F(0)
    for r in range(1, len(boxes) + 1):
        for sub in combinations(boxes, r):
            inter = sub[0]
            for b in sub[1:]:
                if inter is None:
                    break
                inter = box_intersection(inter, b)
            if inter is not None:
                total += (-1) ** (r + 1) * inter.volume()
    return total


class TestUnionVolume:
    def test_examples(self):
        u = BoxUnion(2, [RatBox((0, 0), (2, 2)), RatBox((1, 1), (3, 3))])
        assert union_volume(u) == 7  # 4 + 4 - 1
        assert union_volume(BoxUnion(2)) == 0
        degenerate = BoxUnion(2, [RatBox((0, 0), (0, 5))])
        assert union_volume(degenerate) == 0

    def test_overlaps_and_duplicates_kept(self):
        b = RatBox((0,), (1,))
        assert union_volume(BoxUnion(1, [b, b, b])) == 1

    def test_random_vs_inclusion_exclusion(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.choice([1, 2, 3])
            boxes = []
            for _ in range(rng.randint(1, 4)):
                lo = [F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
                hi = [a + F(rng.randint(0, 6), 2) for a in lo]
                boxes.append(RatBox(tuple(lo), tuple(hi)))
            u = BoxUnion(n, boxes)
            assert union_volume(u) == brute_union_volume(boxes)

    def test_bigint_fallback_matches(self):
        # each case crosses one int64 bound: corners of size >= 2^62, a
        # common denominator >= 2^30, and a covered-weight sum >= 2^62
        shift = 2**63
        corners = [
            RatBox((shift, shift), (shift + 10**6, shift + 10**6)),
            RatBox((shift + 5 * 10**5, shift), (shift + 15 * 10**5, shift + 10**6)),
        ]
        den = 2**31 + 11
        fine = [
            RatBox((F(1, den), 0), (F(3, 2), F(5, den))),
            RatBox((F(-2, den), F(1, 3)), (1, 2)),
        ]
        side = 2**33
        weights = [
            RatBox((0, 0), (side, side)),
            RatBox((side // 2, side // 2), (3 * side // 2, 3 * side // 2)),
        ]
        for boxes in (corners, fine, weights):
            assert union_volume(BoxUnion(2, boxes)) == brute_union_volume(boxes)
        assert union_volume(BoxUnion(2, weights)) == 2 * side**2 - (side // 2) ** 2
        assert BoxUnion(2, corners).lows.dtype == object
        assert BoxUnion(2, fine).den == 6 * den

    def test_bigint_pointset_ops(self):
        # an L-shape cut two ways, shifted past int64
        def l_shapes(t):
            u = [RatBox((t, t), (t + 2, t + 1)), RatBox((t, t + 1), (t + 1, t + 2))]
            v = [RatBox((t, t), (t + 1, t + 2)), RatBox((t + 1, t), (t + 2, t + 1))]
            return BoxUnion(2, u), BoxUnion(2, v)

        t = 2**63
        u, v = l_shapes(t)
        assert boxunion_equal_pointsets(u, v)
        assert not boxunion_equal_pointsets(u, BoxUnion(2, v.boxes[:1]))
        w = boxunion_intersection(u, v)
        assert boxunion_equal_pointsets(w, u)
        back = [b.translate((-t, -t)) for b in w.boxes]
        assert back == list(boxunion_intersection(*l_shapes(0)).boxes)
        assert union_volume(w) == 3

    def test_common_denominator_crosses_int64(self):
        # each union fits int64 alone; on their common denominator 3 the
        # corners of u reach 3 * 2^61, so the kernels take big ints
        a, b = 2**60, 2**61
        u = BoxUnion(2, [RatBox((a, 0), (b, 1)), RatBox((b - 1, 0), (b, 3))])
        v = BoxUnion(2, [RatBox((a + F(1, 3), F(1, 3)), (a + F(5, 3), F(2, 3))), RatBox((F(1, 3), 0), (a, 2))])
        assert u.lows.dtype == v.lows.dtype == np.int64
        both = list(u.boxes + v.boxes)
        assert union_volume(BoxUnion(2, both)) == brute_union_volume(both)
        w = boxunion_intersection(u, v)
        near = boxunion_intersection(_map_union(u, lambda x: x - a), _map_union(v, lambda x: x - a))
        assert _map_union(near, lambda x: x + a) == w
        assert union_volume(w) == brute_union_volume(list(w.boxes)) == F(4, 9)
        assert not boxunion_equal_pointsets(u, v)
        assert boxunion_equal_pointsets(w, BoxUnion(2, v.boxes[:1] + (RatBox((a, 0), (a, 1)),)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        q=st.integers(1, 4),
        count=st.integers(1, 5),
        k=st.integers(2, 3),
        seed=st.integers(0, 10**6),
    )
    def test_matches_cell_count(self, n, q, count, k, seed):
        # box corners on the 1/q grid (integer numerators over q, degenerate
        # boxes included): the union is the union of the 1/q cells whose
        # centres (2c + 1) / 2q some box covers, cells c in [-6, 9)^n
        rng = random.Random(seed)
        lows = [[rng.randint(-6, 4) for _ in range(n)] for _ in range(count)]
        highs = [[a + rng.randint(0, 5) for a in lo] for lo in lows]
        cells = {
            c
            for c in itertools.product(range(-6, 9), repeat=n)
            if any(
                all(2 * a <= 2 * v + 1 <= 2 * b for v, a, b in zip(c, lo, hi))
                for lo, hi in zip(lows, highs)
            )
        }
        boxes = [
            RatBox(tuple(F(a, q) for a in lo), tuple(F(b, q) for b in hi))
            for lo, hi in zip(lows, highs)
        ]
        vol = union_volume(BoxUnion(n, boxes))
        assert vol == F(len(cells), q**n)
        x = CellSet(n, cells, F(1, q))
        fine = subdivide(x, k)
        assert len(fine.cells) == k**n * len(cells)
        assert union_volume(cellset_to_boxunion(x)) == vol == union_volume(cellset_to_boxunion(fine))

    def test_grid_limit(self):
        boxes = [
            RatBox((F(i), F(i, 10**4)), (F(i) + 1, F(i, 10**4) + 1))
            for i in range(6000)
        ]
        with pytest.raises(ValueError):
            union_volume(BoxUnion(2, boxes))


def slice_loop_bricks(lows, highs, *more):
    """The breakpoints and covered-brick table of ``_covered_bricks`` by one
    slice assignment per box: the oracle for its summed-area fill."""
    n = lows.shape[1]
    breaks = [np.unique(np.concatenate([a[:, i] for a in (lows, highs, *more)])) for i in range(n)]
    covered = np.zeros([max(len(bk) - 1, 0) for bk in breaks], dtype=bool)
    starts = [np.searchsorted(breaks[i], lows[:, i]) for i in range(n)]
    stops = [np.searchsorted(breaks[i], highs[:, i]) for i in range(n)]
    for b in range(lows.shape[0]):
        covered[tuple(slice(starts[i][b], stops[i][b]) for i in range(n))] = True
    return breaks, covered


def assert_fill_matches_oracle(lows, highs, *more):
    breaks = _breakpoints(lows, highs, *more)
    covered = _covered_bricks(breaks, lows, highs)
    want_breaks, want = slice_loop_bricks(lows, highs, *more)
    assert len(breaks) == len(want_breaks) == lows.shape[1]
    assert all(np.array_equal(a, b) for a, b in zip(breaks, want_breaks))
    assert isinstance(covered, np.ndarray) and covered.dtype == bool
    assert covered.shape == want.shape and np.array_equal(covered, want)


class TestSummedAreaFill:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 3),
        count=st.sampled_from([0, 1, 2, 3, 5, 8, 40, 127, 128, 300]),
        flat=st.sets(st.integers(0, 2)),
        more=st.integers(0, 2),
        big=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_fill_matches_slice_loop(self, n, count, flat, more, big, seed):
        # boxes with zero sides (degenerate), axes on which every box is
        # flat at one coordinate, extra break arrays, no boxes at all, big-int
        # corners; 127 and 128 boxes straddle the int8/int16 count tables
        rng = np.random.default_rng(seed)
        lows = rng.integers(-6, 6, (count, n))
        highs = lows + rng.integers(0, 4, (count, n))
        for axis in flat & set(range(n)):
            lows[:, axis] = highs[:, axis] = 2
        extra = [rng.integers(-8, 8, (int(rng.integers(1, 5)), n)) for _ in range(more)]
        arrays = [lows, highs, *extra]
        if big:
            arrays = [a.astype(object) + 2**64 for a in arrays]
        assert_fill_matches_oracle(*arrays)

    @pytest.mark.parametrize("copies", [2**8, 2**16])
    def test_fill_counts_past_the_narrow_dtypes(self, copies):
        # copies of one box, apart from 100 other boxes: the count of the
        # copies wraps around to 0 in a dtype too narrow for it
        rng = np.random.default_rng(3)
        lows = rng.integers(5, 10, (copies + 100, 2))
        highs = lows + rng.integers(0, 4, lows.shape)
        lows[:copies], highs[:copies] = 0, 3
        assert_fill_matches_oracle(lows, highs)

    def test_flat_axis_builds_no_table(self):
        # every box is flat on axis 0: no bricks, where a table padded by one
        # entry per axis would hold 20,001^2 entries
        u = BoxUnion(3, [RatBox((0, 2 * i, 2 * i), (0, 2 * i + 1, 2 * i + 1)) for i in range(10_000)])
        tracemalloc.start()
        try:
            assert union_volume(u) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        with pytest.raises(ValueError, match="compression grid of .* bricks is too large"):
            union_volume(BoxUnion(3, u.boxes + (RatBox((1, 0, 0), (1, 0, 0)),)))

    def test_table_memory_near_the_grid_limit(self):
        # 2,721 boxes on the diagonal: 5,441^2 = 29.6 M bricks, counted in
        # an int16 table of 2 bytes a brick, next to the 1-byte bool result
        lows = np.repeat(2 * np.arange(2721)[:, None], 2, axis=1)
        highs = lows + 1
        breaks = _breakpoints(lows, highs)
        bricks = prod(len(bk) - 1 for bk in breaks)
        assert bricks == 5441**2
        tracemalloc.start()
        try:
            covered = _covered_bricks(breaks, lows, highs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * bricks
        assert covered.sum() == 2721 and covered[::2, ::2].diagonal().all()

    @pytest.mark.parametrize(
        "n, count",
        [
            # the union above: 85 MB for the table and its counts
            (2, 2721),
            # 2,000 boxes with one brick across the first axis (16 M bricks):
            # the slabs run across another axis
            (3, 2000),
        ],
        ids=["diagonal", "flat-first-axis"],
    )
    def test_volume_memory_near_the_table(self, n, count):
        # the weighted sum runs in blocks, so its peak stays near the peak of
        # the table and its counts, not at 8 bytes a brick
        lows = np.repeat(2 * np.arange(count)[:, None], n, axis=1)
        if n == 3:
            lows[:, 0] = 0
        u = BoxUnion._from_arrays(n, 1, lows, lows + 1)
        breaks = _breakpoints(u.lows, u.highs)
        _, table_peak = _traced(lambda: _covered_bricks(breaks, u.lows, u.highs))
        volume, peak = _traced(lambda: union_volume(u))
        assert volume == count
        assert peak <= 1.25 * table_peak


def _traced(call):
    """``call()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SHIFT = 2**63
_D = 2**40 + 1


def _seeded_union(n, seed, count, denominator):
    return BoxUnion(
        n,
        [gen_random_box(n, seed * 8 + k, low=-3, high=3, denominator=denominator) for k in range(count)],
    )


def _map_union(u, f):
    return BoxUnion(u.dimension, [RatBox(tuple(map(f, b.mins)), tuple(map(f, b.maxs))) for b in u.boxes])


class TestRepresentation:
    def test_boxes_kept_as_given(self):
        boxes = [RatBox((F(2, 4), 0), (1, F(6, 3))), RatBox((0, 0), (0, 0)), RatBox((0, 0), (0, 0))]
        u = BoxUnion(2, boxes)
        assert u.boxes == tuple(boxes)
        assert all(a is b for a, b in zip(u.boxes, boxes))
        assert u.den == 2 and u.lows.tolist() == [[1, 0], [0, 0], [0, 0]]

    def test_dimension_zero_and_empty(self):
        point, nothing = BoxUnion(0, [RatBox((), ())]), BoxUnion(0)
        assert union_volume(point) == 1 and union_volume(nothing) == 0
        assert boxunion_intersection(point, point) == point
        assert boxunion_intersection(point, nothing) == nothing == boxunion_intersection(nothing, point)
        assert point.bounding_box() == RatBox((), ())
        with pytest.raises(ValueError):
            nothing.bounding_box()

        u = BoxUnion(2, [RatBox((0, 0), (1, 2)), RatBox((F(1, 2), 1), (3, 1))])
        empty = BoxUnion(2)
        assert project(u, CoordSubspace(2, ())) == BoxUnion(0, [RatBox((), ())] * 2)
        assert union_volume(project(u, CoordSubspace(2, ()))) == 1
        assert project(empty, CoordSubspace(2, (1,))) == BoxUnion(1)
        assert project(empty, CoordSubspace(2, ())) == nothing
        assert union_volume(empty) == 0
        assert boxunion_intersection(u, empty) == empty == boxunion_intersection(empty, u)
        assert u.bounding_box() == RatBox((0, 0), (3, 2))
        with pytest.raises(ValueError):
            empty.bounding_box()

    def test_copies_keep_the_arrays_read_only(self):
        u = BoxUnion(2, [RatBox((0, F(1, 3)), (2**70, 1)), RatBox((0, 0), (0, 0))])
        for v in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u)):
            assert v == u and hash(v) == hash(u) and v.den == u.den
            assert not (v.lows.flags.writeable or v.highs.flags.writeable)
            assert np.array_equal(v.lows, u.lows) and np.array_equal(v.highs, u.highs)

    def test_printed_kernel_results(self):
        u = BoxUnion(2, [RatBox((0, 0), (F(3, 2), 1)), RatBox((F(1, 3), F(1, 2)), (2, 2))])
        v = BoxUnion(2, [RatBox((1, F(-1, 4)), (F(5, 2), F(3, 4)))])
        w = boxunion_minkowski_box(boxunion_intersection(u, v), RatBox((F(-1, 2), 0), (0, F(1, 6))))
        assert print_set(w) == (
            '{\n  "kind": "boxunion",\n  "dimension": 2,\n  "boxes": [\n    {\n      "min": [\n'
            '        "1/2",\n        "0"\n      ],\n      "max": [\n        "3/2",\n        "11/12"\n'
            '      ]\n    },\n    {\n      "min": [\n        "1/2",\n        "1/2"\n      ],\n'
            '      "max": [\n        "2",\n        "11/12"\n      ]\n    }\n  ]\n}\n'
        )
        e = embed(CellSet(1, {(-1,), (2,)}, F(2, 3)), 0)
        assert print_set(e) == (
            '{\n  "kind": "boxunion",\n  "dimension": 2,\n  "boxes": [\n    {\n      "min": [\n'
            '        "0",\n        "-2/3"\n      ],\n      "max": [\n        "0",\n        "0"\n'
            '      ]\n    },\n    {\n      "min": [\n        "0",\n        "4/3"\n      ],\n'
            '      "max": [\n        "0",\n        "2"\n      ]\n    }\n  ]\n}\n'
        )


class TestInt64AgainstBigInt:
    """The same geometry on the int64 route and on the big-int route: moved
    by 2^63, every kernel runs on big-int corner arrays; divided by 2^40+1,
    the corners stay int64 but union_volume's brick sum in two and three
    dimensions needs big ints."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        counts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        denominator=st.sampled_from([1, 2, 3]),
        same=st.booleans(),
    )
    def test_routes_agree(self, n, seeds, counts, denominator, same):
        u = _seeded_union(n, seeds[0], counts[0], denominator)
        v = BoxUnion(n, u.boxes[::-1]) if same else _seeded_union(n, seeds[1], counts[1], denominator)
        shifted = [_map_union(w, lambda x: x + _SHIFT) for w in (u, v)]
        shrunk = [_map_union(w, lambda x: x / _D) for w in (u, v)]

        vol = union_volume(u)
        assert union_volume(shifted[0]) == vol
        assert union_volume(shrunk[0]) == vol / _D**n
        verdict = boxunion_equal_pointsets(u, v)
        assert boxunion_equal_pointsets(*shifted) is verdict
        assert boxunion_equal_pointsets(*shrunk) is verdict
        meet = boxunion_intersection(u, v)
        assert _map_union(boxunion_intersection(*shifted), lambda x: x - _SHIFT) == meet
        assert _map_union(boxunion_intersection(*shrunk), lambda x: x * _D) == meet


class TestBoxOps:
    def test_intersection(self):
        a = RatBox((0, 0), (2, 2))
        assert box_intersection(a, RatBox((3, 0), (4, 1))) is None
        touch = box_intersection(a, RatBox((2, 0), (3, 1)))
        assert touch is not None and touch.volume() == 0
        inner = box_intersection(a, RatBox((1, 1), (5, 5)))
        assert inner == RatBox((1, 1), (2, 2))

    def test_minkowski(self):
        a = RatBox((0, 0), (1, 1))
        b = RatBox((-1, 0), (0, F(1, 2)))
        assert box_minkowski(a, b) == RatBox((-1, 0), (1, F(3, 2)))

    def test_boxunion_intersection(self):
        u = BoxUnion(1, [RatBox((0,), (1,))])
        v = BoxUnion(1, [RatBox((1,), (2,)), RatBox((3,), (4,))])
        w = boxunion_intersection(u, v)
        assert len(w.boxes) == 1 and w.boxes[0] == RatBox((1,), (1,))

    def test_boxunion_minkowski(self):
        u = BoxUnion(1, [RatBox((0,), (0,)), RatBox((2,), (3,))])
        out = boxunion_minkowski_box(u, RatBox((0,), (1,)))
        assert union_volume(out) == 3


class TestPointsetEquality:
    def test_decompositions_equal(self):
        # an L-shape cut two different ways
        u = BoxUnion(2, [RatBox((0, 0), (2, 1)), RatBox((0, 1), (1, 2))])
        v = BoxUnion(2, [RatBox((0, 0), (1, 2)), RatBox((1, 0), (2, 1))])
        assert boxunion_equal_pointsets(u, v)

    def test_degenerate_pieces_matter(self):
        cube = BoxUnion(2, [RatBox((0, 0), (1, 1))])
        with_whisker = BoxUnion(
            2, [RatBox((0, 0), (1, 1)), RatBox((1, 0), (2, 0))]
        )
        assert not boxunion_equal_pointsets(cube, with_whisker)
        assert boxunion_equal_pointsets(with_whisker, with_whisker)

    def test_point_vs_cell_intersection(self):
        # adjacent cubes share a face the cell model cannot represent
        x = cellset_to_boxunion(CellSet(1, {(0,)}))
        y = cellset_to_boxunion(CellSet(1, {(1,)}))
        shared = boxunion_intersection(x, y)
        assert union_volume(shared) == 0 and not shared.is_empty
        assert not boxunion_equal_pointsets(shared, BoxUnion(1))

    def test_empty_cases(self):
        assert boxunion_equal_pointsets(BoxUnion(2), BoxUnion(2))
        assert not boxunion_equal_pointsets(
            BoxUnion(2), BoxUnion(2, [RatBox((0, 0), (0, 0))])
        )

    def test_dim0(self):
        full = BoxUnion(0, [RatBox((), ())])
        assert boxunion_equal_pointsets(full, full)
        assert not boxunion_equal_pointsets(full, BoxUnion(0))


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_point_box_distance(self):
        b = RatBox((0, 0), (1, 1))
        assert point_box_distance((F(1, 2), F(1, 2)), b) == 0
        assert point_box_distance((2, 3), b) == 1 + 2
        assert point_box_distance((-1, F(1, 2)), b) == 1

    def test_hausdorff_separated_boxes(self):
        u = BoxUnion(2, [RatBox((0, 0), (1, 1))])
        v = BoxUnion(2, [RatBox((2, 0), (3, 1))])
        lower, upper = hausdorff_distance(u, v, F(1, 4))
        # true distance 2 is attained at sampled corners
        assert lower == 2
        assert upper == 2 + 2 * F(1, 4) / 2

    def test_hausdorff_identical(self):
        u = BoxUnion(2, [RatBox((0, 0), (1, 1)), RatBox((1, 0), (2, 1))])
        lower, upper = hausdorff_distance(u, u, F(1, 2))
        assert lower == 0 and upper == F(1, 2)

    def test_hausdorff_bracket_width(self):
        u = BoxUnion(1, [RatBox((0,), (1,))])
        v = BoxUnion(1, [RatBox((F(1, 3),), (F(5, 3),))])
        for delta in (F(1, 2), F(1, 8)):
            lower, upper = hausdorff_distance(u, v, delta)
            assert upper - lower == 1 * delta / 2
            assert lower <= F(2, 3) <= upper

    def test_hausdorff_huge_coordinates(self):
        # the scaled distances pass 2^63 here, so the scan must run exact
        t = 2**61
        u = BoxUnion(3, [RatBox((-t,) * 3, (-t + 1,) * 3)])
        v = BoxUnion(3, [RatBox((t,) * 3, (t + 1,) * 3)])
        assert hausdorff_distance(u, v, 1) == (3 * 2**62, 3 * 2**62 + F(3, 2))
        # corners beyond int64 give the same bracket as a translate near 0
        far = 2**70
        shifted = [
            BoxUnion(2, [RatBox((far + a, far), (far + a + 1, far + 1))]) for a in (0, 3)
        ]
        near = [BoxUnion(2, [RatBox((a, 0), (a + 1, 1))]) for a in (0, 3)]
        assert hausdorff_distance(*shifted, F(1, 2)) == hausdorff_distance(*near, F(1, 2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RatBox((0, 0), (1, 1)).contains_point((0,)),
            lambda: RatBox((0, 0), (1, 1)).translate((1,)),
            lambda: SignedPerm((1, 0), (1, 1)).apply_point((1,)),
            lambda: apply_isometry(CellSet(2, {(0, 0)}), SignedPerm.identity(2), (1,)),
        ],
        ids=["contains_point", "translate", "apply_point", "apply_isometry"],
    )
    def test_point_of_wrong_dimension(self, call):
        # a shorter point used to be zipped short, or to index past its end
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            call()

    def test_hausdorff_validation(self):
        u = BoxUnion(1, [RatBox((0,), (1,))])
        with pytest.raises(ValueError):
            hausdorff_distance(u, BoxUnion(1), F(1, 2))
        with pytest.raises(ValueError):
            hausdorff_distance(u, u, 0)


# ---------------------------------------------------------------------------
# corner-array moves against their Fraction routes

# offsets on both sides of the int64 bound 2^62
_FAR = (0, 2**61, -(2**61), 2**62, -(2**62), 2**70, -(2**70))


@st.composite
def _far_rationals(draw, count):
    """``count`` rationals near one far offset, over one denominator 1-3."""
    base, den = draw(st.sampled_from(_FAR)), draw(st.integers(1, 3))
    return [base + F(draw(st.integers(-4, 4)), den) for _ in range(count)]


@st.composite
def _far_boxes(draw, n, max_count):
    """Up to ``max_count`` boxes, flat ones included, near one far offset."""
    boxes = []
    for _ in range(draw(st.integers(0, max_count))):
        lows = draw(_far_rationals(n))
        sides = [F(draw(st.integers(0, 3)), draw(st.integers(1, 3))) for _ in range(n)]
        boxes.append(RatBox(lows, [a + w for a, w in zip(lows, sides)]))
    return boxes


@st.composite
def _far_cellsets(draw, n, max_count):
    base = draw(st.sampled_from(_FAR))
    cells = draw(st.sets(st.tuples(*[st.integers(-3, 3)] * n), max_size=max_count))
    lam = draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    return CellSet(n, [[base + v for v in c] for c in cells], lam)


def _assert_stored(u):
    """The corner arrays of U hold its boxes over ``den``, int64 exactly
    when every corner is below 2^62 in size."""
    lows = [[v * u.den for v in b.mins] for b in u.boxes]
    highs = [[v * u.den for v in b.maxs] for b in u.boxes]
    assert u.lows.tolist() == lows and u.highs.tolist() == highs
    small = all(abs(v) < 2**62 for row in lows + highs for v in row)
    assert (u.lows.dtype == np.int64) is small and (u.highs.dtype == np.int64) is small


class TestCornerArrayMoves:
    """Isometries, box sums and the principal kinematic integral add
    integers to corner arrays; the per-box Fraction routes are the oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(0, 3))
    def test_isometry_of_box_union(self, data, n):
        u = BoxUnion(n, data.draw(_far_boxes(n, 3)))
        g = data.draw(st.sampled_from(hyperoctahedral_group(n)))
        q = data.draw(_far_rationals(n))
        moved = apply_isometry(u, g, q)
        assert moved == BoxUnion(n, [g.apply_box(b).translate(q) for b in u.boxes])
        _assert_stored(moved)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_unaligned_isometry_of_cell_set(self, data, n):
        x = data.draw(_far_cellsets(n, 4))
        g = data.draw(st.sampled_from(hyperoctahedral_group(n)))
        q = data.draw(_far_rationals(n))
        if all((v / x.resolution).denominator == 1 for v in q):
            q[0] += x.resolution / 2  # off the grid on the first axis
        moved = apply_isometry(x, g, q)
        cubes = cellset_to_boxunion(x).boxes
        assert moved == BoxUnion(n, [g.apply_box(b).translate(q) for b in cubes])
        _assert_stored(moved)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(0, 3))
    def test_box_union_plus_box(self, data, n):
        u = BoxUnion(n, data.draw(_far_boxes(n, 3)))
        (box,) = data.draw(_far_boxes(n, 1).filter(len))
        total = boxunion_minkowski_box(u, box)
        assert total == BoxUnion(n, [box_minkowski(b, box) for b in u.boxes])
        _assert_stored(total)
        x = data.draw(_far_cellsets(n, 4))
        summed = minkowski_sum_box(x, box)
        cubes = cellset_to_boxunion(x)
        if isinstance(summed, CellSet):
            summed = cellset_to_boxunion(summed)
            assert boxunion_equal_pointsets(summed, boxunion_minkowski_box(cubes, box))
        else:
            assert summed == BoxUnion(n, [box_minkowski(b, box) for b in cubes.boxes])
            _assert_stored(summed)

    def test_box_dimension_mismatch(self):
        u = BoxUnion(2, [RatBox((0, 0), (1, 1))])
        for box in (RatBox((0,), (1,)), RatBox((0, 0, 0), (1, 1, 1))):
            with pytest.raises(ValueError, match="box dimension mismatch"):
                boxunion_minkowski_box(u, box)
        with pytest.raises(ValueError, match="box dimension mismatch"):
            boxunion_minkowski_box(BoxUnion(2), RatBox((), ()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_kinematic_principal(self, data, n):
        x = data.draw(_far_cellsets(n, 6 if n < 4 else 3))
        (box,) = data.draw(_far_boxes(n, 1).filter(len))
        # the former route: one box per cell, widened by every side order
        cubes = cellset_to_boxunion(x).boxes
        orders = set(permutations(box.side_lengths()))
        widened = (
            BoxUnion(n, [box_minkowski(b, RatBox((0,) * n, sides)) for b in cubes])
            for sides in orders
        )
        mean = sum(map(union_volume, widened)) / len(orders)
        assert kinematic_principal(x, box)[0] == mean
