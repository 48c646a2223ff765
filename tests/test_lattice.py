"""Core value types, measure, point-set operations, metrics."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from itertools import combinations

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
    from_object,
    gen_random_box,
    hausdorff_distance,
    hyperoctahedral_group,
    minkowski_sum_box,
    point_box_distance,
    print_set,
    project,
    scale,
    subdivide,
    union_volume,
)

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
        assert print_set(from_object(w)) == (
            '{\n  "kind": "boxunion",\n  "dimension": 2,\n  "boxes": [\n    {\n      "min": [\n'
            '        "1/2",\n        "0"\n      ],\n      "max": [\n        "3/2",\n        "11/12"\n'
            '      ]\n    },\n    {\n      "min": [\n        "1/2",\n        "1/2"\n      ],\n'
            '      "max": [\n        "2",\n        "11/12"\n      ]\n    }\n  ]\n}\n'
        )
        e = embed(CellSet(1, {(-1,), (2,)}, F(2, 3)), 0)
        assert print_set(from_object(e)) == (
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

    def test_hausdorff_validation(self):
        u = BoxUnion(1, [RatBox((0,), (1,))])
        with pytest.raises(ValueError):
            hausdorff_distance(u, BoxUnion(1), F(1, 2))
        with pytest.raises(ValueError):
            hausdorff_distance(u, u, 0)
