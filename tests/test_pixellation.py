"""Shape rasterization, boundary cells, and Hausdorff error brackets."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from l1geo import (
    BoxUnion,
    BoxUnionShape,
    CellSet,
    L1Ball,
    RatBox,
    boundary_region,
    box_intersection,
    cell_box,
    cellset_to_boxunion,
    gen_random_box,
    hausdorff_distance,
    intrinsic_volumes_cellset,
    is_l1_convex,
    outer_pixellate,
    pixellation_error_bracket,
    point_box_distance,
    shape_contains_point,
    shape_point_distance,
    union_volume,
)
from l1geo.lattice import _box_samples

F = Fraction

UNIT_BALL_CELLS = (
    (-2, -1), (-2, 0),
    (-1, -2), (-1, -1), (-1, 0), (-1, 1),
    (0, -2), (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0),
)


def brute_ball_cells(center, radius, lam, span=8):
    """Independent rasterizer: cube meets ball iff the nearest point of the
    cube (per-axis clamp of the center) is within the radius."""
    n = len(center)
    out = set()
    for cell in itertools.product(range(-span, span), repeat=n):
        dist = F(0)
        for h, c in zip(cell, center):
            lo, hi = lam * h, lam * (h + 1)
            nearest = min(max(c, lo), hi)
            dist += abs(c - nearest)
        if dist <= radius:
            out.add(cell)
    return out


class TestOuterPixellate:
    def test_unit_ball_frozen(self):
        pix = outer_pixellate(L1Ball((0, 0), 1), 1)
        assert pix.sorted_cells() == tuple(sorted(UNIT_BALL_CELLS))
        assert pix.resolution == 1

    def test_unit_ball_matches_brute(self):
        for lam in (F(1), F(1, 2), F(1, 3)):
            pix = outer_pixellate(L1Ball((0, 0), 1), lam)
            assert set(pix.cells) == brute_ball_cells((F(0), F(0)), F(1), lam)

    def test_offcenter_ball_matches_brute(self):
        ball = L1Ball((F(1, 2), F(-1, 3)), F(5, 4))
        for lam in (F(1), F(1, 2)):
            pix = outer_pixellate(ball, lam)
            assert set(pix.cells) == brute_ball_cells(ball.center, ball.radius, lam)

    def test_unit_ball_intrinsic_volumes(self):
        pix = outer_pixellate(L1Ball((0, 0), 1), 1)
        assert tuple(intrinsic_volumes_cellset(pix)) == (1, 8, 12)

    def test_three_dimensional_ball(self):
        pix = outer_pixellate(L1Ball((0, 0, 0), 1), 1)
        assert set(pix.cells) == brute_ball_cells((F(0),) * 3, F(1), F(1), span=3)
        assert is_l1_convex(pix)

    def test_contains_shape(self):
        ball = L1Ball((F(1, 3), F(0)), F(3, 2))
        pix = outer_pixellate(ball, F(1, 2))
        region = cellset_to_boxunion(pix)
        # every extreme point of the ball lies in some cube of the pixellation
        c = ball.center
        for axis in range(2):
            for sign in (1, -1):
                tip = list(c)
                tip[axis] += sign * ball.radius
                assert any(b.contains_point(tuple(tip)) for b in region.boxes)

    def test_convex_for_all_resolutions(self):
        ball = L1Ball((F(1, 5), F(2, 7)), F(9, 8))
        for lam in (F(1), F(1, 2), F(1, 4)):
            assert is_l1_convex(outer_pixellate(ball, lam))

    def test_box_shape(self):
        sq = BoxUnionShape(BoxUnion(2, [RatBox((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))]))
        pix = outer_pixellate(sq, F(1, 2))
        assert len(pix.cells) == 16
        assert union_volume(cellset_to_boxunion(pix)) == 4

    @pytest.mark.parametrize(
        "shape, count",
        [
            # the lower bound (2r)^n / (n! lam^n) on the count, checked before
            # any run along the last axis is recorded
            (L1Ball((0, 0), 1500), 4500000),
            (L1Ball((0,) * 5, 10**30), -(-((2 * 10**30) ** 5) // 120)),
            # 2102 x 2102 cells, refused before any is built
            (BoxUnionShape(BoxUnion(2, [RatBox((0, 0), (2100, 2100))])), 4418404),
        ],
        ids=["ball", "far-ball", "box"],
    )
    def test_refuses_too_many_cells(self, shape, count):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"take {count} cells to build, over 4000000"):
            outer_pixellate(shape, 1)
        assert time.perf_counter() - start < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            outer_pixellate(L1Ball((0, 0), 1), 0)
        with pytest.raises(ValueError):
            outer_pixellate(L1Ball((0, 0), 1), -1)
        with pytest.raises(ValueError):
            L1Ball((0, 0), 0)


def brute_box_cells(region, lam):
    """Independent rasterizer in Fractions: cell h meets the box [a, b] iff
    lam*h <= b_i and lam*(h + 1) >= a_i on every axis."""
    out = set()
    for box in region.boxes:
        axes = [
            [h for h in range(math.floor(a / lam) - 2, math.ceil(b / lam) + 2) if lam * h <= b and lam * (h + 1) >= a]
            for a, b in zip(box.mins, box.maxs)
        ]
        out.update(itertools.product(*axes))
    return out


class TestBoxUnionPixellationOracle:
    def unions(self, n):
        """Seeded unions of 1-3 boxes, some with a zero-width side."""
        for seed in range(5):
            rng = random.Random(10 * n + seed)
            boxes = []
            for j in range(1 + seed % 3):
                box = gen_random_box(n, 100 * seed + j, low=-2, high=2, denominator=3)
                if rng.random() < 0.4:
                    k = rng.randrange(n)
                    box = RatBox(box.mins, box.maxs[:k] + box.mins[k:k + 1] + box.maxs[k + 1:])
                boxes.append(box)
            yield BoxUnion(n, boxes)

    @pytest.mark.parametrize("shift", [0, 2**63], ids=["int64", "big-int"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n, shift):
        for region in self.unions(n):
            region = BoxUnion(n, _shifted(region.boxes, shift))
            for lam in (F(1), F(1, 3), F(2, 3)):
                pix = outer_pixellate(BoxUnionShape(region), lam)
                cells = brute_box_cells(region, lam)
                assert pix.cells == cells
                big = max(abs(v) for cell in cells for v in cell) >= 2**62
                assert pix.indices.dtype == (object if big else np.int64)


UNIT_SQUARE = BoxUnionShape(BoxUnion(2, [RatBox((0, 0), (1, 1))]))


class TestShapeQueries:
    def test_contains(self):
        ball = L1Ball((0, 0), 1)
        assert shape_contains_point(ball, (F(1, 2), F(1, 2)))
        assert shape_contains_point(ball, (1, 0))
        assert not shape_contains_point(ball, (F(1, 2), F(3, 4)))

    def test_distance(self):
        ball = L1Ball((0, 0), 1)
        assert shape_point_distance(ball, (0, 0)) == 0
        assert shape_point_distance(ball, (2, 0)) == 1
        assert shape_point_distance(ball, (1, 1)) == 1
        box = BoxUnionShape(BoxUnion(2, [RatBox((0, 0), (1, 1))]))
        assert shape_point_distance(box, (2, 3)) == 3
        assert shape_point_distance(box, (F(1, 2), F(1, 2))) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: shape_point_distance(L1Ball((0, 0), 1), (5,)),
            lambda: shape_contains_point(L1Ball((0, 0), 1), (0,)),
            lambda: shape_contains_point(UNIT_SQUARE, (0,)),
        ],
        ids=["ball-distance", "ball-contains", "box-contains"],
    )
    def test_point_of_wrong_dimension(self, call):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            call()


class TestBoundaryRegion:
    def test_unit_ball_sequence(self):
        ball = L1Ball((0, 0), 1)
        areas = {}
        for lam in (F(1), F(1, 3), F(1, 9)):
            bd = boundary_region(ball, lam)
            areas[lam] = union_volume(cellset_to_boxunion(bd))
        assert areas[F(1)] == 12
        assert areas[F(1, 3)] == F(28, 9)
        assert areas[F(1, 9)] == F(76, 81)
        # each refinement by 3 shrinks the boundary area by at least 1 - 1/9
        shrink = 1 - F(1, 9)
        assert areas[F(1, 3)] <= shrink * areas[F(1)]
        assert areas[F(1, 9)] <= shrink * areas[F(1, 3)]

    def test_all_cells_meet_but_inner_are_excluded(self):
        sq = BoxUnionShape(BoxUnion(2, [RatBox((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))]))
        bd = boundary_region(sq, F(1, 2))
        assert len(bd.cells) == 12
        # the four fully covered interior cubes are absent
        assert not ({(1, 1), (1, 2), (2, 1), (2, 2)} & bd.cells)

    def test_subset_of_pixellation(self):
        ball = L1Ball((F(1, 4), F(-1, 4)), F(7, 8))
        for lam in (F(1), F(1, 2)):
            assert boundary_region(ball, lam).cells <= outer_pixellate(ball, lam).cells


def oracle_boundary(shape, lam):
    """The per-cube definition: a cube lies in a box union iff the boxes
    clipped to it fill its volume, and in a ball iff its farthest corner
    does."""
    meets = outer_pixellate(shape, lam)
    n = meets.dimension
    out = set()
    for cell in meets.cells:
        cube = cell_box(cell, lam)
        if isinstance(shape, L1Ball):
            far = sum(
                max(abs(lo - c), abs(hi - c)) for lo, hi, c in zip(cube.mins, cube.maxs, shape.center)
            )
            inside = far <= shape.radius
        else:
            pieces = [p for b in shape.region.boxes if (p := box_intersection(cube, b)) is not None]
            inside = union_volume(BoxUnion(n, pieces)) == lam**n
        if not inside:
            out.add(cell)
    return out


def _shifted(boxes, t):
    return [b.translate((t,) * b.dimension) for b in boxes]


class TestBoundaryAgainstOracle:
    RESOLUTIONS = (F(1), F(1, 3), F(2, 3))

    def check(self, shape):
        for lam in self.RESOLUTIONS:
            assert boundary_region(shape, lam).cells == oracle_boundary(shape, lam)

    def test_seeded_box_unions(self):
        for n in (1, 2, 3):
            for seed in range(6 if n < 3 else 3):
                boxes = [
                    gen_random_box(n, 100 * seed + j, low=-2, high=2, denominator=3)
                    for j in range(1 + seed % 3)
                ]
                self.check(BoxUnionShape(BoxUnion(n, boxes)))

    def test_degenerate_boxes(self):
        boxes = [
            RatBox((0, 0), (2, 0)),
            RatBox((F(1, 2), F(-1, 3)), (F(1, 2), F(5, 3))),
            RatBox((F(1, 3), F(1, 3)), (F(4, 3), 1)),
        ]
        self.check(BoxUnionShape(BoxUnion(2, boxes)))
        self.check(BoxUnionShape(BoxUnion(2, boxes[:2])))

    def test_cube_covered_only_by_two_boxes(self):
        halves = [RatBox((0, 0), (F(1, 2), 1)), RatBox((F(1, 2), 0), (1, 1))]
        shape = BoxUnionShape(BoxUnion(2, halves))
        assert (0, 0) not in boundary_region(shape, 1).cells
        self.check(shape)
        corners = [RatBox((0, 0, 0), (2, 2, 1)), RatBox((0, 0, 1), (2, 2, 2)), RatBox((1, 1, 1), (3, 3, 3))]
        self.check(BoxUnionShape(BoxUnion(3, corners)))

    def test_balls(self):
        for n, seed in itertools.product((1, 2, 3), range(4)):
            center = tuple(F(seed * (i + 2) % 5 - 2, 3) for i in range(n))
            self.check(L1Ball(center, F(3 + seed, 4)))

    def test_big_int_route(self):
        # moved by 2^63 the corners no longer fit int64
        t = 2**63
        boxes = [RatBox((0, 0), (F(4, 3), 1)), RatBox((1, F(1, 2)), (2, 2)), RatBox((0, 0), (0, 2))]
        self.check(BoxUnionShape(BoxUnion(2, _shifted(boxes, t))))
        base = boundary_region(BoxUnionShape(BoxUnion(2, boxes)), 1).cells
        far = boundary_region(BoxUnionShape(BoxUnion(2, _shifted(boxes, t))), 1).cells
        assert far == {(a + t, b + t) for a, b in base}
        self.check(L1Ball((t, -t), F(5, 3)))


class TestErrorBracket:
    def test_unit_ball_exact_lower(self):
        ball = L1Ball((0, 0), 1)
        pix = outer_pixellate(ball, F(1, 2))
        lo, hi = pixellation_error_bracket(ball, pix, F(1, 4))
        assert lo == 1  # n * lam: the cube corner diagonally past a tip
        assert hi == F(5, 4)
        assert hi - lo == 2 * F(1, 4) / 2  # n * delta / 2

    def test_bracket_shrinks_with_resolution(self):
        ball = L1Ball((0, 0), 1)
        prev = None
        for lam in (F(1), F(1, 2), F(1, 4)):
            pix = outer_pixellate(ball, lam)
            lo, hi = pixellation_error_bracket(ball, pix, lam / 2)
            n = 2
            assert lo <= hi
            assert lo <= n * lam
            assert hi <= n * (lam + lam / 4)
            if prev is not None:
                assert hi < prev
            prev = hi

    def test_three_dims(self):
        ball = L1Ball((0, 0, 0), 1)
        pix = outer_pixellate(ball, F(1, 2))
        lo, hi = pixellation_error_bracket(ball, pix, F(1, 4))
        assert lo == F(3, 2)  # n * lam
        assert lo <= hi <= 3 * (F(1, 2) + F(1, 8))

    def test_aligned_box(self):
        # touching cubes are kept, so an aligned box gains a one-cube ring;
        # the worst point is a ring corner at taxicab distance n * lam
        sq = BoxUnionShape(BoxUnion(2, [RatBox((0, 0), (2, 2))]))
        pix = outer_pixellate(sq, 1)
        assert len(pix.cells) == 16
        lo, hi = pixellation_error_bracket(sq, pix, F(1, 2))
        assert lo == 2
        assert hi - lo <= 2 * F(1, 2) / 2

    def test_bracket_contains_true_distance(self):
        # shape and pixellation are both box unions here, so the true
        # Hausdorff distance has its own independent exact bracket
        sq = BoxUnionShape(
            BoxUnion(2, [RatBox((F(1, 4), F(1, 4)), (F(3, 4), F(5, 4)))])
        )
        pix = outer_pixellate(sq, F(1, 2))
        lo, hi = pixellation_error_bracket(sq, pix, F(1, 8))
        ref_lo, ref_hi = hausdorff_distance(
            cellset_to_boxunion(pix), sq.region, F(1, 16)
        )
        assert lo <= ref_hi and ref_lo <= hi

    def test_huge_coordinates(self):
        from l1geo import CellSet

        # at delta 1/8 the scaled center passes 2^63: the bracket is the
        # same as for the ball at the origin
        far, origin = L1Ball((2**61, 0), 2), L1Ball((0, 0), 2)
        assert pixellation_error_bracket(
            far, outer_pixellate(far, 1), F(1, 8)
        ) == pixellation_error_bracket(origin, outer_pixellate(origin, 1), F(1, 8))
        # a cell 2^63 per axis from the box: the distance itself passes 2^63
        t = 2**62
        box = BoxUnionShape(BoxUnion(2, [RatBox((-t, -t), (-t + 1, -t + 1))]))
        assert pixellation_error_bracket(box, CellSet(2, {(t, t)}), 1) == (2**64, 2**64 + 1)

    def test_dimension_zero(self):
        # the one-point set is its own pixellation, for both shape kinds
        for shape in (L1Ball((), 1), BoxUnionShape(BoxUnion(0, [RatBox((), ())]))):
            assert pixellation_error_bracket(shape, outer_pixellate(shape, 1), 1) == (0, 0)

    @pytest.mark.parametrize(
        "shape, n",
        [
            (L1Ball((0,), 1), 2),
            (BoxUnionShape(BoxUnion(1, [RatBox((0,), (1,))])), 2),
            (L1Ball((0, 0), 1), 3),
        ],
        ids=["1d-ball-2d-set", "1d-box-2d-set", "2d-ball-3d-set"],
    )
    def test_dimension_mismatch(self, shape, n):
        pix = outer_pixellate(L1Ball((0,) * n, 1), 1)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            pixellation_error_bracket(shape, pix, F(1, 2))

    @pytest.mark.parametrize(
        "call, count",
        [
            (
                lambda: hausdorff_distance(
                    BoxUnion(1, [RatBox((0,), (1,))]), BoxUnion(1, [RatBox((3,), (4,))]), F(1, 2**40)
                ),
                2**40 + 1,
            ),
            (
                lambda: pixellation_error_bracket(
                    L1Ball((0,), 1), outer_pixellate(L1Ball((0,), 1), 1), F(1, 2**40)
                ),
                4 * (2**40 + 1),  # four unit cubes
            ),
            # 2^70 + 1 samples on one side: past int64 before the limit check
            (
                lambda: hausdorff_distance(
                    BoxUnion(1, [RatBox((0,), (2**70,))]), BoxUnion(1, [RatBox((0,), (1,))]), 1
                ),
                2**70 + 1,
            ),
        ],
        ids=["hausdorff", "pixellation", "past-int64"],
    )
    def test_refuses_too_many_samples(self, call, count):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"take {count} sample points to build, over 4000000"):
            call()
        assert time.perf_counter() - start < 1

    def test_validation(self):
        ball = L1Ball((0, 0), 1)
        pix = outer_pixellate(ball, 1)
        with pytest.raises(ValueError):
            pixellation_error_bracket(ball, pix, 0)
        from l1geo import CellSet

        with pytest.raises(ValueError):
            pixellation_error_bracket(ball, CellSet(2), F(1, 2))


def grid_side(lo, hi, delta):
    """The endpoints of [lo, hi] and every multiple of delta between them."""
    return {lo, hi} | {k * delta for k in range(math.ceil(lo / delta), math.floor(hi / delta) + 1)}


def cube_side(lo, lam, delta):
    """lo plus every multiple of delta below lam, and lo + lam."""
    return {lo + k * delta for k in range(math.ceil(lam / delta))} | {lo + lam}


def oracle_bracket_lower(shape, pix, delta):
    """The bracket's lower bound from its sampling rule, in Fractions."""
    lam = pix.resolution
    return max(
        shape_point_distance(shape, p)
        for cell in pix.cells
        for p in itertools.product(*(cube_side(lam * h, lam, delta) for h in cell))
    )


def oracle_hausdorff_lower(u, v, delta):
    """``hausdorff_distance``'s lower bound from its sampling rule, in Fractions."""

    def directed(a, b):
        return max(
            min(point_box_distance(p, box) for box in b.boxes)
            for src in a.boxes
            for p in itertools.product(*map(grid_side, src.mins, src.maxs, [delta] * src.dimension))
        )

    return max(directed(u, v), directed(v, u))


def oracle_shapes(n, t):
    """Two seeded balls and two seeded box unions, translated by t per axis."""
    for seed in range(2):
        center = tuple(F(seed * (i + 2) % 5 - 2, 3) + t for i in range(n))
        yield L1Ball(center, F(3 + seed, 4))
        boxes = [
            gen_random_box(n, 10 * seed + j, low=-1, high=1, denominator=3) for j in range(1 + seed)
        ]
        yield BoxUnionShape(BoxUnion(n, _shifted(boxes, t)))


class TestBracketOracle:
    """Both lower bounds against a plain-Python enumeration of their samples
    and exact point distances; at 2^63 the kernels run on big-int arrays."""

    # (resolution, delta): delta divides the resolution, then it does not
    STEPS = ((F(1, 2), F(1, 4)), (F(2, 3), F(2, 5)))

    @pytest.mark.parametrize("t", [0, 2**63], ids=["origin", "far"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pixellation_bracket(self, n, t):
        for shape in oracle_shapes(n, t):
            for lam, delta in self.STEPS:
                pix = outer_pixellate(shape, lam)
                lower, upper = pixellation_error_bracket(shape, pix, delta)
                assert lower == oracle_bracket_lower(shape, pix, delta)
                assert upper == lower + F(n, 2) * delta

    @pytest.mark.parametrize("t", [0, 2**63], ids=["origin", "far"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hausdorff_distance(self, n, t):
        shapes = [s for s in oracle_shapes(n, t) if isinstance(s, BoxUnionShape)]
        for lam, delta in self.STEPS:
            pairs = [(cellset_to_boxunion(outer_pixellate(s, lam)), s.region) for s in shapes]
            for u, v in pairs + [(shapes[0].region, shapes[1].region)]:
                lower, upper = hausdorff_distance(u, v, delta)
                assert lower == oracle_hausdorff_lower(u, v, delta)
                assert upper == lower + F(n, 2) * delta

    @pytest.mark.parametrize("t", [0, 2**63], ids=["origin", "far"])
    def test_start_points(self, t):
        # where the farthest sample lies inside a side, the start point
        # decides the bound: the delta-grid for hausdorff_distance, each
        # cube's low corner for the bracket
        u = BoxUnion(1, [RatBox((F(1, 3) + t,), (1 + t,))])
        v = BoxUnion(1, [RatBox((t,), (t,)), RatBox((1 + t,), (1 + t,))])
        delta = F(2, 5)
        assert hausdorff_distance(u, v, delta)[0] == oracle_hausdorff_lower(u, v, delta)
        ends = BoxUnionShape(BoxUnion(1, [RatBox((a,), (a,)) for a in (F(2, 3), F(4, 3))]))
        cube = CellSet(1, {(1,)}, F(2, 3))
        lower = pixellation_error_bracket(ends, cube, delta)[0]
        assert lower == oracle_bracket_lower(ends, cube, delta)


def traced_peak(call):
    """``call()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bracket_scan_memory_is_bounded():
    # 40 far boxes (big-int route) and their 134-cell pixellation: the scan
    # sizes its chunks by the number of target boxes, which keeps each peak
    # near 5 MB
    rng, t = random.Random(5), 2**63
    boxes = []
    for _ in range(40):
        lo = [F(rng.randint(0, 20), 2) + t for _ in range(2)]
        boxes.append(RatBox(lo, [a + F(rng.randint(1, 4), 2) for a in lo]))
    shape = BoxUnionShape(BoxUnion(2, boxes))
    pix = outer_pixellate(shape, 1)
    assert len(pix) == 134
    cubes = cellset_to_boxunion(pix)
    for call in (
        lambda: pixellation_error_bracket(shape, pix, F(1, 4)),
        lambda: hausdorff_distance(cubes, shape.region, F(1, 4)),
    ):
        bracket, peak = traced_peak(call)
        assert bracket[0] == 2
        assert peak < 10_000_000


def test_hausdorff_samples_each_box_on_its_own_grid():
    # an L of two long thin boxes: one offset grid of the largest counts on
    # both axes would sample each box 401 x 401 times instead of 401 x 5
    # (a 20 MB peak against 0.3 MB)
    u = BoxUnion(2, [RatBox((0, 0), (100, 1)), RatBox((0, 0), (1, 100))])
    v = BoxUnion(2, [RatBox((0, 0), (1, 1))])
    bracket, peak = traced_peak(lambda: hausdorff_distance(u, v, F(1, 4)))
    assert bracket == (99, F(397, 4))
    assert peak < 2_000_000


def side_samples(start, lo, hi, step):
    """start + k*step clipped to [lo, hi], up to the first at or past hi."""
    out, x = [], start
    while True:
        out.append(min(max(x, lo), hi))
        if x >= hi:
            return out
        x += step


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_samples_come_in_bounded_blocks(n):
    # boxes of many shapes at a step much finer than their sides: every box
    # gets exactly its own samples, and no block holds more than the block
    # size unless it is one box's samples
    rng = random.Random(n)
    lows = np.array([[rng.randint(-50, 50) for _ in range(n)] for _ in range(30)], dtype=np.int64)
    highs = lows + np.array([[rng.randint(0, 12) for _ in range(n)] for _ in range(30)])
    starts = lows - np.array([[rng.randint(0, 2) for _ in range(n)] for _ in range(30)])
    step, block = 3, 20
    per_box = [
        list(itertools.product(*map(side_samples, s, lo, hi, [step] * n)))
        for s, lo, hi in zip(starts.tolist(), lows.tolist(), highs.tolist())
    ]
    blocks = list(_box_samples(starts, lows, highs, step, block))
    assert max(map(len, blocks)) <= max(block, *map(len, per_box))
    assert sorted(map(tuple, np.concatenate(blocks).tolist())) == sorted(itertools.chain(*per_box))
