"""Intrinsic-volume vectors: closed forms, dual computation routes, axioms."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from l1geo import (
    BoxUnion,
    CellSet,
    IVVector,
    L1Ball,
    RatBox,
    SignedPerm,
    apply_isometry,
    ball_intrinsic_volumes,
    box_intrinsic_volumes,
    cellset_product,
    cellset_to_boxunion,
    convexify,
    coordinate_subspaces,
    elementary_symmetric,
    embed,
    euler_characteristic,
    gen_random_box,
    gen_random_cellset,
    gen_random_convex,
    intrinsic_volumes,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
    kubota_profile,
    outer_pixellate,
    product_rhs,
    project,
    scale,
    subdivide,
    union_volume,
)

from l1geo import lattice, valuations
from l1geo.lattice import _breakpoints
from l1geo.suites import corpus_instance
from l1geo.valuations import _additive_volumes

F = Fraction


def unit_cube(n: int, lam=F(1)) -> CellSet:
    per_axis = int(1 / lam)
    cells = itertools.product(range(per_axis), repeat=n)
    return CellSet(n, cells, lam)


class TestClosedForms:
    def test_cube_binomials(self):
        for n in range(0, 7):
            vec = intrinsic_volumes_cellset(unit_cube(n))
            assert tuple(vec) == tuple(comb(n, i) for i in range(n + 1))

    def test_cube_resolution_invariance(self):
        for n in range(1, 5):
            fine = intrinsic_volumes_cellset(unit_cube(n, F(1, 2)))
            assert tuple(fine) == tuple(comb(n, i) for i in range(n + 1))

    def test_subdivide_invariance(self):
        for seed in range(8):
            x = gen_random_convex(2, 5, 0.4, seed)
            for m in (2, 3):
                assert intrinsic_volumes_cellset(subdivide(x, m)) == intrinsic_volumes_cellset(x)

    def test_ball_closed_form(self):
        for n in range(0, 6):
            vec = ball_intrinsic_volumes(n)
            expected = tuple(F(2**i, factorial(i)) * comb(n, i) for i in range(n + 1))
            assert tuple(vec) == expected

    def test_ball_radius_scaling(self):
        vec = ball_intrinsic_volumes(3, F(5, 2))
        base = ball_intrinsic_volumes(3)
        assert tuple(vec) == tuple(F(5, 2) ** i * v for i, v in enumerate(base))

    def test_ball_radius_sign(self):
        assert tuple(ball_intrinsic_volumes(2, 0)) == (1, 0, 0)
        with pytest.raises(ValueError):
            ball_intrinsic_volumes(2, -1)

    def test_pixellated_unit_ball(self):
        pix = outer_pixellate(L1Ball((0, 0), 1), 1)
        assert tuple(intrinsic_volumes_cellset(pix)) == (1, 8, 12)

    def test_tromino(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        assert tuple(intrinsic_volumes_cellset(x)) == (1, 4, 3)

    def test_box_sides(self):
        assert tuple(box_intrinsic_volumes((1, 2, 3))) == (1, 6, 11, 6)
        assert tuple(box_intrinsic_volumes(())) == (1,)

    def test_solid_box_cellset(self):
        cells = itertools.product(range(1), range(2), range(3))
        x = CellSet(3, cells)
        assert intrinsic_volumes_cellset(x) == box_intrinsic_volumes((1, 2, 3))


class TestElementarySymmetric:
    def test_values(self):
        assert elementary_symmetric((2, 3)) == (1, 5, 6)
        assert elementary_symmetric((1, 1, 1)) == (1, 3, 3, 1)
        e = elementary_symmetric((F(1, 2), F(1, 3), 4))
        assert e == (1, F(29, 6), F(7, 2), F(2, 3))

    def test_degenerate_side(self):
        assert elementary_symmetric((0, 5)) == (1, 5, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            elementary_symmetric((1, -2))


class TestHadwigerMatrix:
    """Embedded i-dimensional cubes in R^n produce the binomial transition
    matrix M[i][j] = C(i, j): unitriangular, determinant one."""

    def test_matrix(self):
        n = 6
        rows = []
        for i in range(n + 1):
            sides = (1,) * i + (0,) * (n - i)
            box = RatBox((0,) * n, sides)
            vec = intrinsic_volumes_boxunion(BoxUnion(n, [box]))
            rows.append(tuple(vec))
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                assert entry == comb(i, j)
            assert row[i] == 1
            assert all(v == 0 for v in row[i + 1 :])
        # unitriangular, so the determinant is the diagonal product
        det = 1
        for i in range(n + 1):
            det *= rows[i][i]
        assert det == 1

    def test_embed_adds_zero_direction(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        from l1geo import embed

        lifted = intrinsic_volumes_boxunion(embed(x, 1))
        base = intrinsic_volumes_cellset(x)
        assert tuple(lifted) == tuple(base) + (0,)


class TestDualRoutes:
    """Cell counting and box-union projected volumes are independent
    computations of the same vector and must agree on every cell set."""

    def test_random_agreement(self):
        rng = random.Random(11)
        for trial in range(80):
            n = rng.choice([1, 2, 3])
            x = gen_random_cellset(n, 4, rng.randint(1, 12), 3000 + trial)
            a = intrinsic_volumes_cellset(x)
            b = intrinsic_volumes_boxunion(cellset_to_boxunion(x))
            assert a == b

    def test_finer_resolutions(self):
        for seed in range(10):
            x = gen_random_cellset(2, 5, 8, seed, resolution=F(1, 3))
            assert intrinsic_volumes_cellset(x) == intrinsic_volumes_boxunion(
                cellset_to_boxunion(x)
            )

    def test_top_degree_is_volume(self):
        for seed in range(10):
            x = gen_random_convex(2, 5, 0.5, 60 + seed)
            vec = intrinsic_volumes_cellset(x)
            assert vec[2] == union_volume(cellset_to_boxunion(x))

    def test_degree_zero_is_euler(self):
        x = gen_random_convex(2, 4, 0.4, 7)
        assert intrinsic_volumes_cellset(x)[0] == euler_characteristic(x) == 1
        empty = CellSet(3)
        assert euler_characteristic(empty) == 0
        assert tuple(intrinsic_volumes_cellset(empty)) == (0, 0, 0, 0)


def ring(n: int, shift: int = 0) -> CellSet:
    """The 3 x 3 square of cells on the first two axes without its centre,
    one cell thick on the others, moved by ``shift`` on axis 0."""
    cells = [
        (a + shift, b, *[0] * (n - 2))
        for a in range(3) for b in range(3) if (a, b) != (1, 1)
    ]
    return CellSet(n, cells)


def point(*coords) -> RatBox:
    return RatBox(coords, coords)


class TestEulerCharacteristic:
    @pytest.mark.parametrize(
        "x, chi",
        [
            (ring(2), 0),                                          # annulus
            (CellSet(2, [(0, 0), (2, 0)]), 2),                     # two disjoint cells
            (CellSet(2, [(0, 0), (1, 1)]), 1),                     # touching at a corner
            (BoxUnion(2, [point(0, 0), point(1, 1)]), 2),          # two point boxes
            (
                BoxUnion(2, [
                    RatBox((0, 0), (1, 0)), RatBox((1, 0), (1, 1)),
                    RatBox((0, 1), (1, 1)), RatBox((0, 0), (0, 1)),
                ]),
                0,
            ),                                                     # square outline
            (
                CellSet(3, [c for c in itertools.product(range(3), repeat=3) if c != (1, 1, 1)]),
                2,
            ),                                                     # hollow cube
            (ring(3), 0),                                          # flat 3-D ring
            (CellSet(2), 0),
            (BoxUnion(3), 0),
            (CellSet(0, [()]), 1),
            (BoxUnion(0, [RatBox((), ())]), 1),
            (ring(2, 2**62), 0),                                   # big-int indices
            (ring(2, 2**61 - 2), 0),                               # int64 near the limit
            (CellSet(2, ring(2).cells, F(2, 3)), 0),
            (CellSet(2, [(0, 0), (2**61, 0)]), 2),                 # big-int brick weights
        ],
    )
    def test_known_sets(self, x, chi):
        assert euler_characteristic(x) == _additive_volumes(x)[0] == chi
        if isinstance(x, CellSet):
            assert euler_characteristic(cellset_to_boxunion(x)) == chi

    def test_convex_corpus(self):
        for n in (2, 3):
            for i in range(40):
                x = corpus_instance(n, i, 0, 6, 0.4)
                assert euler_characteristic(x) == euler_characteristic(cellset_to_boxunion(x)) == 1


class TestAdditiveVolumes:
    """The brick kernel's additive extension of V' agrees with the projected
    volumes on convex sets and on single boxes, where both are defined."""

    def test_convex_corpus(self):
        for n in (2, 3):
            for i in range(40):
                x = corpus_instance(n, i, 0, 6, 0.4)
                vec = tuple(intrinsic_volumes_cellset(x))
                assert _additive_volumes(x) == _additive_volumes(cellset_to_boxunion(x)) == vec
                far = CellSet(n, [(c[0] + 2**62, *c[1:]) for c in x.cells], x.resolution)
                assert _additive_volumes(far) == vec

    def test_single_boxes(self):
        for seed in range(40):
            n = 1 + seed % 3
            box = gen_random_box(n, seed, denominator=3)
            flat = RatBox(box.mins, box.mins[:1] + box.maxs[1:])  # degenerate on axis 0
            for b in (box, flat):
                u = BoxUnion(n, [b])
                assert _additive_volumes(u) == tuple(intrinsic_volumes_boxunion(u))


def projected_volumes(u: BoxUnion) -> tuple[Fraction, ...]:
    """Reference for ``intrinsic_volumes_boxunion``: the union volume of each
    projection onto a coordinate subspace, each on its own grid."""
    n = u.dimension
    return tuple(
        sum((union_volume(project(u, sub)) for sub in coordinate_subspaces(n, i)), F(0))
        for i in range(n + 1)
    )


def seeded_union(n: int, seed: int) -> BoxUnion:
    """One to six rational boxes, each flat on about a third of its axes."""
    rng = random.Random(seed)
    boxes = []
    for b in range(rng.randint(1, 6)):
        box = gen_random_box(n, 100 * seed + b, low=-3, high=4, denominator=rng.choice([1, 2, 3]))
        flat = [rng.random() < 0.3 for _ in range(n)]
        boxes.append(RatBox(box.mins, [lo if f else hi for lo, hi, f in zip(box.mins, box.maxs, flat)]))
    return BoxUnion(n, boxes)


class TestOneGrid:
    """``intrinsic_volumes_boxunion`` reads every projection from one doubled
    grid; one union volume per projection, on its own grid, is its oracle."""

    def test_seeded_unions(self):
        for seed in range(80):
            n = 1 + seed % 4
            u = seeded_union(n, seed)
            want = projected_volumes(u)
            assert tuple(intrinsic_volumes_boxunion(u)) == want
            far = apply_isometry(u, SignedPerm(tuple(range(n)), (1,) * n), (2**62,) * n)
            assert far.lows.dtype == object
            assert tuple(intrinsic_volumes_boxunion(far)) == want

    def test_embedded_cellsets(self):
        for seed in range(20):
            n = 1 + seed % 3
            x = gen_random_cellset(n, 4, 1 + seed % 7, 900 + seed, resolution=F(1, 1 + seed % 3))
            for position in range(n + 1):
                u = embed(x, position)
                assert tuple(intrinsic_volumes_boxunion(u)) == projected_volumes(u)

    def test_empty_and_dimension_zero(self):
        for u, want in [
            (BoxUnion(3), (0, 0, 0, 0)),
            (BoxUnion(0), (0,)),
            (BoxUnion(0, [RatBox((), ())]), (1,)),
        ]:
            assert tuple(intrinsic_volumes_boxunion(u)) == projected_volumes(u) == want

    def test_one_grid_per_call(self, monkeypatch):
        calls = []

        def counted(*corners):
            calls.append(len(corners))
            return _breakpoints(*corners)

        monkeypatch.setattr(lattice, "_breakpoints", counted)
        monkeypatch.setattr(valuations, "_breakpoints", counted)
        for seed in range(8):
            calls.clear()
            intrinsic_volumes_boxunion(seeded_union(1 + seed % 4, seed))
            assert len(calls) == 1
        for n in (2, 3):
            x = corpus_instance(n, 0, 0, 6, 0.4)
            for k in range(n + 1):
                calls.clear()
                kubota_profile(x, k)
                assert len(calls) == 1

    def test_doubled_grid_limit(self):
        # 2,000 diagonal boxes have 4,000 corner coordinates per axis: the
        # plain grid of the projections has 3,999^2 bricks (16.0 M), under
        # the limit of 60 M, and the doubled grid 7,999^2 (64.0 M)
        u = BoxUnion(2, [RatBox((2 * b, 2 * b), (2 * b + 1, 2 * b + 1)) for b in range(2000)])
        plain = prod(len(bk) - 1 for bk in _breakpoints(u.lows, u.highs))
        assert plain == 3999**2 <= lattice._UNION_GRID_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="compression grid of 63984001 bricks"):
                intrinsic_volumes_boxunion(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # the bool table alone would take 64 MB


class TestAxioms:
    def test_isometry_invariance(self):
        rng = random.Random(23)
        for seed in range(25):
            n = 2 + seed % 2
            x = gen_random_convex(n, 5, 0.4, 400 + seed)
            perm = tuple(rng.sample(range(n), n))
            signs = tuple(rng.choice([1, -1]) for _ in range(n))
            g = SignedPerm(perm, signs)
            shift = tuple(x.resolution * rng.randint(-3, 3) for _ in range(n))
            moved = apply_isometry(x, g, shift)
            assert isinstance(moved, CellSet)
            assert intrinsic_volumes_cellset(moved) == intrinsic_volumes_cellset(x)

    def test_scale_homogeneity(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        base = intrinsic_volumes_cellset(x)
        for m in (2, 3):
            big = intrinsic_volumes_cellset(scale(x, m))
            assert tuple(big) == tuple(m**i * v for i, v in enumerate(base))

    def test_monotone_on_convex_pairs(self):
        for seed in range(15):
            x = gen_random_convex(2, 5, 0.5, 800 + seed)
            sub = CellSet(
                2,
                [c for c in x.cells if (c[0] + c[1]) % 2 == 0] or x.sorted_cells()[:1],
                x.resolution,
            )
            smaller = convexify(sub)
            if not (smaller.cells <= x.cells):
                continue
            a = intrinsic_volumes_cellset(smaller)
            b = intrinsic_volumes_cellset(x)
            assert all(a[i] <= b[i] for i in range(3))

    def test_additivity_point_level(self):
        # valuation rule on a genuine overlap, computed on box unions where
        # the intersection is the true point intersection
        a = BoxUnion(2, [RatBox((0, 0), (2, 1))])
        b = BoxUnion(2, [RatBox((1, 0), (3, 1))])
        inter = BoxUnion(2, [RatBox((1, 0), (2, 1))])
        lhs = intrinsic_volumes_boxunion(BoxUnion(2, list(a.boxes) + list(b.boxes)))
        rhs = [
            intrinsic_volumes_boxunion(a)[i]
            + intrinsic_volumes_boxunion(b)[i]
            - intrinsic_volumes_boxunion(inter)[i]
            for i in range(3)
        ]
        assert list(lhs) == rhs


class TestProducts:
    def test_tromino_times_interval(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        y = CellSet(1, {(0,), (1,)})
        prod = cellset_product(x, y)
        assert prod.dimension == 3
        lhs = intrinsic_volumes_cellset(prod)
        rhs = product_rhs(intrinsic_volumes_cellset(x), intrinsic_volumes_cellset(y))
        assert lhs == rhs
        assert tuple(lhs) == (1, 6, 11, 6)

    def test_random_products(self):
        for seed in range(12):
            x = gen_random_convex(2, 4, 0.4, 900 + seed)
            y = gen_random_convex(1, 4, 0.6, 901 + seed)
            lhs = intrinsic_volumes_cellset(cellset_product(x, y))
            rhs = product_rhs(
                intrinsic_volumes_cellset(x), intrinsic_volumes_cellset(y)
            )
            assert lhs == rhs

    def test_product_with_point(self):
        x = CellSet(2, {(0, 0), (1, 1)})
        point = CellSet(0, {()})
        assert cellset_product(x, point).sorted_cells() == x.sorted_cells()

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            cellset_product(CellSet(1, {(0,)}), CellSet(1, {(0,)}, F(1, 2)))


class TestIVVector:
    def test_accessors(self):
        v = IVVector((1, 4, 3))
        assert v.dimension == 2
        assert v[1] == 4
        assert tuple(v) == (1, 4, 3)
        assert len(v) == 3

    def test_fractions(self):
        v = IVVector((F(1), F(1, 2)))
        assert v[1] == F(1, 2)

    def test_equality(self):
        assert IVVector((1, 2)) == IVVector((F(1), F(2)))
        assert IVVector((1, 2)) != IVVector((1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            IVVector(())

    def test_generic_dispatch(self):
        x = CellSet(2, {(0, 0)})
        assert intrinsic_volumes(x) == intrinsic_volumes_cellset(x)
        u = cellset_to_boxunion(x)
        assert intrinsic_volumes(u) == intrinsic_volumes_boxunion(u)
