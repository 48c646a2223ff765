"""Dilation, flat-integral, projection, and moving-set identities."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l1geo import (
    BoxUnion,
    CellSet,
    MCEstimate,
    RatBox,
    SignedPerm,
    cell_box,
    clip_translate,
    coordinate_subspaces,
    crofton_integral,
    crofton_profile,
    exact_clip_valuation,
    gen_random_box,
    gen_random_cellset,
    gen_random_convex,
    higher_kinematic_rhs,
    hyperoctahedral_group,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
    kinematic_higher_mc,
    kinematic_principal,
    kubota_profile,
    kubota_sum,
    principal_kinematic_rhs,
    steiner_check,
    steiner_profile,
    union_volume,
)
from l1geo import integral_geometry
from l1geo.integral_geometry import _ElementLayout, _ElementSampler
from l1geo.suites import kinematic_instance

F = Fraction

TROMINO = CellSet(2, {(0, 0), (1, 0), (0, 1)})


def full_group_principal_lhs(x: CellSet, box: RatBox) -> Fraction:
    """Reference lhs of the principal kinematic formula: the mean, over every
    signed permutation g, of the volume of {q : (gX + q) meets the box}."""
    n = x.dimension
    lam = x.resolution
    group = hyperoctahedral_group(n)
    total = F(0)
    for g in group:
        boxes = []
        for c in x.cells:
            cube = cell_box(g.apply_cell(c), lam)
            boxes.append(
                RatBox(
                    tuple(box.mins[i] - cube.maxs[i] for i in range(n)),
                    tuple(box.maxs[i] - cube.mins[i] for i in range(n)),
                )
            )
        total += union_volume(BoxUnion(n, boxes))
    return total / len(group)


def own_draws(x: CellSet, g: SignedPerm, box: RatBox, scale: int, bits: int, t) -> np.ndarray:
    """The scaled translations that the signed element g draws for t, in g's
    own frame: on axis i its support runs from box_lo - (max c_i + 1) * lam to
    box_hi - (min c_i) * lam over the cells c of gX, and a draw is the low end
    plus t_i steps of (width * scale) >> bits.  Exact big ints, (samples, n)."""
    cells = g.apply_rows(x.indices)
    lam = x.resolution
    out = np.empty(t.shape, dtype=object)
    for i in range(x.dimension):
        lo = int((box.mins[i] - (int(cells[:, i].max()) + 1) * lam) * scale)
        hi = int((box.maxs[i] - int(cells[:, i].min()) * lam) * scale)
        out[:, i] = [lo + int(v) * ((hi - lo) >> bits) for v in t[:, i]]
    return out


def reduceat_values(x: CellSet, g: SignedPerm, box: RatBox, k: int, scale: int, q) -> np.ndarray:
    """Reference for ``_ElementSampler.values`` on exact big ints, built from
    gX itself: the per-axis liveness of every cube ANDed into one (samples,
    cells) array, then per subspace a gather of it into segment order and a
    logical-or reduceat over the segments.  ``q`` holds g's own scaled
    translations, one row per sample."""
    n = x.dimension
    cells = g.apply_rows(x.indices).astype(object)
    m = cells.shape[0]
    lam = int(x.resolution * scale)
    box_lo = [int(v * scale) for v in box.mins]
    box_hi = [int(v * scale) for v in box.maxs]
    lengths = []
    alive = np.ones((q.shape[0], m), dtype=bool)
    for i in range(n):
        lows = cells[None, :, i] * lam + q[:, i, None]
        lo = np.maximum(lows, box_lo[i])
        hi = np.minimum(lows + lam, box_hi[i])
        alive &= hi - lo >= 0
        lengths.append(hi - lo)
    out = np.zeros(q.shape[0], dtype=object)
    for sub in coordinate_subspaces(n, k):
        axes = list(sub.axes)
        order = np.asarray(sorted(range(m), key=lambda c: tuple(cells[c, axes])), dtype=np.intp)
        keys = cells[order][:, axes]
        new_seg = np.ones(m, dtype=bool)
        new_seg[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        starts = np.flatnonzero(new_seg)
        prod = np.logical_or.reduceat(alive[:, order], starts, axis=1).astype(object)
        for i in axes:
            prod *= lengths[i][:, order[starts]]
        out += prod.sum(axis=1)
    return out


class TestSteiner:
    def test_tromino_profiles(self):
        expected = {1: (1, 6, 8), 2: (1, 8, 15), 3: (1, 10, 24)}
        for m, want in expected.items():
            lhs, rhs = steiner_profile(TROMINO, m)
            assert tuple(lhs) == want
            assert tuple(rhs) == want

    def test_zero_dilation_identity(self):
        lhs, rhs = steiner_profile(TROMINO, 0)
        assert lhs == rhs == intrinsic_volumes_cellset(TROMINO)

    def test_check_single_degree(self):
        lhs, rhs = steiner_check(TROMINO, 2, 1)
        assert lhs == rhs == 8

    def test_random_exact(self):
        for seed in range(12):
            n = 2 + seed % 2
            x = gen_random_convex(n, 4, 0.4, 50 + seed, mode=("blob", "ball")[seed % 2])
            for m in (1, 2):
                lhs, rhs = steiner_profile(x, m)
                assert lhs == rhs

    def test_finer_resolution(self):
        x = gen_random_convex(2, 4, 0.4, 3, resolution=F(1, 2))
        lhs, rhs = steiner_profile(x, 2)
        assert lhs == rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            steiner_profile(TROMINO, -1)


class TestCrofton:
    def test_tromino_line_sections(self):
        lhs, rhs = crofton_profile(TROMINO, 1)
        assert lhs == rhs
        assert lhs == (4, 6)

    def test_integral_values(self):
        assert crofton_integral(TROMINO, 1, 0) == (4, 4)
        assert crofton_integral(TROMINO, 1, 1) == (6, 6)

    def test_full_flat_is_identity(self):
        # k = n: the only flat is the whole space, weights collapse
        lhs, rhs = crofton_profile(TROMINO, 2)
        assert lhs == rhs
        vec = intrinsic_volumes_cellset(TROMINO)
        assert lhs == tuple(vec)

    def test_zero_flats_count_cells(self):
        # k = 0: points; integral of the indicator is the volume
        lhs, rhs = crofton_profile(TROMINO, 0)
        assert lhs == rhs == (3,)

    def test_random_exact(self):
        for seed in range(10):
            n = 2 + seed % 2
            x = gen_random_convex(n, 4, 0.5, 70 + seed)
            for k in range(n + 1):
                lhs, rhs = crofton_profile(x, k)
                assert lhs == rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            crofton_integral(TROMINO, 1, 2)
        with pytest.raises(ValueError):
            crofton_profile(TROMINO, 3)


class TestKubota:
    def test_tromino(self):
        lhs, rhs = kubota_profile(TROMINO, 1)
        assert lhs == rhs
        assert lhs == (2, 4)

    def test_sum_single(self):
        assert kubota_sum(TROMINO, 1, 1) == (4, 4)

    def test_top_projection(self):
        lhs, rhs = kubota_profile(TROMINO, 2)
        assert lhs == rhs == tuple(intrinsic_volumes_cellset(TROMINO))

    def test_random_exact(self):
        for seed in range(10):
            n = 2 + seed % 2
            x = gen_random_convex(n, 4, 0.5, 90 + seed, mode=("staircase", "ball")[seed % 2])
            for k in range(n + 1):
                lhs, rhs = kubota_profile(x, k)
                assert lhs == rhs


class TestPrincipalKinematic:
    UNIT = RatBox((0, 0), (1, 1))

    def test_single_cell(self):
        lhs, rhs = kinematic_principal(CellSet(2, {(0, 0)}), self.UNIT)
        assert lhs == rhs == 4

    def test_tromino(self):
        lhs, rhs = kinematic_principal(TROMINO, self.UNIT)
        assert lhs == rhs == 8

    def test_rhs_closed_form(self):
        assert principal_kinematic_rhs(TROMINO, self.UNIT) == 8

    def test_empty_probe(self):
        assert kinematic_principal(TROMINO, None) == (0, 0)

    def test_empty_set(self):
        lhs, rhs = kinematic_principal(CellSet(2), self.UNIT)
        assert lhs == rhs == 0

    def test_dimension_zero(self):
        lhs, rhs = kinematic_principal(CellSet(0, {()}), RatBox((), ()))
        assert lhs == rhs == 1

    def test_random_exact(self):
        for seed in range(8):
            n = 2 + seed % 2
            x = gen_random_convex(n, 3, 0.5, 110 + seed)
            box = gen_random_box(n, 200 + seed, low=0, high=3, denominator=2, min_side=1)
            lhs, rhs = kinematic_principal(x, box)
            assert lhs == rhs

    @pytest.mark.parametrize(
        "box",
        [
            RatBox((0, 0), (1, 1)),
            RatBox((F(1, 2), 0), (2, F(1, 3))),
            RatBox((0, 0, 0), (F(3, 2), F(3, 2), F(3, 2))),
            RatBox((0, 0, 0), (1, 2, 1)),
            RatBox((0, F(1, 2), 0), (F(1, 3), 1, 2)),
        ],
        ids=["2d-1perm", "2d-2perms", "3d-1perm", "3d-3perms", "3d-6perms"],
    )
    def test_matches_full_group_oracle(self, box):
        n = box.dimension
        for seed, res in ((0, 1), (1, F(1, 2)), (2, F(2, 3))):
            x = gen_random_convex(n, 3, 0.5, 130 + seed, resolution=res)
            lhs, rhs = kinematic_principal(x, box)
            assert lhs == full_group_principal_lhs(x, box)
            assert lhs == rhs

    def test_edge_cases_match_full_group_oracle(self):
        box = RatBox((0, 0), (1, 2))
        empty = CellSet(2)
        assert kinematic_principal(empty, box)[0] == full_group_principal_lhs(empty, box) == 0
        point, cell = RatBox((), ()), CellSet(0, {()})
        assert kinematic_principal(cell, point)[0] == full_group_principal_lhs(cell, point) == 1


class TestClipTranslate:
    def test_identity_placement_is_clip(self):
        g = SignedPerm((0, 1), (1, 1))
        box = RatBox((0, 0), (1, 1))
        u = clip_translate(TROMINO, g, (0, 0), box)
        assert union_volume(u) == 1

    def test_outside_translation_empty(self):
        g = SignedPerm((0, 1), (1, 1))
        box = RatBox((0, 0), (1, 1))
        u = clip_translate(TROMINO, g, (10, 10), box)
        assert u.is_empty

    def test_valuation_matches_boxunion_route(self):
        g = SignedPerm((1, 0), (1, -1))
        box = RatBox((0, 0), (2, 1))
        t = (F(1, 3), F(-1, 2))
        u = clip_translate(TROMINO, g, t, box)
        for k in range(3):
            direct = intrinsic_volumes_boxunion(u)[k]
            assert exact_clip_valuation(TROMINO, g, t, box, k) == direct


class TestHigherKinematic:
    def test_rhs_top_degree(self):
        # k = n: only j = n contributes, so the moving-set integral reduces
        # to vol(X) * vol(I)
        box = RatBox((0, 0), (F(3, 2), 2))
        rhs = higher_kinematic_rhs(TROMINO, box, 2)
        vols = intrinsic_volumes_cellset(TROMINO)
        assert rhs == vols[2] * box.volume()

    def test_rhs_degree_zero_is_principal(self):
        box = RatBox((0, 0), (1, 1))
        assert higher_kinematic_rhs(TROMINO, box, 0) == principal_kinematic_rhs(
            TROMINO, box
        )

    def test_sampler_matches_exact_valuation(self):
        """Dual-route check: the vectorized per-sample evaluator, at the
        points it returns for a signed element g, must equal the independent
        clip-then-measure route at g's own draws, in every degree, on
        non-cube boxes and at resolutions other than 1."""
        rng = random.Random(77)
        # the n = 3 trials are the ones whose boxes are not cubes
        for n, trials in ((1, range(6)), (2, range(6)), (3, (2, 3, 7))):
            group = hyperoctahedral_group(n)
            for trial in trials:
                res = (1, F(1, 2), F(2, 3))[trial % 3]
                x = gen_random_convex(n, 3, 0.5, 300 + 10 * n + trial, resolution=res)
                box = gen_random_box(
                    n, 400 + 10 * n + trial, low=0, high=3, denominator=2, min_side=1,
                    resolution=res,
                )
                for k in range(n + 1):
                    for g in group if n < 3 else rng.sample(group, 6):
                        sampler = _ElementSampler(_ElementLayout(x, g.perm, k), box, bits=6)
                        t = np.asarray(
                            [[rng.randrange(0, 1 << sampler.bits) for _ in range(n)]
                             for _ in range(5)],
                            dtype=np.int64,
                        )
                        got = sampler.values(sampler.sample_points(t, g.signs))
                        draws = own_draws(x, g, box, sampler.scale, sampler.bits, t)
                        for row, v in zip(draws, got):
                            point = tuple(F(int(c), sampler.scale) for c in row)
                            exact = exact_clip_valuation(x, g, point, box, k)
                            assert F(int(v), sampler.scale**k) == exact

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["convex", "random"]),
        bits=st.sampled_from([16, 5]),
        shift=st.sampled_from([0, 2**45 - 3]),
        box_at_origin=st.booleans(),
        wide_box=st.booleans(),
        min_side=st.sampled_from([0, 1]),
        seed=st.integers(0, 10**6),
    )
    # the big-int kernel on a 3-D set, with one subspace of two complement axes
    @example(n=3, kind="random", bits=16, shift=0, box_at_origin=False, wide_box=True,
             min_side=1, seed=5)
    def test_values_match_reduceat_oracle(
        self, n, kind, bits, shift, box_at_origin, wide_box, min_side, seed
    ):
        """The complement-projection kernel of one sampler per permutation,
        at the reflected points it returns for each sign pattern, equals the
        (samples, cells) reduceat kernel on gX at g's own draws, integer for
        integer, for every degree and group element.  Cells near 2^45 sample
        at the depth asked for, with their box or with the box left at the
        origin; a box 2^45 wide on axis 0 runs on exact big-int arrays at 16
        bits."""
        res = (1, F(1, 2), F(2, 3))[seed % 3]
        if kind == "convex":
            base = gen_random_convex(n, 4, 0.5, seed, resolution=res)
        else:
            size = (2, 4**n // 4, 4**n // 2)[seed // 3 % 3]
            base = gen_random_cellset(n, 4, size, seed, resolution=res)
        x = CellSet(n, {tuple(v + shift for v in c) for c in base.cells}, res)
        low = 0 if box_at_origin else shift
        box = gen_random_box(n, seed, low=low, high=low + 4, min_side=min_side, resolution=res)
        if wide_box:
            box = RatBox(box.mins, (box.maxs[0] + 2**45, *box.maxs[1:]))
        rng = np.random.default_rng(seed)
        for k in range(n + 1):
            for perm in itertools.permutations(range(n)):
                sampler = _ElementSampler(_ElementLayout(x, perm, k), box, bits)
                assert sampler.bits == bits
                for signs in itertools.product((1, -1), repeat=n):
                    g = SignedPerm(perm, signs)
                    t = rng.integers(0, 1 << sampler.bits, size=(40, n), dtype=np.int64)
                    got = sampler.values(sampler.sample_points(t, signs))
                    draws = own_draws(x, g, box, sampler.scale, bits, t)
                    assert np.array_equal(got, reduceat_values(x, g, box, k, sampler.scale, draws))

    def test_far_coordinates_fall_back_to_a_safe_depth(self):
        """Far cells sample at 16 bits.  The sampler measures positions from
        the box and draws from the support, so a set runs on int64 wherever
        it and its box lie: at 2^47, 2^48 and 2^58 cells from the box, and
        with indices held as big ints at 2^70.  A set or a box whose own
        extent passes 2^63 once scaled runs on exact big-int arrays.  Every
        element samples the right place."""
        near = [
            (CellSet(1, {(2**47,), (2**47 + 1,)}), RatBox((2**47,), (2**47 + 3,))),
            (CellSet(1, {(2**48,), (2**48 + 1,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**58,), (2**58 + 1,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**70,)}), RatBox((2**70 - 1,), (2**70 + 2,))),
        ]
        wide = [
            (CellSet(1, {(0,), (2**47,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**70,), (2**70 + 1,)}), RatBox((2**70,), (2**70 + 2**47,))),
        ]
        t = np.arange(0, 1 << 16, 1 << 12, dtype=np.int64)[:, None]
        for (x, box), dtype in [*((c, np.int64) for c in near), *((c, object) for c in wide)]:
            sampler = _ElementSampler(_ElementLayout(x, (0,), 1), box)
            assert (sampler.bits, sampler.dtype) == (16, dtype)
            for g in hyperoctahedral_group(1):
                got = sampler.values(sampler.sample_points(t, g.signs))
                for row, v in zip(own_draws(x, g, box, sampler.scale, 16, t), got):
                    point = (F(int(row[0]), sampler.scale),)
                    assert F(int(v), sampler.scale) == exact_clip_valuation(x, g, point, box, 1)
        for x, box in near:
            est = kinematic_higher_mc(x, box, 1, 2000, seed=1)
            assert abs(est.estimate - float(est.exact_rhs)) <= 4 * est.standard_error

    def test_one_layout_per_permutation(self, monkeypatch):
        """The 2^n sign patterns of a permutation share its layout and
        sampler: n! layouts, not 2^n n!."""
        built = []

        class CountingLayout(_ElementLayout):
            def __init__(self, x, perm, k):
                built.append(tuple(perm))
                super().__init__(x, perm, k)

        monkeypatch.setattr(integral_geometry, "_ElementLayout", CountingLayout)
        for n in (1, 2, 3):
            built.clear()
            x = gen_random_convex(n, 3, 0.5, 610 + n)
            box = gen_random_box(n, 710 + n, low=0, high=3, denominator=2, min_side=1)
            kinematic_higher_mc(x, box, 1, 50, seed=n)
            assert built == list(itertools.permutations(range(n)))

    @pytest.mark.parametrize("k", range(4))
    def test_values_reuse_work_arrays(self, k):
        """A warmed ``values`` call on one 8,192-sample block of a kinematic
        suite instance allocates almost nothing: its (rows, samples) arrays
        live in the sampler's work arrays."""
        x, box = kinematic_instance(3, 0, 0, 5, 0.3)
        sampler = _ElementSampler(_ElementLayout(x, (0, 1, 2), k), box)
        t = np.random.default_rng(k).integers(0, 1 << 16, size=(8192, 3), dtype=np.int64)
        q = sampler.sample_points(t, (1, -1, 1))
        warm = sampler.values(q)
        tracemalloc.start()
        try:
            again = sampler.values(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again, warm)
        assert peak < 512 * 1024

    @pytest.mark.parametrize(
        "case, estimate, standard_error",
        [
            ("2d-k1", "13.944847696940105", "0.07341046009500701"),
            ("3d-k2", "366.3319693341819", "1.0349676733817101"),
            ("2d-far-k1", "22.573975116729738", "0.13947389909932176"),
            ("3d-half-k1", "29.57339695096016", "0.07672157586808195"),
        ],
    )
    def test_mc_golden(self, case, estimate, standard_error):
        """Pins the MC estimator bit for bit: the sampler kernel, the
        16-bit depth and the block RNG streams.  The far case sits near
        x = 2^45, with its box."""
        if case == "2d-k1":
            x = gen_random_convex(2, 3, 0.5, 601)
            box = gen_random_box(2, 701, low=0, high=3, denominator=2, min_side=1)
            k, samples, seed = 1, 3000, 11
        elif case == "3d-k2":
            x = gen_random_convex(3, 3, 0.5, 602)
            box = RatBox((0, F(1, 2), 0), (F(3, 2), 2, F(5, 2)))
            k, samples, seed = 2, 1500, 12
        elif case == "2d-far-k1":
            x = CellSet(2, {(2**45, 0), (2**45 + 1, 0), (2**45, 1)})
            box = RatBox((2**45, 0), (2**45 + F(3, 2), 2))
            k, samples, seed = 1, 1000, 3
        else:
            x = gen_random_convex(3, 3, 0.5, 603, resolution=F(1, 2))
            box = RatBox((0, 0, F(1, 3)), (1, F(3, 2), F(4, 3)))
            k, samples, seed = 1, 1000, 4
        est = kinematic_higher_mc(x, box, k, samples, seed=seed)
        assert repr(est.estimate) == estimate
        assert repr(est.standard_error) == standard_error

    def test_mc_determinism(self):
        box = RatBox((0, 0), (1, 1))
        a = kinematic_higher_mc(TROMINO, box, 1, 500, seed=5)
        b = kinematic_higher_mc(TROMINO, box, 1, 500, seed=5)
        c = kinematic_higher_mc(TROMINO, box, 1, 500, seed=6)
        assert a == b
        assert a.estimate != c.estimate

    def test_mc_within_tolerance(self):
        rng = random.Random(1)
        for trial in range(4):
            x = gen_random_convex(2, 3, 0.5, 600 + trial)
            box = gen_random_box(2, 700 + trial, low=0, high=3, denominator=2, min_side=1)
            k = 1 + trial % 2
            est = kinematic_higher_mc(x, box, k, 20000, seed=trial)
            assert est.exact_rhs == higher_kinematic_rhs(x, box, k)
            assert abs(est.estimate - float(est.exact_rhs)) <= 4 * est.standard_error

    def test_mc_metadata(self):
        box = RatBox((0, 0), (1, 1))
        est = kinematic_higher_mc(TROMINO, box, 1, 300, seed=9)
        assert est.samples == 300
        assert est.seed == 9
        assert est.standard_error > 0

    def test_dimension_zero(self):
        est = kinematic_higher_mc(CellSet(0, {()}), RatBox((), ()), 0, 10, seed=1)
        assert (est.estimate, est.standard_error, est.exact_rhs) == (1.0, 0.0, 1)

    def test_validation(self):
        box = RatBox((0, 0), (1, 1))
        with pytest.raises(ValueError):
            kinematic_higher_mc(TROMINO, box, 5, 100, seed=0)
        with pytest.raises(ValueError):
            kinematic_higher_mc(TROMINO, box, 1, 1, seed=0)
        with pytest.raises(ValueError):
            kinematic_higher_mc(TROMINO, RatBox((0,), (1,)), 1, 100, seed=0)


class TestMCEstimate:
    def test_z_score(self):
        est = MCEstimate(10.0, 2.0, 100, 0, F(8))
        assert est.z_score == pytest.approx(1.0)

    def test_z_score_zero_error_match(self):
        est = MCEstimate(8.0, 0.0, 100, 0, F(8))
        assert est.z_score == 0.0

    def test_z_score_zero_error_mismatch(self):
        est = MCEstimate(9.0, 0.0, 100, 0, F(8))
        assert math.isinf(est.z_score)
