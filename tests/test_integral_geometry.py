"""Dilation, flat-integral, projection, and moving-set identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from l1geo.integral_geometry import _ElementLayout, _ElementSampler, _fit_sampler

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


def reduceat_values(sampler: _ElementSampler, q_scaled: np.ndarray, k: int) -> np.ndarray:
    """Reference for ``_ElementSampler.values``: the per-axis liveness ANDed
    into one (samples, cells) array, then per subspace a gather of it into
    segment order and a logical-or reduceat over the segments."""
    layout = sampler.layout
    m, n = layout.ranks.shape
    lengths = []
    alive = np.ones((q_scaled.shape[0], m), dtype=bool)
    for i in range(n):
        lows = sampler.axis_lows[i][None, :] + q_scaled[:, i, None]
        lo = np.maximum(lows, sampler.box_lo[i])
        hi = np.minimum(lows + sampler.lam_scaled, sampler.box_hi[i])
        alive &= (hi - lo >= 0)[:, layout.ranks[:, i]]
        lengths.append(hi - lo)
    out = np.zeros(q_scaled.shape[0], dtype=np.int64)
    for sub in coordinate_subspaces(n, k):
        axes = list(sub.axes)
        order = np.lexsort(layout.ranks[:, axes].T[::-1]) if axes else np.arange(m)
        keys = layout.ranks[order][:, axes]
        new_seg = np.ones(m, dtype=bool)
        new_seg[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        starts = np.flatnonzero(new_seg)
        prod = np.logical_or.reduceat(alive[:, order], starts, axis=1).astype(np.int64)
        for i in axes:
            prod *= lengths[i][:, layout.ranks[order[starts], i]]
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
        """Dual-route check: the vectorized per-sample evaluator must equal
        the independent clip-then-measure route at every drawn point, in
        every degree, on non-cube boxes and at resolutions other than 1."""
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
                        sampler = _ElementSampler(_ElementLayout(x, g, k), box, bits=6)
                        t = np.asarray(
                            [[rng.randrange(0, 1 << sampler.bits) for _ in range(n)]
                             for _ in range(5)],
                            dtype=np.int64,
                        )
                        q_scaled = sampler.sample_points(t)
                        got = sampler.values(q_scaled)
                        for row, v in zip(q_scaled, got):
                            point = tuple(F(int(row[i]), sampler.scale) for i in range(n))
                            exact = exact_clip_valuation(x, g, point, box, k)
                            assert F(int(v), sampler.scale**k) == exact

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["convex", "random"]),
        bits=st.sampled_from([16, 5]),
        shift=st.sampled_from([0, 2**45 - 3]),
        min_side=st.sampled_from([0, 1]),
        seed=st.integers(0, 10**6),
    )
    def test_values_match_reduceat_oracle(self, n, kind, bits, shift, min_side, seed):
        """The complement-projection kernel equals the (samples, cells)
        reduceat kernel integer for integer, for every degree and group
        element; near 2^45 the 16-bit request falls back to a lower depth."""
        res = (1, F(1, 2), F(2, 3))[seed % 3]
        if kind == "convex":
            base = gen_random_convex(n, 4, 0.5, seed, resolution=res)
        else:
            size = (2, 4**n // 4, 4**n // 2)[seed // 3 % 3]
            base = gen_random_cellset(n, 4, size, seed, resolution=res)
        x = CellSet(n, {tuple(v + shift for v in c) for c in base.cells}, res)
        box = gen_random_box(
            n, seed, low=shift, high=shift + 4, min_side=min_side, resolution=res
        )
        rng = np.random.default_rng(seed)
        for k in range(n + 1):
            for g in hyperoctahedral_group(n):
                sampler = _fit_sampler(_ElementLayout(x, g, k), box, bits)
                if shift and bits == 16:
                    assert sampler.bits < bits
                t = rng.integers(0, 1 << sampler.bits, size=(40, n), dtype=np.int64)
                q_scaled = sampler.sample_points(t)
                got = sampler.values(q_scaled)
                assert np.array_equal(got, reduceat_values(sampler, q_scaled, k))

    def test_far_coordinates_fall_back_to_a_safe_depth(self):
        """Depths are chosen from exact extremes: at 16 bits the first set
        puts the box corner at 2^63 and the second wraps 2^48 * 2^16 in
        int64; both must drop to the depth that fits and sample the right
        place.  Sets at 2^58 and 2^70 fit no depth down to 4 bits."""
        cases = [
            (CellSet(1, {(2**47,), (2**47 + 1,)}), RatBox((2**47,), (2**47 + 3,)), [12, 11]),
            (CellSet(1, {(2**48,), (2**48 + 1,)}), RatBox((0,), (3,)), [11, 11]),
        ]
        for x, box, depths in cases:
            group = hyperoctahedral_group(1)
            samplers = [_fit_sampler(_ElementLayout(x, g, 1), box, 16) for g in group]
            assert [s.bits for s in samplers] == depths
            for g, sampler in zip(group, samplers):
                t = np.arange(0, 1 << sampler.bits, 1 << (sampler.bits - 4), dtype=np.int64)
                q_scaled = sampler.sample_points(t[:, None])
                for row, v in zip(q_scaled, sampler.values(q_scaled)):
                    point = (F(int(row[0]), sampler.scale),)
                    assert F(int(v), sampler.scale) == exact_clip_valuation(x, g, point, box, 1)
            est = kinematic_higher_mc(x, box, 1, 2000, seed=1)
            assert abs(est.estimate - float(est.exact_rhs)) <= 4 * est.standard_error
        for far in (CellSet(1, {(2**58,), (2**58 + 1,)}), CellSet(1, {(2**70,)})):
            with pytest.raises(ValueError, match="too large"):
                kinematic_higher_mc(far, RatBox((0,), (3,)), 1, 100, seed=0)

    @pytest.mark.parametrize(
        "case, estimate, standard_error",
        [
            ("2d-k1", "13.944847696940105", "0.07341046009500701"),
            ("3d-k2", "366.3319693341819", "1.0349676733817101"),
            ("2d-far-k1", "22.573916397094727", "0.13947131096509577"),
            ("3d-half-k1", "29.57339695096016", "0.07672157586808195"),
        ],
    )
    def test_mc_golden(self, case, estimate, standard_error):
        """Pins the MC estimator bit for bit: the sampler kernel, the bit
        depth chosen per group element and the block RNG streams.  The far
        case sits near x = 2^45, where the int64 bound drops the depth to
        13 bits."""
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
        # both block partitions are valid estimators of the same quantity
        small_blocks = kinematic_higher_mc(TROMINO, box, 1, 2000, seed=9, block_size=64)
        assert abs(small_blocks.estimate - float(small_blocks.exact_rhs)) <= (
            6 * small_blocks.standard_error
        )

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
