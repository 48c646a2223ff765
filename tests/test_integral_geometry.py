"""Dilation, flat-integral, projection, and moving-set identities."""

import math
import random
import time
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
    is_l1_convex,
    kinematic_higher_mc,
    kinematic_principal,
    kubota_profile,
    kubota_sum,
    principal_kinematic_rhs,
    project,
    steiner_check,
    steiner_profile,
    union_volume,
)
from l1geo import integral_geometry
from l1geo.integral_geometry import _Sampler
from l1geo.suites import corpus_instance, exact_record, kinematic_instance
from l1geo.valuations import _additive_volumes

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


def estimator_samplers(x: CellSet, box: RatBox, k: int, elements, bits: int = 16):
    """(g, h, sampler) per signed element g, framed as ``kinematic_higher_mc``
    frames them: one sampler of X on the box I, and for h = g^-1 the frame
    whose sides are I's in h's order."""
    sampler = _Sampler(x, box, k, bits)
    for g in elements:
        h = g.inverse()
        sampler.frame(h.perm)
        yield g, h, sampler


def element_values(sampler: _Sampler, h: SignedPerm, t) -> np.ndarray:
    """The values of the element g = h^-1 at its draws ``t`` (one row per
    sample): the sampler's values at t with h's axes and h's signs."""
    return sampler.values(sampler.sample_points(t[:, list(h.perm)], h.signs))


def reduceat_values(x: CellSet, g: SignedPerm, box: RatBox, k: int, scale: int, q) -> np.ndarray:
    """Reference for ``_Sampler.values`` on exact big ints, built from
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

    def test_lhs_is_a_binomial_multiple_of_one_volume(self):
        """Fubini: the flat integral of V'_j is C(n-k+j, j) V'_{n-k+j}, with
        both sides the additive extension, on convex and non-convex sets."""
        sets = [gen_random_convex(2 + s % 2, 4, 0.5, 70 + s) for s in range(6)]
        sets += [x for x, _ in non_convex_controls(count=6)]
        for x in sets:
            n = x.dimension
            vol = _additive_volumes(x)
            for k in range(n + 1):
                lhs, _ = crofton_profile(x, k)
                assert lhs == tuple(math.comb(n - k + j, j) * vol[n - k + j] for j in range(k + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            crofton_integral(TROMINO, 1, 2)
        with pytest.raises(ValueError):
            crofton_profile(TROMINO, 3)


def projected_additive_lhs(x: CellSet, k: int) -> tuple[Fraction, ...]:
    """Reference for the lhs of ``kubota_profile``: the additive V'_j of each
    projection onto a coordinate k-subspace, each on its own grid."""
    lhs = [F(0)] * (k + 1)
    for sub in coordinate_subspaces(x.dimension, k):
        for j, v in enumerate(_additive_volumes(project(x, sub))):
            lhs[j] += v
    return tuple(lhs)


class TestKubota:
    def test_lhs_matches_projections_on_convex_corpus(self):
        for n in (2, 3):
            for i in range(30):
                x = corpus_instance(n, i, 0, 6, 0.4)
                for k in range(n + 1):
                    assert kubota_profile(x, k)[0] == projected_additive_lhs(x, k)

    def test_lhs_matches_projections_on_random_sets(self):
        for seed in range(40):
            n = 1 + seed % 3
            x = gen_random_cellset(n, 4, 1 + seed % 9, 1200 + seed, resolution=F(1, 1 + seed % 2))
            far = CellSet(n, [(c[0] + 2**62, *c[1:]) for c in x.cells], x.resolution)
            for k in range(n + 1):
                want = projected_additive_lhs(x, k)
                assert kubota_profile(x, k)[0] == kubota_profile(far, k)[0] == want

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


@pytest.mark.parametrize("profile", [crofton_profile, kubota_profile])
def test_profiles_of_empty_and_point_sets(profile):
    for k in range(3):
        assert profile(CellSet(2), k) == ((F(0),) * (k + 1),) * 2
    assert profile(CellSet(0, [()]), 0) == ((F(1),), (F(1),))


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
        """Dual-route check: the vectorized per-sample evaluator of X on the
        box hI, at the draws it returns for h = g^-1, must equal the
        independent clip-then-measure route on gX at g's own draws, in every
        degree, on non-cube boxes and at resolutions other than 1."""
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
                    elements = group if n < 3 else rng.sample(group, 6)
                    for g, h, sampler in estimator_samplers(x, box, k, elements, bits=6):
                        t = np.asarray(
                            [[rng.randrange(0, 1 << sampler.bits) for _ in range(n)]
                             for _ in range(5)],
                            dtype=np.int64,
                        )
                        got = element_values(sampler, h, t)
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
        widen=st.sampled_from([0, 2**20, 2**45]),
        min_side=st.sampled_from([0, 1]),
        seed=st.integers(0, 10**6),
    )
    # the int64 and the big-int kernel on a 3-D set, with one subspace of two
    # complement axes
    @example(n=3, kind="random", bits=16, shift=0, box_at_origin=False, widen=2**20,
             min_side=1, seed=5)
    @example(n=3, kind="random", bits=16, shift=0, box_at_origin=False, widen=2**45,
             min_side=1, seed=5)
    def test_values_match_reduceat_oracle(
        self, n, kind, bits, shift, box_at_origin, widen, min_side, seed
    ):
        """The complement-projection kernel on X's one layout, with the
        box hI and the draws relabelled and reflected by h = g^-1, equals the
        (samples, cells) reduceat kernel on gX at g's own draws, integer for
        integer, for every degree and group element.  Cells near 2^45 sample
        at the depth asked for, with their box or with the box left at the
        origin, on int32 arrays.  Widening the box on axis 0 by 2^20 runs on
        int64 arrays at 16 bits (int32 at 5), and by 2^45 on exact big-int
        arrays at 16 bits (int64 at 5)."""
        res = (1, F(1, 2), F(2, 3))[seed % 3]
        if kind == "convex":
            base = gen_random_convex(n, 4, 0.5, seed, resolution=res)
        else:
            size = (2, 4**n // 4, 4**n // 2)[seed // 3 % 3]
            base = gen_random_cellset(n, 4, size, seed, resolution=res)
        x = CellSet(n, {tuple(v + shift for v in c) for c in base.cells}, res)
        low = 0 if box_at_origin else shift
        box = gen_random_box(n, seed, low=low, high=low + 4, min_side=min_side, resolution=res)
        box = RatBox(box.mins, (box.maxs[0] + widen, *box.maxs[1:]))
        rng = np.random.default_rng(seed)
        for k in range(n + 1):
            for g, h, sampler in estimator_samplers(x, box, k, hyperoctahedral_group(n), bits):
                assert sampler.bits == bits
                t = rng.integers(0, 1 << sampler.bits, size=(40, n), dtype=np.int64)
                got = element_values(sampler, h, t)
                draws = own_draws(x, g, box, sampler.scale, bits, t)
                assert np.array_equal(got, reduceat_values(x, g, box, k, sampler.scale, draws))

    def test_far_coordinates_fall_back_to_a_safe_depth(self):
        """Far cells sample at 16 bits.  The sampler measures positions from
        the box and draws from the support, so a small set runs on int32
        wherever it and its box lie: at 2^47, 2^48 and 2^58 cells from the
        box, and with indices held as big ints at 2^70.  A set whose own
        extent passes 2^31 once scaled runs on int64, and a set or a box
        whose own extent passes 2^63 once scaled runs on exact big-int
        arrays.  Every element samples the right place."""
        near = [
            (CellSet(1, {(2**47,), (2**47 + 1,)}), RatBox((2**47,), (2**47 + 3,))),
            (CellSet(1, {(2**48,), (2**48 + 1,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**58,), (2**58 + 1,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**70,)}), RatBox((2**70 - 1,), (2**70 + 2,))),
        ]
        mid = [(CellSet(1, {(0,), (2**16,)}), RatBox((0,), (3,)))]
        wide = [
            (CellSet(1, {(0,), (2**47,)}), RatBox((0,), (3,))),
            (CellSet(1, {(2**70,), (2**70 + 1,)}), RatBox((2**70,), (2**70 + 2**47,))),
        ]
        t = np.arange(0, 1 << 16, 1 << 12, dtype=np.int64)[:, None]
        cases = [
            *((c, np.int32) for c in near),
            *((c, np.int64) for c in mid),
            *((c, object) for c in wide),
        ]
        for (x, box), dtype in cases:
            for g, h, sampler in estimator_samplers(x, box, 1, hyperoctahedral_group(1)):
                assert (sampler.bits, sampler.dtype) == (16, dtype)
                got = element_values(sampler, h, t)
                for row, v in zip(own_draws(x, g, box, sampler.scale, 16, t), got):
                    point = (F(int(row[0]), sampler.scale),)
                    assert F(int(v), sampler.scale) == exact_clip_valuation(x, g, point, box, 1)
        for x, box in near:
            est = kinematic_higher_mc(x, box, 1, 2000, seed=1)
            assert abs(est.estimate - float(est.exact_rhs)) <= 4 * est.standard_error

    @pytest.mark.parametrize("side, dtype", [(2**14 - 9, np.int32), (2**14 - 8, np.int64)])
    def test_int32_bound_boundary(self, monkeypatch, side, dtype):
        """Cells 0, 3 and 7 on a box of the given side: the sampler's bound,
        twice the scaled support (side + 8) * 2^16, is 2^31 - 2^17 and 2^31,
        so the sampler picks int32 and int64.  Its values, up to the far end
        of the support, equal the big-int oracle and those of a sampler made
        to take int64, integer for integer."""
        x = CellSet(1, {(0,), (3,), (7,)})
        box = RatBox((0,), (side,))
        t = np.asarray([[0], [1], [1 << 15], [(1 << 16) - 2], [(1 << 16) - 1]], dtype=np.int64)
        for k in (0, 1):
            sampler = _Sampler(x, box, k)
            monkeypatch.setattr(integral_geometry, "_INT32_SAFE", 0)
            twin = _Sampler(x, box, k)
            monkeypatch.undo()
            assert (sampler.dtype, twin.dtype) == (dtype, np.int64)
            for g in hyperoctahedral_group(1):
                h = g.inverse()
                sampler.frame(h.perm)
                twin.frame(h.perm)
                got = element_values(sampler, h, t)
                assert got.dtype == dtype
                draws = own_draws(x, g, box, sampler.scale, sampler.bits, t)
                assert np.array_equal(got, reduceat_values(x, g, box, k, sampler.scale, draws))
                assert np.array_equal(got.astype(np.int64), element_values(twin, h, t))

    @pytest.mark.parametrize("kind, dtype", [("int32", np.int32), ("int64", np.int64),
                                             ("big", object)])
    def test_cubes_touching_the_box(self, monkeypatch, kind, dtype):
        """Draws that put a cube's low corner exactly at -lam or exactly at
        the box's side on some axes, and inside it on the others: the cube
        meets the box in a face, an edge or a corner, where its unclamped
        length is 0, and it is live there.  Values equal the reduceat oracle
        at every degree on an int32 sampler (6 bits keep degree 3 in int32),
        one made to take int64, and a big-int one whose set lies 2^62 cells
        along the box's first axis."""
        for n in (1, 2, 3):
            lam = F(1, 2)
            x = gen_random_convex(n, 3, 0.5, 820 + n, resolution=lam)
            box = gen_random_box(n, 830 + n, low=0, high=3, denominator=2, min_side=1,
                                 resolution=lam)
            if kind == "big":
                shift = 2**62 * lam
                x = CellSet(n, {tuple(v + 2**62 for v in c) for c in x.cells}, lam)
                box = RatBox((box.mins[0], *(v + shift for v in box.mins[1:])),
                             tuple(v + shift for v in box.maxs))
            identity = SignedPerm(range(n), (1,) * n)
            cells = x.indices.astype(object)
            top = cells.max(axis=0)
            for k in range(n + 1):
                if kind == "int64":
                    monkeypatch.setattr(integral_geometry, "_INT32_SAFE", 0)
                sampler = _Sampler(x, box, k, bits=6)
                monkeypatch.undo()
                assert sampler.dtype == dtype
                sampler.frame(tuple(range(n)))
                lam_scaled = sampler.lam_scaled
                draws = []
                # the draw that puts the cube's low corner at pos on axis i,
                # from the support's low corner, where that cube lies at
                # (c_i - top_i - 1) * lam
                for c in cells:
                    for where in np.ndindex(*(3,) * n):
                        draws.append([
                            (-lam_scaled, side, 0)[w] - (int(ci) - int(hi) - 1) * lam_scaled
                            for w, ci, hi, side in zip(where, c, top, sampler.sides)
                        ])
                draws = np.asarray(draws, dtype=object)
                got = sampler.values(draws.T.astype(sampler.dtype))
                lows = [int((box.mins[i] - (int(top[i]) + 1) * lam) * sampler.scale)
                        for i in range(n)]
                want = reduceat_values(x, identity, box, k, sampler.scale, draws + lows)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_block_draws_a_prefix_of_the_stream(self, n):
        """A block of ``count`` samples draws (count, n) integers from its
        stream: NumPy fills bounded integers in order, so they are the first
        ``count`` rows of the stream's full ``_BLOCK_SIZE`` draw, and a
        NumPy that broke this would change every short block's samples."""
        high = 1 << integral_geometry._BITS
        for s, e, b in ((0, 0, 0), (11, 47, 2), (2**63 - 1, 3, 1)):
            def draw(rows):
                rng = np.random.default_rng(np.random.SeedSequence([s, e, b]))
                return rng.integers(0, high, size=(rows, n), dtype=np.int64)

            full = draw(integral_geometry._BLOCK_SIZE)
            for count in (1, 3616, 8191):
                assert np.array_equal(draw(count), full[:count])

    def test_one_sampler_per_call(self, monkeypatch):
        """Every group element shares one sampler of X on the box itself: one
        a call, not one per permutation."""
        built = []

        class CountingSampler(_Sampler):
            def __init__(self, x, box, k, bits=16):
                built.append((x, box))
                super().__init__(x, box, k, bits)

        monkeypatch.setattr(integral_geometry, "_Sampler", CountingSampler)
        for n in (1, 2, 3):
            built.clear()
            x = gen_random_convex(n, 3, 0.5, 610 + n)
            box = gen_random_box(n, 710 + n, low=0, high=3, denominator=2, min_side=1)
            kinematic_higher_mc(x, box, 1, 50, seed=n)
            assert built == [(x, box)]

    def test_incidence_budget_refuses_before_allocating(self, monkeypatch):
        """An L of one row and one column of 256 cells each, corner shared,
        has at k = 1 two subspaces of 256 segments, one of which lists 256
        projections: two 256 x 256 padded gate indices, 1 MB in all.  Under
        a 128 KB budget the call is refused, naming the bytes, and its peak
        stays below the budget, so neither index was allocated."""
        monkeypatch.setattr(integral_geometry, "_INCIDENCE_BUDGET", 1 << 17)
        x = CellSet(2, {(i, 0) for i in range(256)} | {(0, j) for j in range(256)})
        box = RatBox((0, 0), (2, 3))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1,048,576 bytes"):
                kinematic_higher_mc(x, box, 1, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 17

    def test_incidence_budget_refuses_a_large_l_at_once(self):
        """At the real budget an L of one row and one column of 8,192 cells
        each, whose padded gate indices would take 1 GB, is refused within a
        second."""
        x = CellSet(2, {(i, 0) for i in range(8192)} | {(0, j) for j in range(8192)})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1,073,741,824 bytes"):
            kinematic_higher_mc(x, RatBox((0, 0), (2, 3)), 1, 100, seed=0)
        assert time.perf_counter() - start < 1.0

    def test_sampler_takes_a_diagonal_of_8192_cells(self):
        """A 2-D diagonal of 8,192 cells lists one projection per segment:
        its gate indices hold m entries, and the sampler is built within a
        second at every degree.  Its values on a few draws along the
        diagonal, where the set meets the box, equal the reduceat oracle."""
        x = CellSet(2, {(i, i) for i in range(8192)})
        box = RatBox((0, 0), (2, 3))
        rng = np.random.default_rng(8192)
        t = rng.integers(0, 1 << 16, size=(6, 1), dtype=np.int64)
        t = np.hstack([t, t + rng.integers(-3, 4, size=t.shape)])
        for k in range(3):
            start = time.perf_counter()
            sampler = _Sampler(x, box, k)
            assert time.perf_counter() - start < 1.0
            for g in (SignedPerm((0, 1), (1, 1)), SignedPerm((1, 0), (-1, -1))):
                h = g.inverse()
                sampler.frame(h.perm)
                got = element_values(sampler, h, t)
                draws = own_draws(x, g, box, sampler.scale, sampler.bits, t)
                assert np.array_equal(got, reduceat_values(x, g, box, k, sampler.scale, draws))
                assert got.any()

    @pytest.mark.parametrize(
        "widen, bits, dtype", [(0, 6, np.int32), (2**20, 16, np.int64), (2**45, 16, object)]
    )
    def test_padded_gate_matches_reduceat_oracle(self, widen, bits, dtype):
        """Sets whose segments list different numbers of projections, so
        that the gate index pads its short rows, at every degree from k = 0
        (one segment) to k = n (no Q axes) and on the int32, int64 and
        big-int kernels (6 bits keep degree 3 in int32; widening the box by
        2^20 or 2^45 takes int64 or big ints).  Values equal the reduceat
        oracle for chunks of 1, 7, 9 and 3,617 samples, which liveness packs
        into a last byte of 1, 7, 1 and 1 samples, and for every short last
        chunk."""
        rng = np.random.default_rng(widen)
        cases = [
            CellSet(1, {(0,), (2,), (3,)}),
            CellSet(2, {(i, 0) for i in range(4)} | {(0, j) for j in range(4)}),
            gen_random_cellset(2, 5, 9, 31, resolution=F(1, 2)),
            gen_random_cellset(3, 4, 14, 32),
        ]
        for x in cases:
            n = x.dimension
            box = gen_random_box(n, 40 + n, low=0, high=4, min_side=1, resolution=x.resolution)
            box = RatBox(box.mins, (box.maxs[0] + widen, *box.maxs[1:]))
            padded = False
            for k in range(n + 1):
                sampler = _Sampler(x, box, k, bits)
                assert sampler.dtype == dtype
                padded |= any(
                    len(set(row)) < len(row) for _, index, _ in sampler.subspaces for row in index
                )
                elements = hyperoctahedral_group(n)
                for chunk, count in ((1, 3), (7, 15), (9, 20), (3617, 3626)):
                    g = elements[rng.integers(len(elements))]
                    h = g.inverse()
                    sampler.frame(h.perm)
                    sampler.chunk = chunk
                    t = rng.integers(0, 1 << sampler.bits, size=(count, n), dtype=np.int64)
                    got = element_values(sampler, h, t)
                    draws = own_draws(x, g, box, sampler.scale, sampler.bits, t)
                    assert np.array_equal(got, reduceat_values(x, g, box, k, sampler.scale, draws))
            assert padded == (n > 1)

    def test_bad_seed_or_samples_is_refused_by_name(self):
        """A negative seed and a float sample count are refused up front with
        a ValueError that names the argument."""
        x, box = TROMINO, RatBox((0, 0), (1, 1))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            kinematic_higher_mc(x, box, 1, 100, seed=-5)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            kinematic_higher_mc(x, box, 1, 100, seed=1.5)
        with pytest.raises(ValueError, match="samples must be an integer of at least 2"):
            kinematic_higher_mc(x, box, 1, 100.0, seed=0)
        with pytest.raises(ValueError, match="samples must be an integer of at least 2"):
            kinematic_higher_mc(x, box, 1, 1, seed=0)
        assert kinematic_higher_mc(x, box, 1, np.int64(100), seed=np.int64(3)).samples == 100

    def test_work_arrays_fit_the_budget(self):
        """A 2-D diagonal of 2,048 cells at k = 1 needs about 90 KB of work
        arrays a sample, 367 MB at 4,096 samples.  ``values`` takes the
        samples in chunks whose work arrays fit the incidence budget, and
        per-sample values do not depend on the chunk.  A kinematic suite
        set keeps chunks of 4,096."""
        x = CellSet(2, {(i, i) for i in range(2048)})
        sampler = _Sampler(x, RatBox((0, 0), (4, 3)), 1)
        sampler.frame((0, 1))
        t = np.random.default_rng(0).integers(0, 1 << 16, size=(4096, 2), dtype=np.int64)
        q = sampler.sample_points(t, (1, 1))
        tracemalloc.start()
        try:
            values = sampler.values(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= integral_geometry._INCIDENCE_BUDGET
        sampler.chunk = 3
        assert np.array_equal(sampler.values(q[:, :10]), values[:10])
        assert _Sampler(*kinematic_instance(3, 0, 0, 5, 0.3), 3).chunk == 4096

    def test_clamps_follow_the_samples_drawn(self):
        """The zeros and sides the clamps read are as wide as the widest
        chunk taken, not ``chunk``: on the 8,192-cell diagonal at 16 samples
        the estimate peaks under 8 MB under tracemalloc (about 101 MB when
        they took all 748 columns of a chunk), bit for bit as before.
        Widening them in a frame refills that frame's sides."""
        x = CellSet(2, {(i, i) for i in range(8192)})
        tracemalloc.start()
        try:
            est = kinematic_higher_mc(x, RatBox((0, 0), (256, 256)), 1, 16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (repr(est.estimate), repr(est.standard_error)) == ("905464296.0", "397348416.3990406")

        x, box = CellSet(2, {(0, 0), (1, 1), (1, 2)}), RatBox((0, 0), (2, 5))
        t = np.random.default_rng(5).integers(0, 1 << 16, size=(50, 2), dtype=np.int64)
        grown = _Sampler(x, box, 1)
        for order in ((0, 1), (1, 0)):
            grown.frame(order)
            q = grown.sample_points(t, (1, 1))
            grown.values(q[:, :3])
            fresh = _Sampler(x, box, 1)
            fresh.frame(order)
            assert np.array_equal(grown.values(q), fresh.values(q))
        assert grown.zeros.shape[1] == 50

    def test_chunk_takes_at_least_one_sample(self, monkeypatch):
        """Under a budget that holds the gate indices (32 bytes) but not one
        sample's work arrays (92 bytes), ``values`` takes one sample at a
        time, and the estimate is the same bit for bit."""
        x, box = CellSet(2, {(0, 0), (1, 1)}), RatBox((0, 0), (2, 3))
        est = kinematic_higher_mc(x, box, 1, 300, seed=4)
        monkeypatch.setattr(integral_geometry, "_INCIDENCE_BUDGET", 64)
        assert _Sampler(x, box, 1).chunk == 1
        assert kinematic_higher_mc(x, box, 1, 300, seed=4) == est

    @pytest.mark.parametrize("k", range(4))
    def test_values_reuse_work_arrays(self, k):
        """A warmed ``values`` call on one 8,192-sample block of a kinematic
        suite instance allocates almost nothing, in either of two frames with
        different sides: its (rows, samples) arrays live in work arrays that
        the sampler keeps across frames."""
        x, box = kinematic_instance(3, 0, 0, 5, 0.3)
        sampler = _Sampler(x, box, k)
        t = np.random.default_rng(k).integers(0, 1 << 16, size=(8192, 3), dtype=np.int64)
        warmed = []
        for g in (SignedPerm((1, 2, 0), (1, -1, 1)), SignedPerm((0, 1, 2), (-1, 1, 1))):
            h = g.inverse()
            sampler.frame(h.perm)
            q = sampler.sample_points(t[:, list(h.perm)], h.signs)
            warmed.append((h, q, sampler.values(q)))
        assert not np.array_equal(warmed[0][2], warmed[1][2])
        for h, q, warm in warmed:
            sampler.frame(h.perm)
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



def non_convex_controls(dimensions=(2, 3), count=20):
    """(x, box) for the seeded random cell sets that are not l1-convex, where
    the identities need not hold: 39 of the 40 at the defaults."""
    for n in dimensions:
        for s in range(count):
            x = gen_random_cellset(n, 4, 5, 900 + s)
            if not is_l1_convex(x):
                yield x, gen_random_box(n, 950 + s, low=0, high=3, denominator=2, min_side=1)


class TestNegativeControls:
    """The identity checks can fail: on non-convex sets their two sides
    differ."""

    def test_steiner_differs(self):
        controls = list(non_convex_controls())
        assert len(controls) == 39
        for x, _ in controls:
            lhs, rhs = steiner_profile(x, 1)
            assert list(lhs) != list(rhs)

    @pytest.mark.parametrize("profile", [crofton_profile, kubota_profile])
    def test_flat_and_projection_profiles_differ(self, profile):
        for x, _ in non_convex_controls():
            sides = [profile(x, k) for k in range(x.dimension + 1)]
            assert any(lhs != rhs for lhs, rhs in sides)

    @pytest.mark.parametrize("profile", [crofton_profile, kubota_profile])
    def test_two_cells_give_a_failing_record(self, profile):
        """Two separate cells have Euler characteristic 2, which an IVVector
        refuses: the profile still returns both sides, and the record fails."""
        x = CellSet(2, [(0, 0), (2, 0)])
        records = [exact_record(f"k={k}", *profile(x, k)) for k in range(3)]
        assert [r.passed for r in records] == [True, False, False]
        assert records[2].lhs == "(2, 4, 2)" and records[2].rhs == "(1, 3, 2)"

    def test_principal_kinematic_differs(self):
        for x, box in non_convex_controls():
            lhs, rhs = kinematic_principal(x, box)
            assert lhs != rhs

    def test_higher_kinematic_fails_its_gate(self):
        """The Monte Carlo estimate at k = 1 lies outside the suites' 4-sigma
        gate on five of the first six planar controls (|z| above 10)."""
        controls = list(non_convex_controls(dimensions=(2,), count=6))
        z = [kinematic_higher_mc(x, box, 1, 4000, seed=s).z_score
             for s, (x, box) in enumerate(controls)]
        assert sum(abs(v) > 4 for v in z) == 5

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
