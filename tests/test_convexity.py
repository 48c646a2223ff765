"""Convexity decision procedure, repair, splitting, reachability oracle."""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo import (
    CellSet,
    all_pairs_monotone_reachable,
    boxunion_equal_pointsets,
    boxunion_intersection,
    cellset_boolean,
    cellset_to_boxunion,
    convexify,
    gen_random_cellset,
    gen_random_convex,
    is_l1_convex,
    RatBox,
    is_orthogonally_convex,
    monotone_reachable,
    split_halves,
)
from l1geo.convexity import (
    _PREFIX_GRID_LIMIT,
    _WAVEFRONT_CELLS,
    _compressed,
    _scan,
    _unreachable,
    _witness_direct,
    _witness_prefix,
)

F = Fraction


def fixpoint_reach(x: CellSet) -> np.ndarray:
    """Reference for ``all_pairs_monotone_reachable`` and ``_unreachable``: a
    Jacobi fixpoint over all 3^n - 1 king-move steps on dense m x m arrays,
    where reach[t, c] says cell c reaches target t (cells in sorted order).
    Each allowed step strictly decreases the taxicab distance to the target,
    so the fixpoint is reachability.  It runs on the cells translated to
    the origin (reachability is translation-invariant), so it is exact while
    the set's extent stays inside int64."""
    m = len(x.cells)
    arr = (x.indices - x.indices.min(axis=0)).astype(np.int64)
    n = x.dimension
    index = {tuple(map(int, arr[i])): i for i in range(m)}

    steps = [s for s in itertools.product((-1, 0, 1), repeat=n) if any(s)]
    neighbor = np.full((len(steps), m), -1, dtype=np.int64)
    for si, s in enumerate(steps):
        for ci in range(m):
            tgt = tuple(int(arr[ci, i] + s[i]) for i in range(n))
            neighbor[si, ci] = index.get(tgt, -1)

    diff = arr[:, None, :] - arr[None, :, :]  # diff[t, c, i] = t_i - c_i
    allowed = []
    for s in steps:
        ok = np.ones((m, m), dtype=bool)
        for i in range(n):
            if s[i] == 1:
                ok &= diff[:, :, i] >= 1
            elif s[i] == -1:
                ok &= diff[:, :, i] <= -1
        allowed.append(ok)

    reach = np.eye(m, dtype=bool)
    changed = True
    while changed:
        changed = False
        for si in range(len(steps)):
            nbr = neighbor[si]
            valid = nbr >= 0
            if not valid.any():
                continue
            gathered = np.zeros((m, m), dtype=bool)
            gathered[:, valid] = reach[:, nbr[valid]]
            upd = allowed[si] & gathered & ~reach
            if upd.any():
                reach |= upd
                changed = True
    return reach


def fixpoint_all_pairs(x: CellSet) -> bool:
    return len(x.cells) <= 1 or bool(fixpoint_reach(x).all())


def reach_case(n, kind, size, shift, seed) -> CellSet:
    """A small seeded set of one of five kinds, translated by ``shift``."""
    bound = 4 if n == 3 else 6
    if kind == "random":
        cells = gen_random_cellset(n, bound, size, seed).cells
    elif kind == "disconnected":
        # two random pieces two cells apart on axis 0
        left = gen_random_convex(n, 3, size / 40, seed).cells
        right = gen_random_cellset(n, 3, size % 9 + 1, seed).cells
        cells = left | {(c[0] + 5, *c[1:]) for c in right}
    else:
        cells = gen_random_convex(n, bound, size / 40, seed, mode=kind).cells
    return CellSet(n, {tuple(v + shift for v in c) for c in cells})


def large_case(n, kind, size, shift, seed) -> CellSet:
    """A seeded set of ``size`` cells: "convex" is the first cells of a box
    in the order of a random positive weighting (a down-set, so convex),
    "far" the same with its last cell moved far away, "random" a random
    set filling at least 2/3 of its box."""
    rng = random.Random(seed)
    if kind == "random":
        bound = next(b for b in itertools.count(2) if 2 * b**n >= 3 * size)
        cells = gen_random_cellset(n, bound, size, seed).cells
    else:
        bound = next(b for b in itertools.count(2) if b**n >= size)
        weights = [rng.randint(1, 4) for _ in range(n)]
        box = itertools.product(range(bound), repeat=n)
        cells = sorted(box, key=lambda c: (sum(w * v for w, v in zip(weights, c)), c))[:size]
        if kind == "far":
            cells[-1] = (bound + rng.randint(2, 9), *cells[-1][1:])
    return CellSet(n, {tuple(v + shift for v in c) for c in cells})


class TestIsConvex:
    def test_trivial(self):
        assert is_l1_convex(CellSet(2))
        assert is_l1_convex(CellSet(2, {(5, -3)}))
        assert is_l1_convex(CellSet(0, {()}))

    def test_examples(self):
        assert is_l1_convex(CellSet(2, {(0, 0), (1, 0), (0, 1)}))
        # touching only at a corner still counts: distance stays 1 per axis
        assert is_l1_convex(CellSet(2, {(0, 0), (1, 1)}))
        verdict = is_l1_convex(CellSet(2, {(0, 0), (2, 0)}))
        assert not verdict
        assert verdict.witness == ((0, 0), (2, 0))

    def test_row_and_gap(self):
        assert is_l1_convex(CellSet(1, {(0,), (1,), (2,)}))
        assert not is_l1_convex(CellSet(1, {(0,), (2,)}))

    def test_menger_needs_three(self):
        # the two far cells have only themselves between them
        x = CellSet(2, {(0, 0), (1, 1), (2, 2)})
        assert is_l1_convex(x)
        assert not is_l1_convex(CellSet(2, {(0, 0), (2, 2)}))

    def test_witness_is_lex_smallest(self):
        x = CellSet(2, {(0, 0), (2, 0), (5, 5), (9, 9)})
        verdict = is_l1_convex(x)
        assert verdict.witness == ((0, 0), (2, 0))

    def test_resolution_irrelevant(self):
        cells = {(0, 0), (1, 0), (0, 1)}
        assert bool(is_l1_convex(CellSet(2, cells, F(1, 7)))) == bool(
            is_l1_convex(CellSet(2, cells, F(3)))
        )

    def test_big_convex_box(self):
        cells = {(a, b) for a in range(12) for b in range(10)}
        assert is_l1_convex(CellSet(2, cells))

    def test_checkerboard_rejected(self):
        cells = {(a, b) for a in range(8) for b in range(8) if (a + b) % 2 == 0}
        assert not is_l1_convex(CellSet(2, cells))

    def test_far_cells(self):
        # the extent of these sets does not fit in int64, and from 2^63 on
        # neither do the indices: the verdicts stay exact
        row = {(i, 0) for i in range(50)}
        for t in (2**62, 2**63, 2**70):
            verdict = is_l1_convex(CellSet(2, row | {(-t, 0), (t, 0)}))
            assert verdict.witness == ((-t, 0), (0, 0))
            assert is_l1_convex(CellSet(2, {(t + i, -t - i) for i in range(50)}))
            assert is_l1_convex(CellSet(2, {(t, 0), (t + 1, 1), (t + 2, 1)}))
        assert is_l1_convex(CellSet(2, {(2**63, 0), (0, 0)})).witness == ((0, 0), (2**63, 0))
        verdict = is_l1_convex(CellSet(1, {(-(2**63) - 1,), (-(2**63) + 1,)}))
        assert verdict.witness == ((-(2**63) - 1,), (-(2**63) + 1,))
        assert is_l1_convex(CellSet(1, {(2**64 + i,) for i in range(-3, 3)}))

    def test_verdict_truthiness(self):
        assert bool(is_l1_convex(CellSet(1, {(0,)})))
        assert is_l1_convex(CellSet(1, {(0,), (3,)})).witness == ((0,), (3,))


class TestPathEquivalence:
    """The small-set scan and the prefix-sum grid are two routes to the same
    verdict; they must agree everywhere, witness included."""

    @staticmethod
    def _as_array(x):
        import numpy as np

        return np.asarray(x.sorted_cells(), dtype=np.int64)

    def test_random_agreement(self):
        rng = random.Random(5)
        for trial in range(300):
            n = rng.choice([1, 2, 3])
            bound = rng.randint(2, 5)
            count = rng.randint(1, min(3 ** n, bound**n))
            x = gen_random_cellset(n, bound, count, trial)
            if len(x.cells) < 2:
                continue
            arr = self._as_array(x)
            assert _witness_direct(arr) == _witness_prefix(arr)

    def test_agreement_on_convex(self):
        for seed in range(20):
            x = gen_random_convex(2, 6, 0.4, seed)
            if len(x.cells) < 2:
                continue
            arr = self._as_array(x)
            assert _witness_direct(arr) is None and _witness_prefix(arr) is None

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        count=st.integers(2, 80),
        spread=st.integers(0, 3),
        seed=st.integers(0, 10**6),
    )
    def test_scans_agree(self, n, count, spread, seed):
        # the smallest grid that holds `count` cells, widened by `spread`
        bound = next(b for b in range(2, 81) if b**n >= count) + spread
        comp = _compressed(gen_random_cellset(n, bound, count, seed).indices)
        assert _witness_direct(comp) == _witness_prefix(comp)
        direct, prefix = _witness_direct(comp, collect=True), _witness_prefix(comp, collect=True)
        assert np.array_equal(np.asarray(direct).reshape(-1, 2), np.asarray(prefix).reshape(-1, 2))

    @pytest.mark.parametrize("w, h", [(13, 12), (20, 13), (40, 30)])
    def test_chunked_scans(self, w, h):
        # a w x h box and one far cell: the only violating pair is the box
        # corner (w - 1, 0) with the far cell, an anchor past the first chunk
        far = (w + 60, 0)
        x = CellSet(2, {(a, b) for a in range(w) for b in range(h)} | {far})
        comp = _compressed(x.indices)
        pair = ((w - 1) * h, w * h)
        # the direct scan is too slow on the larger set, where only the
        # prefix scan splits its anchors into chunks
        scans = [_witness_direct, _witness_prefix] if w * h < 1000 else [_witness_prefix]
        if len(comp) >= _WAVEFRONT_CELLS:
            # the gated scan, and both scans on the unreachable pairs only:
            # the direct one takes 29 anchors a chunk at 261 cells, 1 at 1,201
            rows = _unreachable(comp)
            scans.append(_scan)
            scans += [functools.partial(f, unreachable=rows) for f in (_witness_direct, _witness_prefix)]
        for scan in scans:
            assert scan(comp) == pair
            assert np.array_equal(scan(comp, collect=True), [pair])
        assert is_l1_convex(x).witness == ((w - 1, 0), far)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["convex", "random", "far"]),
        size=st.integers(_WAVEFRONT_CELLS, 600),
        shift=st.sampled_from([0, 2**62]),
        seed=st.integers(0, 10**6),
    )
    def test_gated_scan_matches_ungated(self, n, kind, size, shift, seed):
        x = large_case(n, kind, size, shift, seed)
        assert len(x.cells) == size
        comp = _compressed(x.indices)
        grid = int(np.prod(comp.max(axis=0) + 1, dtype=object))
        ungated = _witness_prefix if grid <= _PREFIX_GRID_LIMIT else _witness_direct
        witness = ungated(comp)
        assert (witness is None) == (kind == "convex")
        assert _scan(comp) == witness
        pairs = np.asarray(ungated(comp, collect=True)).reshape(-1, 2)
        assert np.array_equal(np.asarray(_scan(comp, collect=True)).reshape(-1, 2), pairs)
        if witness is not None:
            # the direct scan on the unreachable pairs, 5 to 30 anchors a
            # chunk here, so every chunk but the first reads rows past 0
            restricted = _witness_direct(comp, collect=True, unreachable=_unreachable(comp))
            assert np.array_equal(restricted, pairs)


class TestConvexify:
    def test_already_convex_unchanged(self):
        x = CellSet(2, {(0, 0), (1, 0)})
        assert convexify(x).sorted_cells() == x.sorted_cells()

    def test_fills_gap(self):
        out = convexify(CellSet(1, {(0,), (2,)}))
        assert out.sorted_cells() == ((0,), (1,), (2,))

    def test_diagonal_fill(self):
        out = convexify(CellSet(2, {(0, 0), (2, 2)}))
        assert is_l1_convex(out)
        assert (1, 1) in out.cells
        assert set(CellSet(2, {(0, 0), (2, 2)}).cells) <= out.cells

    def test_result_convex_and_contains_input(self):
        rng = random.Random(9)
        for trial in range(60):
            n = rng.choice([1, 2, 3])
            x = gen_random_cellset(n, 5, rng.randint(1, 10), 1000 + trial)
            out = convexify(x)
            assert x.cells <= out.cells
            assert is_l1_convex(out)
            assert out.resolution == x.resolution

    def test_idempotent(self):
        x = gen_random_cellset(2, 6, 9, 42)
        once = convexify(x)
        assert convexify(once).sorted_cells() == once.sorted_cells()

    def test_bound_respected_and_violated(self):
        x = CellSet(2, {(0, 0), (3, 3)})
        out = convexify(x, bound=RatBox((0, 0), (4, 4)))
        assert is_l1_convex(out)
        assert all(0 <= c[i] <= 3 for c in out.cells for i in range(2))
        with pytest.raises(ValueError):
            convexify(x, bound=RatBox((0, 0), (2, 2)))

    def test_empty(self):
        assert convexify(CellSet(3)).is_empty

    def test_far_cells(self):
        t = 2**62
        out = convexify(CellSet(1, {(t,), (t + 4,)}))
        assert out.sorted_cells() == tuple((t + i,) for i in range(5))
        row = {(i, 0) for i in range(50)}
        with pytest.raises(ValueError, match="convex result"):
            convexify(CellSet(2, row | {(-t, 0), (t, 0)}))


class TestSplitHalves:
    def test_tromino(self):
        x = CellSet(2, {(0, 0), (1, 0), (0, 1)})
        upper, lower = split_halves(x, 0, 1)
        assert upper.sorted_cells() == ((1, 0),)
        assert lower.sorted_cells() == ((0, 0), (0, 1))
        assert is_l1_convex(upper) and is_l1_convex(lower)

    def test_row(self):
        x = CellSet(2, {(0, 0), (1, 0), (2, 0)})
        upper, lower = split_halves(x, 0, 1)
        assert upper.sorted_cells() == ((1, 0), (2, 0))
        assert lower.sorted_cells() == ((0, 0),)

    def test_halves_of_convex_are_convex(self):
        for seed in range(40):
            n = 2 + seed % 2
            x = gen_random_convex(n, 5, 0.4, seed, mode=("blob", "staircase")[seed % 2])
            axis = seed % n
            values = sorted({c[axis] for c in x.cells})
            t = values[len(values) // 2]
            upper, lower = split_halves(x, axis, t)
            assert is_l1_convex(upper) and is_l1_convex(lower)
            assert upper.cells | lower.cells == x.cells
            assert not (upper.cells & lower.cells)


class TestOrthogonal:
    def test_examples(self):
        assert is_orthogonally_convex(CellSet(2, {(0, 0), (1, 0), (0, 1)}))
        assert not is_orthogonally_convex(CellSet(2, {(0, 0), (2, 0)}))
        # orthogonally convex but not convex: two diagonal staircase arms
        x = CellSet(2, {(0, 0), (2, 1)})
        assert is_orthogonally_convex(x)
        assert not is_l1_convex(x)

    def test_convex_implies_orthogonal(self):
        for seed in range(30):
            x = gen_random_convex(2 + seed % 2, 5, 0.4, 77 + seed)
            assert is_orthogonally_convex(x)


class TestReachability:
    def test_basics(self):
        x = CellSet(2, {(0, 0), (1, 1)})
        assert monotone_reachable(x, (0, 0), (0, 0))
        assert monotone_reachable(x, (0, 0), (1, 1))
        gap = CellSet(2, {(0, 0), (2, 0)})
        assert not monotone_reachable(gap, (0, 0), (2, 0))
        with pytest.raises(ValueError):
            monotone_reachable(x, (0, 0), (5, 5))

    def test_monotonicity_constraint(self):
        # a path exists but requires backtracking, so it must be rejected:
        # from (0,0) to (2,0) via (1,1) the y coordinate rises then falls
        x = CellSet(2, {(0, 0), (1, 1), (2, 0)})
        assert not monotone_reachable(x, (0, 0), (2, 0))

    def test_all_pairs_matches_pairwise(self):
        rng = random.Random(3)
        for trial in range(120):
            n = rng.choice([1, 2, 3])
            x = gen_random_cellset(n, 4, rng.randint(1, 9), 500 + trial)
            if x.is_empty:
                continue
            cells = x.sorted_cells()
            expected = all(
                monotone_reachable(x, a, b) for a in cells for b in cells
            )
            assert all_pairs_monotone_reachable(x) == expected

    def test_convex_implies_reachable(self):
        for seed in range(60):
            n = 2 + seed % 2
            x = gen_random_convex(n, 5, 0.4, 900 + seed, mode=("blob", "staircase", "ball")[seed % 3])
            assert all_pairs_monotone_reachable(x)

    @pytest.mark.parametrize("n", [1, 2])
    def test_far_cells(self, n):
        # 2^64 - 1 apart on axis 0: the difference wraps around in int64
        pad = (0,) * (n - 1)
        x = CellSet(n, {(2**63 - 1, *pad), (-(2**63), *pad)})
        assert not monotone_reachable(x, (2**63 - 1, *pad), (-(2**63), *pad))
        assert not all_pairs_monotone_reachable(x)
        near = CellSet(n, {(2**63 - 1, *pad), (2**63 - 2, *pad)})
        assert all_pairs_monotone_reachable(near)
        # indices outside int64 get exact verdicts too
        for far in (2**63, -(2**63) - 1, 2**70):
            x = CellSet(n, {(far, *pad), (0, *pad)})
            assert not monotone_reachable(x, (far, *pad), (0, *pad))
            assert not all_pairs_monotone_reachable(x)
            run = CellSet(n, {(far + i, *pad) for i in range(3)})
            assert all(monotone_reachable(run, a, b) for a in run.cells for b in run.cells)
            assert all_pairs_monotone_reachable(run)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["random", "disconnected", "staircase", "blob", "ball"]),
        size=st.integers(1, 40),
        shift=st.sampled_from([0, 2**62, -(2**62), 2**64 + 3, -(2**70)]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_fixpoint_and_pairwise(self, n, kind, size, shift, seed):
        x = reach_case(n, kind, size, shift, seed)
        got = all_pairs_monotone_reachable(x)
        assert got == fixpoint_all_pairs(x)
        ordered = x.sorted_cells()
        assert got == all(monotone_reachable(x, a, b) for a in ordered for b in ordered)
        if kind == "disconnected":
            assert not got

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["random", "disconnected", "staircase", "blob", "ball"]),
        size=st.integers(2, 40),
        shift=st.sampled_from([0, 2**62]),
        seed=st.integers(0, 10**6),
    )
    def test_unreachable_rows_match_fixpoint(self, n, kind, size, shift, seed):
        # the wavefront that all_pairs_monotone_reachable and the gated
        # convexity scan share, pair by pair against the dense fixpoint
        x = reach_case(n, kind, size, shift, seed)
        m = len(x.cells)
        if m < 2:
            return
        rows = _unreachable(_compressed(x.indices))
        missing = ~fixpoint_reach(x)                # symmetric: paths reverse
        got = np.zeros((m, m), dtype=bool)
        if rows is not None:
            assert rows.shape == (m, (m + 7) // 8)
            got = np.unpackbits(rows, axis=1, count=m).view(bool)
        assert not (got & ~missing).any()           # every marked pair is unreachable
        assert np.array_equal(np.triu(got), np.triu(missing))  # every pair c < t is in row c
        assert all_pairs_monotone_reachable(x) == (rows is None) == (not missing.any())

    def test_memory_is_bounded(self):
        # the dense fixpoint kept (3^n - 1) m x m boolean arrays: ~650 MB here
        x = CellSet(3, set(itertools.product(range(25), range(20), range(10))))
        assert len(x.cells) == 5000
        tracemalloc.start()
        try:
            assert all_pairs_monotone_reachable(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestIndexLevelCounterexamples:
    """Regression pins for cell-level renderings that are false in general:
    the point-set statements hold, the index-level ones need a filter."""

    A = CellSet(2, {(0, 0), (0, 1), (1, 2)})
    B = CellSet(2, {(0, 0), (1, 1), (1, 2)})

    def test_hypotheses_hold(self):
        union = cellset_boolean(self.A, self.B, "union")
        assert is_l1_convex(self.A) and is_l1_convex(self.B) and is_l1_convex(union)

    def test_cell_intersection_not_convex(self):
        inter = cellset_boolean(self.A, self.B, "intersection")
        assert inter.sorted_cells() == ((0, 0), (1, 2))
        assert not is_l1_convex(inter)

    def test_faithfulness_filter_catches_it(self):
        inter = cellset_boolean(self.A, self.B, "intersection")
        point = boxunion_intersection(
            cellset_to_boxunion(self.A), cellset_to_boxunion(self.B)
        )
        # the point intersection keeps a shared face the cells cannot express,
        # which is exactly what the filter detects
        assert not boxunion_equal_pointsets(point, cellset_to_boxunion(inter))
