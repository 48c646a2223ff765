"""Convexity decision procedure, repair, splitting, reachability oracle."""

import functools
import itertools
import random
import time
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
from l1geo import convexity
from l1geo._util import MEMO
from l1geo.convexity import (
    _CERTIFIED_CELLS,
    ConvexityVerdict,
    _CERTIFIED_DIMENSIONS,
    _PREFIX_GRID_LIMIT,
    _WAVEFRONT_CELLS,
    _certified,
    _compressed,
    _neighbours,
    _scan,
    _steps,
    _unreachable,
    _wavefront_bytes,
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


def unmemoized_verdict(x: CellSet) -> ConvexityVerdict:
    """The verdict of ``is_l1_convex`` from a fresh witness scan."""
    hit = _scan(_compressed(x.indices)) if len(x) > 1 else None
    if hit is None:
        return ConvexityVerdict(True, None)
    a, b = x.indices[list(hit)].tolist()
    return ConvexityVerdict(False, (tuple(a), tuple(b)))


@st.composite
def memo_sets(draw):
    """Sets of 2 to 70 cells in 1 to 4 dimensions, packed or stretched
    apart, half of them made convex. Only sets whose bounding box holds at
    most 4,096 cells are made convex: a hull fills up to its whole box, and
    ``convexify`` refuses a hull whose wavefront passes its byte budget."""
    n = draw(st.integers(1, 4))
    side = draw(st.sampled_from([3, 5, 9]))
    stretch = draw(st.sampled_from([1, 3]))
    cells = draw(st.sets(st.tuples(*[st.integers(0, side - 1)] * n), min_size=2, max_size=70))
    x = CellSet(n, {tuple(stretch * v for v in c) for c in cells})
    small_box = (stretch * (side - 1) + 1) ** n <= 4096
    return convexify(x) if small_box and draw(st.booleans()) else x


class TestVerdictMemo:
    """Below ``_CERTIFIED_CELLS`` cells an int64 set's scan is memoized on
    its dimension and index bytes; nothing else changes."""

    @settings(max_examples=80, deadline=None)
    @given(memo_sets())
    def test_memoized_verdict_matches_the_scan(self, x):
        MEMO.clear()
        expected = unmemoized_verdict(x)
        for _ in range(2):  # a miss, then a hit
            assert is_l1_convex(x) == expected
        assert len(MEMO) == (len(x) < _CERTIFIED_CELLS)

    def test_dimension_is_part_of_the_key(self):
        """A 2-D set of 3 cells and a 3-D set of 2 with the same index
        bytes: the first is convex, the second is not."""
        plane = CellSet(2, {(0, 1), (1, 2), (2, 2)})
        space = CellSet(3, {(0, 1, 1), (2, 2, 2)})
        assert plane.indices.tobytes() == space.indices.tobytes()
        MEMO.clear()
        for _ in range(2):
            assert is_l1_convex(plane) == ConvexityVerdict(True, None)
            assert is_l1_convex(space) == ConvexityVerdict(False, ((0, 1, 1), (2, 2, 2)))
        assert len(MEMO) == 2

    def test_resolutions_share_a_verdict(self):
        cells = {(0, 0), (2, 0), (2, 1), (0, 3)}
        MEMO.clear()
        verdicts = {is_l1_convex(CellSet(2, cells, lam)) for lam in (1, F(1, 7), F(3, 2))}
        assert verdicts == {ConvexityVerdict(False, ((0, 0), (0, 3)))}
        assert len(MEMO) == 1

    @pytest.mark.parametrize("far", [False, True])
    def test_63_cells_kept_64_not(self, far):
        """A 9 x 7 block (63 cells) is memoized and an 8 x 8 one (64) is
        not; with a corner cell moved far off the block, neither is convex."""
        MEMO.clear()
        for w, h in ((9, 7), (8, 8)):
            cells = {(a, b) for a in range(w) for b in range(h)}
            if far:
                cells = cells - {(w - 1, h - 1)} | {(w + 9, 0)}
            x = CellSet(2, cells)
            expected = unmemoized_verdict(x)
            assert expected.is_convex != far
            before = len(MEMO)
            assert is_l1_convex(x) == expected and is_l1_convex(x) == expected
            assert len(MEMO) - before == (len(x) == 63)

    def test_big_int_sets_bypass_the_memo(self):
        """Indices from 2^62 on are big ints (object dtype): not memoized,
        and decided exactly."""
        t = 2**62
        convex = CellSet(2, {(t + i, i // 2) for i in range(10)})
        gapped = CellSet(2, {(t, 0), (t + 1, 0), (t + 3, 0)})
        assert convex.indices.dtype == object and gapped.indices.dtype == object
        MEMO.clear()
        for _ in range(2):
            assert is_l1_convex(convex) == ConvexityVerdict(True, None)
            assert is_l1_convex(gapped) == ConvexityVerdict(False, ((t + 1, 0), (t + 3, 0)))
        assert len(MEMO) == 0


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
        self.check_gated(_compressed(x.indices), kind == "convex")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(["convex", "random", "far"]),
        size=st.integers(_CERTIFIED_CELLS, _WAVEFRONT_CELLS - 1),
        shift=st.sampled_from([0, 2**62]),
        seed=st.integers(0, 10**6),
    )
    def test_certified_scan_matches_ungated(self, n, kind, size, shift, seed):
        # below the wavefront's size the certificate passes a convex set,
        # and a set it fails takes the witness scans as on fewer cells
        x = large_case(n, kind, size, shift, seed)
        assert len(x.cells) == size
        self.check_gated(_compressed(x.indices), kind == "convex")

    @pytest.mark.parametrize("far", [False, True])
    def test_scan_past_the_certified_dimensions(self, far):
        # the 64 cells of {0, 1}^6, the last moved far along axis 0 or not:
        # the certificate does not apply, so the witness scans decide
        rows = np.array(list(itertools.product((0, 1), repeat=_CERTIFIED_DIMENSIONS + 1)))
        if far:
            rows[-1, 0] = 5
        comp = _compressed(rows)
        assert len(comp) == _CERTIFIED_CELLS and _certified(comp) is None
        self.check_gated(comp, not far)

    @pytest.mark.parametrize(
        "sides, where",
        [((30, 10), "last"), ((18, 3, 5), "last"), ((8, 40), "late"), ((7, 6, 7), "late"), ((4, 4, 4, 5), "late")],
        ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)),
    )
    @pytest.mark.parametrize("shift", [0, 2**62], ids=["near", "far"])
    def test_restricted_scan_skips_anchor_chunks(self, sides, where, shift, monkeypatch):
        # a box with the cell (w - 1, 1, 0, ...) taken out of its last slice
        # on axis 0: only pairs within that slice are unreachable, so every
        # anchor chunk before the slice's first cell has no candidate pair
        n, w = len(sides), sides[0]
        hole = (w - 1, 1) + (0,) * (n - 2)
        box = {tuple(v + shift for v in c) for c in itertools.product(*map(range, sides))}
        x = CellSet(n, box - {tuple(v + shift for v in hole)})
        comp = _compressed(x.indices)
        rows = _unreachable(comp)
        live = rows.any(axis=1)
        first = (w - 1) * int(np.prod(sides[1:]))  # the row of cell (w - 1, 0, ...)
        assert len(comp) >= _WAVEFRONT_CELLS and np.argmax(live) == first
        chunks, pairs = [], convexity._pairs

        def spy(anchors, later, start, unreachable):
            chunks.append((start, start + len(anchors)))
            return pairs(anchors, later, start, unreachable)

        monkeypatch.setattr(convexity, "_pairs", spy)
        for scan in (_witness_direct, _witness_prefix):
            for collect in (False, True):
                chunks.clear()
                scan(comp, collect, rows)
                # the first chunk taken holds the first unreachable row, and
                # only chunks with an unreachable row are taken
                assert chunks[0][0] <= first < chunks[0][1] and all(live[a:b].any() for a, b in chunks)
                taken = np.zeros(len(comp), dtype=bool)
                for a, b in chunks:
                    taken[a:b] = True
                assert not collect or not (live & ~taken).any()
                # it is the scan's last chunk, or one before the last
                assert (chunks[0][1] == len(comp)) == (where == "last")
        monkeypatch.undo()
        self.check_gated(comp, convex=False)
        corner = tuple(v + shift for v in hole)
        below, above = (corner[0], corner[1] - 1, *corner[2:]), (corner[0], corner[1] + 1, *corner[2:])
        assert is_l1_convex(x).witness == (below, above)
        assert convexify(x) == CellSet(n, box)

    @staticmethod
    def check_gated(comp, convex):
        """``_scan`` gives the witness and the collected pairs of the
        ungated prefix (or, on a large grid, direct) scan, and so do both
        scans restricted to the unreachable pairs."""
        grid = int(np.prod(comp.max(axis=0) + 1, dtype=object))
        ungated = _witness_prefix if grid <= _PREFIX_GRID_LIMIT else _witness_direct
        witness = ungated(comp)
        assert (witness is None) == convex
        assert _scan(comp) == witness
        pairs = np.asarray(ungated(comp, collect=True)).reshape(-1, 2)
        assert np.array_equal(np.asarray(_scan(comp, collect=True)).reshape(-1, 2), pairs)
        if witness is not None:
            # on the unreachable pairs, 5 to 30 anchors a chunk in the direct
            # scan from 256 cells, so every chunk but the first reads rows
            # past 0, and the chunks with no unreachable pair are skipped
            rows = _unreachable(comp)
            for scan in (_witness_direct, _witness_prefix)[: 2 if grid <= _PREFIX_GRID_LIMIT else 1]:
                assert scan(comp, unreachable=rows) == witness
                assert np.array_equal(scan(comp, collect=True, unreachable=rows), pairs)


def along_axis_compressed(rows: np.ndarray) -> np.ndarray:
    """Reference for ``_compressed``: the same steps, gathered and scattered
    with ``take_along_axis`` and ``put_along_axis``."""
    order = np.argsort(rows, axis=0, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=0)
    gaps = ranked[1:] - ranked[:-1]
    steps = (gaps > 0).astype(np.int64) + (gaps > 1)
    comp = np.empty(rows.shape, dtype=np.int64)
    np.put_along_axis(
        comp, order, np.concatenate((np.zeros_like(comp[:1]), np.cumsum(steps, axis=0))), axis=0
    )
    return comp


def triu_pairs(anchors: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Reference for ``_pairs`` without reachability rows: the far mask cut to
    the upper triangle by ``np.triu``."""
    far = np.abs(anchors[:, None, :] - later[None, :, :]).max(axis=2) >= 2
    return far & np.triu(np.ones(far.shape, dtype=bool), k=1)


class TestScanHelpers:
    @staticmethod
    def arrays():
        for seed in range(30):
            n = 1 + seed % 3
            rows = gen_random_cellset(n, 5, 1 + seed, 700 + seed).indices
            yield rows
            yield (rows.astype(object) * 2**70) - 2**80  # big ints, gaps far above 1
        yield np.zeros((0, 2), dtype=np.int64)

    def test_compressed_matches_along_axis(self):
        for rows in self.arrays():
            got = _compressed(rows)
            assert got.dtype == np.int64
            assert np.array_equal(got, along_axis_compressed(rows))

    def test_pairs_matches_triu(self):
        for rows in self.arrays():
            comp = _compressed(rows)
            for arr in (rows, comp):
                for start in range(0, len(arr), 4):
                    anchors, later = arr[start:start + 4], arr[start:]
                    got = convexity._pairs(anchors, later, start, None)
                    assert np.array_equal(got, triu_pairs(anchors, later))


class TestPrefixTable:
    def test_table_memory(self):
        # 1,500 cells on a diagonal, 2 apart on both axes, make a 3,000 x
        # 3,000 prefix table; the scan used to build an int32 grid of 2,999^2
        # entries and an int32 padded copy of it
        comp = np.repeat(np.arange(0, 3000, 2)[:, None], 2, axis=1)
        tracemalloc.start()
        try:
            pairs = _witness_prefix(comp, collect=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(pairs, np.column_stack((np.arange(1499), np.arange(1, 1500))))
        assert peak <= 4 * 2999**2 + 4 * 3000**2


class TestWavefrontBudget:
    def test_refuses_before_allocating(self, monkeypatch):
        """With the budget at 1 MB, each entry point of the wavefront refuses
        a set whose rows would take 4 to 11 MB, with a ValueError naming the
        cell count, before it allocates as much as the budget.  The sets are
        ones the local certificate does not pass: a block with a hole, which
        it rejects, and a 6-D cube, where it does not apply."""
        monkeypatch.setattr(convexity, "_WAVEFRONT_BYTES", 1 << 20)
        holed = CellSet(2, set(itertools.product(range(40), range(50))) - {(20, 25)})
        cube = CellSet(6, itertools.product(range(3), repeat=6))
        cases = [
            (is_l1_convex, holed, 1999),
            (all_pairs_monotone_reachable, cube, 729),
            (convexify, CellSet(2, [(0, 0), (3000, 0)]), 3001),
        ]
        for call, x, count in cases:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=rf"wavefront over {count} cells"):
                    call(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("n, side", [(3, 12), (4, 6), (5, 4), (6, 3)])
    def test_peak_within_bound(self, n, side):
        """The bound the budget is checked against holds the wavefront's
        arrays, the neighbour lookup's included: on full cubes of 729 to
        1,728 cells in dimensions 3 to 6, where the lookup's (steps, m)
        arrays outgrow the bit rows from n = 5 on."""
        comp = _compressed(np.array(list(itertools.product(range(side), repeat=n))))
        tracemalloc.start()
        try:
            assert _unreachable(comp) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _wavefront_bytes(len(comp), n)

    def test_block_past_the_budget_is_certified(self):
        """A 200 x 200 block: its wavefront would take 1.6 GB, past the
        budget, but the local certificate passes it in a few megabytes."""
        x = CellSet(2, itertools.product(range(200), range(200)))
        assert _wavefront_bytes(len(x), 2) > convexity._WAVEFRONT_BYTES
        for call in (is_l1_convex, all_pairs_monotone_reachable):
            tracemalloc.start()
            try:
                assert call(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_far_convexify_refuses_at_once(self):
        # the result would hold a path of 10^6 + 1 cells: 10^12 bytes of rows
        start = time.perf_counter()
        with pytest.raises(ValueError, match="convex result"):
            convexify(CellSet(2, [(0, 0), (10**6, 0)]))
        assert time.perf_counter() - start < 1


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

    def test_bound_violation_names_the_smallest_outside_cell(self):
        x = CellSet(2, {(0, 0), (3, 3), (2, -1), (3, 0)})
        with pytest.raises(ValueError, match=r"^cell \(2, -1\) lies outside the stated bound$"):
            convexify(x, bound=RatBox((0, 0), (3, 3)))
        far = CellSet(2, {(0, 0), (2**70, 1), (2**70, 0)})
        with pytest.raises(ValueError, match=rf"^cell \({2**70}, 0\) lies outside the stated bound$"):
            convexify(far, bound=RatBox((0, 0), (2, 2)))

    def test_empty(self):
        assert convexify(CellSet(3)).is_empty
        assert convexify(CellSet(2), bound=RatBox((0, 0), (1, 1))).is_empty

    def test_bound_dimension_checked_on_the_empty_set(self):
        for x in (CellSet(2), CellSet(2, [(0, 0)])):
            with pytest.raises(ValueError, match="bound dimension mismatch"):
                convexify(x, bound=RatBox((0,), (1,)))

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

    @pytest.mark.parametrize("kind", ["random", "disconnected", "staircase", "blob", "ball"])
    @pytest.mark.parametrize("seed, shift", [(1, 0), (2, 2**62)])
    def test_unreachable_rows_match_fixpoint_in_4d(self, kind, seed, shift):
        # as test_unreachable_rows_match_fixpoint, on 30 to 170 cells in 4-D,
        # where the wavefront takes 53 steps in 8 orthants
        if kind == "random":
            cells = gen_random_cellset(4, 3, 30, seed).cells
        elif kind == "disconnected":
            left = gen_random_convex(4, 3, 0.4, seed).cells
            right = gen_random_cellset(4, 2, 6, seed).cells
            cells = left | {(c[0] + 5, *c[1:]) for c in right}
        else:
            cells = gen_random_convex(4, 3, 0.6, seed, mode=kind).cells
        x = CellSet(4, {tuple(v + shift for v in c) for c in cells})
        m = len(x)
        rows = _unreachable(_compressed(x.indices))
        missing = ~fixpoint_reach(x)
        got = np.zeros((m, m), dtype=bool)
        if rows is not None:
            got = np.unpackbits(rows, axis=1, count=m).view(bool)
        assert not (got & ~missing).any()
        assert np.array_equal(np.triu(got), np.triu(missing))
        assert (rows is None) == (kind in ("staircase", "blob", "ball"))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        n=st.integers(1, 5),
        isolated=st.integers(0, 3),
        shift=st.sampled_from([0, 2**62, -(2**70)]),
    )
    def test_neighbours_match_dict_lookup(self, data, n, isolated, shift):
        """``_neighbours`` on the compressed cells against a dict of the
        cells themselves: compression keeps every gap of 1, so c + s is a
        cell exactly when its compressed row is.  Isolated cells, 2 or more
        apart from every other cell, have no neighbour at all."""
        side = st.integers(0, 3)
        box = data.draw(st.sets(st.tuples(*[side] * n), min_size=1, max_size=40))
        lone = {(10 + 7 * j, *[2 * j] * (n - 1)) for j in range(isolated)}
        x = CellSet(n, {tuple(v + shift for v in c) for c in box | lone})
        m = len(x)
        ordered = [tuple(c) for c in x.indices.tolist()]
        index = {c: i for i, c in enumerate(ordered)}
        steps = _steps(n)
        assert len(steps) == 2 * 3 ** (n - 1) - 1
        expected = [[index.get(tuple(v + d for v, d in zip(c, s)), m) for c in ordered] for s in steps]
        got = _neighbours(_compressed(x.indices), steps)
        assert got.shape == (len(steps), m)
        assert np.array_equal(got, expected)
        for c in lone:
            assert (got[:, index[tuple(v + shift for v in c)]] == m).all()

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


CERTIFICATE_CASES = [(reach_case, k) for k in ("random", "disconnected", "staircase", "blob", "ball")]
CERTIFICATE_CASES += [(large_case, k) for k in ("convex", "far", "random")]


class TestCertificate:
    """The local orthant certificate against the dense fixpoint and the
    reachability wavefront it stands in for."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        n=st.integers(1, 5),
        shift=st.sampled_from([0, 2**62, -(2**70)]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_fixpoint_and_wavefront(self, data, n, shift, seed):
        # from 4 dimensions reach_case grows to thousands of cells past size
        # 8, and a blob fills its box: too many for the dense fixpoint
        cases = CERTIFICATE_CASES if n <= 3 else [c for c in CERTIFICATE_CASES if c[1] != "blob"]
        make, kind = data.draw(st.sampled_from(cases))
        limit = (40 if n <= 3 else 8) if make is reach_case else (150 if n <= 3 else 60)
        x = make(n, kind, data.draw(st.integers(2, limit)), shift, seed)
        if len(x) < 2:
            return
        comp = _compressed(x.indices)
        got = _certified(comp)
        assert got is not None
        assert got == fixpoint_all_pairs(x) == (_unreachable(comp) is None)
        if kind in ("disconnected", "far"):
            assert not got
        if kind in ("staircase", "ball", "convex"):
            assert got

    def test_examples(self):
        # the near box's diagonal corner, and its axis-parallel sub-steps
        assert _certified(_compressed(np.array([(0, 0), (1, 1), (2, 2)])))
        assert _certified(_compressed(np.array([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])))
        assert not _certified(_compressed(np.array([(0, 0), (1, 1), (2, 0)])))
        assert not _certified(_compressed(np.array([(0, 0), (2, 1)])))

    def test_not_applied_past_its_dimensions(self, monkeypatch):
        # a 6-D set, and a diagonal whose table of 1,203^2 entries (three
        # more per axis than the cells span) passes a lowered grid limit
        assert _certified(_compressed(np.zeros((2, _CERTIFIED_DIMENSIONS + 1), dtype=np.int64))) is None
        diagonal = _compressed(np.repeat(np.arange(1200)[:, None], 2, axis=1))
        monkeypatch.setattr(convexity, "_PREFIX_GRID_LIMIT", 1203**2 - 1)
        assert _certified(diagonal) is None
        monkeypatch.setattr(convexity, "_PREFIX_GRID_LIMIT", 1203**2)
        assert _certified(diagonal)

    @pytest.mark.parametrize("n, calls", [(5, 0), (7, 2)])
    def test_wavefront_only_past_the_dimensions(self, monkeypatch, n, calls):
        """A 300-cell line along axis 0: up to 5 dimensions the certificate
        decides it from both entry points, in 7 the wavefront does."""
        seen = []

        def counted(comp):
            seen.append(len(comp))
            return _unreachable(comp)

        monkeypatch.setattr(convexity, "_unreachable", counted)
        x = CellSet(n, [(i, *[0] * (n - 1)) for i in range(300)])
        assert is_l1_convex(x) and all_pairs_monotone_reachable(x)
        assert seen == [300] * calls


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
