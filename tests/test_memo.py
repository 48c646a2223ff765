"""The bounded memo of decided small sets: its LRU order and budget, the
generator's memo, and the memory the memo keeps."""

import gc
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from l1geo import CellSet, VerifyConfig, gen_random_convex, is_l1_convex, verify
from l1geo._util import _ENTRY_BYTES, MEMO, MEMO_BYTES, MISSING, LRUMemo
from l1geo.generators import _KEPT_CELLS, MODES, _random_convex

F = Fraction


class TestLRUMemo:
    def test_least_recently_used_entry_goes_first(self):
        memo = LRUMemo(3 * (_ENTRY_BYTES + 10))
        for key in "abc":
            memo.put(key, key.upper(), 10)
        assert memo.get("a") == "A"  # now b is the least recently used
        memo.put("d", "D", 10)
        assert [memo.get(k) for k in "abcd"] == ["A", MISSING, "C", "D"]
        assert len(memo) == 3 and memo.charged == memo.budget

    def test_charges_are_replaced_and_cleared(self):
        memo = LRUMemo(10_000)
        memo.put("a", 1, 100)
        memo.put("a", 2, 300)
        assert memo.get("a") == 2 and memo.charged == 300 + _ENTRY_BYTES
        memo.clear()
        assert memo.get("a") is MISSING and memo.charged == 0

    def test_entry_over_the_budget_is_not_kept(self):
        memo = LRUMemo(1000)
        memo.put("small", 1, 10)
        memo.put("big", 2, 1000)
        assert memo.get("big") is MISSING and memo.get("small") == 1

    def test_threads_keep_the_charges_consistent(self):
        """Four threads on two cores get and put 100 keys into a memo that
        holds about 40, switching every microsecond: the charges still sum
        to the total, within the budget."""
        memo = LRUMemo(40 * (_ENTRY_BYTES + 10))

        def work(seed):
            rng = random.Random(seed)
            for _ in range(5000):
                key = rng.randrange(100)
                if memo.get(key) is MISSING:
                    memo.put(key, key, 8 + key % 5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        charges = [charge for _, charge in memo._entries.values()]
        assert memo.charged == sum(charges) <= memo.budget
        assert all(memo.get(k) in (MISSING, k) for k in range(100))


class TestGeneratorMemo:
    def test_typed_arguments_draw_their_own_streams(self):
        """density 0 against 0.0 and seed True against 1 seed different
        streams: each call, fresh or repeated, equals the unmemoized body."""
        MEMO.clear()
        for pair in (((2, 5, 0, 7), (2, 5, 0.0, 7)), ((2, 5, 0.3, True), (2, 5, 0.3, 1))):
            fresh = [_random_convex(*args, "blob", F(1)) for args in pair]
            assert fresh[0] != fresh[1]
            for _ in range(2):
                assert [gen_random_convex(*args) for args in pair] == fresh

    def test_large_results_are_not_kept(self):
        MEMO.clear()
        big = gen_random_convex(2, 20, 1.0, 3, mode="staircase")
        assert len(big) >= _KEPT_CELLS and len(MEMO) == 0
        again = gen_random_convex(2, 20, 1.0, 3, mode="staircase")
        assert again == big and not np.shares_memory(again.indices, big.indices)

    def test_a_hit_returns_read_only_indices(self):
        """Resolutions 1/2 and "1/2" share an entry; the hit is a new set
        on the kept array, which cannot be written."""
        MEMO.clear()
        first = gen_random_convex(3, 4, 0.3, 11, mode="ball", resolution=F(1, 2))
        again = gen_random_convex(3, 4, 0.3, 11, mode="ball", resolution="1/2")
        assert again == first and again is not first
        assert np.shares_memory(again.indices, first.indices)
        assert not again.indices.flags.writeable
        with pytest.raises(ValueError):
            again.indices[0, 0] = 5


def far_row(k: int) -> CellSet:
    """The k-th of the distinct small sets below: a row of 1 to 40 cells
    and one far cell, not convex."""
    size = 1 + k % 40
    rows = np.zeros((size + 1, 2), dtype=np.int64)
    rows[:size, 0] = np.arange(size)
    rows[size] = (k + 100, 1)
    return CellSet._from_array(2, rows, F(1))


def test_memo_stays_within_its_budget():
    """20,000 distinct small sets through ``is_l1_convex`` and 2,000
    distinct generator calls keep the charges within ``MEMO_BYTES``, with
    entries dropped to stay there.  The last 2,000 sets and 1,000 calls
    run under tracemalloc and turn the memo over, so every entry it then
    holds was traced: the memory that clearing it frees stays within the
    charges.  (Tracing all of them would take three times as long.)"""
    MEMO.clear()
    gc.collect()
    for s in range(1000):
        gen_random_convex(2 + s % 2, 4, 0.3, s, mode=MODES[s % 3])
    for k in range(18_000):
        assert not is_l1_convex(far_row(k))
        assert MEMO.charged <= MEMO_BYTES
    tracemalloc.start()
    try:
        for k in range(18_000, 20_000):
            assert not is_l1_convex(far_row(k))
        for s in range(1000, 2000):
            gen_random_convex(2 + s % 2, 4, 0.3, s, mode=MODES[s % 3])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        charged = MEMO.charged
        assert MEMO.get((2, far_row(17_999).indices.tobytes())) is MISSING
        MEMO.clear()
        gc.collect()
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= charged <= MEMO_BYTES
    assert charged > MEMO_BYTES - 8 * 1024


def test_suite_reports_do_not_depend_on_the_memo():
    """The algebra and valuation suites, each from an empty memo and then
    again one after the other on a warm one, give the same reports."""
    cfg = VerifyConfig(dimensions=(2, 3), instances=3, bound=4)

    def report(suite):
        out = verify(suite, cfg).to_dict()
        del out["runtime_seconds"]
        return out

    cold = []
    for suite in ("algebra", "valuation"):
        MEMO.clear()
        cold.append(report(suite))
    assert [report(suite) for suite in ("algebra", "valuation")] == cold
