"""Acceptance checks: one test per shipped guarantee, each with a wall-clock
budget and an exact or statistical tolerance.

Every test emits exactly one line of the form

    ACCEPTANCE <k> (<name>): PASS|FAIL

collected in LINES and echoed after the run by conftest.py, so the final
pytest output doubles as the acceptance report.
"""

import functools
import time
from fractions import Fraction as F
from math import comb

from l1geo import (
    BoxUnion,
    CellSet,
    L1Ball,
    RatBox,
    VerifyConfig,
    all_pairs_monotone_reachable,
    ball_intrinsic_volumes,
    box_intrinsic_volumes,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
    kinematic_higher_mc,
    outer_pixellate,
    verify,
)
from l1geo.convexity import _compressed, _witness_prefix
from l1geo.suites import corpus_instance, derive_seed, kinematic_instance

LINES: list[str] = []


def acceptance(num: int, name: str):
    """Wrap a test so it always contributes its PASS/FAIL line to LINES."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                LINES.append(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            LINES.append(f"ACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return deco


def run_suite(suite: str, **kwargs) -> tuple:
    """Run a verification suite and return (report, elapsed seconds)."""
    t0 = time.perf_counter()
    rep = verify(suite, VerifyConfig(**kwargs))
    return rep, time.perf_counter() - t0


@acceptance(1, "cube intrinsic volumes are binomial coefficients")
def test_01_cube_binomials():
    t0 = time.perf_counter()
    assert intrinsic_volumes_cellset(CellSet(0, {()}, F(1))).values == (F(1),)
    for n in range(1, 7):
        want = tuple(F(comb(n, i)) for i in range(n + 1))
        cube = RatBox((F(0),) * n, (F(1),) * n)
        assert box_intrinsic_volumes((1,) * n).values == want
        assert intrinsic_volumes_boxunion(BoxUnion(n, [cube])).values == want
        assert intrinsic_volumes_cellset(CellSet(n, {(0,) * n}, F(1))).values == want
    assert time.perf_counter() - t0 < 1.0


@acceptance(2, "embedded-cube basis matrix is unitriangular binomial")
def test_02_basis_matrix():
    t0 = time.perf_counter()
    for n in range(1, 7):
        rows = []
        for i in range(n + 1):
            box = RatBox((F(0),) * n, (F(1),) * i + (F(0),) * (n - i))
            rows.append(intrinsic_volumes_boxunion(BoxUnion(n, [box])).values)
        det = 1
        for i, row in enumerate(rows):
            assert row == tuple(F(comb(i, j)) for j in range(n + 1))
            assert row[i] == 1 and all(v == 0 for v in row[i + 1 :])
            det *= row[i]
        assert det == 1
    assert time.perf_counter() - t0 < 1.0


@acceptance(3, "pixellated ball volumes converge to the closed form")
def test_03_ball_convergence():
    t0 = time.perf_counter()
    for n in (2, 3):
        exact = ball_intrinsic_volumes(n, F(1)).values
        ball = L1Ball((F(0),) * n, F(1))
        prev = None
        errs = None
        for lam in (F(1, 4), F(1, 16), F(1, 64)):
            vols = intrinsic_volumes_cellset(outer_pixellate(ball, lam)).values
            errs = [abs(v - e) / e for v, e in zip(vols, exact)]
            if prev is not None:
                assert all(a <= b for a, b in zip(errs, prev)), (n, lam)
            prev = errs
        assert all(e <= F(1, 10) for e in errs), (n, errs)
    assert time.perf_counter() - t0 < 300.0


@acceptance(4, "dilation-profile identity exact on 200 instances per dimension")
def test_04_steiner():
    rep, dt = run_suite("steiner", dimensions=(2, 3), instances=200)
    total, failed, skipped = rep.counts()
    assert total == 200 * 2 * 3 and failed == 0 and skipped == 0
    assert all(r.kind == "exact" for r in rep.records)
    assert dt < 60.0


@acceptance(5, "flat-slice integral identity exact on 200 instances per dimension")
def test_05_crofton():
    rep, dt = run_suite("crofton", dimensions=(2, 3), instances=200)
    total, failed, skipped = rep.counts()
    assert total == 200 * (3 + 4) and failed == 0 and skipped == 0
    assert all(r.kind == "exact" for r in rep.records)
    assert dt < 60.0


@acceptance(6, "projection-average identity exact on the same corpus")
def test_06_kubota():
    rep, dt = run_suite("kubota", dimensions=(2, 3), instances=200)
    total, failed, skipped = rep.counts()
    assert total == 200 * (3 + 4) and failed == 0 and skipped == 0
    assert all(r.kind == "exact" for r in rep.records)
    assert dt < 60.0


@acceptance(7, "principal kinematic identity exact on 100 pairs per dimension")
def test_07_principal_kinematic():
    rep, dt = run_suite("kinematic", dimensions=(2, 3), instances=100, mc_cases=0)
    total, failed, skipped = rep.counts()
    assert total == 100 * 2 and failed == 0 and skipped == 0
    assert all(r.kind == "exact" for r in rep.records)
    assert dt < 120.0


@acceptance(8, "higher kinematic Monte Carlo matches the exact value")
def test_08_higher_kinematic_mc():
    t0 = time.perf_counter()
    within = 0
    rels = []
    for i in range(20):
        x, box = kinematic_instance(2, i, 0, 5, 0.3)
        k = 1 + i % 2
        est = kinematic_higher_mc(
            x, box, k, 100_000, derive_seed(0, "kinematic-mc", 2, i, k)
        )
        rhs = float(est.exact_rhs)
        if abs(est.estimate - rhs) <= 4 * est.standard_error:
            within += 1
        rels.append(abs(est.estimate - rhs) / rhs)
    assert within >= 19, f"only {within}/20 within 4 standard errors"
    assert all(r <= 0.02 for r in rels), f"max relative error {max(rels):.4f}"
    assert time.perf_counter() - t0 < 300.0


@acceptance(9, "convexity-algebra properties hold on 1000 seeded cases")
def test_09_algebra_suite():
    rep, dt = run_suite("algebra", dimensions=(2, 3), instances=500)
    total, failed, _ = rep.counts()
    assert total > 0 and failed == 0
    for family in (
        "algebra.cupcap",
        "algebra.clip",
        "algebra.project",
        "algebra.ortho",
        "algebra.minkowski",
        "algebra.distributivity",
        "algebra.split",
    ):
        exercised = [
            r
            for r in rep.records
            if r.name.startswith(family) and not r.note.startswith("skipped")
        ]
        assert exercised and all(r.passed for r in exercised), family
    assert dt < 120.0


@acceptance(10, "valuation axioms hold exactly on 500 seeded cases")
def test_10_valuation_suite():
    rep, dt = run_suite("valuation", dimensions=(2, 3), instances=250)
    total, failed, _ = rep.counts()
    assert total > 0 and failed == 0
    for family in (
        "valuation.additivity",
        "valuation.isometry",
        "valuation.scale",
        "valuation.subdivide",
        "valuation.volume",
        "valuation.embed",
        "valuation.monotone",
        "valuation.product",
    ):
        exercised = [
            r
            for r in rep.records
            if r.name.startswith(family) and not r.note.startswith("skipped")
        ]
        assert exercised and all(r.passed for r in exercised), family
    assert dt < 120.0


@acceptance(11, "pixellation preserves convexity with bracketed error")
def test_11_pixellation():
    rep, dt = run_suite("pixellation", dimensions=(2, 3), instances=20)
    total, failed, skipped = rep.counts()
    assert total > 0 and failed == 0 and skipped == 0
    for family in (
        "pixellation.convex",
        "pixellation.bracket[",
        "pixellation.bracket-shrinks",
        "pixellation.boundary",
    ):
        assert any(r.name.startswith(family) for r in rep.records), family
    assert dt < 60.0


@acceptance(12, "monotone reachability holds for all cell pairs on the corpus")
def test_12_reachability_cross_validation():
    t0 = time.perf_counter()
    cfg = VerifyConfig(dimensions=(2, 3), instances=200)
    for n in cfg.dimensions:
        for i in range(cfg.instances):
            x = corpus_instance(n, i, cfg.seed, cfg.bound, cfg.density)
            assert all_pairs_monotone_reachable(x), (n, i)
            # the pairwise betweenness scan, which the generator's convexity
            # check skips from 64 cells, where the certificate decides first
            assert _witness_prefix(_compressed(x.indices)) is None, (n, i)
    assert time.perf_counter() - t0 < 120.0
