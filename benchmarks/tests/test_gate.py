"""The correctness gate: doctored results count as failed ops."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import l1geo
import run
import tracer
import workloads

SMALL_BALL = workloads.Case("ball", l1geo.L1Ball((0, 0), 1), Fraction(1, 6), True)
SMALL_U = workloads.Case(
    "u",
    l1geo.BoxUnionShape(
        l1geo.BoxUnion(2, [l1geo.RatBox((0, 0), (1, 3)), l1geo.RatBox((0, 0), (4, 1)), l1geo.RatBox((3, 0), (4, 3))])
    ),
    Fraction(1, 2),
    False,
)


def _flip(monkeypatch):
    real = l1geo.is_l1_convex
    monkeypatch.setattr(
        l1geo, "is_l1_convex", lambda x: l1geo.ConvexityVerdict(not real(x), None)
    )


def test_genuine_results_pass():
    for case in (SMALL_BALL, SMALL_U):
        tally = workloads.Tally()
        workloads.run_case(case, tally)
        assert tally.attempted == 7 and tally.failed == 0


def test_flipped_verdict_on_a_convex_shape_fails(monkeypatch):
    _flip(monkeypatch)
    tally = workloads.Tally()
    workloads.run_case(SMALL_BALL, tally)
    assert tally.failed == 1


def test_flipped_verdict_on_a_nonconvex_shape_fails(monkeypatch):
    # a false "convex" verdict is caught by reachability failing where it must hold
    assert not l1geo.is_l1_convex(l1geo.outer_pixellate(SMALL_U.shape, SMALL_U.resolution))
    _flip(monkeypatch)
    tally = workloads.Tally()
    workloads.run_case(SMALL_U, tally)
    assert tally.failed == 1


def test_wrong_volume_and_raising_call_fail(monkeypatch):
    monkeypatch.setattr(l1geo, "union_volume", lambda u: Fraction(0))
    tally = workloads.Tally()
    workloads.run_case(SMALL_BALL, tally)
    assert tally.failed == 1

    def boom(*args):
        raise ValueError("doctored")

    monkeypatch.setattr(l1geo, "boundary_region", boom)
    tally = workloads.Tally()
    workloads.run_case(SMALL_BALL, tally)
    assert tally.failed == 2


def test_failing_record_fails_op(monkeypatch):
    real = l1geo.verify

    def doctored(suite, cfg):
        report = real(suite, dataclasses.replace(cfg, instances=1))
        first = dataclasses.replace(report.records[0], passed=False)
        return dataclasses.replace(report, records=(first, *report.records[1:]))

    monkeypatch.setattr(l1geo, "verify", doctored)
    tally = workloads.suite_pass("pixellation", 0, 0)
    assert tally.attempted > 1 and tally.failed == 1


def test_fingerprint_ignores_runtime():
    cfg = l1geo.VerifyConfig(dimensions=(2,), instances=1, threads=1)
    prints = []
    for _ in range(2):
        tally = workloads.Tally()
        workloads.tally_report(l1geo.verify("pixellation", cfg), tally)
        prints.append(workloads.fingerprint(tally.records))
    assert prints[0] == prints[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
