"""The outside-in tracer: attribute rebinding, restoration and self time."""

import sys
import types

import pytest

import l1geo
import tracer


def _l1geo_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "l1geo" or name.startswith("l1geo.")
        for attr, value in vars(module).items()
    }


def test_every_alias_is_rebound_and_restored():
    before = _l1geo_bindings()
    original = l1geo.lattice.union_volume
    with tracer.Tracer():
        # the kernel is rebound where it is defined and everywhere it was imported
        for module in (l1geo, l1geo.lattice, l1geo.suites, l1geo.pixellation, l1geo.integral_geometry):
            assert module.union_volume is not original
            assert module.union_volume.__wrapped__ is original
    after = _l1geo_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_attributes_restored_when_the_run_raises():
    before = _l1geo_bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("stop")
    after = _l1geo_bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.fixture
def fakepkg(monkeypatch):
    """A two-module package in which ``b`` imports ``a.inner`` by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(k):
        return sum(range(k))

    def outer(k):
        return a.inner(k) + a.inner(k)

    def via_alias(k):
        return b.inner(k)

    a.inner, a.outer = inner, outer
    b.inner, b.via_alias = inner, via_alias
    pkg.a, pkg.b = a, b
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg


def test_self_time_of_nested_spans_adds_up(fakepkg):
    traced = {"a": ("inner", "outer"), "b": ("via_alias",)}
    with tracer.Tracer("fakepkg", traced) as tr:
        fakepkg.a.outer(20000)
        fakepkg.b.via_alias(20000)
    spans = tr.spans()
    assert [(name, parent) for name, parent, _, _ in spans] == [
        ("a.outer", -1),
        ("a.inner", 0),
        ("a.inner", 0),
        ("b.via_alias", -1),
        ("a.inner", 3),  # reached through b's alias of a.inner
    ]
    own = tr.self_times()
    dur = [end - start for _, _, start, end in spans]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert own[1] == dur[1]
    roots = sum(d for (_, parent, _, _), d in zip(spans, dur) if parent == -1)
    assert sum(own) == pytest.approx(roots, rel=1e-12)


def test_live_trace_accounts_for_every_span():
    cfg = l1geo.VerifyConfig(dimensions=(2,), instances=3, threads=1)
    with tracer.Tracer() as tr:
        report = l1geo.verify("valuation", cfg)
    assert report.passed
    spans = tr.spans()
    own = tr.self_times()
    assert spans[0][0] == "suites.verify" and spans[0][1] == -1
    assert all(t >= -1e-9 for t in own)
    assert sum(own) == pytest.approx(spans[0][3] - spans[0][2], rel=1e-9)
    metrics = tr.metrics(traced_wall=spans[0][3] - spans[0][2], untraced_wall=1.0)
    assert set(metrics) == {name for name, _, _ in tracer.metric_specs()}
    assert metrics["suites.verify.calls"] == 1
    assert metrics["valuations.intrinsic_volumes_cellset.calls"] > 0
    assert 0 < metrics["trace.coverage_frac"] <= 1
