"""Named verification suites producing machine-checkable reports.

Each suite generates a seeded corpus of instances and runs the corresponding
exact identity / property / Monte Carlo checks.  A report passes when every
exact check has lhs = rhs, every property holds, and every Monte Carlo check
lands within 4 standard errors of its exact comparison value.  Instances run
one after another in the calling thread, and records come in instance order.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import partial
from math import ceil, floor

import numpy as np

from ._util import derive_seed, frac_str
from .convexity import (
    all_pairs_monotone_reachable,
    is_l1_convex,
    is_orthogonally_convex,
    split_halves,
)
from .generators import MODES, gen_random_box, gen_random_cellset, gen_random_convex
from .integral_geometry import (
    _crofton_sides,
    _kubota_sides,
    _profiles,
    kinematic_higher_mc,
    kinematic_principal,
    MCEstimate,
    steiner_profile,
)
from .lattice import (
    BoxUnion,
    CellSet,
    RatBox,
    SignedPerm,
    _cell_runs,
    apply_isometry,
    boxunion_equal_pointsets,
    boxunion_intersection,
    boxunion_minkowski_box,
    cellset_boolean,
    clip_cells,
    coordinate_subspaces,
    embed,
    minkowski_sum_box,
    project,
    scale,
    subdivide,
    union_volume,
)
from .pixellation import (
    BoxUnionShape,
    L1Ball,
    _boundary_region,
    boundary_region,
    outer_pixellate,
    pixellation_error_bracket,
)
from .valuations import (
    cellset_product,
    intrinsic_volumes_boxunion,
    intrinsic_volumes_cellset,
    product_rhs,
)

SUITES = (
    "steiner",
    "crofton",
    "kubota",
    "kinematic",
    "algebra",
    "valuation",
    "pixellation",
)

_RESOLUTIONS = (Fraction(1), Fraction(1, 2), Fraction(2))


@dataclass(frozen=True)
class CheckRecord:
    """One check: an exact equality, a boolean property, or an MC estimate."""

    name: str
    kind: str  # "exact" | "property" | "mc"
    passed: bool
    lhs: str | None = None
    rhs: str | None = None
    equal: bool | None = None
    estimate: float | None = None
    stderr: float | None = None
    z: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "kind": self.kind, "passed": self.passed}
        for key in ("lhs", "rhs", "equal", "estimate", "stderr", "z"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Report:
    """Outcome of one suite run; deterministic apart from runtime_seconds."""

    command: str
    digest: str
    seed: int
    records: tuple[CheckRecord, ...]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def counts(self) -> tuple[int, int, int]:
        failed = sum(1 for r in self.records if not r.passed)
        skipped = sum(1 for r in self.records if r.note.startswith("skipped"))
        return len(self.records), failed, skipped

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "digest": self.digest,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
            "runtime_seconds": self.runtime_seconds,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self, limit: int = 80) -> str:
        total, failed, skipped = self.counts()
        lines = [
            f"{self.command}: {'PASS' if self.passed else 'FAIL'} "
            f"({total} checks, {failed} failed, {skipped} skipped, "
            f"{self.runtime_seconds:.2f}s, seed={self.seed}, digest={self.digest[:12]})"
        ]
        shown = [r for r in self.records if not r.passed]
        budget = max(limit - len(shown), 0)
        shown += [r for r in self.records if r.passed][:budget]
        order = {id(r): i for i, r in enumerate(self.records)}
        for r in sorted(shown, key=lambda r: order[id(r)]):
            lines.append("  " + _record_line(r))
        hidden = total - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more passing checks not shown")
        return "\n".join(lines) + "\n"


def _clip(text: str, width: int = 48) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def _record_line(r: CheckRecord) -> str:
    status = "ok  " if r.passed else "FAIL"
    if r.kind == "mc":
        body = (
            f"estimate={r.estimate:.6g} rhs={r.rhs} stderr={r.stderr:.3g} z={r.z:+.2f}"
        )
    elif r.lhs is not None:
        body = f"lhs={_clip(r.lhs)} rhs={_clip(r.rhs)}"
    else:
        body = r.note or "holds"
    note = f" [{r.note}]" if r.note and r.lhs is not None else ""
    return f"{status} {r.name}: {body}{note}"


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for a suite run; every field enters the input digest.  The ``threads``
    InitVar takes only None or 1; it goes when the benchmark stops passing it."""

    dimensions: tuple[int, ...] = (2, 3)
    instances: int = 20
    seed: int = 0
    samples: int = 20000
    mc_cases: int = 3
    bound: int = 5
    density: float = 0.3
    threads: InitVar[int | None] = None

    def __post_init__(self, threads):
        if threads not in (None, 1):
            raise ValueError("suites run in one thread; threads must be 1")
        if not self.dimensions or any(n < 1 for n in self.dimensions):
            raise ValueError("dimensions must be positive integers")
        if self.instances < 1:
            raise ValueError("need at least one instance")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0, 1]")


def _digest(suite: str, cfg: VerifyConfig) -> str:
    payload = {
        "suite": suite,
        "dimensions": list(cfg.dimensions),
        "instances": cfg.instances,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "mc_cases": cfg.mc_cases,
        "bound": cfg.bound,
        "density": repr(cfg.density),
        # a constant: the corpora cycle through _RESOLUTIONS, and the key
        # stays so that digests of reports already published still match
        "resolution": "1",
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# record constructors


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def exact_record(name: str, lhs, rhs, note: str = "") -> CheckRecord:
    lhs_t = tuple(lhs) if not isinstance(lhs, Fraction) else lhs
    rhs_t = tuple(rhs) if not isinstance(rhs, Fraction) else rhs
    eq = lhs_t == rhs_t
    return CheckRecord(
        name=name, kind="exact", passed=eq, lhs=_fmt(lhs_t), rhs=_fmt(rhs_t), equal=eq, note=note
    )


def bound_record(name: str, ok: bool, lhs: str, rhs: str) -> CheckRecord:
    """An exact check decided by the caller, with both sides as printed text."""
    return CheckRecord(name=name, kind="exact", passed=ok, lhs=lhs, rhs=rhs, equal=ok)


def property_record(name: str, ok: bool, note: str = "") -> CheckRecord:
    return CheckRecord(name=name, kind="property", passed=bool(ok), note=note)


def skip_record(name: str, reason: str) -> CheckRecord:
    return CheckRecord(name=name, kind="property", passed=True, note=f"skipped: {reason}")


def mc_record(name: str, est: MCEstimate) -> CheckRecord:
    ok = abs(est.estimate - float(est.exact_rhs)) <= 4 * est.standard_error
    return CheckRecord(
        name=name,
        kind="mc",
        passed=ok,
        rhs=frac_str(est.exact_rhs),
        estimate=est.estimate,
        stderr=est.standard_error,
        z=est.z_score,
    )


# ---------------------------------------------------------------------------
# shared corpus


def corpus_instance(n: int, i: int, seed: int, bound: int, density: float) -> CellSet:
    """Instance i of the shared convex corpus (cycles mode and resolution)."""
    return gen_random_convex(
        n,
        bound,
        density,
        derive_seed(seed, "corpus", n, i),
        mode=MODES[i % 3],
        resolution=_RESOLUTIONS[i % 3],
    )


def kinematic_instance(
    n: int, i: int, seed: int, bound: int, density: float
) -> tuple[CellSet, RatBox]:
    """Instance i of the kinematic corpus: a small convex set and a box."""
    lam = _RESOLUTIONS[i % 3]
    x = gen_random_convex(
        n,
        min(bound, 4),
        density,
        derive_seed(seed, "kinematic", n, i),
        mode=MODES[i % 2],  # blob / staircase keep the instances small
        resolution=lam,
    )
    box = gen_random_box(
        n,
        derive_seed(seed, "kinematic-box", n, i),
        low=0,
        high=3,
        denominator=2,
        resolution=lam,
        min_side=1,
    )
    return x, box


def _algebra_pair(
    n: int, i: int, seed: int, bound: int, density: float, lam: Fraction
) -> tuple[CellSet, CellSet, int, int]:
    """(X, Y, axis, threshold); i cycles overlapping-split pairs (union convex
    by construction), independent convex pairs, and occasional raw non-convex
    sets so precondition filters get exercised."""
    s = derive_seed(seed, "algebra-pair", n, i)
    z = gen_random_convex(n, bound, density, s, mode=MODES[i % 3], resolution=lam)
    axis = i % n
    values = np.unique(z.indices[:, axis]).tolist()
    t = values[random.Random(derive_seed(s, "t")).randrange(len(values))]
    if i % 3 != 2:  # X: the cells with index <= t on the axis, Y: those >= t - 1
        x = split_halves(z, axis, t + 1)[1]
        y = split_halves(z, axis, t - 1)[0]
    elif i % 9 == 8:
        x = gen_random_cellset(n, bound, max(2, int(density * bound**n)), derive_seed(s, "raw"), resolution=lam)
        y = gen_random_convex(n, bound, density, derive_seed(s, "y"), resolution=lam)
    else:
        x = gen_random_convex(n, bound, density, derive_seed(s, "x"), resolution=lam)
        y = gen_random_convex(n, bound, density, derive_seed(s, "y"), resolution=lam)
    return x, y, axis, t


# ---------------------------------------------------------------------------
# suite bodies (one instance -> records)


def _steiner_instance(cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    x = corpus_instance(n, i, cfg.seed, cfg.bound, cfg.density)
    out = []
    for m in (1, 2, 3):
        lhs, rhs = steiner_profile(x, m)
        out.append(exact_record(f"steiner[n={n},i={i},m={m}]", lhs.values, rhs.values))
    return out


def _profile_instance(suite: str, sides, cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    """``crofton`` and ``kubota``: one record per flat or subspace dimension k,
    every k read off one doubled grid of the set."""
    x = corpus_instance(n, i, cfg.seed, cfg.bound, cfg.density)
    profiles = _profiles(sides, x, range(n + 1))
    return [exact_record(f"{suite}[n={n},i={i},k={k}]", *p) for k, p in enumerate(profiles)]


def _kinematic_instance(cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    x, box = kinematic_instance(n, i, cfg.seed, cfg.bound, cfg.density)
    lhs, rhs = kinematic_principal(x, box)
    out = [exact_record(f"kinematic[n={n},i={i},k=0]", lhs, rhs)]
    if i < cfg.mc_cases:
        k = 1 + i % n
        est = kinematic_higher_mc(
            x, box, k, cfg.samples, derive_seed(cfg.seed, "kinematic-mc", n, i, k)
        )
        out.append(mc_record(f"kinematic-mc[n={n},i={i},k={k}]", est))
    return out


def _algebra_instance(cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    lam = _RESOLUTIONS[i % 3]
    s = derive_seed(cfg.seed, "algebra", n, i)
    z = gen_random_convex(n, cfg.bound, cfg.density, s, mode=MODES[i % 3], resolution=lam)
    x, y, axis, t = _algebra_pair(n, i, cfg.seed, cfg.bound, cfg.density, lam)
    tag = f"[n={n},i={i}]"
    out = []

    upper, lower = split_halves(z, axis, t)
    out.append(
        property_record(
            f"algebra.split{tag}", bool(is_l1_convex(upper)) and bool(is_l1_convex(lower))
        )
    )

    rng = random.Random(derive_seed(s, "boxes"))
    lo = tuple(rng.randint(0, cfg.bound) for _ in range(n))
    hi = tuple(v + rng.randint(0, cfg.bound) for v in lo)
    out.append(property_record(f"algebra.clip{tag}", bool(is_l1_convex(clip_cells(z, lo, hi)))))

    ok = all(
        bool(is_l1_convex(project(z, sub)))
        for k in range(1, n)
        for sub in coordinate_subspaces(n, k)
    )
    out.append(property_record(f"algebra.project{tag}", ok))

    out.append(property_record(f"algebra.ortho{tag}", is_orthogonally_convex(z)))

    grow = gen_random_box(
        n, derive_seed(s, "grow"), low=0, high=2, aligned=True, resolution=lam
    )
    dilated = minkowski_sum_box(z, grow)
    out.append(property_record(f"algebra.minkowski{tag}", bool(is_l1_convex(dilated))))

    out.append(property_record(f"algebra.reachable{tag}", all_pairs_monotone_reachable(z)))

    # identities on the pair (X, Y)
    union = cellset_boolean(x, y, "union")
    inter = cellset_boolean(x, y, "intersection")
    bu_x, bu_y = _cell_runs(x), _cell_runs(y)
    point_inter = boxunion_intersection(bu_x, bu_y)
    hyp_union = bool(is_l1_convex(union))
    hyp_all = hyp_union and bool(is_l1_convex(x)) and bool(is_l1_convex(y))

    ibox = gen_random_box(
        n,
        derive_seed(s, "ibox"),
        low=0,
        high=2,
        denominator=2,
        aligned=(i % 2 == 0),
        resolution=lam,
    )
    aligned_ibox = _align_up(ibox, lam)
    lhs_u = minkowski_sum_box(union, aligned_ibox)
    rhs_u = cellset_boolean(
        minkowski_sum_box(x, aligned_ibox), minkowski_sum_box(y, aligned_ibox), "union"
    )
    out.append(
        exact_record(
            f"algebra.union-distributivity{tag}", lhs_u.sorted_cells(), rhs_u.sorted_cells()
        )
    )

    name = f"algebra.cupcap{tag}"
    if not hyp_all:
        out.append(skip_record(name, "X, Y, X∪Y not all convex"))
    elif not boxunion_equal_pointsets(point_inter, _cell_runs(inter)):
        out.append(skip_record(name, "cell intersection misses shared faces"))
    else:
        out.append(property_record(name, bool(is_l1_convex(inter))))

    name = f"algebra.distributivity{tag}"
    if not hyp_union:
        out.append(skip_record(name, "X∪Y not convex"))
    else:
        lhs_bu = boxunion_minkowski_box(point_inter, ibox)
        rhs_bu = boxunion_intersection(
            boxunion_minkowski_box(bu_x, ibox), boxunion_minkowski_box(bu_y, ibox)
        )
        eq = boxunion_equal_pointsets(lhs_bu, rhs_bu)
        vols = [f"vol={frac_str(union_volume(u))}" for u in (lhs_bu, rhs_bu)]
        out.append(bound_record(name, eq, *vols))

    name = f"algebra.project-distributivity{tag}"
    if not hyp_union:
        out.append(skip_record(name, "X∪Y not convex"))
    else:
        ok = True
        for k in range(1, n):
            for sub in coordinate_subspaces(n, k):
                lhs_p = project(point_inter, sub)
                rhs_p = boxunion_intersection(project(bu_x, sub), project(bu_y, sub))
                ok = ok and boxunion_equal_pointsets(lhs_p, rhs_p)
        out.append(property_record(name, ok))

    return out


def _align_up(box: RatBox, lam: Fraction) -> RatBox:
    """Round a box outward to grid multiples of lam (used where an identity
    requires a cell-aligned interval)."""
    lo = [floor(v / lam) for v in box.mins]
    hi = [max(ceil(v / lam), a) for a, v in zip(lo, box.maxs)]
    return RatBox([lam * a for a in lo], [lam * b for b in hi])


def _valuation_instance(cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    lam = _RESOLUTIONS[i % 3]
    s = derive_seed(cfg.seed, "valuation", n, i)
    z = gen_random_convex(n, cfg.bound, cfg.density, s, mode=MODES[i % 3], resolution=lam)
    vz = intrinsic_volumes_cellset(z)
    tag = f"[n={n},i={i}]"
    out = []

    x, y, _, _ = _algebra_pair(n, i, cfg.seed, cfg.bound, cfg.density, lam)
    union = cellset_boolean(x, y, "union")
    name = f"valuation.additivity{tag}"
    if bool(is_l1_convex(x)) and bool(is_l1_convex(y)) and bool(is_l1_convex(union)):
        point_inter = boxunion_intersection(_cell_runs(x), _cell_runs(y))
        lhs = [
            a + b
            for a, b in zip(intrinsic_volumes_cellset(x), intrinsic_volumes_cellset(y))
        ]
        rhs = [
            a + b
            for a, b in zip(
                intrinsic_volumes_cellset(union), intrinsic_volumes_boxunion(point_inter)
            )
        ]
        out.append(exact_record(name, lhs, rhs))
    else:
        out.append(skip_record(name, "X, Y, X∪Y not all convex"))

    rng = random.Random(derive_seed(s, "isometry"))
    perm = list(range(n))
    rng.shuffle(perm)
    g = SignedPerm(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n)))
    shift = tuple(lam * rng.randint(-3, 3) for _ in range(n))
    moved = apply_isometry(z, g, shift)
    out.append(
        exact_record(
            f"valuation.isometry{tag}", intrinsic_volumes_cellset(moved).values, vz.values
        )
    )

    m = 2 + i % 2
    scaled = intrinsic_volumes_cellset(scale(z, m))
    out.append(
        exact_record(
            f"valuation.scale{tag}",
            scaled.values,
            tuple(v * m**j for j, v in enumerate(vz)),
        )
    )
    out.append(
        exact_record(
            f"valuation.subdivide{tag}",
            intrinsic_volumes_cellset(subdivide(z, m)).values,
            vz.values,
        )
    )

    out.append(
        exact_record(
            f"valuation.volume{tag}", vz[n], union_volume(_cell_runs(z))
        )
    )

    emb = embed(z, i % (n + 1))
    out.append(
        exact_record(
            f"valuation.embed{tag}",
            intrinsic_volumes_boxunion(emb).values,
            tuple(vz) + (Fraction(0),),
        )
    )

    even = z.indices.sum(axis=1) % 2 == 0
    sub = CellSet._from_sorted(n, z.indices[even] if even.any() else z.indices[:1], lam)
    vs = intrinsic_volumes_cellset(sub)
    out.append(
        property_record(
            f"valuation.monotone{tag}", all(a <= b for a, b in zip(vs, vz))
        )
    )

    other = gen_random_convex(
        1, 4, cfg.density, derive_seed(s, "factor"), mode="blob", resolution=lam
    )
    prod = cellset_product(z, other)
    out.append(
        exact_record(
            f"valuation.product{tag}",
            intrinsic_volumes_cellset(prod).values,
            product_rhs(vz, intrinsic_volumes_cellset(other)).values,
        )
    )
    return out


def _pixellation_instance(cfg: VerifyConfig, n: int, i: int) -> list[CheckRecord]:
    rng = random.Random(derive_seed(cfg.seed, "pixellation", n, i))
    kind = i % 3
    if kind == 0:
        center = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(n))
        radius = Fraction(rng.randint(2, 8), 4)
        shape = L1Ball(center, radius)
        convex_shape = True
    elif kind == 1:
        box = gen_random_box(n, derive_seed(cfg.seed, "pixbox", n, i), low=0, high=3, denominator=4, min_side=Fraction(1, 2))
        shape = BoxUnionShape(BoxUnion(n, [box]))
        convex_shape = True
    else:
        boxes = [
            gen_random_box(n, derive_seed(cfg.seed, "pixboxes", n, i, j), low=0, high=3, denominator=4, min_side=Fraction(1, 2))
            for j in range(2)
        ]
        shape = BoxUnionShape(BoxUnion(n, boxes))
        convex_shape = False

    tag = f"[n={n},i={i}]"
    out = []
    lams = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    unit = outer_pixellate(shape, lams[0])  # the boundary region at 1 is cut from it below
    uppers = []
    for lam in lams:
        pix = unit if lam == lams[0] else outer_pixellate(shape, lam)
        if convex_shape:
            out.append(
                property_record(f"pixellation.convex{tag}@{frac_str(lam)}", bool(is_l1_convex(pix)))
            )
        delta = lam / 2
        lower, upper = pixellation_error_bracket(shape, pix, delta)
        uppers.append(upper)
        ok = lower <= n * lam and upper <= n * (lam + delta / 2)
        out.append(
            bound_record(
                f"pixellation.bracket{tag}@{frac_str(lam)}",
                ok,
                f"[{frac_str(lower)}, {frac_str(upper)}]",
                f"lower<={frac_str(n * lam)}, upper<={frac_str(n * (lam + delta / 2))}",
            )
        )
    out.append(
        property_record(
            f"pixellation.bracket-shrinks{tag}",
            all(b < a for a, b in zip(uppers, uppers[1:])),
        )
    )

    # the cubes of distinct cells meet only in faces, so a region's volume
    # is its cell count times the cube volume
    shrink = 1 - Fraction(1, 3**n)
    nested = (Fraction(1), Fraction(1, 3), Fraction(1, 9))
    counts = [len(_boundary_region(shape, nested[0], unit))]
    counts += [len(boundary_region(shape, lam)) for lam in nested[1:]]
    volume = {lam: count * lam**n for lam, count in zip(nested, counts)}
    for lam in nested[1:]:
        d_fine, d_coarse = volume[lam], volume[3 * lam]
        ok = d_fine <= shrink * d_coarse
        name = f"pixellation.boundary{tag}@{frac_str(lam)}"
        out.append(bound_record(name, ok, frac_str(d_fine), f"<= {frac_str(shrink * d_coarse)}"))
    return out


_SUITE_BODIES = {
    "steiner": _steiner_instance,
    "crofton": partial(_profile_instance, "crofton", _crofton_sides),
    "kubota": partial(_profile_instance, "kubota", _kubota_sides),
    "kinematic": _kinematic_instance,
    "algebra": _algebra_instance,
    "valuation": _valuation_instance,
    "pixellation": _pixellation_instance,
}


def verify(suite: str, config: VerifyConfig | None = None) -> Report:
    """Run a named suite and return its report (record order is fixed)."""
    if suite not in _SUITE_BODIES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    cfg = config or VerifyConfig()
    body = _SUITE_BODIES[suite]
    start = time.perf_counter()
    records = tuple(
        r for n in cfg.dimensions for i in range(cfg.instances) for r in body(cfg, n, i)
    )
    runtime = time.perf_counter() - start
    return Report(
        command=f"verify {suite}",
        digest=_digest(suite, cfg),
        seed=cfg.seed,
        records=records,
        runtime_seconds=runtime,
    )
