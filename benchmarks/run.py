"""l1geo benchmark entry point.

    python3 benchmarks/run.py --workload set-algebra --seed 0 --seconds 25 --trace 0

Run from anywhere; the library is imported from the ``src`` directory next
to this one.  Each workload process is a fresh interpreter, single-threaded,
with BLAS and OpenMP pools held to one thread.

With ``--trace 0`` the run sets up the workload several times in fresh
processes (the median is ``setup_s``), then measures a closed loop of
passes for ``--seconds`` seconds in the last of them.  Its times are in
reference seconds: wall seconds scaled by a probe of the host's speed (see
``reference.py``).  With ``--trace 1``
it runs a fixed number of passes each untraced and traced, and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import tracer  # the per-layer metric table; l1geo is imported by the workers only

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUPS = 5
DEADLINE_S = 170.0

# (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its start time and its parsed last stdout line."""
    start = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return start, json.loads(lines[-1])


def measure(args, env: dict, deadline: float) -> tuple[dict, dict]:
    """Return (worker result, metrics) for one run."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        _, res = spawn(["--mode", "trace", *common, "--spans", str(spans)], env, deadline)
        res["spans"] = spans.relative_to(ROOT)
        return res, res.pop("layers")
    setups = []
    for _ in range(SETUPS - 1):
        start, res = spawn(["--mode", "setup", *common], env, deadline)
        setups.append((res["ready"] - start) * res["ready_scale"])
    start, res = spawn(["--mode", "time", *common, "--seconds", str(args.seconds)], env, deadline)
    setups.append((res["ready"] - start) * res["ready_scale"])
    metrics = {
        "ops_per_s": res["attempted"] / res["ref_s"],
        "wall_s": res["ref_s"] / res["passes"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "l1geo" / "__init__.py").is_file():
        print(f"error: no l1geo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    deadline = monotonic() + DEADLINE_S
    try:
        res, metrics = measure(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracer.metric_specs()}
    env_info = dict(res["env"], commit=git_commit(ROOT), seed=args.seed, workload=args.workload)
    attempted, failed = res["attempted"], res["failed"]
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    print(f"passes {res['passes']}  ops {attempted}  failed {failed}  failed_frac {failed / attempted} ratio")
    print(f"records_sha256 {res['records_sha256']}")
    if args.trace:
        print(f"untraced_s {res['untraced_s']} s  traced_s {res['traced_s']} s  spans {res['spans']}")
    else:
        busy, ref = res["busy_s"], res["ref_s"]
        print(
            f"wall {res['elapsed_s']} s  busy {busy} s  reference {ref} s  "
            f"probes {res['probes']}  raw_ops_per_s {attempted / busy} 1/s  raw_wall_s {busy / res['passes']} s"
        )
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
