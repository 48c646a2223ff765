"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and thread pools pinned to one thread.  Prints one
JSON object on its last stdout line.

Modes:
  setup  set up and exit; reports when the inputs were ready and the
         reference scale (see ``reference.py``) measured right after.
  time   set up, then run passes until ``--seconds`` have elapsed, with the
         reference probe sampling the host's speed throughout.
  trace  set up, run the workload's fixed number of passes each once
         untraced and once under the tracer; reports per-layer metrics and
         writes the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import monotonic, perf_counter

import l1geo
import numpy
import reference
import tracer
import workloads

# Probes timed right after set-up, to scale the set-up time.
READY_PROBES = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(l1geo.__file__).resolve().is_relative_to(src):
        print(f"l1geo imported from {l1geo.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workloads.warm_up(args.workload, args.seed)
    out = {"ready": monotonic()}
    probe = reference.Probe()
    probe()  # first call pays one-off costs
    out["ready_scale"] = reference.scale([probe() for _ in range(READY_PROBES)])
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "time":
        out.update(_timed(args.workload, args.seed, args.seconds, probe))
    else:
        out.update(_traced(args.workload, args.seed, args.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l1geo": l1geo.__version__,
    }
    print(json.dumps(out))
    return 0


def _timed(workload: str, seed: int, seconds: float, probe: reference.Probe) -> dict:
    """Closed loop: start passes until ``seconds`` have elapsed.

    ``busy_s`` is the wall time spent in passes, without the probes; the
    probe times convert it to reference seconds (``ref_s``).
    """
    total = workloads.Tally()
    passes = 0
    first = None
    start = perf_counter()
    with reference.Sampler(probe) as sampler:
        while not passes or perf_counter() - start < seconds:
            tally = workloads.run_pass(workload, seed, passes)
            passes += 1
            total.add(tally)
            first = first or tally.records
    elapsed = perf_counter() - start
    busy = elapsed - sampler.total
    probes = sampler.times or [probe()]
    return {
        "passes": passes,
        "attempted": total.attempted,
        "failed": total.failed,
        "elapsed_s": elapsed,
        "busy_s": busy,
        "ref_s": busy * reference.scale(probes),
        "probes": len(probes),
        "records_sha256": workloads.fingerprint(first),
    }


def _traced(workload: str, seed: int, spans_path: str) -> dict:
    """Each pass once untraced and once traced; the ratio is the overhead.

    The order alternates from pass to pass, so neither side gains from
    running second or from a drift in machine speed.  The pass count is
    fixed, so call counts repeat exactly between commits.
    """
    total = workloads.Tally()
    first = None
    tr = tracer.Tracer()
    wall = {False: 0.0, True: 0.0}
    for p in range(workloads.TRACE_PASSES[workload]):
        for traced in (False, True) if p % 2 == 0 else (True, False):
            with tr if traced else contextlib.nullcontext():
                start = perf_counter()
                tally = workloads.run_pass(workload, seed, p)
                wall[traced] += perf_counter() - start
            total.add(tally)
            first = first or tally.records
    if spans_path:
        tr.write(spans_path)
    return {
        "passes": workloads.TRACE_PASSES[workload],
        "attempted": total.attempted,
        "failed": total.failed,
        "untraced_s": wall[False],
        "traced_s": wall[True],
        "layers": tr.metrics(wall[True], wall[False]),
        "records_sha256": workloads.fingerprint(first),
    }


if __name__ == "__main__":
    sys.exit(main())
