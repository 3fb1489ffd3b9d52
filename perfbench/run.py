"""End-to-end frame benchmark of the UPAQ deployment runtime.

Run from the repository root::

    python3 perfbench/run.py --workload pp-trained-stream --seed 0 \
        --seconds 58 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` wraps the calls into each
layer, reports the per-layer metrics and writes the spans under
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit code
2 means the benchmark could not run (no ``src/repro`` package next to
it, a missing or changed checkpoint).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> str | None:
    """Import ``repro`` from this checkout's ``src``; an error or None."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        return f"cannot import repro from {src}: {error}"
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return f"repro imported from {repro.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {names}", file=sys.stderr)
        return 2
    # One BLAS thread: an idle BLAS worker spins on the second core, and
    # a frame whose BLAS call waits for a descheduled worker measures
    # the host's scheduler.  Set before numpy is first imported.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    error = import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BenchmarkError
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    missing = [entry["name"] for entry in wanted
               if entry["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for entry in wanted:
        print(f"{entry['name']:48s} {metrics[entry['name']]:14.6f} "
              f"{entry['unit']}", file=sys.stderr)
    result["metrics"] = {entry["name"]: {"value": metrics[entry["name"]],
                                         "unit": entry["unit"]}
                         for entry in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
