"""Pipeline benchmark entry point.

Run from the repository root::

    python3 pipebench/run.py --workload serve_tz2_u2400_lru --seed 1 \\
        --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process (so
``peak_rss_mb`` is per workload).  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric plus the tracing
overhead, and the spans are written to
``.bench_build/pipebench/trace-<workload>-<seed>.jsonl``.  Lines before
it are the resolved configuration and a human-readable metric table.
The exit code is 0 only when every route was correct.

Builds and reads the program from ``src/`` of the checkout it runs in,
and writes only under ``.bench_build/`` there.  A workload runs pinned to
one core, its cluster workers too (see :func:`_pin_one_core`).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "pipebench")


def _fail(message: str) -> NoReturn:
    print(f"pipebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program sources at {SRC!r}; run from a full checkout")
    # the native kernel cache and every temporary file (the C compiler's
    # included) stay inside this checkout
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(
        ROOT, ".bench_build", "repro-native"
    )
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _fail(f"imported repro from {repro.__file__!r}, not from {SRC!r}")


def _pin_one_core() -> None:
    """Run this process, and every process it starts, on one core.

    The cluster's client and workers wake each other for every RPC; on a
    shared VM a cross-core wake-up costs anything from microseconds to
    milliseconds, depending on what the host runs at the time, which
    halved or doubled the cluster's throughput from run to run.  On one
    core each wake-up is a local context switch, and every timing scales
    with the one host-speed calibration the benchmark applies."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def _run_all(args: argparse.Namespace, names: list) -> int:
    status = 0
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    import pipeline

    workloads = pipeline.load_workloads()
    if args.workload == "all":
        return _run_all(args, list(workloads))
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)} or all")
    _pin_one_core()
    os.makedirs(WORKDIR, exist_ok=True)
    trace_out = os.path.join(
        WORKDIR, f"trace-{args.workload}-{args.seed}.jsonl"
    )
    try:
        result = pipeline.run_workload(
            workloads[args.workload], args.seed, args.seconds,
            trace=bool(args.trace), workdir=WORKDIR,
            trace_out=trace_out if args.trace else None,
        )
    except pipeline.InputDriftError as exc:
        _fail(str(exc))
    print("config " + json.dumps(result.config, sort_keys=True))
    for key, value in sorted(result.notes.items()):
        print(f"note {key} = {json.dumps(value)}")
    width = max(len(k) for k in result.metrics)
    for name, value in result.metrics.items():
        print(f"metric {name:<{width}} {value:>16.6g} {result.units[name]}")
    if not args.trace:
        print(f"metric {'route_fail_ratio':<{width}} "
              f"{result.notes['route_fail_ratio']:>16.6g} ratio")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
