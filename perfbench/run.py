"""Benchmark harness for the evit package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infer_tiny224 --seed 1 --seconds 20 --trace 0

The harness imports ``evit`` from ``src/`` of the checkout it sits in and
times calls into the package's public functions. Each workload is a closed
loop with one client in one process: the next operation starts only when the
previous one has returned. Every operation's output is checked against values
pinned in ``perfbench/oracle.json``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics named in ``BENCHMARK.json``. With
``--trace 1`` it holds the per-layer metrics instead, taken from spans that
``perfbench/tracer.py`` records around the package's functions; that run also
prints the per-layer table and checks the traced MAC counts against the
analytic cost report. ``perfbench/metrics.json`` says what each metric
measures and which end-to-end metric it is expected to move.

A copy of each result, with the environment it was measured in, is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("infer_tiny224", "train_tiny224", "train_toy32")


def cap_blas_threads() -> None:
    """Let numpy/BLAS use at most as many threads as this process has CPUs.

    Must run before numpy is imported. A lower setting in the environment is
    kept.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def import_evit():
    """Import ``evit`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import evit

    location = Path(evit.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"evit was imported from {location}, not from {src}")
    return evit


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    try:
        import_evit()
    except ImportError as exc:
        print(f"perfbench: cannot import evit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import envinfo
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = envinfo.environment()
        print(envinfo.render(env))
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not produce metrics {missing}")
    metrics = {name: {"value": result.metrics[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")

    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, detail=result.detail)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.spans_csv:
        (out_dir / f"{stem}-spans.csv").write_text(result.spans_csv)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
