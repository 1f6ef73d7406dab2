"""Rebuild perfbench/oracle.json from the evit code in this checkout.

    python3 perfbench/pin_oracle.py

Runs every pool entry of every workload once (a few minutes on two CPUs) and
writes the outputs the benchmark checks operations against. Pin only from
code whose own tests pass: the pinned values are the benchmark's oracle.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.cap_blas_threads()
    run.import_evit()
    import workloads

    work_dir = run.HERE / "out" / "pin"
    work_dir.mkdir(parents=True, exist_ok=True)
    oracle = {"params": workloads.PARAMS}
    try:
        for name, cls in workloads.WORKLOADS.items():
            print(f"pinning {name}", flush=True)
            oracle[name] = cls(0, work_dir, None).pin()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n")
    print(f"wrote {workloads.ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
