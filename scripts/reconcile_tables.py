#!/usr/bin/env python3
"""Print the cost reconciliation for every published variant.

For each of tiny/small/base/large this builds the analytic cost report at
224x224, prints the per-module table with parameter and MAC columns, and
shows the deviation from the published reference budgets. With --verify it
additionally builds each model and counts multiplies in an instrumented
forward pass, confirming the analytic table matches the executed graph
integer for integer (slow for base/large, a few seconds each).

Usage:
    python3 scripts/reconcile_tables.py [--input 224] [--detail table] [--verify]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evit.analysis import cost_report, measure_macs
from evit.backbone import VARIANTS, build


def _deviation(dev: float | None) -> str:
    """Signed percentage; references exist only at 224x224, elsewhere "n/a"."""
    return "n/a" if dev is None else f"{dev:+.2%}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=int, default=224, help="input resolution")
    ap.add_argument(
        "--detail", choices=["params", "flops", "table"], default="table",
        help="columns to print per module",
    )
    ap.add_argument(
        "--verify", action="store_true",
        help="also run an instrumented forward pass per variant",
    )
    args = ap.parse_args(argv)

    summary = []
    for name, spec in VARIANTS.items():
        report = cost_report(spec, input_size=args.input)
        print(report.render(detail=args.detail))
        if args.verify:
            graph = build(spec, seed=0, input_size=args.input)
            counted = measure_macs(graph, input_size=args.input).total
            match = "OK" if counted == report.total_macs_inclusive else "MISMATCH"
            print(
                f"instrumented forward: {counted:,} MACs vs analytic inclusive "
                f"{report.total_macs_inclusive:,} [{match}]"
            )
        print()
        summary.append(
            (name, report.total_params, report.param_deviation,
             report.total_macs_dense, report.flop_deviation)
        )

    print(f"{'variant':<8}{'params':>14}{'dev':>9}{'flops (dense)':>18}{'dev':>9}")
    for name, params, pdev, flops, fdev in summary:
        print(f"{name:<8}{params:>14,}{_deviation(pdev):>9}{flops:>18,}{_deviation(fdev):>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
