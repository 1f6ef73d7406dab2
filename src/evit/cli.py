"""Command line interface.

Subcommands:

* ``build``     - construct a variant (or ``all`` four) and print its parameter/FLOP
  report; ``--verify`` also counts MACs in an executed forward pass
* ``gradcheck`` - verify sampled analytic gradients against finite differences
* ``train``     - run toy training from a config file
* ``attnmap``   - export per-head attention maps for an image as PGM files

Exit codes: 0 success, 1 gradcheck mismatch, 2 usage, configuration or file
error (a path that is missing, is a directory, or blocks an output directory)
or not enough memory, 3 non-finite values (a gradient during verification, or
a training loss).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import cost_report, export_attention_maps, measure_macs, parameter_count
from .attention import ConnectionPattern
from .backbone import VARIANTS, build, reduced_variant
from .checkpoint import load_checkpoint
from .config import apply_env_overrides, read_config
from .data import read_image
from .errors import ConfigError, NonFiniteError, ShapeError
from .feedforward import FfnKind
from .gradcheck import run_gradcheck
from .train import run_training

_PATTERNS = tuple(p.value for p in ConnectionPattern)
_FFNS = tuple(k.value for k in FfnKind)
# a run that goes non-finite ends in one error or FAIL line; numpy's overflow
# warnings on the way there would only repeat it
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _add_build(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("build", help="construct a variant and print its cost report")
    p.add_argument("--variant", choices=sorted(VARIANTS) + ["all"], default="tiny")
    p.add_argument("--input", type=int, default=224, help="square input size (default 224)")
    p.add_argument("--pattern", choices=_PATTERNS, default="bifovea")
    p.add_argument("--ffn", choices=_FFNS, default="bffn")
    p.add_argument(
        "--report", choices=("params", "flops", "table"), default="table",
        help="which columns to print",
    )
    p.add_argument("--csv", metavar="PATH", help="also write the per-module table as CSV")
    p.add_argument(
        "--verify", action="store_true",
        help="also count MACs in an instrumented forward pass and compare",
    )


def _add_gradcheck(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gradcheck", help="verify gradients on a reduced model")
    p.add_argument("--variant", choices=sorted(VARIANTS), default="tiny")
    p.add_argument("--input", type=int, default=32)
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3, help="finite-difference step h")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--width-divisor", type=int, default=4)
    p.add_argument("--pattern", choices=_PATTERNS, default="bifovea")
    p.add_argument("--ffn", choices=_FFNS, default="bffn")


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train on the toy dataset per a config file")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--out", default="train_out", metavar="DIR")


def _add_attnmap(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("attnmap", help="export per-head attention maps as PGM images")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--image", required=True, metavar="PATH", help="a .pgm or .ppm file")
    p.add_argument("--stage", type=int, default=3, help="stage number, 1-4")
    p.add_argument("--block", type=int, default=0, help="block index within the stage, from 0")
    p.add_argument(
        "--fovea", choices=("shallow", "deep"), default="shallow",
        help="which attention pathway to visualize",
    )
    p.add_argument("--out", default="attn_maps", metavar="DIR")


def _deviation(dev: float | None) -> str:
    """Signed percentage; references exist only at 224x224, elsewhere "n/a"."""
    return "n/a" if dev is None else f"{dev:+.2%}"


def _cmd_build(args) -> int:
    names = list(VARIANTS) if args.variant == "all" else [args.variant]
    if args.csv and len(names) > 1:
        raise ConfigError("--csv writes one variant's table; name a variant, not 'all'")
    pattern, ffn_kind = ConnectionPattern(args.pattern), FfnKind(args.ffn)
    reports = []
    for name in names:
        report = cost_report(
            VARIANTS[name], input_size=args.input, pattern=pattern, ffn_kind=ffn_kind
        )
        print(report.render(detail=args.report))
        if args.verify:
            graph = build(name, seed=0, pattern=pattern, ffn_kind=ffn_kind)
            counted = measure_macs(graph, input_size=args.input).total
            match = "OK" if counted == report.total_macs_inclusive else "MISMATCH"
            print(
                f"instrumented forward: {counted:,} MACs vs analytic inclusive "
                f"{report.total_macs_inclusive:,} [{match}]"
            )
        reports.append(report)
    if args.csv:
        reports[0].write_csv(args.csv)
        print(f"wrote {args.csv}")
    if len(reports) > 1:
        print(f"\n{'variant':<8}{'params':>14}{'dev':>9}{'flops (dense)':>18}{'dev':>9}")
        for r in reports:
            print(
                f"{r.variant:<8}{r.total_params:>14,}{_deviation(r.param_deviation):>9}"
                f"{r.total_macs_dense:>18,}{_deviation(r.flop_deviation):>9}"
            )
    return 0


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    spec = reduced_variant(
        VARIANTS[args.variant], width_divisor=args.width_divisor, num_classes=2
    )
    # each sample runs two forwards, so a count past the entries to sample
    # would run for hours; checked before ``build`` allocates the model
    entries = parameter_count(spec, FfnKind(args.ffn))
    if args.samples > entries:
        raise ConfigError(
            f"--samples must be at most the reduced model's {entries:,} parameters, "
            f"got {args.samples}"
        )
    with np.errstate(**_QUIET):
        result = run_gradcheck(
            spec,
            seed=args.seed,
            input_size=args.input,
            samples=args.samples,
            h=args.step,
            tolerance=args.tolerance,
            pattern=ConnectionPattern(args.pattern),
            ffn_kind=FfnKind(args.ffn),
        )

    for s in result.samples:
        print(
            f"{s.name}[{','.join(map(str, s.index))}] analytic={s.analytic:+.6e} "
            f"numeric={s.numeric:+.6e} rel_err={s.rel_error:.3e}"
        )
    print(
        f"max relative error {result.max_rel_error:.3e} over {len(result.samples)} "
        f"samples (tolerance {result.tolerance:.1e})"
    )
    if not result.finite:
        print("FAIL: non-finite gradient encountered", file=sys.stderr)
        return 3
    if not result.passed:
        print("FAIL: analytic gradients disagree with finite differences", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def _cmd_train(args) -> int:
    config = apply_env_overrides(read_config(args.config))
    with np.errstate(**_QUIET):
        result = run_training(config, args.out)
    print(
        f"finished {result.steps} steps: final loss {result.final_loss:.4f}, "
        f"training accuracy {result.final_accuracy:.2%}"
    )
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_attnmap(args) -> int:
    graph = load_checkpoint(args.checkpoint)
    image = read_image(args.image)
    fovea = "sfa" if args.fovea == "shallow" else "dfa"
    paths = export_attention_maps(
        graph, image, stage=args.stage, block=args.block, out_dir=args.out, fovea=fovea
    )
    for path in paths:
        print(path)
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "attnmap": _cmd_attnmap,
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors (subcommands' too) as ConfigError: one ``error:`` line."""

    def error(self, message: str):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="evit",
        description="bi-fovea vision backbone: cost reports, gradient checks, "
        "toy training and attention visualization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_build(sub)
    _add_gradcheck(sub)
    _add_train(sub)
    _add_attnmap(sub)

    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
