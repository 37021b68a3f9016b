"""Command-line front end.

Subcommands: ``thresholds``, ``sweep``, ``gap-sweep``, ``analyze``,
``montecarlo``, ``classify``.  Sweeps emit CSV (or JSON rows with
``--format json``), everything else emits JSON.  All numbers come straight
from library calls, rounded to 12 significant digits; identical
configurations produce byte-identical output.  ``sweep`` and ``gap-sweep``
print the columns of :func:`gaussent.protocol.sweep_profile` and
:func:`gaussent.protocol.gap_profile` by name, which have the numbers and
checks of the one-state functions.  Numeric options must be finite and
nonnegative, and a non-finite result fails the command rather than print
``NaN``, naming its key path (or row and column); so does a floating-point
overflow, division by zero, invalid operation or array too large to
allocate, with one line on stderr.  Exit codes: 0 success, 1 validation or
numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import protocol
from .core import load_state
from .errors import GaussentError
from .ops import sample_preparation
from .separability import classify_three_mode

# the stage names, plus a spelling without the quote
_STAGE_ALIASES = {**{stage: stage for stage in protocol.STAGES}, "final-via-Aprime": protocol.STAGE_FINAL_VIA_APRIME}


def _round12(value, path: str = ""):
    """Round floats to 12 significant digits, recursing through containers; a NaN
    or infinity raises ``ValueError`` naming its key path in the payload."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in output at {path.lstrip('.') or 'top level'} = {float(value)}")
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _round12(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(payload, output: str | None) -> None:
    _emit(json.dumps(_round12(payload), indent=2) + "\n", output)


def _emit_profile(profile: dict, fmt: str, output: str | None) -> None:
    """Write columns by name (arrays of one length) as CSV, floats to 12 significant digits, or as JSON rows."""
    columns = [col.tolist() for col in profile.values()]
    if fmt == "json":
        _emit_json([dict(zip(profile, row)) for row in zip(*columns)], output)
        return
    kinds = (col.dtype.kind for col in profile.values())
    cells = ([f"{v:.12g}" for v in col] if kind == "f" else map(str, col) for kind, col in zip(kinds, columns))
    text = "\n".join([",".join(profile)] + list(map(",".join, zip(*cells)))) + "\n"
    # a non-finite cell prints as nan or inf; only then walk the rows to name its row and column
    if "nan" in text or "inf" in text:
        _round12([dict(zip(profile, row)) for row in zip(*columns)])
    _emit(text, output)


def _cmd_thresholds(args) -> int:
    _emit_json(protocol.threshold_report(args.epsilon).to_json_dict(), args.output)
    return 0


def _cmd_sweep(args) -> int:
    profile = protocol.sweep_profile(np.linspace(args.r_min, args.r_max, args.steps), args.epsilon)
    _emit_profile(profile, args.format, args.output)
    return 0


def _cmd_gap_sweep(args) -> int:
    profile = protocol.gap_profile(np.linspace(args.eps_min, args.eps_max, args.steps))
    _emit_profile(profile, args.format, args.output)
    return 0


def _cmd_analyze(args) -> int:
    stage = protocol.stage_state(protocol.ProtocolParams(args.r, args.epsilon), _STAGE_ALIASES[args.stage])
    payload = {
        "stage": stage.stage,
        "r": args.r,
        "epsilon": args.epsilon,
        "state": stage.state.to_json_dict(),
        "report": stage.report.to_json_dict(),
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_montecarlo(args) -> int:
    batch = sample_preparation(
        protocol.ProtocolParams(args.r, args.epsilon), args.samples, args.seed
    )
    _emit_json(batch.to_json_dict(), args.output)
    return 0


def _cmd_classify(args) -> int:
    state = load_state(args.input)
    _emit_json(classify_three_mode(state.cm).to_json_dict(), args.output)
    return 0


def _nonneg(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # False for NaN too
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gaussent`` argument parser, built on the first call and shared by
    every later call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="gaussent",
        description="Analyze the three-mode Gaussian entanglement-sharing protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("thresholds", help="squeezing thresholds at one noise value")
    p.add_argument("--epsilon", type=_nonneg, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("sweep", help="mu curves and class labels versus squeezing")
    p.add_argument("--epsilon", type=_nonneg, required=True)
    p.add_argument("--r-min", type=_nonneg, default=0.0)
    p.add_argument("--r-max", type=_nonneg, default=0.6)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gap-sweep", help="thresholds and their gap versus noise")
    p.add_argument("--eps-min", type=_nonneg, default=0.001)
    p.add_argument("--eps-max", type=_nonneg, default=3.0)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_gap_sweep)

    p = sub.add_parser("analyze", help="full separability report at one protocol stage")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--epsilon", type=_nonneg, required=True)
    p.add_argument("--stage", choices=sorted(_STAGE_ALIASES), required=True)
    add_output(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("montecarlo", help="Monte Carlo check of the preparation step")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--epsilon", type=_nonneg, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    add_output(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("classify", help="classify a three-mode state from a JSON file")
    p.add_argument("--input", required=True, help="covariance-matrix JSON file")
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    return parser


def _validate(args, parser) -> None:
    if args.command in ("sweep", "gap-sweep") and args.steps < 2:
        parser.error(f"--steps must be at least 2, got {args.steps}")
    if args.command == "sweep" and not args.r_min < args.r_max:
        parser.error(f"--r-min must be below --r-max, got {args.r_min} >= {args.r_max}")
    if args.command == "gap-sweep" and not args.eps_min < args.eps_max:
        parser.error(f"--eps-min must be below --eps-max, got {args.eps_min} >= {args.eps_max}")
    if args.command == "montecarlo" and args.samples < 2:
        parser.error(f"--samples must be at least 2, got {args.samples}")
    if args.command == "montecarlo" and args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (GaussentError, ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
