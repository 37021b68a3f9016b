"""Command-line front end.

Subcommands: ``thresholds``, ``sweep``, ``gap-sweep``, ``analyze``,
``montecarlo``, ``classify``.  Sweeps emit CSV (or JSON rows with
``--format json``), everything else emits JSON.  All numbers come straight
from library calls, rounded to 12 significant digits; identical
configurations produce byte-identical output.  ``sweep`` evaluates each
column as one array call over the whole ``r`` grid, with the same numbers
and checks as the one-state functions.  Numeric options must be finite and
nonnegative, and a non-finite result fails the command rather than print
``NaN``; so does a floating-point overflow, division by zero or invalid
operation, with one line on stderr.  Exit codes: 0 success, 1 validation
or numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import protocol
from .core import load_state
from .errors import GaussentError
from .ops import sample_preparation
from .separability import _classify, _pt_metrics, _splittings, classify_three_mode

_STAGE_ALIASES = {
    "initial": protocol.STAGE_INITIAL,
    "shared": protocol.STAGE_SHARED,
    "final-via-A'": protocol.STAGE_FINAL_VIA_APRIME,
    "final-via-Aprime": protocol.STAGE_FINAL_VIA_APRIME,
    "final-via-A": protocol.STAGE_FINAL_VIA_A,
}

SWEEP_COLUMNS = ("r", "mu_pair", "mu_m", "sigma_shared_A", "class_final")
GAP_SWEEP_COLUMNS = ("epsilon", "r_l", "r_e", "r_m", "gap")


def _round12(value):
    """Round floats to 12 significant digits, recursing through containers."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _first_non_finite(value, path: str = ""):
    """``(key path, value)`` of the first NaN or infinity in a JSON payload, or None."""
    if isinstance(value, (float, np.floating)):
        return None if math.isfinite(value) else (path.lstrip(".") or "top level", float(value))
    if isinstance(value, dict):
        keyed = ((f"{path}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        keyed = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next((hit for key, v in keyed if (hit := _first_non_finite(v, key)) is not None), None)


def _refuse_non_finite(payload) -> None:
    """Raise ``ValueError`` naming the key path of the first NaN or infinity in ``payload``, if any."""
    hit = _first_non_finite(payload)
    if hit is not None:
        raise ValueError("non-finite value in output at {} = {}".format(*hit))


def _fmt(value) -> str:
    return f"{float(value):.12g}" if isinstance(value, (float, np.floating)) else str(value)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(payload, output: str | None) -> None:
    # allow_nan=False: a non-finite number fails the command instead of printing NaN
    try:
        text = json.dumps(_round12(payload), indent=2, allow_nan=False)
    except ValueError:
        _refuse_non_finite(payload)
        raise
    _emit(text + "\n", output)


def _emit_rows(columns, rows, fmt: str, output: str | None) -> None:
    if fmt == "json":
        _emit_json([dict(zip(columns, row)) for row in rows], output)
        return
    text = "\n".join([",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]) + "\n"
    # a non-finite cell prints as nan or inf; only then search for its row and column
    if "nan" in text or "inf" in text:
        _refuse_non_finite([dict(zip(columns, row)) for row in rows])
    _emit(text, output)


def _cmd_thresholds(args) -> int:
    report = protocol.threshold_report(args.epsilon)
    payload = {k: v for k, v in report.to_json_dict().items() if k not in ("p", "q")}
    _emit_json(payload, args.output)
    return 0


def _cmd_sweep(args) -> int:
    # one array call per column over the whole grid; the parser has checked that
    # both ends of the grid, and so every r, are finite and nonnegative
    r, eps = np.linspace(args.r_min, args.r_max, args.steps), args.epsilon
    blocks = protocol._blocks(r, eps)
    mu_pair, _, _ = _pt_metrics(protocol._reduced_pair_matrix(blocks))
    sigma_a = _splittings(protocol._shared_matrix(blocks), [0])[0][:, 0]
    _, _, labels = _classify(protocol._final_matrix(blocks, protocol.ROUTE_VIA_APRIME))
    rows = list(zip(*(c.tolist() for c in (r, mu_pair, protocol._mu_m(r, eps), sigma_a, labels))))
    _emit_rows(SWEEP_COLUMNS, rows, args.format, args.output)
    return 0


def _cmd_gap_sweep(args) -> int:
    grid = np.linspace(args.eps_min, args.eps_max, args.steps)
    rows = [tuple(getattr(rep, col) for col in GAP_SWEEP_COLUMNS) for rep in protocol.gap_profile(grid)]
    _emit_rows(GAP_SWEEP_COLUMNS, rows, args.format, args.output)
    return 0


def _cmd_analyze(args) -> int:
    stage = protocol.stage_state(protocol.ProtocolParams(args.r, args.epsilon), _STAGE_ALIASES[args.stage])
    payload = {
        "stage": stage.stage,
        "r": args.r,
        "epsilon": args.epsilon,
        "state": {
            "n_modes": stage.state.n_modes,
            "cm": stage.state.cm.ravel().tolist(),
            "displacement": stage.state.displacement.tolist(),
        },
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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (GaussentError, ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
