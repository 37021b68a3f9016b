"""Command-line front end.

Subcommands: ``thresholds``, ``sweep``, ``gap-sweep``, ``analyze``,
``montecarlo``, ``classify``.  Sweeps emit CSV (or JSON rows with
``--format json``), everything else emits JSON.  All numbers come straight
from library calls, rounded to 12 significant digits; identical
configurations produce byte-identical output.  JSON is rounded and
formatted in one walk of the payload, into the bytes that
``json.dumps(..., indent=2)`` prints for the rounded payload.  ``sweep`` and
``gap-sweep`` print the columns of :func:`gaussent.protocol.sweep_profile`
and :func:`gaussent.protocol.gap_profile` by name: closed forms in ``r`` and
``epsilon``, no matrix.  ``analyze`` prints a built stage's matrix and its
report from closed forms, :func:`gaussent.protocol.stage_state`, and judges no
matrix.  ``classify`` validates the matrix it reads once, in
:func:`gaussent.core.load_state`, then checks its mode count.  Numeric
options must be finite and nonnegative; ``sweep`` and ``analyze`` refuse
``max(r, epsilon) > ln(DBL_MAX) / 2`` with one ``DomainError``.  JSON and CSV
share one non-finite rule: a NaN or infinity formats as ``nan`` or ``inf``, and
text holding either fails the command rather than print, naming its key path
(or row and column); so does a floating-point error or an array too large to
allocate, with one line on stderr.
Exit codes: 0 success, 1 validation or numerical failure, 2 usage error.
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
from .separability import _of_modes, _three_mode_report

# the stage names, plus a spelling without the quote
_STAGE_ALIASES = {**{stage: stage for stage in protocol.STAGES}, "final-via-Aprime": protocol.STAGE_FINAL_VIA_APRIME}


_encode_str = json.encoder.encode_basestring_ascii
#: The exponents of a ``"%.12g"`` text that ``repr`` of its float prints without one.
_REPR_EXPONENTS = ("e+12", "e+13", "e+14", "e+15")


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a payload whose floats are rounded to 12 significant digits, rounded
    and formatted in one walk: ``indent`` is the newline and indent before the next item of ``value``.  A float
    prints as ``repr`` of its rounding, which is its ``"%.12g"`` text with ``.0`` appended to an integer, except
    where ``repr`` drops the exponent (``e+12`` to ``e+15``) or prints fewer digits of a subnormal (``e-3xx``);
    those two go through ``repr``.  A NaN or infinity prints as ``nan`` or ``inf``, for ``_write_checked`` to
    refuse; dict keys must be strings.  Floats, the most common leaf, are tested first."""
    if isinstance(value, (float, np.floating)):
        text = "%.12g" % value
        if "e" not in text:
            return text if "." in text or "n" in text else text + ".0"
        return repr(float(text)) if text[-4:] in _REPR_EXPONENTS or text[-5:-2] == "e-3" else text
    if isinstance(value, str):
        return _encode_str(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, which it subclasses
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _raise_non_finite(value, path: str = "") -> None:
    """Raise ``ValueError`` naming the key path of the first NaN or infinity in a payload, if it holds one."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in output at {path.lstrip('.') or 'top level'} = {float(value)}")
    elif isinstance(value, dict):
        for k, v in value.items():
            _raise_non_finite(v, f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _raise_non_finite(v, f"{path}[{i}]")


def _write_checked(text: str, output: str | None, payload) -> None:
    """Write ``text``, unless it holds a non-finite number: a NaN or infinity prints as ``nan`` or ``inf``, and only
    then is ``payload()`` built and walked to name its path.  Text such as a key holding ``inf`` costs that walk."""
    if "nan" in text or "inf" in text:
        _raise_non_finite(payload())
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(payload, output: str | None) -> None:
    """Write a payload as indented JSON, floats to 12 significant digits; a NaN or infinity raises ``ValueError``."""
    _write_checked(_json_text(payload) + "\n", output, lambda: payload)


def _emit_profile(profile: dict, fmt: str, output: str | None) -> None:
    """Write columns by name (arrays of one length) as CSV, floats to 12 significant digits, or as JSON rows."""
    rows = list(zip(*(col.tolist() for col in profile.values())))
    if fmt == "json":
        _emit_json([dict(zip(profile, row)) for row in rows], output)
        return
    # one row template from the column kinds ('%.12g' % v == f"{v:.12g}"), filled by one % per row: one % over
    # the whole table builds one table-sized string per call, which fragmented the heap: +0.6 MB peak RSS over
    # 6000 sweeps in one process
    template = ",".join("%.12g" if col.dtype.kind == "f" else "%s" for col in profile.values())
    text = "\n".join([",".join(profile)] + [template % row for row in rows]) + "\n"
    _write_checked(text, output, lambda: [dict(zip(profile, row)) for row in rows])


def _cmd_thresholds(args) -> dict:
    return protocol.threshold_report(args.epsilon).to_json_dict()


def _cmd_sweep(args) -> dict:
    return protocol.sweep_profile(np.linspace(args.r_min, args.r_max, args.steps), args.epsilon)


def _cmd_gap_sweep(args) -> dict:
    return protocol.gap_profile(np.linspace(args.eps_min, args.eps_max, args.steps))


def _cmd_analyze(args) -> dict:
    stage = protocol.stage_state(protocol.ProtocolParams(args.r, args.epsilon), _STAGE_ALIASES[args.stage])
    return {
        "stage": stage.stage,
        "r": args.r,
        "epsilon": args.epsilon,
        "state": stage.state.to_json_dict(),
        "report": stage.report.to_json_dict(),
    }


def _cmd_montecarlo(args) -> dict:
    return sample_preparation(protocol.ProtocolParams(args.r, args.epsilon), args.samples, args.seed).to_json_dict()


def _cmd_classify(args) -> dict:
    # load_state has validated the matrix; only its mode count is left to check
    return _three_mode_report(_of_modes(load_state(args.input).cm, 3)).to_json_dict()


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
            result = args.func(args)
            if "format" in args:  # sweep and gap-sweep print columns
                _emit_profile(result, args.format, args.output)
            else:
                _emit_json(result, args.output)
    except (GaussentError, ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
