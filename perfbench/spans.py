"""Span recorder for the traced run.

``Recorder.install`` wraps every public function of the five gaussent
modules (plus ``MeasurementSpec.__post_init__``) and rebinds each wrapper in
every gaussent namespace that holds a reference to the original, since
``cli`` and ``protocol`` import names from the lower layers directly.  A span
records its name, start, end, parent span and item id; spans stay in memory
until ``write``.  Self time is a span's duration minus the time covered by its
children (spans are strictly nested, the run being single-threaded).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("core", "ops", "separability", "protocol", "cli")

#: Float64 arrays of length ``count`` that sample_preparation fills: five
#: normal draws and the four-row sample stack (a model from array sizes).
SAMPLE_ARRAYS = 9

_CONDITION = ("ops.condition_general", "ops.condition_homodyne")
_NUMERIC = ("protocol.numeric_threshold_r_e", "protocol.numeric_threshold_r_m")

#: (metric prefix, span names it sums, whether ``.calls`` is reported)
SPAN_GROUPS = (
    ("core.char_poly_invariants", ("core.char_poly_invariants",), True),
    ("core.symplectic_eigenvalues", ("core.symplectic_eigenvalues",), True),
    ("core.validate_cm", ("core.validate_cm",), True),
    ("core.partial_transpose", ("core.partial_transpose",), False),
    ("core.reduce_modes", ("core.reduce_modes",), False),
    ("core.load_state", ("core.load_state",), False),
    ("core.save_state", ("core.save_state",), False),
    ("ops.condition_general", ("ops.condition_general",), True),
    ("ops.condition_homodyne", ("ops.condition_homodyne",), True),
    ("ops.measurement_spec", ("ops.measurement_spec",), False),
    ("ops.sample_preparation", ("ops.sample_preparation",), True),
    ("separability.two_mode_metrics", ("separability.two_mode_metrics",), True),
    ("separability.splitting_sigma", ("separability.splitting_sigma",), True),
    ("separability.classify_three_mode", ("separability.classify_three_mode",), True),
    ("separability.localizable_mu", ("separability.localizable_mu",), True),
    ("separability.measurement_scan_oracle", ("separability.measurement_scan_oracle",), True),
    ("protocol.closed_forms", tuple(f"protocol.{n}" for n in (
        "initial_cm", "shared_blocks", "shared_cm", "final_cm", "reduced_pair_cm")), True),
    ("protocol.thresholds", tuple(f"protocol.{n}" for n in (
        "threshold_r_l", "threshold_r_e", "threshold_r_m", "mu_m", "cubic_pq", "threshold_report")), True),
    ("protocol.numeric_threshold", _NUMERIC, True),
    ("protocol.stage_state", ("protocol.stage_state",), True),
    ("cli.main", ("cli.main",), True),
    ("cli.build_parser", ("cli.build_parser",), False),
)
#: Counters kept by the wrappers or the CLI helper, reported per item.
COUNTERS = (
    ("core.io_bytes", "B/item"),
    ("core.errors", "errors/item"),
    ("ops.sample_preparation.bytes_computed", "B/item"),
    ("ops.errors", "errors/item"),
    ("separability.boundary_verdicts", "verdicts/item"),
    ("separability.errors", "errors/item"),
    ("protocol.errors", "errors/item"),
    ("cli.rows_out", "rows/item"),
    ("cli.bytes_out", "B/item"),
    ("cli.exit_nonzero", "exits/item"),
)


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, namer=None, after=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:  # count where it was raised, not on the way up
                    self._last_error = exc
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (span_name, start, end, parent, self.item)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _hooks(self, name: str, fn):
        """Span namer and post-call counter for the functions that need one."""
        counts = self.counts
        if name == "condition_on_measurement":
            args_of = _bound(fn)

            def namer(args, kwargs):
                kind = args_of(args, kwargs)["spec"].kind
                return _CONDITION[0] if kind == "general-gaussian" else _CONDITION[1]
            return namer, None
        if name in ("splitting_sigma", "two_mode_metrics"):
            def after(result, args, kwargs):
                counts["separability.boundary_verdicts"] += bool(result.boundary)
            return None, after
        if name in ("load_state", "save_state"):
            args_of = _bound(fn)

            def after(result, args, kwargs):
                counts["core.io_bytes"] += os.path.getsize(args_of(args, kwargs)["path"])
            return None, after
        if name == "sample_preparation":
            def after(result, args, kwargs):
                counts["ops.sample_preparation.bytes_computed"] += 8 * SAMPLE_ARRAYS * result.count
            return None, after
        if name == "measurement_scan_oracle":
            args_of = _bound(fn)

            def after(result, args, kwargs):
                a = args_of(args, kwargs)
                counts["separability.scan_seeds"] += a["n_theta"] * a["n_t"]
            return None, after
        return None, None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import gaussent

        modules = {layer: importlib.import_module(f"gaussent.{layer}") for layer in LAYERS}
        namespaces = [gaussent, *modules.values()]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", fn, *self._hooks(name, fn))
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is fn]:
                        self._patch(ns, attr, wrapper)
        spec = modules["ops"].MeasurementSpec
        self._patch(spec, "__post_init__", self._wrap("ops", "ops.measurement_spec", spec.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as f:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")

    def report(self, items: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, each ``{"value", "unit"}``, normalised per traced item."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]

        def ancestors(sid):
            while (sid := spans[sid][3]) >= 0:
                yield spans[sid][0]

        scan_conditionings = sum(
            1 for sid, s in enumerate(spans)
            if s[0] in _CONDITION and "separability.measurement_scan_oracle" in ancestors(sid)
        )
        root_evals = sum(
            1 for s in spans
            if s[0] in ("protocol.reduced_pair_cm", "protocol.shared_cm")
            and s[3] >= 0 and spans[s[3]][0] in _NUMERIC
        )
        roots = sum(calls[n] for n in _NUMERIC)

        out = {}
        for prefix, names, with_calls in SPAN_GROUPS:
            if with_calls:
                out[f"{prefix}.calls"] = (sum(calls[n] for n in names) / items, "calls/item")
            out[f"{prefix}.self_ms"] = (1e3 * sum(self_s[n] for n in names) / items, "ms/item")
        for name, unit in COUNTERS:
            out[name] = (self.counts[name] / items, unit)
        seeds = self.counts["separability.scan_seeds"]
        out["separability.conditionings_per_scan"] = (scan_conditionings / seeds if seeds else 0.0, "ratio")
        out["protocol.root_evals_per_root"] = (root_evals / roots if roots else 0.0, "evals/root")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["trace.items"] = (float(items), "items")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}
