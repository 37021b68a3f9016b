"""The benchmark's three workloads: seeded items, how to run one, how to check it.

An item is plain data made from the seed alone.  ``execute`` is the timed
part: the CLI in-process (``gaussent.cli.main`` with ``--output`` to a file)
or the public library functions.  ``collect`` reads what the item produced
and ``check`` compares it with the oracles; both run outside the timed region.

Library functions are looked up on their modules at call time, so the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gaussent.cli
import gaussent.core
import gaussent.ops
import gaussent.protocol
import gaussent.separability

import oracles as orc

#: The r-range over which acceptance tests and oracles are known to agree.
TESTED_R_MAX = 1.5

#: Cause of a miss that no documented defect explains; see perfbench/README.md
#: for the documented causes ("roadmap-3", "roadmap-4", "refused").
UNEXPLAINED = "unexplained"


@dataclass
class Miss:
    cause: str
    detail: str

    @property
    def documented(self) -> bool:
        return self.cause != UNEXPLAINED


def _num(x: float) -> str:
    return repr(float(x))


def run_cli(argv: list[str], output: Path) -> dict:
    """Call ``gaussent.cli.main`` in-process; usage errors arrive as SystemExit."""
    err = io.StringIO()
    raised = None
    with contextlib.redirect_stderr(err):
        try:
            code = gaussent.cli.main([*argv, "--output", str(output)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # noqa: BLE001 - an escaping exception is a miss, not a crash
            code, raised = None, f"{type(exc).__name__}: {exc}"
    return {"code": code, "raised": raised, "output": output}


def read_cli(call: dict) -> dict:
    """Read and remove the output file of one CLI call."""
    path = call["output"]
    text = path.read_text() if path.exists() else ""
    path.unlink(missing_ok=True)
    return {"code": call["code"], "raised": call["raised"], "text": text}


def rows_of(text: str) -> int:
    if not text:
        return 0
    if text.startswith("{"):
        return 1
    if text.startswith("["):
        return len(json.loads(text))
    return text.count("\n") - 1


def canonical(item: dict) -> str:
    """Stable text of an item's inputs, used to show they depend only on the seed."""
    return json.dumps({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                       for k, v in sorted(item.items())})


class Workload:
    name = ""
    #: Items run before timing starts, so lazy set-up and caches are warm.
    warmup = 3

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def items(self, seed: int):
        raise NotImplementedError

    def execute(self, item: dict):
        raise NotImplementedError

    def collect(self, item: dict, raw) -> dict:
        return {"cli": [read_cli(call) for call in raw]}

    def check(self, item: dict, out: dict) -> list[Miss]:
        raise NotImplementedError

    @staticmethod
    def cli_counts(out: dict) -> dict:
        """Rows and bytes the CLI wrote and its nonzero exits, for the cli layer metrics."""
        calls = out.get("cli", ())
        return {
            "cli.rows_out": sum(rows_of(c["text"]) for c in calls),
            "cli.bytes_out": sum(len(c["text"].encode()) for c in calls),
            "cli.exit_nonzero": sum(c["code"] != 0 for c in calls),
        }

    def digest(self, out: dict) -> str:
        """Hash of everything the item produced; traced and untraced runs must agree."""
        h = hashlib.sha256()
        for call in out["cli"]:
            h.update(f"{call['code']}|{call['raised']}|".encode())
            h.update(call["text"].encode())
        return h.hexdigest()


def _csv_rows(text: str, columns: tuple[str, ...]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"header {reader.fieldnames} != {columns}")
    return list(reader)


def _failed_calls(out: dict) -> list[Miss]:
    return [
        Miss(UNEXPLAINED, f"{call['raised'] or 'exit ' + str(call['code'])}")
        for call in out["cli"] if call["code"] != 0
    ]


class Figures(Workload):
    """One ``sweep`` (100 rows, seeded epsilon and r-window) and one default ``gap-sweep``."""

    name = "figures"
    STEPS = 100

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            eps = rng.uniform(0.001, 3.0)
            r_min = rng.uniform(0.0, 1.0)
            r_max = rng.uniform(r_min + 0.2, 1.5)
            yield {"epsilon": eps, "r_min": r_min, "r_max": r_max, "steps": self.STEPS}

    def execute(self, item: dict):
        sweep = run_cli(["sweep", "--epsilon", _num(item["epsilon"]), "--r-min", _num(item["r_min"]),
                         "--r-max", _num(item["r_max"]), "--steps", str(item["steps"])],
                        self.tmp / "sweep.csv")
        gap = run_cli(["gap-sweep"], self.tmp / "gap.csv")
        return (sweep, gap)

    def check(self, item: dict, out: dict) -> list[Miss]:
        misses = _failed_calls(out)
        if misses:
            return misses
        sweep, gap = (call["text"] for call in out["cli"])
        try:
            return self.check_sweep(item, sweep) + self.check_gap(gap)
        except (ValueError, KeyError) as exc:
            return [Miss(UNEXPLAINED, f"unreadable output: {exc}")]

    @staticmethod
    def check_sweep(item: dict, text: str) -> list[Miss]:
        eps = item["epsilon"]
        rows = _csv_rows(text, ("r", "mu_pair", "mu_m", "sigma_shared_A", "class_final"))
        grid = np.linspace(item["r_min"], item["r_max"], item["steps"])
        if len(rows) != len(grid):
            return [Miss(UNEXPLAINED, f"sweep has {len(rows)} rows, expected {len(grid)}")]
        misses = []
        for r, row in zip(grid, rows):
            r = float(r)
            final = orc.stage_cm(r, eps, "final-via-A'")
            want = {
                "r": r,
                "mu_pair": orc.reduced_pair_mu(r, eps),
                "mu_m": orc.homodyne_mu(r, eps),
                "sigma_shared_A": orc.sigma_shared_a(r, eps),
            }
            for col, target in want.items():
                if not orc.close(float(row[col]), target):
                    misses.append(Miss(UNEXPLAINED, f"sweep r={r!r} {col}={row[col]} vs oracle {target!r}"))
            label = orc.expected_class(orc.expected_splittings(final, "final-via-A'"))
            if label is not None and row["class_final"] != label:
                misses.append(Miss(UNEXPLAINED, f"sweep r={r!r} class_final={row['class_final']} vs {label}"))
        return misses

    @staticmethod
    def check_gap(text: str) -> list[Miss]:
        rows = _csv_rows(text, ("epsilon", "r_l", "r_e", "r_m", "gap"))
        grid = np.linspace(0.001, 3.0, 60)
        if len(rows) != len(grid):
            return [Miss(UNEXPLAINED, f"gap-sweep has {len(rows)} rows, expected {len(grid)}")]
        misses = []
        for eps, row in zip(grid, rows):
            eps = float(eps)
            v = {k: float(x) for k, x in row.items()}
            checks = {
                "epsilon": orc.close(v["epsilon"], eps),
                "r_e": orc.close(v["r_e"], orc.r_e(eps)),
                "r_m": orc.close(v["r_m"], orc.r_m(eps)),
                "gap": orc.close(v["gap"], v["r_m"] - v["r_e"]),
                "mu(r_e)": abs(orc.reduced_pair_mu(v["r_e"], eps) - 1.0) <= orc.THRESHOLD_MU_TOL,
                "mu(r_m)": abs(orc.homodyne_mu(v["r_m"], eps) - 1.0) <= orc.THRESHOLD_MU_TOL,
                "branch at r_l": abs(orc.homodyne_mu(v["r_l"], eps) - np.exp(v["r_l"])) <= orc.THRESHOLD_MU_TOL,
            }
            misses += [Miss(UNEXPLAINED, f"gap-sweep eps={eps!r}: {name} fails")
                       for name, ok in checks.items() if not ok]
        return misses


class Verify(Workload):
    """One seeded (r, epsilon) point checked the way acceptance criteria 5, 6 and 8 do."""

    name = "verify"
    SCAN = 24
    SAMPLES = 100_000

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            yield {"r": rng.uniform(0.05, TESTED_R_MAX), "epsilon": rng.uniform(0.001, 3.0),
                   "mc_seed": int(rng.integers(2**31))}

    def execute(self, item: dict):
        protocol, sep = gaussent.protocol, gaussent.separability
        r, eps = item["r"], item["epsilon"]
        params = protocol.ProtocolParams(r, eps)
        state, _ = protocol.shared_cm(params)
        batch = gaussent.ops.sample_preparation(params, self.SAMPLES, item["mc_seed"])
        return {
            "localizable_mu": sep.localizable_mu(state.cm, 2),
            "mu_m": protocol.mu_m(params),
            "scan": sep.measurement_scan_oracle(state.cm, 2, n_theta=self.SCAN, n_t=self.SCAN),
            "numeric_r_e": protocol.numeric_threshold_r_e(eps),
            "numeric_r_m": protocol.numeric_threshold_r_m(eps),
            "empirical_cm": batch.empirical_cm,
            "analytic_cm": batch.analytic_cm,
        }

    def collect(self, item: dict, raw) -> dict:
        return raw

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        for key in sorted(out):
            h.update(key.encode())
            h.update(np.asarray(out[key], dtype=float).tobytes())
        return h.hexdigest()

    def check(self, item: dict, out: dict) -> list[Miss]:
        r, eps = item["r"], item["epsilon"]
        hom = orc.homodyne_mu(r, eps)
        model = orc.preparation_cm(r, eps)
        checks = {
            "localizable_mu": orc.close(out["localizable_mu"], hom),
            "mu_m": orc.close(out["mu_m"], hom),
            "scan": abs(out["scan"] - hom) <= orc.SCAN_TOL,
            "numeric_r_e": abs(out["numeric_r_e"] - orc.r_e(eps)) <= orc.ROOT_TOL,
            "numeric_r_m": abs(out["numeric_r_m"] - orc.r_m(eps)) <= orc.ROOT_TOL,
            "analytic_cm": bool(np.allclose(out["analytic_cm"], model, rtol=orc.REL_TOL, atol=0.0)),
            "empirical_cm": orc.sample_deviation(out["empirical_cm"], model, self.SAMPLES)
                            <= orc.SAMPLE_SIGMAS,
        }
        return [Miss(UNEXPLAINED, f"verify r={r!r} eps={eps!r}: {name} fails")
                for name, ok in checks.items() if not ok]


class States(Workload):
    """One single-state CLI call: ``analyze``, or ``save_state`` then ``classify --input``.

    Each cycle of 20 items holds a fixed mix, in seeded order: 8 ``analyze``
    (each stage twice), 4 protocol-stage and 6 random physical states through
    ``classify``, and two out-of-domain inputs (one per form, negative or NaN).
    """

    name = "states"
    warmup = 40
    CYCLE = (["analyze"] * 8 + ["classify-stage"] * 4 + ["classify-random"] * 6
             + ["analyze-bad", "classify-bad"])

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        while True:
            stages = {"analyze": list(orc.STAGES) * 2, "classify-stage": list(orc.STAGES)}
            for kind in rng.permutation(self.CYCLE):
                yield self._item(rng, str(kind), stages)

    @staticmethod
    def _item(rng, kind: str, stages: dict) -> dict:
        r, eps = rng.uniform(0.0, 6.0), rng.uniform(0.0, 3.0)
        if kind in stages:
            stage = stages[kind].pop(int(rng.integers(len(stages[kind]))))
        else:
            stage = orc.STAGES[int(rng.integers(4))] if kind == "analyze-bad" else None
        if kind.startswith("analyze"):
            args = {"r": _num(r), "epsilon": _num(eps)}
            if kind == "analyze-bad":
                key = ("r", "epsilon")[int(rng.integers(2))]
                args[key] = "nan" if rng.random() < 0.5 else _num(-rng.uniform(0.01, 3.0))
            return {"kind": kind, "r": r, "epsilon": eps, "stage": stage,
                    "argv": ["analyze", "--r", args["r"], "--epsilon", args["epsilon"], "--stage", stage]}
        if kind == "classify-stage":
            return {"kind": kind, "r": r, "epsilon": eps, "stage": stage,
                    "cm": orc.stage_cm(r, eps, stage)}
        cm = orc.random_physical_cm(rng)
        if kind == "classify-bad":
            i, j = (int(x) for x in rng.integers(6, size=2))
            if rng.random() < 0.5:
                cm[i, i] = -cm[i, i]
            else:
                cm[i, j] = cm[j, i] = np.nan
        return {"kind": kind, "stage": None, "cm": cm}

    def execute(self, item: dict):
        if "argv" in item:
            return (run_cli(item["argv"], self.tmp / "report.json"),)
        path = self.tmp / "state.json"
        gaussent.core.save_state(gaussent.core.GaussianState(item["cm"]), path)
        return (run_cli(["classify", "--input", str(path)], self.tmp / "report.json"),)

    def check(self, item: dict, out: dict) -> list[Miss]:
        (call,) = out["cli"]
        code = call["code"]
        if item["kind"].endswith("-bad"):
            return [Miss("roadmap-4", f"{item['kind']} exited 0")] if code == 0 else []
        if code != 0:
            cause = (
                "refused"
                if code == 1 and item["stage"] is not None and item["r"] > TESTED_R_MAX
                else UNEXPLAINED
            )
            return [Miss(cause, f"{item['kind']}: {call['raised'] or 'exit ' + str(code)}")]
        try:
            report = json.loads(call["text"])
            if "report" in report:
                report = report["report"]
            got = [v["entangled"] for v in report["verdicts"]]
            label = report["class"]
        except (ValueError, KeyError, TypeError) as exc:
            return [Miss(UNEXPLAINED, f"unreadable output: {exc}")]
        return self.check_labels(item, got, label)

    @staticmethod
    def check_labels(item: dict, got: list[bool], label: str) -> list[Miss]:
        stage = item["stage"]
        cm = item["cm"] if "cm" in item else orc.stage_cm(item["r"], item["epsilon"], stage)
        want = orc.expected_splittings(cm, stage, item.get("r", 0.0), item.get("epsilon", 0.0))
        if len(got) != len(want):
            return [Miss(UNEXPLAINED, f"{item['kind']}: {len(got)} verdicts")]
        misses = []
        for mode, (g, w) in enumerate(zip(got, want)):
            if w is not None and g != w:
                cause = "roadmap-3" if g and orc.on_boundary(stage, mode) else UNEXPLAINED
                misses.append(Miss(cause, f"{item['kind']} {stage} {orc.SPLITTINGS[mode]} "
                                          f"entangled={g} r={item.get('r')!r} eps={item.get('epsilon')!r}"))
        want_label = orc.expected_class(want)
        if not misses and want_label is not None and label != want_label:
            misses.append(Miss(UNEXPLAINED, f"{item['kind']} class {label} vs {want_label}"))
        return misses


WORKLOADS = {cls.name: cls for cls in (Figures, Verify, States)}
