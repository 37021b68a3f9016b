"""gaussent benchmark: one seeded workload, end-to-end metrics or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Workloads are ``figures``, ``verify`` and ``states`` (see perfbench/README.md).
Everything runs in this one process as a closed loop, one item at a time,
against the package under ``src/``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same items untraced and then traced and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Item times are the process CPU time of the item (``time.process_time``): on a
shared virtual machine the wall-time tail is dominated by the process being
descheduled, which says nothing about the program.  Wall-time figures are
kept in the result file next to them.  Set-up time is wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
#: Fresh interpreters timed for set-up, after one discarded warm-up start.
SETUP_RUNS = 11
SETUP_CODE = "import gaussent.cli; gaussent.cli.build_parser()"
#: A timed run continues past --seconds until this many items are done, so
#: at least ten items lie beyond p90.
MIN_ITEMS = 100
#: Share of --seconds given to the untraced pass of the traced run; the
#: traced pass then repeats the same items.
TRACE_SHARE = 0.4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("figures", "verify", "states"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import gaussent and build the CLI parser."""
    env = {k: v for k, v in os.environ.items() if k != "GAUSSENT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def environment(args, threads_before: str | None) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record is best effort
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "GAUSSENT_THREADS": "unset" if threads_before is None else f"unset (was {threads_before!r})",
        "git_commit": git_commit(),
        "load": "closed loop, one item at a time, single process",
        "item_clock": "process CPU time",
    }


def git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Pass:
    """CPU and wall durations, misses and outputs of one pass over items."""

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.items: list[dict] = []
        self.digests: list[str] = []
        self.failed_items = 0
        self.unexplained = 0
        self.causes: dict[str, int] = {}
        self.examples: dict[str, str] = {}
        self.cli = {"cli.rows_out": 0, "cli.bytes_out": 0, "cli.exit_nonzero": 0}

    def add(self, wl, item, cpu: float, wall: float, out: dict) -> None:
        self.cpu.append(cpu)
        self.wall.append(wall)
        if self.keep:
            self.items.append(item)
            self.digests.append(wl.digest(out))
        misses = wl.check(item, out)
        if misses:
            self.failed_items += 1
            self.unexplained += not all(m.documented for m in misses)
            for m in misses:
                self.examples.setdefault(m.cause, m.detail)
            for cause in {m.cause for m in misses}:
                self.causes[cause] = self.causes.get(cause, 0) + 1
        for key, value in wl.cli_counts(out).items():
            self.cli[key] += value


def run_pass(wl, items, seconds: float | None = None, min_items: int = 0,
             recorder=None, keep: bool = False) -> Pass:
    """Closed loop: time ``execute`` only; collect and check each item afterwards.

    With ``seconds`` the loop draws from ``items`` until that much wall time
    has passed and ``min_items`` are done; without it every item is run.
    """
    p = Pass(keep)
    deadline = None if seconds is None else time.perf_counter() + seconds
    for index, item in enumerate(items):
        if recorder is not None:
            recorder.item = index
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw = wl.execute(item)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        p.add(wl, item, cpu, wall, wl.collect(item, raw))
        if deadline is not None and time.perf_counter() >= deadline and len(p.cpu) >= min_items:
            break
    return p


def percentile(values: list[float], q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaussent" / "__init__.py").is_file():
        print(f"error: no gaussent package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    threads_before = os.environ.pop("GAUSSENT_THREADS", None)
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import Recorder

    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](tmp)
        stream = wl.items(args.seed)
        run_pass(wl, [next(stream) for _ in range(wl.warmup)])
        if args.trace:
            result, report = traced_run(wl, stream, args.seconds, Recorder())
        else:
            result, report = plain_run(wl, stream, args.seconds, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"env": environment(args, threads_before), **report}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def plain_run(wl, stream, seconds: float, setup_s: float):
    p = run_pass(wl, stream, seconds, MIN_ITEMS)
    n = len(p.cpu)
    ms = [1e3 * d for d in p.cpu]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (n / sum(p.cpu), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (percentile(ms, 90), "ms"),
        "success_rate": (1.0 - p.failed_items / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall_ms = [1e3 * d for d in p.wall]
    report = summary(p)
    report["wall"] = {"throughput_per_s": n / sum(p.wall),
                      "item_p50_ms": statistics.median(wall_ms), "item_p90_ms": percentile(wall_ms, 90)}
    return outcome(p, metrics), report


def traced_run(wl, stream, seconds: float, recorder):
    plain = run_pass(wl, stream, TRACE_SHARE * seconds, keep=True)
    recorder.install()
    try:
        traced = run_pass(wl, plain.items, recorder=recorder, keep=True)
    finally:
        recorder.uninstall()
    changed = sum(a != b for a, b in zip(plain.digests, traced.digests))
    recorder.counts.update(traced.cli)
    recorder.write(OUT / f"trace-{wl.name}.jsonl.gz")
    metrics = recorder.report(len(traced.cpu), sum(traced.cpu) / sum(plain.cpu) - 1.0)
    report = summary(traced)
    report["outputs_changed_by_tracing"] = changed
    result = outcome(traced, {k: (v["value"], v["unit"]) for k, v in metrics.items()})
    result["correct"] = result["correct"] and changed == 0 and plain.unexplained == 0
    return result, report


def outcome(p: Pass, metrics: dict) -> dict:
    """The result line: misses with a documented cause count in success_rate, not as failed."""
    return {
        "correct": p.unexplained == 0,
        "attempted": len(p.cpu),
        "failed": p.unexplained,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def summary(p: Pass) -> dict:
    return {
        "items": len(p.cpu),
        "error_rate": p.failed_items / len(p.cpu),
        "misses_by_cause": p.causes,
        "miss_examples": p.examples,
    }


if __name__ == "__main__":
    sys.exit(main())
