"""Benchmark of ``eqctt check`` and ``eqctt lab``, driven in-process.

    python3 perfbench/run.py --workload kernel-check --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  One process runs one workload: it compiles
the sources, writes the workload's seeded inputs, times the import of
``eqctt.cli``, then calls ``eqctt.cli.main`` with ``--json`` over whole
passes of the workload's invocations until ``--seconds`` have gone by,
checking every report against an independent computation and timing the
import again between verdicts every half second.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed once at the start and then again whenever SETUP_EVERY_S
# have gone by since the last time, between verdicts, so that its median
# samples the whole run: a shared machine's speed can drift over seconds.
SETUP_EVERY_S = 0.5

# the per-layer metrics a traced run prints, and their units
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Setup:
    """Timed imports of eqctt.cli.  The first gives the ``main`` that the
    verdicts use; each later one imports a fresh copy of every module the
    first import loaded, then puts the first copies back."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        self.before = set(sys.modules)
        gc.collect()
        t0 = time.perf_counter()
        import eqctt.cli
        self.last = time.perf_counter()
        self.times = [self.last - t0]
        cli = sys.modules["eqctt.cli"]
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            fail(f"eqctt was imported from {cli.__file__}, not from {SRC}")
        self.main = cli.main

    def again(self) -> None:
        live = {name: sys.modules.pop(name)
                for name in set(sys.modules) - self.before}
        gc.collect()
        t0 = time.perf_counter()
        import eqctt.cli  # noqa: F401
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        for name in set(sys.modules) - self.before:
            del sys.modules[name]
        sys.modules.update(live)

    def when_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.again()


def judge(check, code: int, out: str) -> str | None:
    try:
        return check(code, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable report: {type(e).__name__}: {e}"


def call(main, args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main(args, standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()


class Runner:
    """Whole passes over the invocation list, with the verdicts checked."""

    def __init__(self, main, invocations):
        self.main = main
        self.invocations = invocations
        self.times: list[float] = []   # every verdict's wall time
        self.pass_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def run_pass(self, wrap=None, between=None) -> float:
        total = 0.0
        for inv in self.invocations:
            gc.collect()
            t0 = time.perf_counter()
            try:
                if wrap is None:
                    code, out = call(self.main, inv.args)
                else:
                    code, out = wrap(lambda: call(self.main, inv.args))
                error = None
            except Exception as e:  # a crash is a wrong verdict
                code, out, error = -1, "", f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            total += dt
            self.times.append(dt)
            if between is not None:
                between()
            self.attempted += 1
            if error is None:
                error = judge(inv.check, code, out)
            if error is None:
                continue
            self.failed += 1
            # the kept failure is failed but not wrong, if it fails in
            # exactly the known way
            if inv.kept_failure is None or \
                    judge(inv.kept_failure, code, out) is not None:
                self.unexpected.append(f"{inv.label}: {error}")
        self.pass_times.append(total)
        return total


def more_passes(start: float, passes: list[float], seconds: float) -> bool:
    """Start another pass only if it should end within ``seconds``."""
    spent = time.perf_counter() - start
    return spent + statistics.mean(passes) <= seconds


def run_untraced(p: Runner, seconds: float, setup: Setup) -> None:
    """Whole passes, with set-up timed again between verdicts when due."""
    start = time.perf_counter()
    walls = []
    while not walls or more_passes(start, walls, seconds):
        t0 = time.perf_counter()
        p.run_pass(between=setup.when_due)
        walls.append(time.perf_counter() - t0)


def run_traced(p: Runner, seconds: float, trace_path: Path) -> dict:
    """One untraced pass as the reference, then traced passes; per-layer
    figures are per traced pass."""
    start = time.perf_counter()
    reference = p.run_pass()
    tracer = layers.Tracer()
    tracer.install()
    tracer.recording = True
    traced = [p.run_pass(wrap=tracer.root)]
    tracer.recording = False
    while more_passes(start, traced, seconds):
        traced.append(p.run_pass(wrap=tracer.root))
    tracer.write_spans(trace_path)
    totals = tracer.snapshot()
    n = len(traced)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_pct":
            value = (statistics.median(traced) / reference - 1) * 100
        else:
            value = totals[name] / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and dict iteration orders in the program depend on the hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not (SRC / "eqctt" / "cli.py").is_file():
        fail(f"no eqctt sources under {SRC}")
    if not compileall.compile_dir(str(SRC), quiet=1):
        fail("compiling the eqctt sources failed")

    work = workloads.make_workdir(ROOT, args.workload, args.seed, os.getpid())
    try:
        invocations = workloads.WORKLOADS[args.workload](args.seed, ROOT, work)
        setup = Setup()
        p = Runner(setup.main, invocations)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = run_traced(p, args.seconds, trace_path)
        else:
            run_untraced(p, args.seconds, setup)
            metrics = {
                "setup_s": {"value": statistics.median(setup.times),
                            "unit": "s"},
                "verdicts_per_s": {"value": len(p.times) / sum(p.times),
                                   "unit": "1/s"},
                "verdict_ms_p50": {"value": statistics.median(p.times) * 1e3,
                                   "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in p.unexpected[:20]:
        print(f"wrong verdict: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(p.pass_times)} passes of "
          f"{len(invocations)} verdicts, {len(setup.times)} set-ups timed",
          file=sys.stderr)
    print(json.dumps({"correct": not p.unexpected, "attempted": p.attempted,
                      "failed": p.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
