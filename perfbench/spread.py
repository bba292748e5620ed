"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py

For each workload of BENCHMARK.json this makes two sets of ten untraced runs
of the benchmark's command, one process at a time, each run for
``run_seconds`` and with its own seed (1, 2, 3, ...).  It prints per metric
and set the median and the quartile spread (Q3 - Q1) / median, then how far
the second set's median lies from the first set's, next to the metric's
bound.  It exits 1 if any spread or the median shift exceeds its bound, if
a run is not correct, or if the share of failed verdicts differs between
runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def one_run(command: list[str], workload: str, seed: int,
            seconds: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    seed = 1
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(spec["command"], workload, seed,
                                    spec["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed share {sorted(shares)}, "
              f"correct {correct}")
        ok &= len(shares) == 1 and correct
        for name, m in metrics.items():
            meds = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                meds.append(statistics.median(values))
                sp = spread(values)
                bad = sp > m["bound"]
                ok &= not bad
                print(f"  {name:15s} set {s + 1}: median {meds[-1]:10.4f} "
                      f"{m['unit']:5s} spread {sp:6.1%} "
                      f"(bound {m['bound']:.0%}){'  TOO WIDE' if bad else ''}")
                print("      " + " ".join(f"{v:.4g}" for v in values))
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            bad = worse > m["bound"]
            ok &= not bad
            print(f"  {name:15s} set 2 vs 1: {worse:+6.1%} worse"
                  f"{'  OVER BOUND' if bad else ''}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
