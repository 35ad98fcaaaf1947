"""Run the benchmark N times per workload and print the spread of every metric.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace 0]

Each run gets its own seed (SEED_BASE, SEED_BASE + 1, ...). For each metric
it prints the median, the first and third quartiles (``statistics.quantiles``
with n=4), the spread (q3 - q1) / median, and for end-to-end metrics the
bound from BENCHMARK.json and whether the spread is below a third of it;
``setup_s`` is left out of that verdict, because between two sets of runs
only its median is compared, not its spread. With ``--trace 0`` it also
prints the same figures for the raw seconds each run reports on the line
before its result (``median_s``), marked "raw", which no bound applies to,
so that the effect of dividing by the reference run shows. It
also prints the share of failed operations in every run. Runs are made one
after another, never in parallel. The bounds in BENCHMARK.json are set from
this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_BASE = 1000
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark once; return its result, with the raw seconds under ``median_s``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not trace:
        result["median_s"] = json.loads(info)["median_s"]
    return result


def summarize(workload: str, results: list[dict], trace: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]} if not trace else {}
    steady = True
    print(f"\n{workload}: {len(results)} runs, correct={[r['correct'] for r in results]}, "
          f"failed share={sorted({r['failed'] / r['attempted'] for r in results})}")
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    rows = [(name, first["unit"], [r["metrics"][name]["value"] for r in results])
            for name, first in results[0]["metrics"].items()]
    if not trace:
        rows += [(name, "s raw", [r["median_s"][name] for r in results])
                 for name in results[0]["median_s"]]
    for name, unit, values in rows:
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        raw = unit.endswith("raw")
        bound = None if raw else bounds.get(name)
        verdict = ""
        if name == "setup_s" and not raw:
            verdict = "not gated"  # only its median is compared between sets of runs
        elif bound is not None:
            ok = spread < bound / 3
            steady &= ok
            verdict = "ok" if ok else "WIDE"
        print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {unit:6s} {verdict}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    all_steady = True
    for workload in args.workload:
        results = []
        for k in range(args.runs):
            start = time.perf_counter()
            results.append(run_once(workload, SEED_BASE + k, BENCHMARK["run_seconds"], args.trace))
            print(f"{workload} seed {SEED_BASE + k}: {time.perf_counter() - start:.1f} s wall",
                  file=sys.stderr)
        all_steady &= summarize(workload, results, args.trace)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
