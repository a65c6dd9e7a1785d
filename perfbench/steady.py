"""How steady the benchmark is: repeated runs, spread against each bound.

    python3 perfbench/steady.py --runs 10

Runs every workload ``--runs`` times through ``run.py``, one process at
a time, with seeds 1 to ``--runs``.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` and the bound from ``BENCHMARK.json``; a spread
under a third of the bound reads ``steady``, under the bound ``within``,
else ``WIDE``.  It also prints each run's failed share, which must be the
same in every run.  Runs last ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from contract import ROOT, load_spec  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False,
    )
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "within" if spread <= bound else "WIDE"


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            run_once(workload, seed, spec["run_seconds"])
            for seed in range(1, args.runs + 1)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"attempted {[r['attempted'] for r in runs]}, "
              f"failed share {shares}, correct "
              f"{all(r['correct'] for r in runs)}, wall "
              f"{min(walls):.0f}-{max(walls):.0f} s")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarise(values)
            line = (f"  {name:<20} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{spread:>7.1%} {bound:>6.0%}  {verdict(spread, bound)}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
