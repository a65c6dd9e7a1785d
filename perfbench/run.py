"""Tapeout benchmark entry point.

    python3 perfbench/run.py --workload clips_model --seed 1 --seconds 24 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``) in
a fresh worker process and prints its result as the last stdout line,
after checking it against ``BENCHMARK.json``.  This launcher owns run
hygiene: it pins BLAS/OpenMP to one thread before numpy loads, removes
every ``REPRO_*`` variable (no run ledger, no persistent kernel store, no
sampling profiler), points ``PYTHONPATH`` at this checkout's ``src`` and
starts one process per workload, waiting for it to end.

Exit codes: 0 with a result line; 2 when the checkout has no program to
measure; 3 when the worker fails, times out or breaks the contract (no
result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from contract import ROOT, load_spec, validate  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"

#: Thread-pool sizes pinned to 1 so kernel builds (``eigh``) and FFTs do
#: not spread over the host's cores.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

#: The worker is stopped after this long (the contract allows 180 s).
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    """This process's environment, scrubbed and pinned for measuring."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one tapeout-benchmark workload."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="two operations per round and one set-up (self-test mode)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2

    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: worker exited {done.returncode}", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: unreadable result {lines[-1][:200]!r}", file=sys.stderr)
        return 3
    problems = validate(result, spec, traced=bool(args.trace))
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
