"""One workload in one process: set up, run timed rounds, check, report.

Started by ``run.py`` (which owns the environment: thread pins, scrubbed
``REPRO_*`` variables, one fresh process per workload).  Prints one JSON
object as its last stdout line; everything else goes to stderr.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced and traced rounds of the same
operations and reports the per-layer metrics from the traced ones, plus
the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.flow import tapeout_region  # noqa: E402
from repro.litho import binary_mask  # noqa: E402
from repro.verify import ProcessCorner, run_orc  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: Set-ups per untraced run; ``setup_s`` is their median plus imports.
SETUP_REPEATS = 3

#: Operations per round in ``--quick`` mode.
QUICK_ROUND = 2

#: Where traced runs write their spans (inside the checkout).
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Per-layer metric -> span name whose self time it reports per op.
SELF_TIME_METRICS = {
    "litho.image_s_per_op": "litho.image",
    "litho.socs_s_per_op": "litho.socs",
    "litho.raster_s_per_op": "litho.raster",
    "litho.resist_s_per_op": "litho.resist",
    "litho.epe_gather_s_per_op": "litho.epe_gather",
    "opc.model_s_per_op": "opc.model",
    "opc.fragment_s_per_op": "opc.fragment",
    "opc.apply_biases_s_per_op": "opc.apply_biases",
    "opc.rule_s_per_op": "opc.rule",
    "opc.repair_s_per_op": "opc.repair",
    "opc.check_mask_s_per_op": "opc.check_mask",
    "verify.orc_s_per_op": "verify.orc",
    "verify.mrc_s_per_op": "verify.mrc",
    "lint.preflight_s_per_op": "lint.preflight",
    "geometry.boolean_s_per_op": "geometry.boolean",
    "geometry.smooth_s_per_op": "geometry.smooth",
    "mask.stats_s_per_op": "mask.stats",
    "flow.self_s_per_op": tracing.ROOT,
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def check_hygiene() -> None:
    """Refuse to measure in an environment the launcher did not set up."""
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"perfbench: REPRO_* variables set: {leaked}")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name) != "1":
            raise SystemExit(f"perfbench: {name} must be 1 (start via run.py)")


def set_up(workload, seed: int, round_size: int, tracer=None):
    """Inputs, dose anchor and one warm-up tapeout on a fresh simulator."""
    if tracer is not None:
        tracer.op_id = "setup"
        tracer.install()
    started = time.perf_counter()
    prepared = workload.prepare(seed, round_size)
    warm = prepared.operations[0]
    tapeout_region(
        warm.drawn, prepared.simulator, prepared.dose, prepared.recipe,
        window=warm.window,
    )
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
        tracer.op_id = None
    if prepared.simulator.kernel_store is not None:
        raise SystemExit("perfbench: the persistent kernel store is on")
    return prepared, elapsed


def round_count(workload, round_size: int, seconds: float, traced: bool) -> int:
    """Whole rounds that fill ``seconds`` at the workload's reference pace.

    The count depends on ``--seconds`` alone, never on how fast this run
    happens to go, so every run of a workload makes the same number of
    timed operations.  Traced runs need at least one untraced and one
    traced round.
    """
    pace = round_size * workload.reference_op_s
    return max(2 if traced else 1, int(seconds // pace))


def run_rounds(prepared, rounds: int, tracer=None):
    """``rounds`` whole rounds of the prepared operations.

    With a tracer, odd rounds are traced and even rounds are not.  Before
    each operation the heap is collected and frozen, so the cyclic
    collector's work inside an operation is the operation's own and not
    proportional to what the benchmark keeps alive.  Returns per-op
    records and the results of the first round, which the checks examine.
    """
    records = []  # (round, index, seconds, traced, signoff, same_as_first)
    first = []
    for number in range(rounds):
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        for index, op in enumerate(prepared.operations):
            gc.collect()
            gc.freeze()
            if traced:
                t0 = time.perf_counter()
                result = tracer.call(
                    f"{number}.{index}", tapeout_region, op.drawn,
                    prepared.simulator, prepared.dose, prepared.recipe,
                    window=op.window,
                )
                dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                result = tapeout_region(
                    op.drawn, prepared.simulator, prepared.dose,
                    prepared.recipe, window=op.window,
                )
                dt = time.perf_counter() - t0
            if number == 0:
                first.append(result)
                same = True
            else:
                same = (
                    result.mask_geometry.loops == first[index].mask_geometry.loops
                    and result.signoff_ok == first[index].signoff_ok
                )
            records.append((number, index, dt, traced, result.signoff_ok, same))
        if traced:
            tracer.uninstall()
    return records, first


def check_round(prepared, first):
    """Independent checks of the first round; per-op failures + run facts."""
    recipe = prepared.recipe
    sim = prepared.simulator
    per_op = []
    drawn_rms = []
    engine_gap = None
    for index, (op, result) in enumerate(zip(prepared.operations, first)):
        failures = []
        shipped = result.mask_geometry
        if not result.correction.srafs.is_empty:
            shipped = shipped | result.correction.srafs
        failures += checks.width_space(
            shipped, recipe.mrc.min_width_nm, recipe.mrc.min_space_nm
        )
        failures += checks.envelope(
            shipped, op.drawn, op.window, prepared.envelope_nm
        )
        failures += checks.gds_round_trip(
            shipped, result.data.figures, result.data.vertices
        )
        if prepared.dark_field and not result.signoff_ok:
            failures += checks.polarity_signature(
                sim, result, op.drawn, op.window, prepared.dose
            )
        if index == 0:
            mask_spec = binary_mask(
                result.mask_geometry,
                dark_field=prepared.dark_field,
                srafs=result.correction.srafs
                if not result.correction.srafs.is_empty else None,
            )
            found, engine_gap = checks.engines_agree(sim, mask_spec, op.window)
            failures += found
        drawn_rms.append(
            run_orc(
                sim,
                binary_mask(op.drawn, dark_field=prepared.dark_field),
                op.drawn,
                op.window,
                ProcessCorner(dose=prepared.dose),
                critical_margin_nm=recipe.orc_margin_nm,
            ).epe.rms_nm
        )
        per_op.append(failures)
    corrected_rms = statistics.mean(r.orc.epe.rms_nm for r in first)
    run_failures = []
    if not corrected_rms < statistics.mean(drawn_rms):
        run_failures.append(
            f"ORC EPE rms corrected {corrected_rms:.2f} nm is not below "
            f"drawn {statistics.mean(drawn_rms):.2f} nm"
        )
    facts = {
        "epe_rms_drawn_nm": statistics.mean(drawn_rms),
        "epe_rms_corrected_nm": corrected_rms,
        "socs_abbe_gap": engine_gap,
    }
    return per_op, run_failures, facts


def end_to_end(prepared, records, first, setup_s, rss_bytes):
    ops = prepared.operations
    times = [dt for _r, _i, dt, _t, _s, _same in records]
    area = sum(ops[i].area_um2 for _r, i, *_rest in records)
    round_area = sum(op.area_um2 for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "area_um2_per_s": (area / sum(times), "um2/s"),
        "peak_rss_bytes": (float(rss_bytes), "bytes"),
        "epe_rms_nm": (statistics.mean(r.orc.epe.rms_nm for r in first), "nm"),
        "epe_max_nm": (max(r.orc.epe.max_abs_nm for r in first), "nm"),
        "mask_shots_per_um2": (
            sum(r.data.shots for r in first) / round_area, "shots/um2"
        ),
    }


def per_layer(tracer, records):
    traced_ops = {f"{r}.{i}" for r, i, _dt, traced, *_ in records if traced}
    n = len(traced_ops)
    spans = tracer.spans
    selfs = tracing.self_times(spans, traced_ops)
    counts = tracing.call_counts(spans, traced_ops)
    work = {}
    for op_id in traced_ops:
        for key, amount in tracer.counts.get(op_id, {}).items():
            work[key] = work.get(key, 0) + amount
    metrics = {
        name: (selfs.get(span, 0.0) / n, "s")
        for name, span in SELF_TIME_METRICS.items()
    }
    kernel_s = tracing.self_times(spans).get("litho.kernel_set", 0.0)
    tiles = work.get("opc.tiles", 0)
    untraced = [dt for _r, _i, dt, traced, *_ in records if not traced]
    traced = [dt for _r, _i, dt, t, *_ in records if t]
    metrics.update(
        {
            "litho.images_per_op": (counts.get("litho.image", 0) / n, "count"),
            "litho.kernel_set_s": (kernel_s, "s"),
            "opc.iterations_per_op": (work.get("opc.iterations", 0) / n, "count"),
            "opc.converged_frac": (
                work.get("opc.converged", 0) / tiles if tiles else 0.0, "ratio"
            ),
            "opc.fragments_per_op": (work.get("opc.fragments", 0) / n, "count"),
            "trace.overhead_frac": (
                statistics.median(traced) / statistics.median(untraced) - 1.0,
                "ratio",
            ),
        }
    )
    # Every span of a traced op lies under its root, so the self times
    # add up to the traced operation time exactly (up to rounding).
    total = tracing.root_time(spans, traced_ops)
    accounted = sum(selfs.values())
    share = {span: selfs.get(span, 0.0) / total for span in sorted(selfs)}
    return metrics, abs(accounted - total) / total, share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    check_hygiene()
    workload = WORKLOADS[args.workload]
    round_size = QUICK_ROUND if args.quick else workload.round_size

    tracer = tracing.Tracer() if args.trace else None
    repeats = 1 if (args.trace or args.quick) else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        # Release the previous set-up first, so only one simulator and one
        # set of inputs is ever alive and peak RSS is the workload's own.
        prepared = None
        gc.collect()
        prepared, elapsed = set_up(workload, args.seed, round_size, tracer)
        setups.append(elapsed)
    setup_s = IMPORT_S + statistics.median(setups)
    log(
        f"{args.workload} seed {args.seed}: imports {IMPORT_S:.2f} s, "
        f"set-ups {[round(s, 2) for s in setups]} s, dose {prepared.dose:.4f}, "
        f"ops {[op.label for op in prepared.operations]}"
    )

    rounds = round_count(workload, round_size, args.seconds, bool(args.trace))
    records, first = run_rounds(prepared, rounds, tracer)
    rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    for number in sorted({r[0] for r in records}):
        rows = [r for r in records if r[0] == number]
        log(
            f"round {number}{' traced' if rows[0][3] else ''}: "
            + " ".join(f"{r[2]:.3f}" for r in rows)
        )
    checks_started = time.perf_counter()

    per_op, run_failures, facts = check_round(prepared, first)
    failures = list(run_failures)
    failed = 0
    for number, index, _dt, _traced, signoff, same in records:
        problems = list(per_op[index])
        if not same:
            problems.append(f"round {number} mask differs from round 0")
            failures.append(f"op {index} round {number}: not deterministic")
        if problems or not signoff:
            failed += 1
        if number == 0:
            failures += [f"op {index}: {p}" for p in problems]
    log(f"checks took {time.perf_counter() - checks_started:.1f} s")
    for failure in failures:
        log(f"CHECK FAILED {failure}")
    log(f"facts {json.dumps(facts)}")

    if args.trace:
        metrics, mismatch, share = per_layer(tracer, records)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        top = sorted(share.items(), key=lambda kv: -kv[1])[:6]
        log("self-time shares " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        if mismatch > 1e-6:
            failures.append(f"self times miss the op time by {mismatch:.2e}")
            log(f"CHECK FAILED {failures[-1]}")
    else:
        metrics = end_to_end(prepared, records, first, setup_s, rss_bytes)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
