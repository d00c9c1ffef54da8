"""One workload process: set up, run repetitions for the run's time, report.

Started by ``run.py`` in a fresh interpreter, never imported by it.  It
writes one JSON result file and exits 0, or exits non-zero when the harness
itself breaks.  A repetition that raises counts as a failed operation and
ends the loop.

Repetitions take the workload's data seeds in turn, every one at least once.
``instances_per_s`` is the data seeds' instances over the sum of their mean
compute times, so each data seed counts once however often it ran, and
``read_s`` is the mean read.

A shared host's speed drifts by up to a factor of two over minutes, for
every program alike.  So a measured run times a fixed calibration kernel,
which uses nothing from the program, before and after every repetition, and
also reports each timing in reference seconds: the repetition's time divided
by how much slower than :data:`REFERENCE_CALIBRATION_S` the kernel ran
around it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import COUNTERS, LAYER_SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Rep, clear_memo_caches  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="where a traced run writes its spans")
    return parser.parse_args(argv)


#: The calibration kernel's time on the reference core; ``ref`` timings are
#: what the work would take on that core.
REFERENCE_CALIBRATION_S = 0.025


def calibrate() -> float:
    """Seconds a fixed pure-Python and NumPy kernel takes on this host now."""
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    values = np.random.default_rng(0).random(64)
    for _ in range(3_000):
        values = np.cumsum(values[::-1]) * 1e-3 + values
    return time.perf_counter() - started


def _rep(workload, unit: int, failures: list[str]) -> "tuple[Rep, float]":
    clear_memo_caches()
    started = time.perf_counter()
    try:
        rep = workload.run_rep(unit)
    except Exception:  # noqa: BLE001 - a broken repetition is a failed operation
        rep = Rep(unit=unit)
        rep.count(1, 1, traceback.format_exc())
    failures.extend(rep.failures)
    return rep, time.perf_counter() - started


def _means(reps: list[Rep], reference: bool) -> "tuple[float, float]":
    """(instances per second, mean read seconds) over the run's repetitions.

    With ``reference`` set, every time is first divided by its repetition's
    host slowdown, which gives reference seconds.
    """
    times: dict[int, list[float]] = {}
    instances: dict[int, int] = {}
    reads: list[float] = []
    for rep in reps:
        if rep.instances and rep.compute_s > 0:
            scale = rep.host if reference else 1.0
            instances[rep.unit] = rep.instances
            times.setdefault(rep.unit, []).append(rep.compute_s / scale)
            reads += [read / scale for read in rep.read_s]
    compute = sum(statistics.fmean(walls) for walls in times.values())
    rate = sum(instances.values()) / compute if compute > 0 else 0.0
    return rate, statistics.fmean(reads) if reads else 0.0


def _layers(tracer: Tracer, walls: list[float], plain_walls: list[float]) -> dict:
    """Per-layer metrics, averaged per traced repetition."""
    n = len(walls)
    self_times = tracer.self_times()
    layers = {f"{name}.s": self_times.get(name, 0.0) / n for name in LAYER_SPANS}
    for name in COUNTERS:
        layers[name] = tracer.counts.get(name, 0) / n
    stream_rows = layers["streams.rows"]
    layers["detectors.rows_per_stream_row"] = (
        layers["detectors.rows"] / stream_rows if stream_rows else 0.0
    )
    wall = sum(walls) / n
    layers["traced_wall.s"] = wall
    layers["unattributed.s"] = wall - sum(layers[f"{name}.s"] for name in LAYER_SPANS)
    # Each traced repetition follows an untraced one of the same data seed.
    layers["trace_overhead_frac"] = sum(walls) / sum(plain_walls) - 1.0
    layers["trace.missing_entry_points"] = len(tracer.missing)
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = Tracer() if args.trace else None
    units = workload.units()
    reps: list[Rep] = []
    walls: list[float] = []
    plain_walls: list[float] = []
    failures: list[str] = []
    durations: list[float] = []
    # A measured run takes the data seeds in turn.  A traced run warms up
    # with one untraced repetition, then runs each data seed untraced and
    # traced back to back, so both sides of the overhead see the same work.
    if tracer is None:
        plan = itertools.cycle([(unit, False) for unit in units])
    else:
        plan = itertools.chain([(units[0], False)], itertools.cycle(
            [(unit, traced) for unit in units for traced in (False, True)]))
    calibrations = [] if tracer is not None else [calibrate()]
    started = time.perf_counter()
    for index, (unit, traced) in enumerate(plan):
        if traced:
            tracer.install()
        try:
            rep, wall = _rep(workload, unit, failures)
        finally:
            if traced:
                tracer.uninstall()
        if tracer is None:
            calibrations.append(calibrate())
            rep.host = (statistics.fmean(calibrations[-2:])
                        / REFERENCE_CALIBRATION_S)
        reps.append(rep)
        durations.append(wall)
        if traced:
            walls.append(wall)
        elif tracer is not None and index > 0:
            plain_walls.append(wall)
        if rep.failed and rep.instances == 0:
            break
        # Start another repetition only if it should end within the run's
        # time, once every data seed has run (a traced run needs one traced
        # repetition, and ends on one).
        next_end = time.perf_counter() - started + statistics.median(durations)
        if tracer is None:
            done = index + 1 >= len(units)
        else:
            done = bool(walls) and traced
            next_end += statistics.median(durations)
        if done and next_end > args.seconds:
            break

    try:
        final = workload.final_checks()
    except Exception:  # noqa: BLE001 - a broken check is a failed operation
        final = Rep()
        final.count(1, 1, traceback.format_exc())
    failures.extend(final.failures)
    everything = reps + [final]
    rate, read = _means(reps, reference=False)
    rate_ref, read_ref = _means(reps, reference=True)
    result.update(
        instances_per_ref_s=rate_ref,
        read_ref_s=read_ref,
        calibrations=calibrations,
        reps=len(reps),
        attempted=sum(rep.attempted for rep in everything),
        failed=sum(rep.failed for rep in everything),
        failures=failures,
        instances_per_s=rate,
        read_s=read,
        rep_walls=durations,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        shape=workload.shape(),
    )
    if tracer is not None and walls:
        result["layers"] = _layers(tracer, walls, plain_walls)
        result["missing"] = tracer.missing
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
