"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload process is a fresh
interpreter (``worker.py``); this script starts them one after another,
waits for each, and prints one line per metric followed by a JSON object as
the last line of standard output:

* ``--trace 0`` — the end-to-end metrics.  Set-up time is sampled in several
  fresh interpreters and reported as their median.
* ``--trace 1`` — the per-layer metrics of a traced run, which pairs each
  traced repetition with an untraced one of the same data seed to measure
  the tracing overhead too.

The script imports nothing from the program; it exits non-zero without a
result when the checkout holds no program (``src/repro``) or a workload
process breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("paper-grid", "batch-imbalance", "exact-checkpoint")

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("instances_per_ref_s", "1/ref_s"),
    ("setup_s", "s"),
    ("read_ref_s", "ref_s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
PER_LAYER = (
    ("streams.generate.s", "s"),
    ("streams.rows", "rows"),
    ("classifiers.predict.s", "s"),
    ("classifiers.interleaved.s", "s"),
    ("classifiers.train.s", "s"),
    ("classifiers.builds", "count"),
    ("classifiers.replay.s", "s"),
    ("classifiers.replay_rows", "rows"),
    ("detectors.step.s", "s"),
    ("detectors.warm_start.s", "s"),
    ("detectors.rows", "rows"),
    ("detectors.flags", "count"),
    ("detectors.rows_per_stream_row", "ratio"),
    ("metrics.update.s", "s"),
    ("metrics.rows", "rows"),
    ("evaluation.rollback.s", "s"),
    ("evaluation.captures", "count"),
    ("evaluation.rollbacks", "count"),
    ("evaluation.checkpoint_capture.s", "s"),
    ("evaluation.checkpoint_write.s", "s"),
    ("evaluation.checkpoints", "count"),
    ("evaluation.checkpoint_bytes", "bytes"),
    ("protocol.store_put.s", "s"),
    ("protocol.store_puts", "count"),
    ("protocol.record_bytes", "bytes"),
    ("protocol.store_scan.s", "s"),
    ("protocol.store_read.s", "s"),
    ("protocol.analysis.s", "s"),
    ("unattributed.s", "s"),
    ("traced_wall.s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("trace.missing_entry_points", "count"),
)

#: The whole invocation must end well inside 180 s.
BUDGET_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="instances per cell; 'tiny' is for the self-test")
    parser.add_argument("--setup-samples", type=int, default=5,
                        help="fresh interpreters whose set-up time is sampled")
    return parser.parse_args(argv)


def _worker(args, workdir: Path, out: Path, deadline: float,
            setup_only: bool) -> dict:
    """Run one workload process to completion and return its result."""
    env = dict(os.environ)
    # One process runs one cell at a time: keep BLAS to that one core too.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(workdir), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    elif args.trace:
        command += ["--trace-out",
                    str(WORK / f"trace-{args.workload}-s{args.seed}.json")]
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=sys.stderr, stdin=subprocess.DEVNULL)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code is None:
        raise SystemExit(f"{args.workload}: workload process ran out of time")
    if code != 0 or not out.is_file():
        raise SystemExit(f"{args.workload}: workload process exited {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for sample in range(args.setup_samples - 1):
                out = workdir / f"setup-{sample}.json"
                setups.append(_worker(args, workdir / f"setup-{sample}", out,
                                      deadline, setup_only=True)["setup_s"])
        result = _worker(args, workdir / "run", workdir / "result.json",
                         deadline, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    for failure in result["failures"]:
        print(f"FAILED: {failure.strip()}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['reps']} "
          f"repetitions, shape {json.dumps(result['shape'], sort_keys=True)}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        layers = result.get("layers", {})
        metrics = {name: _metric(layers.get(name, 0.0), unit)
                   for name, unit in PER_LAYER}
        for entry in result.get("missing", []):
            print(f"missing entry point (not traced): {entry}")
    else:
        print("repetition walls (s): "
              + " ".join(f"{wall:.6g}" for wall in result["rep_walls"]))
        print("setup samples (s): " + " ".join(f"{s:.6g}" for s in setups))
        print("calibration kernel (s): "
              + " ".join(f"{c:.6g}" for c in result["calibrations"]))
        print(f"on this host: instances_per_s = {result['instances_per_s']:.6g}"
              f" 1/s, read_s = {result['read_s']:.6g} s")
        values = {
            "instances_per_ref_s": result["instances_per_ref_s"],
            "setup_s": statistics.median(setups),
            "read_ref_s": result["read_ref_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / max(attempted, 1),
        }
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
