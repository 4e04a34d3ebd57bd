"""oplab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout that holds ``src/oplab``.  Workloads and
metrics are declared in ``BENCHMARK.json``.  Each workload runs in fresh
processes started one at a time (see ``worker.py``), with BLAS limited
to the usable CPU count:

* ``--trace 0`` splits ``--seconds`` over three measuring processes, so
  that a slow process or a slow minute of a shared machine moves one
  sample in three.  It reports the end-to-end metrics: ``op_s`` (median
  of the warm operations of all three), ``cold_op_s`` (median of their
  first operations), ``setup_s`` (median of their set-up times) and
  ``peak_rss_mb`` (largest peak of the three).
* ``--trace 1`` starts one traced process and reports the per-layer
  metrics built from its spans.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the arguments or the checkout are
unusable, 1 that a workload could not be measured.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 3
MAX_SECONDS = 60
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must lie in (0, {MAX_SECONDS}]")
    return args


def _env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def _spawn(args, workload: str, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(xs) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n <= 10:
        return "tail: none (needs more than 10 samples)"
    rank = n - 10
    return f"tail: p{math.floor(100 * rank / n)} = {sorted(xs)[rank - 1]:.4f}"


def _listed(xs) -> str:
    return "[" + " ".join(f"{x:.3f}" for x in xs) + "]"


def measure(args, workload: str, spec: dict) -> dict:
    """Run one workload and return the result object for the last line."""
    deadline = time.monotonic() + DEADLINE_S
    count = 1 if args.trace else PROCESSES
    runs = [_spawn(args, workload, args.seconds / count, deadline) for _ in range(count)]
    main = runs[0]
    warm = [t for r in runs for t in r["warm_op_s"]]
    colds = [r["cold_op_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    digests = {r["digest"] for r in runs if r["digest"] is not None}
    if len(digests) > 1:
        # each process reruns the same seed, so all must agree byte for byte
        failed += 1
        problems.append(f"processes disagree on the output digest: {sorted(digests)}")
    if None in colds or not warm:
        for problem in problems:
            print(problem, file=sys.stderr)
        raise BenchError(f"{workload}: no successful operation to time")

    lines = [f"machine: {json.dumps(main['machine'], sort_keys=True)}"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    lines.append(
        f"workload {workload} seed {args.seed} trace {args.trace} "
        f"(dimension {main['dimension']}; "
        f"{sum(r['measured_s'] for r in runs):.1f} s measured): {why}"
    )
    if args.trace:
        layers = dict(main["layers"])
        traced = statistics.median(warm)
        untraced = statistics.median(main["untraced_op_s"])
        layers["trace.op_s"] = traced
        layers["trace.untraced_op_s"] = untraced
        layers["trace.overhead_s"] = traced - untraced
        layers["window.dimension"] = main["dimension"]
        layers["blas.threads"] = max(main["machine"]["blas_threads"].values(), default=0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        lines.append(
            f"  traced ops {len(warm)}, untraced ops {len(main['untraced_op_s'])}; "
            f"overhead {traced - untraced:+.4f} s; spans in {main['spans_file']}"
        )
        lines.append(
            f"  self times add up to each traced op's wall time "
            f"within {main['self_sum_gap_s']:.1e} s"
        )
        for name, m in metrics.items():
            lines.append(f"  {name:40s} {m['value']!r} {m['unit']}")
    else:
        setups = [r["setup_s"] for r in runs]
        rss = [r["peak_rss_mb"] for r in runs]
        values = {
            "op_s": (
                statistics.median(warm),
                f"median of {len(warm)} warm ops {_listed(warm)}; {_tail(warm)}",
            ),
            "cold_op_s": (
                statistics.median(colds),
                f"median of {len(colds)} processes {_listed(colds)}",
            ),
            "setup_s": (
                statistics.median(setups),
                f"median of {len(setups)} processes {_listed(setups)}",
            ),
            "peak_rss_mb": (max(rss), f"largest of {len(rss)} processes {_listed(rss)}"),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            value, note = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"  {m['name']:12s} {value:12.6f} {m['unit']:3s} {note}")
    lines.append(f"  fail_ratio   {failed} / {attempted} = {failed / attempted:.3f}")
    lines.extend(f"  problem: {p}" for p in problems)
    print("\n".join(lines), flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    try:
        spec = _spec()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = _parse(argv, spec)
    if not (ROOT / "src" / "oplab" / "__init__.py").is_file():
        print(f"no oplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    try:
        if args.workload != "all":
            print(json.dumps(measure(args, args.workload, spec)))
            return 0
        results = {name: measure(args, name, spec) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
