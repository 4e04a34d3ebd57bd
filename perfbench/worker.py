"""One workload in one fresh process: set up, time operations, check them.

Started by ``run.py``, never by hand.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so set-up
time counts from process start: interpreter start-up, ``import oplab``,
window site enumeration and input construction.

The first operation is timed on its own (cold), then warm operations
repeat until ``--seconds`` have passed since the cold one began, with
at least one warm operation.  With ``--trace`` the tracer is installed
before set-up, the cold operation is traced, and warm operations
alternate untraced and traced so the tracing overhead is measured in
the same process.

The last line of standard output is one JSON object for ``run.py``.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARD_STOP_S = 150.0
# self times telescope to the root span; only float rounding may remain
SELF_SUM_TOLERANCE_S = 1e-9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    return ap.parse_args(argv)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1024, "M": 1024**2, "G": 1024**3}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "l3_bytes": l3_bytes(),
    }


class Runner:
    """Times, checks and (optionally) traces the operations of one workload."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.traced_ops = []  # (op id, manifest or None)

    def op(self, k: int, traced: bool) -> float:
        """Run operation ``k``; return its wall seconds, or None if it raised."""
        self.attempted += 1
        ctx = self.tracer.operation(k) if traced else nullcontext()
        t = time.perf_counter()
        try:
            with ctx:
                result = self.workload.run(k)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"op {k} raised:\n{traceback.format_exc()}")
            return None
        seconds = time.perf_counter() - t
        if traced:
            seconds = ctx.span.duration
        problems = self.workload.check(k, result)
        digest = self.workload.digest(result)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("same-seed rerun changed the output digest")
        if problems:
            self.failed += 1
            self.problems.extend(f"op {k}: {p}" for p in problems)
        if traced:
            self.traced_ops.append((k, self.workload.manifest(result)))
        return seconds


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import oplab  # noqa: F401  (the import is part of set-up time)

    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        with tracer.operation("setup") if tracer else nullcontext():
            workload = cls(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s, "dimension": workload.dimension}
        out.update(_measure(workload, tracer, args.seconds))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["machine"] = machine()
        if tracer:
            out["spans_file"] = _write_spans(tracer, args)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _measure(workload, tracer, seconds: float) -> dict:
    runner = Runner(workload, tracer)
    traced = tracer is not None
    start = time.perf_counter()
    cold = runner.op(0, traced)
    warm, untraced = [], []
    k = 1
    last = time.perf_counter() - start
    while True:
        elapsed = time.perf_counter() - start
        enough = warm and (untraced or not traced)
        if enough and (elapsed + last > seconds or elapsed > HARD_STOP_S):
            break
        if traced and k % 2 == 1:
            tracer.restore()
            t = runner.op(k, False)
            tracer.install()
            if t is not None:
                untraced.append(t)
        else:
            t = runner.op(k, traced)
            if t is not None:
                warm.append(t)
        last = time.perf_counter() - start - elapsed
        k += 1
        if runner.failed == runner.attempted and k > 4:
            break  # nothing succeeds; stop rather than spin
    out = {
        "cold_op_s": cold,
        "warm_op_s": warm,
        "digest": runner.reference,
        "measured_s": time.perf_counter() - start,
    }
    if traced:
        out["untraced_op_s"] = untraced
        if warm:
            out["layers"], out["self_sum_gap_s"] = _layers(tracer, runner)
    out.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    return out


def _layers(tracer, runner) -> tuple[dict, float]:
    """Per-layer metrics: medians over the traced warm operations for
    times, the first traced warm operation's value for counts.

    Two checks of the trace count as failures: counts must repeat
    exactly in every traced operation, the cold one too, and each
    operation's self times must add up to its traced wall time."""
    import spans

    ops = {k: tracer.operation_spans(k) for k, _ in runner.traced_ops}
    per_op = {k: spans.layer_metrics(ops[k], manifest) for k, manifest in runner.traced_ops}
    warm = [m for k, m in per_op.items() if k != 0]
    out = {}
    mismatched = []
    for name, unit in spans.METRICS.items():
        if name not in warm[0]:
            continue
        if unit in spans.COUNT_UNITS:
            out[name] = warm[0][name]
            if len({m[name] for m in per_op.values()}) > 1:
                mismatched.append(name)
        else:
            out[name] = statistics.median(m[name] for m in warm)
    if mismatched:
        runner.failed += 1
        runner.problems.append(f"counts differ between same-seed operations: {mismatched}")
    gap = max(abs(sum(spans.self_times(s)) - s[0].duration) for s in ops.values())
    if gap > SELF_SUM_TOLERANCE_S:
        runner.failed += 1
        runner.problems.append(f"self times miss an operation's traced wall time by {gap:.3e} s")
    setup = tracer.operation_spans("setup")
    out["windows.sites.setup_s"] = sum(
        (s.duration for s in setup if s.name == "windows.sites"), 0.0
    )
    return out, gap


def _write_spans(tracer, args) -> str:
    """All spans of the run as JSON lines, under the checkout's .bench_run."""
    path = ROOT / ".bench_run" / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        for i, s in enumerate(tracer.spans):
            rec = {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "notes": s.notes,
            }
            fh.write(json.dumps(rec) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
