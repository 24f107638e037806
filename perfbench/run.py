"""convval benchmark: seeded workloads, exact output checks, optional tracing.

Usage (from the root of a convval checkout):

    python3 perfbench/run.py --workload identity_n3 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs a closed loop with one caller for ``--seconds`` seconds
after one untimed warm-up operation and reports the end-to-end metrics,
with latencies scaled to a fixed machine speed by a reference kernel (see
``timed``).  ``--trace 1`` runs each operation of the first pass twice,
plain and with every public layer function wrapped, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0 only
when every operation returned the exact expected outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
PROBE_TIMEOUT = 120.0
WARMUP = -1  # index of the untimed warm-up operation; timed ones count from 0
NPROC = len(os.sched_getaffinity(0))  # before main() pins the process to one CPU
# Seconds one pass of the reference kernel takes at the speed ops_per_s is
# stated at, and the kernel's time around an operation as a share of it.
REFERENCE_S = 0.002
REFERENCE_SHARE = 0.1


class Run:
    """Failure accounting and the output digest of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.outputs: dict[int, str] = {}  # exact outputs by operation index

    def op(self, i: int, tracer=None) -> float | None:
        """Run operation i; its latency in seconds, or None if it failed."""
        wl = self.workload
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is not None and wl.in_process:
                with tracer.root("op", i):
                    text = wl.op(i)
            else:
                text = wl.op(i, tracer)
            if self.outputs.setdefault(i, text) != text:
                raise RuntimeError(f"operation {i} gave different outputs on two runs")
        except Exception:  # every failure is counted; the run goes on
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = {"workload_seed": wl.seed, "op": i,
                                      "command": wl.describe(i),
                                      "traceback": traceback.format_exc()}
            return None
        return perf_counter() - start

    def digest(self) -> str:
        """sha256 of the exact outputs of the warm-up and the first fixed_ops
        operations: the same seed gives the same digest."""
        h = hashlib.sha256()
        for i in range(WARMUP, self.workload.fixed_ops):
            h.update(f"{i} {self.outputs.get(i)}\n".encode())
        return h.hexdigest()


def reference(seconds: float) -> float:
    """Seconds per pass of a fixed kernel, run in passes for ``seconds`` but
    at least 20 ms: exact rational Gaussian elimination, the arithmetic convval
    spends its time on.  The benchmark owns the kernel, so no change to
    convval changes its work."""
    enabled = gc.isenabled()
    gc.disable()
    passes = 0
    start = perf_counter()
    while True:
        m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(8)]
             for i in range(7)]
        for c in range(7):
            p = next(r for r in range(c, 7) if m[r][c] != 0)
            m[c], m[p] = m[p], m[c]
            for r in range(7):
                if r != c and m[r][c]:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= max(seconds, 0.02):
            break
    if enabled:
        gc.enable()
    return elapsed / passes


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the workload's corpus for ``seconds`` seconds.

    The shared machine's speed drifts by a third and more, over seconds and
    over minutes.  So the reference kernel runs before and after every
    operation, and each latency is scaled to the speed at which the kernel
    takes REFERENCE_S seconds.  ``ops_per_s`` is the number of corpus items
    over the sum of each item's median scaled latency.
    """
    wl = run.workload
    lat = run.op(WARMUP)
    latencies = []
    refs = [reference(REFERENCE_SHARE * (lat or 0.0))]
    scaled: dict[int, list[float]] = {}  # scaled latencies by corpus item
    start = perf_counter()
    i = 0
    while i < wl.fixed_ops or perf_counter() - start < seconds:
        lat = run.op(i)
        refs.append(reference(REFERENCE_SHARE * (lat or 0.0)))
        if lat is not None:
            latencies.append(lat)
            speed = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
            scaled.setdefault(wl.item(i), []).append(lat * speed)
        i += 1
    elapsed = perf_counter() - start
    if wl.in_process:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak_mb = wl.peak_rss_mb
    out = {
        "ops_per_s": (len(scaled) / sum(map(statistics.median, scaled.values()))
                      if scaled else 0.0, "1/s"),
        "op_p50_s": (statistics.median(latencies) if latencies else None, "s"),
        "op_tail_s": (None, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "fail_ratio": (run.failed / run.attempted, "ratio"),
    }
    detail = {"timed_ops": i, "timed_s": elapsed,
              "unscaled_ops_per_s": len(latencies) / elapsed,
              "reference_s": statistics.median(refs)}
    if len(latencies) >= 11:
        # Highest percentile with at least ten samples beyond it.
        ordered = sorted(latencies)
        k = len(ordered) - 11
        out["op_tail_s"] = (ordered[k], "s")
        detail["op_tail"] = {"percentile": 100 * (k + 1) / len(ordered),
                             "samples": len(ordered)}
    return out, detail


def traced(run: Run) -> tuple[dict, dict]:
    wl = run.workload
    run.op(WARMUP)
    ops = range(wl.fixed_ops)
    tracer = tracing.Tracer()

    def traced_op(i):
        if not wl.in_process:
            return run.op(i, tracer)
        with tracing.installed(tracer):
            return run.op(i, tracer)

    # Each operation runs plain and traced back to back, alternating which
    # goes first, so that drift in the machine's speed cancels in the ratio.
    both = []
    for i in ops:
        if i % 2:
            b, a = traced_op(i), run.op(i)
        else:
            a, b = run.op(i), traced_op(i)
        if a is not None and b is not None:
            both.append((a, b))
    plain_s = sum(a for a, _ in both)
    extra = {
        "trace.overhead_ratio": sum(b for _, b in both) / plain_s if plain_s else 0.0,
        "cli.import_s": getattr(wl, "import_s", 0.0),
        "cli.process_s": getattr(wl, "process_s", 0.0),
    }
    metrics = tracing.per_layer_metrics(tracer.spans, extra)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.json")
    tracer.write(spans_path)
    return (metrics,
            {"traced_ops": len(ops), "spans": len(tracer.spans),
             "spans_file": os.path.relpath(spans_path, ROOT),
             "inclusive_share": inclusive_share(tracer.spans)})


def inclusive_share(spans) -> dict:
    """Share of traced operation time spent inside each span name."""
    roots = [s for s in spans if s[2] is None]
    total = sum(s[5] - s[4] for s in roots)
    by_name: dict[str, float] = {}
    open_names = {}
    for s in sorted(spans, key=lambda s: s[0]):
        # A name nested inside itself would be counted twice; skip inner ones.
        parent_names = open_names.get(s[2], frozenset())
        open_names[s[0]] = parent_names | {s[1]}
        if s[1] not in parent_names:
            by_name[s[1]] = by_name.get(s[1], 0.0) + s[5] - s[4]
    return {k: v / total for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])
            if total and v / total >= 0.01}


def measure_setup(name: str, seed: int) -> tuple[float, list[float]]:
    """Median set-up time of fresh interpreters that import convval and build
    the workload's inputs (SETUP_REPEATS of them, one at a time), each scaled
    by the reference kernel run before and after it, as in ``timed``.
    Returns the median and the unscaled times."""
    from workloads import spawn

    times, scaled = [], []
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"probe-{os.getpid()}.out")
    err = os.path.join(WORK, f"probe-{os.getpid()}.err")
    try:
        ref = reference(0.0)  # then as long as the probe before it
        for _ in range(SETUP_REPEATS):
            code, elapsed, _, timed_out = spawn(
                [os.path.abspath(__file__), "--setup-probe", "--workload", name,
                 "--seed", str(seed), "--seconds", "0"],
                dict(os.environ), out, err, PROBE_TIMEOUT)
            if code != 0 or timed_out:
                with open(err) as fh:
                    raise RuntimeError(f"set-up probe failed ({code}): {fh.read()[-2000:]}")
            before, ref = ref, reference(REFERENCE_SHARE * elapsed)
            times.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / ((before + ref) / 2))
    finally:
        for path in (out, err):
            if os.path.exists(path):
                os.remove(path)
    return statistics.median(scaled), times


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "commit": _commit(),
            "nproc": NPROC, "pinned_cpu": min(os.sched_getaffinity(0)),
            **{d: version(d) for d in ("numpy", "sympy", "mpmath", "gmpy2", "python-flint")}}


def _show(value) -> str:
    return "undefined" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "convval", "__init__.py")):
        print(f"error: no convval sources under {SRC}; run from a convval checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and the children it starts, so that the
    # reference kernel measures the CPU every operation ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import convval
    if not os.path.abspath(convval.__file__).startswith(SRC + os.sep):
        print(f"error: imported convval from {convval.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.setup_probe:
        cls(args.seed, workdir).close()
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)
    wl = cls(args.seed, workdir)
    run = Run(wl)
    try:
        metrics, detail = traced(run) if args.trace else timed(run, args.seconds)
    finally:
        wl.close()
        try:
            os.rmdir(WORK)
        except OSError:  # absent, or still used by another run
            pass
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        detail["setup_unscaled_runs_s"] = setup_runs
    detail.update(output_digest=run.digest(),
                  first_failure=run.first_failure, environment=environment())

    print(f"workload {args.workload}  seed {args.seed}  "
          f"mode {'traced' if args.trace else 'timed'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {_show(value):>12} {unit}")
    if "op_tail" in detail:
        tail = detail["op_tail"]
        print(f"  op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} operations")
    print(f"  output_digest {run.digest()}")
    print(f"  failed {run.failed} of {run.attempted} operations")
    print("detail " + json.dumps(detail, sort_keys=True))

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names}}
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
