"""qergodic benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload dag --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qergodic is imported from ./src.
Chains come from bench/chains.py, seeded by --seed.  One caller submits the
next chain only after the previous result has been checked against its
reference (bench/reference.py), and the loop runs until the operations took
--seconds of wall time, at least MIN_OPS operations are done and the
generator's size cycle is complete.  Preparing inputs and references is
never timed.  BLAS and OpenMP are pinned to one thread.

Times are CPU time (see cpu_clock), scaled to the reference machine's speed
by a speed probe run before every chain (see speed_probe): every reported
time is multiplied by PROBE_REF_S over the run's median probe time.  Raw CPU
and wall-clock latencies are printed on comment lines beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs every chain twice,
untraced and traced in alternating order, and prints the per-layer metrics
and the tracing overhead, writing raw spans to .bench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# pinned before anything imports numpy (workloads and speed_probe import it late)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
SETUP_PROBES = 5
PROBE_REF_S = 0.0054  # speed_probe's CPU time on the reference machine (see README)
# what a user imports to run the workload's operation
WORKLOAD_ENTRY = {"dag": "qergodic", "dense": "qergodic", "fallback": "qergodic.cli", "periodic": "qergodic"}


def cpu_clock() -> float:
    """CPU seconds of this process, all threads, plus its waited-for children.

    Operations are timed in CPU time, not wall time: on a shared machine the
    host's steal and preemption move wall latencies by 20-30 % from minute
    to minute, while the CPU time of the same operation moves by a few %.
    With BLAS pinned to one thread and no I/O in an operation, the two agree
    when nothing else runs."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def speed_probe() -> float:
    """CPU seconds of a fixed piece of work in the mix that qergodic's
    operations are made of: interpreter loops, small numpy calls and a
    100-state matrix-vector product.  On a shared machine the speed at which
    this process runs moves by up to 30 % between minutes (the neighbours of
    its CPU core come and go); the probe's time moves with it, while the
    ratio of an operation's time to the probe's stays within a few %."""
    import numpy as np

    M = np.full((100, 100), 1 / 100)
    x = np.ones(100)
    v = np.ones(8)
    table = list(range(64))
    seen = {}
    c0 = cpu_clock()
    for i in range(400):
        x = M @ x
        v = v * 1.0001 + 1e-9
        for j in range(8):
            seen[(i + j) % 97] = bisect.bisect_right(table, float(v[j]) * j * 8)
    return cpu_clock() - c0


def _load(workload: str):
    """The workload and its tolerances from bench/spec.json."""
    from workloads import WORKLOADS

    spec = json.loads((BENCH / "spec.json").read_text())
    return WORKLOADS[workload], spec["workloads"][workload]["tolerances"]


def setup_probe(workload: str) -> None:
    """One cold set-up, in a fresh process: import the workload's entry
    module, then one warm-up operation on a fixed chain (generator seed 0,
    index 0, the smallest size).  Generating the chain and its reference is
    excluded."""
    t0 = cpu_clock()
    importlib.import_module(WORKLOAD_ENTRY[workload])
    t1 = cpu_clock()
    wl, tol = _load(workload)
    inp, _ = wl.prepare(wl.generate(0, 0), 0, 0, tol)
    t2 = cpu_clock()
    wl.run(inp)
    t3 = cpu_clock()
    probe = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "probe_s": probe}))


def measure_setup(workload: str) -> float:
    """Median over SETUP_PROBES fresh processes of setup_probe's time,
    scaled by each process's own speed probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * PROBE_REF_S / probe["probe_s"])
    return statistics.median(times)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 2 has no dict mode
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_loop(wl, tol, seed: int, seconds: float, tracer=None):
    """Closed loop over chains 0, 1, 2, ... of the seed, until the operations
    took `seconds` of wall time (see the module docstring).  Returns the
    untraced and traced operations as (CPU seconds, wall seconds), the
    speed probe times and the failures as (chain index, kind, detail)."""
    untraced, traced, probes, failures = [], [], [], []
    wall = 0.0
    i = 0
    while True:
        inp, ref = wl.prepare(wl.generate(seed, i), seed, i, tol)
        probes.append(speed_probe())
        passes = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for trace_on in passes:
            gc.collect()
            if trace_on:
                tracer.install()
            w0, c0 = time.perf_counter(), cpu_clock()
            try:
                out = wl.run(inp)
                failure = None
            except Exception as exc:  # a library error is a failed operation, still timed
                failure = (type(exc).__name__, str(exc))
            c1, w1 = cpu_clock(), time.perf_counter()
            if trace_on:
                tracer.uninstall()
                tracer.end_op()
            if failure is None:
                reason = wl.check(out, ref, tol)
                failure = None if reason is None else ("mismatch", reason)
            if failure is not None:
                failures.append((i, *failure))
            (traced if trace_on else untraced).append((c1 - c0, w1 - w0))
            wall += w1 - w0
        i += 1
        if wall >= seconds and len(untraced) + len(traced) >= MIN_OPS and i % wl.cycle == 0:
            return untraced, traced, probes, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_ENTRY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qergodic" / "__init__.py").is_file():
        print(f"error: no qergodic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload)
    wl, tol = _load(args.workload)
    inp, _ = wl.prepare(wl.generate(0, 0), 0, 0, tol)
    wl.run(inp)  # in-process warm-up, untimed
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(time.process_time)
    untraced, traced, probes, failures = run_loop(wl, tol, args.seed, args.seconds, tracer)
    attempted = len(untraced) + len(traced)
    kinds = Counter(kind for _, kind, _ in failures)
    print(f"# {attempted} operations, {len(failures)} failed (fail_frac {len(failures) / attempted:.4g}); "
          f"failures by kind {dict(kinds)}")
    for i, kind, detail in failures[:5]:
        print(f"#   chain {i}: {kind}: {detail}")
    scale = PROBE_REF_S / statistics.median(probes)
    print(f"# speed probe median {statistics.median(probes) * 1e3:.4g} ms over {len(probes)} probes; "
          f"times scaled by {scale:.4g}")

    def ops_per_s(ops) -> float:
        return len(ops) / (scale * sum(cpu for cpu, _ in ops))

    if args.trace:
        ops_traced, ops_untraced = ops_per_s(traced), ops_per_s(untraced)
        values = {k: v * scale if k.endswith("_ms") else v for k, v in tracer.metrics().items()}
        values.update({
            "trace.ops_per_s": ops_traced,
            "trace.untraced_ops_per_s": ops_untraced,
            "trace.overhead_frac": 1.0 - ops_traced / ops_untraced,
        })
        OUT.mkdir(exist_ok=True)
        record = {"env": env, "metrics": values, "scale": scale, "failures": failures,
                  "self_ms_by_span": {k: v * scale / tracer.ops for k, v in sorted(tracer.self_ms.items())},
                  "spans": tracer.raw}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
        kind = "per_layer"
    else:
        cpu_ms = sorted(cpu * 1e3 for cpu, _ in untraced)
        wall_ms = sorted(w * 1e3 for _, w in untraced)
        p90 = statistics.quantiles(cpu_ms, n=10)[-1]
        print(f"# op_p90_ms from {len(cpu_ms)} samples, {sum(t > p90 for t in cpu_ms)} beyond it")
        for label, ms in (("raw CPU", cpu_ms), ("wall-clock", wall_ms)):
            print(f"# {label} latency: p50 {statistics.median(ms):.4g} ms, "
                  f"p90 {statistics.quantiles(ms, n=10)[-1]:.4g} ms")
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s(untraced),
            "op_p50_ms": statistics.median(cpu_ms) * scale,
            "op_p90_ms": p90 * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    for name, value in values.items():  # also the per-layer metrics BENCHMARK.json leaves out
        print(f"# {name} = {value:.6g} {units.get(name, 'ms' if name.endswith('_ms') else '')}".rstrip())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
