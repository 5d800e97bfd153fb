"""Benchmark of the mubcert simulate -> certify pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload weak-default --seed 1 --seconds 35 --trace 0

The benchmark plays one user running ``mubcert`` commands back to back
(a closed loop with one client, in one process, through
``mubcert.cli.main``).  It makes every input from ``--seed``, runs ops
until ``--seconds`` of op wall time have been measured, checks every op's
outputs, and prints one line per metric followed by a JSON result line.
With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json; their op times are process CPU time.  OpenBLAS is held to
one thread, so every op runs on one thread and its CPU time equals its
wall time on an unshared host, but leaves out the time a shared virtual
machine's host gives the CPU to others.  Wall-time figures are printed
alongside.  With ``--trace 1`` each op runs twice,
with and without span tracing at the module boundaries, and the result
holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before numpy is first imported, here and in the set-up interpreters.
# With more threads, OpenBLAS's workers spin after each call and after
# start-up, and that spinning would be counted as the ops' CPU time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from workloads import WORKLOADS, CheckFailed  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "t = time.process_time()\n"
    "import mubcert.cli\n"
    "mubcert.cli.build_parser()\n"
    "print(time.process_time() - t, mubcert.__file__)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample() -> float:
    """CPU time of ``import mubcert.cli`` plus ``build_parser()`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, module_file = proc.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mubcert from {module_file}, not {SRC}")
    return float(seconds)


def blas_threads() -> str:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "loop": "closed, 1 client, 1 process",
    }


def call_main(cli, argv) -> str | None:
    """Run one command; return None on exit code 0, else what went wrong."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed op, reported and counted
        return traceback.format_exc()
    return None if code == 0 else f"exit code {code}"


def run_op(cli, workload, k: int) -> tuple[float, float, str | None]:
    """Run op k; return its wall and CPU time in ms and the first failure, if any."""
    err = None
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in workload.argvs(k):
        err = call_main(cli, argv)
        if err is not None:
            break
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    cpu_ms = (time.process_time() - c0) * 1e3
    if err is None:
        try:
            workload.check(k)
        except (CheckFailed, OSError, ValueError, LookupError, TypeError) as exc:
            err = f"check failed: {exc!r}"
    return elapsed_ms, cpu_ms, err


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mubcert" / "cli.py").is_file():
        print(f"error: no mubcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy as np
    from mubcert import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mubcert from {cli.__file__}", file=sys.stderr)
        return 2

    setup_sample()  # may compile bytecode; not counted
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, cli, WORKLOADS[args.workload](
            np.random.default_rng(args.seed), work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, workload) -> int:
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    failures = []
    latencies, cpu_times, traced_ms, untraced_ms = [], [], {}, []
    pulses = 0
    sink = open(os.devnull, "w")
    with sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        _, _, err = run_op(cli, workload, -1)  # warm-up, not timed
        if err is not None:
            failures.append(("warm-up", err))
        measured, k = 0.0, 0
        setups, next_setup = [], 0.0
        deadline = time.monotonic() + 3.0 * args.seconds
        while measured < args.seconds * 1e3 and time.monotonic() < deadline:
            # Set-up samples are spread over the run, so that they see the
            # same slow and fast phases of a shared host as the ops do.
            if tracer is None and measured >= next_setup:
                setups.append(setup_sample())
                next_setup += args.seconds * 1e3 / SETUP_REPEATS
            if tracer is None:
                ms, cpu_ms, err = run_op(cli, workload, k)
                latencies.append(ms)
                cpu_times.append(cpu_ms)
            else:
                ms, err = run_traced_pair(cli, workload, k, tracer,
                                          traced_ms, untraced_ms)
            measured += ms
            if err is not None:
                failures.append((k, err + stderr.getvalue()))
            stderr.seek(0)
            stderr.truncate()
            pulses += workload.pulses(k)
            k += 1
    for op, err in failures[:3]:
        print(f"op {op} failed: {err}", file=sys.stderr)

    attempted = k + 1  # the warm-up op counts as attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is not None:
        from spans import layer_metrics
        tracer.write(WORK / f"spans-{workload.name}.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (value, units.get(name, "")) for name, value in
                   layer_metrics(tracer.per_op(), traced_ms, untraced_ms).items()}
        reported = list(units)
    else:
        metrics = end_to_end(workload, latencies, cpu_times,
                             statistics.median(setups), pulses)
        metrics["error_rate"] = (len(failures) / attempted, "ratio")
        reported = [m["name"] for m in spec["end_to_end"]]
    print(f"workload {workload.name}, seed {args.seed}: {attempted} ops, "
          f"{len(failures)} failed; {json.dumps(environment())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")

    result = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
              for name in reported}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


def run_traced_pair(cli, workload, k, tracer, traced_ms, untraced_ms):
    """Run op k untraced and traced, alternating which goes first."""
    total, first_err = 0.0, None
    for traced in ((False, True) if k % 2 == 0 else (True, False)):
        if traced:
            tracer.install(k)
        try:
            ms, _, err = run_op(cli, workload, k)
        finally:
            tracer.uninstall()
        if traced:
            traced_ms[k] = ms
        else:
            untraced_ms.append(ms)
        total += ms
        first_err = first_err or err
    return total, first_err


def end_to_end(workload, latencies: list, cpu_times: list, setup_s: float,
               pulses: int) -> dict:
    import numpy as np

    p50 = statistics.median(latencies)
    tail = workload.tail_percentile
    total_s = sum(latencies) / 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_p50_ms": (statistics.median(cpu_times), "ms"),
        "cpu_tail_ms": (float(np.percentile(cpu_times, tail)), "ms"),
        "datasets_per_cpu_s": (len(cpu_times) / (sum(cpu_times) / 1e3), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (float(np.percentile(latencies, tail)), "ms"),
        "tail_percentile": (tail, "%"),
        "datasets_per_s": (len(latencies) / total_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if pulses:
        metrics["mpulse_per_s"] = (pulses / 1e6 / total_s, "Mpulse/s")
    metrics.update(workload.extra_metrics(p50))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
