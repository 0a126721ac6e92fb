"""qrmt benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 bench/run.py --workload mc_spectra --seed 1 --seconds 30 --trace 0

Run from the repository root; qrmt is imported from ``src/`` next to this
directory.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller result file goes to
``bench/results/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speedmeter import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# what a user pays before the first call: imports, parser, first parameters;
# the child reports its CPU time, the meter's speed factor and cost, and the
# monotonic clock when ready
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from speedmeter import SpeedMeter\n"
    "meter = SpeedMeter()\n"
    "meter.start()\n"
    "import qrmt.cli as cli\n"
    "from qrmt.params import EnsembleParams\n"
    "cli.build_parser()\n"
    "EnsembleParams.from_lambda(10, 1.5, alpha='auto')\n"
    "factor, cost = meter.stop()\n"
    "print(repr(time.process_time()), repr(factor), repr(cost), repr(time.monotonic()))\n"
)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_qrmt():
    if not os.path.isfile(os.path.join(SRC, "qrmt", "__init__.py")):
        fail(f"no qrmt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import qrmt.analytic
    import qrmt.cli
    import qrmt.params
    import qrmt.sampler
    import qrmt.spectral

    if not os.path.abspath(qrmt.__file__).startswith(SRC + os.sep):
        fail(f"imported qrmt from {qrmt.__file__}, not from {SRC}")
    return argparse.Namespace(cli=qrmt.cli, params=qrmt.params, sampler=qrmt.sampler,
                              spectral=qrmt.spectral, analytic=qrmt.analytic)


def machine_block(cpus: list) -> dict:
    """``cpus``: the CPUs the process could use before it pinned itself to the first."""
    import ctypes

    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = runtime = None
    try:  # the OpenBLAS numpy loaded, found through this process's own mappings
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                    cfg.restype = ctypes.c_char_p
                    runtime = cfg().decode()
                    break
            if threads is not None:
                break
    except (OSError, IndexError, AttributeError):
        pass
    return {
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
    }


def measure_setup(repeats: int) -> tuple[list, list, list]:
    """Scaled CPU, CPU and wall seconds from spawning a fresh interpreter to qrmt being ready."""
    env = dict(os.environ, PYTHONPATH=SRC)
    scaled, cpu, wall = [], [], []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, HERE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        c, factor, cost, ready = (float(v) for v in proc.stdout.split())
        scaled.append((c - cost) * factor)
        cpu.append(c - cost)
        wall.append(ready - t0)
    return scaled, cpu, wall


def dir_usage(path: str) -> tuple[int, int]:
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def run_pass(wl, k: int, meter: SpeedMeter, tracer=None, cli_usage=None) -> dict:
    """One pass over every op; returns op -> (wall s, cpu s, scaled cpu s).  Gates run untimed."""
    times = {}
    for op in wl.ops:
        if tracer is not None:
            tracer.op = f"{op.name}#{k}"
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        meter.start()
        try:
            res, err = op.run(k), None
        except Exception as exc:  # the op fails; the run goes on
            res, err = None, exc
        finally:
            factor, cost = meter.stop()
        cpu = time.process_time() - c0 - cost
        times[op.name] = (time.perf_counter() - w0, cpu, cpu * factor)
        if tracer is not None:
            tracer.uninstall()
            if op.out_dir and cli_usage is not None:
                f, b = dir_usage(op.out_dir)
                cli_usage[0] += f
                cli_usage[1] += b
        if err is not None:
            op.record([f"{op.name}: {type(err).__name__}: {err}"])
            continue
        try:
            op.record(op.check(res))
        except Exception as exc:  # a gate that cannot read the output fails the op
            op.record([f"{op.name}: gate raised {type(exc).__name__}: {exc}"])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    os.environ.pop("QRMT_THREADS", None)  # the CLI default thread count is os.cpu_count()
    # one CPU for every thread, set before numpy starts its BLAS threads, so
    # the speed meter in the main thread sees the CPU the pool workers use;
    # os.cpu_count(), and with it the CLI's default of 2 threads, is unchanged
    args.cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpus[0]})

    q = import_qrmt()
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run_workload(args, spec, q, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(args, spec, q, work_dir) -> int:
    from tracing import Tracer, configure, per_layer
    from workloads import WORKLOADS, edge_probes

    setup_scaled, setup_cpu, setup_wall = measure_setup(2 if args.smoke else SETUP_REPEATS)
    wl = WORKLOADS[args.workload](q, work_dir, args.seed, args.smoke)
    wl.warm_up()
    meter = SpeedMeter()

    tracer = None
    if args.trace:
        tracer = Tracer()
        configure(tracer, vars(q))
    passes, traced, cli_usage = [], [], [0, 0]
    measured, k = 0.0, 0
    while True:  # passes until the next one would end past --seconds
        batch = [run_pass(wl, k, meter)]
        passes.append(batch[0])
        if tracer is not None:
            batch.append(run_pass(wl, k + 1, meter, tracer, cli_usage))
            traced.append(batch[1])
        k += len(batch)
        last = sum(v[0] for t in batch for v in t.values())
        measured += last
        if measured + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.final_checks()
    probes = edge_probes(q)

    def pass_mean(ps, i):
        return statistics.fmean(sum(v[i] for v in t.values()) for t in ps)

    op_scaled = {op.name: statistics.fmean(t[op.name][2] for t in passes) for op in wl.ops}
    # attempted/failed count the workload's ops; the probes lie outside the
    # workload and show in ok_ratio and on their own lines
    attempted = sum(op.runs for op in wl.ops)
    failed = sum(op.fails for op in wl.ops)
    kinds = [(op.runs, op.fails) for op in wl.ops] + [(1, int(bool(p))) for _, p in probes]

    # times are process CPU seconds at reference speed (see speedmeter.py):
    # wall time also holds the hypervisor's steal time, which moved single
    # passes by up to 50%, and plain CPU time follows the speed level of the
    # CPU, which moved whole runs by up to 1.5x
    e2e = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "scaled_cpu_s": (pass_mean(passes, 2), "s"),
        "op_scaled_cpu_geomean_s": (math.exp(statistics.fmean(math.log(v) for v in op_scaled.values())),
                                    "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (statistics.fmean(1.0 - f / r for r, f in kinds), "ratio"),
    }
    detail = {"wall_s": (pass_mean(passes, 0), "s"), "cpu_s": (pass_mean(passes, 1), "s"),
              "setup_cpu_s": (statistics.median(setup_cpu), "s"),
              "setup_wall_s": (statistics.median(setup_wall), "s"), **wl.detail(op_scaled)}
    if args.trace:
        metrics = per_layer(tracer, len(traced), *cli_usage)
        metrics["trace.overhead_s"] = (pass_mean(traced, 2) - pass_mean(passes, 2), "s")
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_block(args.cpus),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_scaled_cpu_s": setup_scaled,
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "op_scaled_cpu_mean_s": op_scaled,
        "op_wall_s": {op.name: [t[op.name][0] for t in passes] for op in wl.ops},
        "op_cpu_s": {op.name: [t[op.name][1] for t in passes] for op in wl.ops},
        "op_scaled_cpu_s": {op.name: [t[op.name][2] for t in passes] for op in wl.ops},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if args.trace else None,
        "ops": {op.name: {"runs": op.runs, "fails": op.fails, "errors": op.errors} for op in wl.ops},
        "probes": {name: {"failed": bool(p), "errors": p} for name, p in probes},
    }
    res_dir = os.path.join(HERE, "results")
    os.makedirs(res_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(res_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(res_dir, stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "op", "name", "start", "end", "parent", "self_s"],
                       "spans": tracer.spans}, fh)

    for name, (value, unit) in {**metrics, **({} if args.trace else detail)}.items():
        print(f"{name} {value:.6g} {unit}")
    for name, p in probes:
        print(f"{name} {'FAILED' if p else 'ok'}{': ' + p[0][:120] if p else ''}")
    print(f"edge probes failed: {sum(bool(p) for _, p in probes)} of {len(probes)}")
    for op in wl.ops:
        if op.fails:
            print(f"{op.name} FAILED {op.fails}/{op.runs}: {op.errors[0][:160]}")
    out = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in
           (m["name"] for m in wanted)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
