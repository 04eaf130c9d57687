"""netresil benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload fixture_cli --seed 0 --seconds 20 --trace 0

Runs the workload's fixed operation list in passes until ``--seconds`` have
elapsed (at least one pass), checks every output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans taken around calls into each module.
Run records (environment, per-operation latencies, spans) go to
``.bench_out/`` and scratch files to ``.bench_tmp/`` at the repository root.
"""

import os

# One BLAS thread: with the single load-generating thread this stays within
# the two cores the benchmark was tuned on.  Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
M_MMAP_THRESHOLD = -3                   # mallopt parameter, from glibc's malloc.h
MMAP_THRESHOLD_BYTES = 128 * 1024


def pin_allocator() -> bool:
    """Fix glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
    rises after the first large free, and whether later arrays then land in
    the heap depends on the order of earlier frees: peak RSS of one grid
    draw differed by 9 MB from another's for the same live arrays."""
    try:
        import ctypes
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))
    except (OSError, AttributeError):
        return False


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor()}


def fresh_import() -> None:
    """Interpreter start plus ``import netresil.cli`` in a fresh process."""
    subprocess.run([sys.executable, "-c", "import netresil.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": SRC})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def run_passes(workload, seconds: float, tmp: str, tracer) -> dict:
    """Closed loop over the operation list until ``seconds`` have elapsed.
    Each operation's start and end go to ``intervals``, so that an untraced
    run can put them in reference seconds afterwards (hostspeed.py).  A
    traced run also puts each output check in a root span, so that
    root spans can be held against ``elapsed``, the whole loop's wall time."""
    ops = workload.operations()
    walls, latencies, failures = [], [], []     # latencies[pass][op]
    intervals = []                              # intervals[pass][op] = (t0, t1)
    attempted = incorrect = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        passdir = tempfile.mkdtemp(dir=tmp)
        results, lat, spans = [], [], []
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = op.run(passdir)
                else:
                    tracer.op = i
                    res = tracer.span(op.label, op.run, passdir)
                err = None
            except Exception as exc:        # the operation failed; keep going
                res, err = None, f"raised {type(exc).__name__}: {str(exc).splitlines()[0]}"
            spans.append((t0, time.perf_counter()))
            lat.append(spans[-1][1] - t0)
            results.append((res, err))
        intervals.append(spans)
        walls.append(time.perf_counter() - t_pass)
        latencies.append(lat)
        for i, (op, (res, err)) in enumerate(zip(ops, results)):
            if err is None:
                msg = (op.check(res, passdir) if tracer is None
                       else tracer.span("bench.check", op.check, res, passdir))
                if msg is not None:
                    err = f"wrong output: {msg}"
                    incorrect += 1
            if err is not None:
                failures.append({"pass": len(walls) - 1, "op": i, "label": op.label, "error": err})
        attempted += len(ops)
        shutil.rmtree(passdir)
    return {"walls": walls, "latencies": latencies, "intervals": intervals,
            "failures": failures, "attempted": attempted, "incorrect": incorrect,
            "elapsed": time.perf_counter() - start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid_story", "fixture_cli", "controller_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "netresil", "cli.py")):
        print(f"error: no netresil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import hostspeed
    import tracing
    import workloads

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    tracer = speed = None
    try:
        allocator_pinned = pin_allocator()
        speed = hostspeed.HostSpeed()
        setup_spans = []
        for i in range(SETUP_REPEATS):
            # The timer pauses while the child process imports: a kernel call
            # in the parent would not hold the child up.
            t0 = time.perf_counter()
            fresh_import()
            speed.start()
            workload = workloads.WORKLOADS[args.workload]()
            os.makedirs(os.path.join(tmp, f"setup{i}"))
            workload.setup(args.seed, os.path.join(tmp, f"setup{i}"))
            setup_spans.append((t0, time.perf_counter()))
            speed.stop()
        if args.trace:
            span_cost = tracing.span_cost()
            tracer = tracing.Tracer()
            tracer.install()
        else:
            speed.start()
        res = run_passes(workload, args.seconds, tmp, tracer)
    finally:
        if speed is not None:
            speed.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    passes = len(res["walls"])
    raw_setups = [t1 - t0 for t0, t1 in setup_spans]
    setups = [speed.normalize(*span) for span in setup_spans]
    normalized = ([[speed.normalize(*span) for span in spans] for spans in res["intervals"]]
                  if tracer is None else [])
    lat_ms = [1e3 * x for lat in res["latencies"] for x in lat]
    checks_ok = True
    if tracer is None:
        # Each operation's mean time across the passes, in reference seconds
        # (hostspeed.py), and the median set-up.
        per_op = [statistics.fmean(op) for op in zip(*normalized)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_op), "s"),
            "latency_p50_ms": (1e3 * statistics.median(per_op), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, passes, res["elapsed"], span_cost)
        metrics.update(workload.counters())
        nesting = {"grid_story": [("simulate.run_scenario", "cli.grid-demo")],
                   "fixture_cli": [("lti.eval_frequency", "synthesis.hinf_norm", "cli.compensate")],
                   "controller_sweep": [("lti.spectral_abscissa", "controller_sweep.op")]}
        checks_ok = (all(tracer.nests(*chain) for chain in nesting[args.workload])
                     and metrics["trace.root_coverage"][0] >= 0.95)
    failed = len(res["failures"])
    correct = res["incorrect"] == 0 and checks_ok

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": {**environment(), "mmap_threshold_pinned": allocator_pinned},
              "inputs": workload.properties,
              "passes": passes, "setup_repeats_s": raw_setups,
              "setup_repeats_ref_s": setups, "pass_walls_s": res["walls"],
              "setup_intervals": setup_spans, "op_intervals": res["intervals"],
              "latencies_s": res["latencies"], "latencies_ref_s": normalized,
              "kernel_calls": speed.calls,
              "failures": res["failures"], "trace_checks_ok": checks_ok,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")

    print(json.dumps({"environment": record["environment"]}))
    print(f"{args.workload}: {passes} passes, {res['attempted']} operations")
    counts = {"setup_s": SETUP_REPEATS, "wall_s": passes, "peak_rss_mb": 1}
    lines = [(name, value, unit, counts.get(name, len(res["latencies"][0])))
             for name, (value, unit) in metrics.items()] if tracer is None else []
    lines += [("fail_ratio", failed / res["attempted"], "1", res["attempted"]),
              ("median_pass_wall_s (raw)", statistics.median(res["walls"]), "s", passes),
              ("median_setup_s (raw)", statistics.median(raw_setups), "s", SETUP_REPEATS)]
    if len(lat_ms) >= 100:
        lines.append(("latency_p90_ms (raw, all passes)", percentile(lat_ms, 90), "ms", len(lat_ms)))
    for name, value, unit, n in lines:
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for f in res["failures"][:5]:
        print(f"  failure: pass {f['pass']} op {f['op']} {f['label']}: {f['error']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
