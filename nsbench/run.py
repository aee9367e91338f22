"""End-to-end benchmark of ``nsvol``: three closed-loop workloads.

Run from the repository root:

    python3 nsbench/run.py --workload mc-corr --seed 1 --seconds 30 --trace 0
    python3 nsbench/run.py --smoke

One process, one thread, one client: each op starts when the previous one
has returned.  BLAS and OpenMP pools are pinned to one thread before
``numpy`` is first imported.  The package is imported from ``src/`` next to
this directory; without it the run exits with code 2 and prints no result.

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` wraps the package's public functions (``spans.py``) and
prints the per-layer metrics instead.  Either way the outputs are checked
after the timed loop, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs two traced ops of every workload with checks on and prints
every metric name.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".nsbench")

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``import nsvol`` is timed here and in this many fresh interpreters.
IMPORT_CHILDREN = 2
SMOKE_OPS = 2
WORKLOAD_NAMES = ("mc-corr", "estimate-statedep", "scheme-info")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import nsvol; "
                "print(time.perf_counter() - t)")


def _fail(message):
    sys.stderr.write(f"nsbench: {message}\n")
    sys.exit(2)


def _import_package():
    """Import ``nsvol`` from this checkout's ``src``; return its import time."""
    if not os.path.isfile(os.path.join(SRC, "nsvol", "__init__.py")):
        _fail(f"no nsvol package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nsvol
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(nsvol.__file__))) \
            != SRC:
        _fail(f"imported nsvol from {nsvol.__file__}, not from {SRC}")
    return elapsed


def _child_import_times():
    times = []
    for _ in range(IMPORT_CHILDREN):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment():
    import numpy
    import scipy
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _timed_setup(wl, recorder):
    """Run set-up ``SETUP_REPEATS`` times; trace only the last one."""
    times = []
    for k in range(SETUP_REPEATS):
        if recorder is not None and k == SETUP_REPEATS - 1:
            recorder.op = spans.SETUP
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.op = None
    return times


def _timed_loop(wl, seconds, recorder, max_ops=None):
    """Whole rounds of ops until ``seconds`` have passed (or ``max_ops``)."""
    outputs, durations, errors = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.ops_per_round):
            if recorder is not None:
                recorder.op = i
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception:  # an op that raises counts as failed
                out = None
                errors.append((i, traceback.format_exc(limit=3)))
            durations.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.op = None
            outputs.append(out)
            i += 1
        if max_ops is not None and i >= max_ops:
            break
        if max_ops is None and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return outputs, durations, errors, wall


def _check(wl, outputs, errors):
    """Per-op and run checks; returns (failed op ids, run failures, notes)."""
    failed = {i: why for i, why in errors}
    good = []
    for i, out in enumerate(outputs):
        if out is None:
            continue
        try:
            why = wl.check_op(i, out)
        except Exception:
            why = traceback.format_exc(limit=3)
        if why:
            failed[i] = why
        else:
            good.append(out)
    run_failures, notes = wl.check_run(good)
    return failed, run_failures, notes


def run_workload(name, seed, seconds, trace, max_ops=None):
    import_time = _import_package()
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    recorder = spans.Recorder() if trace else None
    if recorder is not None:
        recorder.install()
    try:
        import_times = [import_time] + _child_import_times()
        setup_times = _timed_setup(wl, recorder)
        outputs, durations, errors, wall = _timed_loop(wl, seconds, recorder,
                                                       max_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            recorder.uninstall()
        failed, run_failures, notes = _check(wl, outputs, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = len(outputs)
    metrics = {
        "setup_s": (statistics.median(import_times)
                    + statistics.median(setup_times), "s"),
        "ops_per_s": (n_ops / wall, "1/s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer = None
    if recorder is not None:
        rung = getattr(wl, "rung", None)
        layer = recorder.layer_metrics(
            n_ops, rung, getattr(wl, "LADDER", None) if rung else None)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(), "ops": n_ops, "wall_s": wall,
        "op_s": durations, "import_s": import_times, "setup_runs_s":
        setup_times, "failed_ops": {str(k): v for k, v in failed.items()},
        "run_failures": run_failures, "notes": notes,
        "end_to_end": metrics, "per_layer": layer,
        "untraced_functions": recorder.missing if recorder else [],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-s{seed}-t{int(bool(trace))}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if recorder is not None:
        recorder.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    return detail


def _result_line(detail, metrics):
    return json.dumps({
        "correct": not detail["run_failures"],
        "attempted": detail["ops"],
        "failed": len(detail["failed_ops"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    })


def smoke():
    """Two traced ops of every workload, checks on; list every metric."""
    ok = True
    for name in WORKLOAD_NAMES:
        detail = run_workload(name, seed=0, seconds=0, trace=1,
                              max_ops=SMOKE_OPS)
        print(f"== {name}: {detail['ops']} ops, "
              f"{len(detail['failed_ops'])} failed, "
              f"run failures {detail['run_failures']}, "
              f"notes {detail['notes']}")
        for i, why in detail["failed_ops"].items():
            print(f"   op {i} failed: {why}")
        for group in ("end_to_end", "per_layer"):
            for metric, (value, unit) in detail[group].items():
                print(f"   {group:10s} {metric:40s} {value:.6g} {unit}")
        ok = ok and not detail["failed_ops"] and not detail["run_failures"]
        for group in ("end_to_end", "per_layer"):
            ok = ok and _names_match(group, detail[group])
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _names_match(group, metrics):
    """The metrics printed are exactly those BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[group]}
    printed = {k: u for k, (_, u) in metrics.items()}
    if declared != printed:
        print(f"   {group} names differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(printed.items()))}")
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": detail["env"]}))
    for i, why in detail["failed_ops"].items():
        print(f"op {i} failed: {why}", file=sys.stderr)
    for why in detail["run_failures"]:
        print(f"run check failed: {why}", file=sys.stderr)
    print(_result_line(detail, detail["per_layer"] if args.trace
                       else detail["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
