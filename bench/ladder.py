"""Scaling ladder of the scheme, likelihood and Bayes kernels, written to
``BENCH_<commit>.json``.

Run from the repository root:

    python3 bench/ladder.py

BLAS and OpenMP pools are pinned to one thread before ``numpy`` is first
imported, and the package is imported from ``src/``.  At each rung n of the
ladder one Poisson grid is drawn (rates 1:1, horizon 1, ``bn = n``, seed 0)
and seven layers are timed, each as the median of three runs:
``theta_length_sums(p_max=2)``, ``check_a2``, ``resolvent_diag`` (z = 0.5,
side 1), ``QuasiLikEngine.loglik`` and ``gradient(method="analytic")`` of
``corr`` at sigma* = (1, 0.5) on a sample simulated on the rung's grid
(seed 1), and ``bayes(engine)`` (uniform prior, the closed-form route) of
``bm1`` at sigma* = 1 (seed 2) and of ``statedep`` at sigma* = (1, 1.5)
(seed 3), each on its own sample simulated on the rung's grid; simulation
and engine set-up are not timed.  A layer's log-log slope is the
least-squares slope of log(median seconds) against log(n) over the ladder.
The grid's interval counts, the half-bandwidth of the band
``resolvent_diag`` factors (``col_bandwidth``), the half-bandwidth of the
engine's Schur band (``schur_half_bandwidth``) and, per Bayes layer, the
number of incomplete-gamma window integrals one estimate evaluates (its
node count: 2 for ``bm1``, probes plus two orders per ``log t`` node for
``statedep``) are recorded beside the times.  The file is written next to
this script, named after the commit checked out (``dirty`` records whether
``src/`` differs from it).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from nsvol import likelihood, models, scheme  # noqa: E402
from nsvol.estimate import bayes  # noqa: E402
from nsvol.likelihood import QuasiLikEngine  # noqa: E402
from nsvol.sde import observe, simulate_path  # noqa: E402

LADDER = (1_000, 4_000, 16_000, 100_000)
REPEATS = 3
SIGMA = (1.0, 0.5)
#: Bayes layers: model, sigma* and path seed.
BAYES = {"bayes_bm1": ("bm1", (1.0,), 2),
         "bayes_statedep": ("statedep", (1.0, 1.5), 3)}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _median_seconds(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _window_integrals(engine):
    """Incomplete-gamma window integrals one ``bayes(engine)`` evaluates,
    counted by wrapping the module function it calls."""
    sizes = []
    inner = likelihood._log_window_integral

    def counting(a, q, ua, ub):
        sizes.append(np.broadcast(a, q, ua, ub).size)
        return inner(a, q, ua, ub)

    likelihood._log_window_integral = counting
    try:
        bayes(engine)
    finally:
        likelihood._log_window_integral = inner
    return sum(sizes)


def main():
    layers = {"theta_length_sums": [], "check_a2": [], "resolvent_diag": [],
              "loglik": [], "gradient": [], **{name: [] for name in BAYES}}
    counts = {"n_intervals1": [], "n_intervals2": [], "col_bandwidth": [],
              "schur_half_bandwidth": [],
              **{f"{name}_window_integrals": [] for name in BAYES}}
    model = models.get_model("corr")
    sigma = np.array(SIGMA)
    for n in LADDER:
        grid = scheme.poisson_grid(1.0, 1.0, 1.0, bn=n, seed=0)
        overlap = scheme.overlap_matrix(grid)
        engine = QuasiLikEngine(model, observe(
            simulate_path(model, sigma, grid, seed=1), grid))
        runs = {"theta_length_sums": lambda: scheme.theta_length_sums(grid, 2),
                "check_a2": lambda: scheme.check_a2(grid),
                "resolvent_diag":
                    lambda: scheme.resolvent_diag(overlap, 0.5, 1),
                "loglik": lambda: engine.loglik(sigma),
                "gradient": lambda: engine.gradient(sigma, method="analytic")}
        for name, (model_name, star, seed) in BAYES.items():
            pure = models.get_model(model_name)
            pure_engine = QuasiLikEngine(pure, observe(simulate_path(
                pure, np.array(star), grid, seed=seed), grid))
            runs[name] = lambda e=pure_engine: bayes(e)
            counts[f"{name}_window_integrals"].append(
                _window_integrals(pure_engine))
        for name, fn in runs.items():
            layers[name].append(_median_seconds(fn))
        counts["n_intervals1"].append(grid.n_intervals1)
        counts["n_intervals2"].append(grid.n_intervals2)
        counts["col_bandwidth"].append(overlap.col_bandwidth)
        # the engine keeps the half-bandwidth of the Schur band it factors
        counts["schur_half_bandwidth"].append(engine._hw)
        print(f"n={n}: " + ", ".join(f"{name} {secs[-1] * 1e3:.2f} ms"
                                    for name, secs in layers.items()),
              file=sys.stderr)
    commit = _git("rev-parse", "--short", "HEAD")
    log_n = np.log(LADDER)
    doc = {
        "commit": commit,
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
        "grid": "poisson_grid(1.0, 1.0, 1.0, bn=n, seed=0)",
        "ladder": list(LADDER),
        "repeats": REPEATS,
        "counts": counts,
        "layers": {
            name: {"median_s": secs,
                   "loglog_slope": float(np.polyfit(log_n, np.log(secs), 1)[0])}
            for name, secs in layers.items()
        },
    }
    doc["layers"]["theta_length_sums"]["args"] = "p_max=2"
    doc["layers"]["resolvent_diag"]["args"] = "z=0.5, side=1"
    doc["layers"]["loglik"]["args"] = "model=corr, sigma=(1.0, 0.5), seed=1"
    doc["layers"]["gradient"]["args"] = (doc["layers"]["loglik"]["args"]
                                         + ", method=analytic")
    for name, (model_name, star, seed) in BAYES.items():
        doc["layers"][name]["args"] = (f"model={model_name}, sigma={star}, "
                                       f"seed={seed}, prior=uniform")
    path = os.path.join(HERE, f"BENCH_{commit}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
