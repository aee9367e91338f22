"""Command-line interface: simulate, estimate, info, check, mc."""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import harness
from .estimate import run_estimation
from .information import (information_matrix, information_matrix_mc,
                          trace_densities)
from .likelihood import QuasiLikEngine
from .models import MODELS, get_model
from .scheme import (check_a2, grid_from_spec, load_grid_csv, load_grid_json,
                     overlap_matrix, save_grid_json, theta_length_sums)
from .sde import observe, read_sample_csv, sample_csv_text, simulate_path

def _parse_sigma(text):
    """Parse a comma-separated parameter vector (the ``type`` of
    ``--sigma`` and ``--sigma-star``)."""
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parse_scheme(text):
    """Parse 'poisson:l1,l2' or 'uniform:f1,f2[,offset]' specs.

    Values are per-side frequency factors relative to the scale ``n``:
    Poisson intensities are ``f * n`` and uniform interval counts are
    ``round(f * n)``.
    """
    kind, _, rest = text.partition(":")
    parts = [float(v) for v in rest.split(",")] if rest else []
    if kind == "poisson":
        r1, r2 = (parts + [1.0, 1.0])[:2]
        return {"scheme": "poisson", "rate1": r1, "rate2": r2}
    if kind == "uniform":
        r1, r2 = (parts + [1.0, 1.0])[:2]
        off = parts[2] if len(parts) > 2 else 0.5
        return {"scheme": "uniform", "rate1": r1, "rate2": r2, "offset2": off}
    raise argparse.ArgumentTypeError(f"unknown scheme {text!r}")


def _load_grid(args):
    if getattr(args, "grid", None):
        return load_grid_json(args.grid)
    if getattr(args, "grid_csv", None):
        return load_grid_csv(*args.grid_csv)
    if getattr(args, "scheme", None) and getattr(args, "n", None):
        return grid_from_spec(**args.scheme, n=args.n, horizon=args.horizon,
                              seed=[args.seed, 0])
    raise SystemExit("a grid is required: --grid, --grid-csv, or --scheme/--n")


def _emit(text, path):
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_simulate(args):
    model = get_model(args.model)
    grid = _load_grid(args)
    path = simulate_path(model, args.sigma, grid,
                         max_step=args.max_step, seed=[args.seed, 1])
    sample = observe(path, grid)
    if args.save_grid:
        save_grid_json(grid, args.save_grid)
    _emit(sample_csv_text(sample), args.out)
    return 0


def _cmd_estimate(args):
    model = get_model(args.model)
    grid = _load_grid(args)
    sample = read_sample_csv(args.sample, grid)
    engine = QuasiLikEngine(model, sample)
    outcome = run_estimation(engine, do_bayes=not args.no_bayes)
    _emit(json.dumps(outcome.to_dict(), indent=1, sort_keys=True), args.out)
    return 0


def _cmd_info(args):
    model = get_model(args.model)

    def generator(seed):
        return grid_from_spec(**args.scheme, n=args.n, horizon=args.horizon,
                              seed=seed)

    grids = [generator([args.seed, 10_000 + k]) for k in range(args.grids)]
    densities = trace_densities(grids, bins=args.bins)
    formula = information_matrix(model, args.sigma_star, densities)
    empirical = information_matrix_mc(model, args.sigma_star, generator,
                                      replicates=args.reps, seed=args.seed)
    doc = {
        "formula": formula.matrix.tolist(),
        "empirical": empirical.matrix.tolist(),
        "empirical_se": empirical.se.tolist(),
        "identity_residuals": {
            str(z): densities.identity_residual(z)
            for z in (0.3, 0.6, 0.9)
        },
        "sup_rho": formula.meta["sup_rho"],
        "z_margin": formula.meta["z_margin"],
        "replicates": args.reps,
        "grids": args.grids,
        "bins": args.bins,
    }
    _emit(json.dumps(doc, indent=1, sort_keys=True), args.out)
    return 0


def _cmd_check(args):
    grid = _load_grid(args)
    diag = check_a2(grid, args.delta1, args.delta2, args.delta3)
    overlap = overlap_matrix(grid)
    doc = diag.to_dict()
    doc.update({
        "n_intervals1": grid.n_intervals1,
        "n_intervals2": grid.n_intervals2,
        "bandwidth": overlap.bandwidth,
        "col_bandwidth": overlap.col_bandwidth,
        "theta_length_sums": theta_length_sums(grid, args.theta_pmax).tolist(),
    })
    _emit(json.dumps(doc, indent=1, sort_keys=True), args.out)
    return 0


def _cmd_mc(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = harness.ExperimentConfig.from_dict(doc)
    report = harness.run_mc(config)
    text = harness.emit_report(report, format=args.format, path=None,
                               include_timings=args.timings)
    _emit(text, args.out)
    if args.do_assert:
        failures = harness.assert_thresholds(report)
        if failures:
            for f in failures:
                sys.stderr.write(f"ASSERT FAIL: {f}\n")
            return 2
    return 0


@functools.cache
def build_parser():
    """The ``nsvol`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nsvol",
        description="Volatility estimation for nonsynchronously observed "
                    "two-dimensional diffusions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_opts(p, with_scheme=True):
        p.add_argument("--grid", help="grid JSON document")
        p.add_argument("--grid-csv", nargs=2, metavar=("S_CSV", "T_CSV"),
                       help="per-side index,time CSV files")
        if with_scheme:
            p.add_argument("--scheme", type=_parse_scheme,
                           help="poisson:f1,f2 or uniform:f1,f2[,offset] "
                                "(per-side frequency factors times n)")
            p.add_argument("--n", type=float, help="scheme scale")
            p.add_argument("--horizon", type=float, default=1.0)

    p = sub.add_parser("simulate", help="simulate a sample on a grid")
    add_grid_opts(p)
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--sigma", required=True, type=_parse_sigma,
                   help="comma-separated parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--save-grid", help="also write the grid JSON here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from a sample file")
    add_grid_opts(p, with_scheme=False)
    p.add_argument("--sample", required=True, help="side,index,time,value CSV")
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--no-bayes", action="store_true")
    p.add_argument("--bayes-adaptive", action="store_true",
                   help="ignored: the Bayes estimator has one rule")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("info", help="limit information, both routes")
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--sigma-star", required=True, type=_parse_sigma)
    p.add_argument("--scheme", type=_parse_scheme, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--grids", type=int, default=32)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("check", help="scheme diagnostics as JSON")
    add_grid_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta1", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--delta3", type=float, default=None)
    p.add_argument("--theta-pmax", type=int, default=2)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mc", help="Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock columns (breaks byte determinism)")
    p.add_argument("--assert", dest="do_assert", action="store_true",
                   help="exit 2 when configured thresholds fail")
    p.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
