"""Monte Carlo experiment driver: simulate-estimate loops and reports.

Each replicate draws a fresh grid and path, runs the estimators, and
records studentized errors; summaries aggregate bias, scaled risk,
normality statistics of the studentized errors, and the covariation
variance comparison.  Replicate random streams are derived from
``(seed, ladder index, replicate)``, so results are independent of
execution order.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats

from .errors import EstimationError
from .estimate import run_estimation
from .likelihood import QuasiLikEngine
from .models import get_model
from .scheme import grid_from_spec
from .sde import observe, simulate_path

__all__ = [
    "ExperimentConfig",
    "ReplicateRow",
    "MonteCarloReport",
    "run_mc",
    "emit_report",
    "read_report_json",
    "assert_thresholds",
    "CSV_HEADER",
]

CSV_HEADER = ("rep,n,coord,sigma_hat,sigma_tilde,gamma_n,score_n,hy,plugin,"
              "error,wall_ms")


@dataclass
class ExperimentConfig:
    """Configuration of one Monte Carlo experiment.

    ``bayes_adaptive`` and ``bayes_nodes`` are ``bayes``'s ``adaptive`` and
    ``nodes_per_dim``.  They apply only to a model without ``scales``
    (``corr``): the pure-scale models (``bm1``, ``statedep``) take the
    closed-form posterior mean under the uniform prior.
    """

    model: str
    sigma_star: list
    bn_ladder: list
    replicates: int
    scheme: str = "poisson"
    rate1: float = 1.0
    rate2: float = 1.0
    offset2: float = 0.5
    horizon: float = 1.0
    seed: int = 0
    do_bayes: bool = False
    do_hy: bool = True
    bayes_adaptive: bool = True
    bayes_nodes: int = None
    max_step: float = None
    assertions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.scheme not in ("poisson", "uniform"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for i, n in enumerate(self.bn_ladder):
            if not n > 0 or n in self.bn_ladder[:i]:
                raise ValueError(f"bn_ladder entry {n!r} is <= 0 or repeats")
        model = get_model(self.model)
        sigma = np.asarray(self.sigma_star, dtype=float)
        model.contains(sigma)  # a wrong length raises, naming dim_param
        lo, hi = model.param_box[:, 0], model.param_box[:, 1]
        if not (np.all(sigma > lo) and np.all(sigma < hi)):
            raise ValueError("sigma_star must be interior to the model box")

    @classmethod
    def from_dict(cls, doc):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)

    def to_dict(self):
        return asdict(self)

    def make_grid(self, n, seed):
        return grid_from_spec(self.scheme, self.rate1, self.rate2, n,
                              self.horizon, seed, self.offset2)


@dataclass
class ReplicateRow:
    n: float
    rep: int
    sigma_hat: list = None
    sigma_tilde: list = None
    gamma_n: list = None
    score_n: list = None
    hy: float = None
    plugin: float = None
    on_boundary: bool = False
    positive_definite: bool = True
    wall_ms: float = 0.0
    error: str = None


@dataclass
class MonteCarloReport:
    config: ExperimentConfig
    rows: list
    summaries: dict

    @property
    def n_rows(self):
        return len(self.rows)


def _run_one(config: ExperimentConfig, model, sigma_star, nidx, n, rep):
    t0 = time.perf_counter()
    try:
        grid = config.make_grid(n, seed=[config.seed, nidx, rep, 0])
        path = simulate_path(model, sigma_star, grid,
                             max_step=config.max_step,
                             seed=[config.seed, nidx, rep, 1])
        doc = run_estimation(
            QuasiLikEngine(model, observe(path, grid)),
            do_bayes=config.do_bayes, do_hy=config.do_hy,
            info_sigma=sigma_star,
            bayes_opts={"adaptive": config.bayes_adaptive,
                        "nodes_per_dim": config.bayes_nodes or None}).to_dict()
        del doc["diagnostics"]
        row = ReplicateRow(n=n, rep=rep, hy=doc.pop("hy_covariation"),
                           plugin=doc.pop("plugin_covariation"), **doc)
    except Exception as exc:  # per-row failure policy: record, not fatal
        row = ReplicateRow(n=n, rep=rep, error=f"{type(exc).__name__}: {exc}")
    row.wall_ms = 1000.0 * (time.perf_counter() - t0)
    return row


def run_mc(config: ExperimentConfig) -> MonteCarloReport:
    """Run the experiment; abort only if more than 5% of replicates fail."""
    model = get_model(config.model)
    sigma_star = np.asarray(config.sigma_star, dtype=float)
    jobs = [(nidx, n, rep)
            for nidx, n in enumerate(config.bn_ladder)
            for rep in range(config.replicates)]
    rows = [_run_one(config, model, sigma_star, *j) for j in jobs]
    failures = sum(1 for r in rows if r.error is not None)
    if jobs and failures > 0.05 * len(jobs):
        examples = [r.error for r in rows if r.error][:3]
        raise EstimationError(
            f"{failures}/{len(jobs)} replicates failed; first errors: "
            f"{examples}")
    summaries = summarize(config, rows)
    return MonteCarloReport(config=config, rows=rows, summaries=summaries)


def _sqrtm_sym(mat):
    w, U = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return U @ (np.sqrt(w)[:, None] * U.T)


def summarize(config: ExperimentConfig, rows):
    """Deterministic summary statistics, plain JSON-compatible values."""
    sigma_star = np.asarray(config.sigma_star, dtype=float)
    d = sigma_star.size
    per_n = {}
    rmse_points = []
    for nidx, n in enumerate(config.bn_ladder):
        sel = [r for r in rows if r.n == n and r.error is None]
        entry = {"n": n, "replicates": len(sel),
                 "failed": sum(1 for r in rows if r.n == n and r.error)}
        if sel:
            hats = np.array([r.sigma_hat for r in sel])
            errs = hats - sigma_star
            entry["bias"] = errs.mean(axis=0).tolist()
            mse = float((errs ** 2).sum(axis=1).mean())
            entry["rmse"] = float(np.sqrt(mse))
            entry["scaled_risk"] = float(n * mse)
            entry["boundary_fraction"] = float(
                np.mean([r.on_boundary for r in sel]))
            if entry["rmse"] > 0:
                rmse_points.append((n, entry["rmse"]))

            block = _studentized(sel, "sigma_hat", sigma_star)
            if block is not None:
                entry["studentized"] = block
            tilde_rows = [r for r in sel if r.sigma_tilde is not None]
            if tilde_rows:
                tildes = np.array([r.sigma_tilde for r in tilde_rows])
                hats_t = np.array([r.sigma_hat for r in tilde_rows])
                entry["bayes_qmle_median_gap"] = float(
                    np.median(np.linalg.norm(tildes - hats_t, axis=1)))
                block = _studentized(tilde_rows, "sigma_tilde", sigma_star)
                if block is not None:
                    entry["studentized_bayes"] = block
            hy_vals = np.array([r.hy for r in sel if r.hy is not None])
            plug_vals = np.array([r.plugin for r in sel if r.plugin is not None])
            if hy_vals.size > 1 and plug_vals.size > 1:
                entry["hy_mean"] = float(hy_vals.mean())
                entry["hy_var"] = float(hy_vals.var(ddof=1))
                entry["plugin_mean"] = float(plug_vals.mean())
                entry["plugin_var"] = float(plug_vals.var(ddof=1))
                if entry["hy_var"] > 0:
                    entry["variance_ratio"] = float(
                        entry["plugin_var"] / entry["hy_var"])
        per_n[str(n)] = entry

    summaries = {"per_n": per_n, "d": d}
    if len(rmse_points) >= 2:
        ns = np.log([p[0] for p in rmse_points])
        rs = np.log([p[1] for p in rmse_points])
        summaries["rmse_slope"] = float(np.polyfit(ns, rs, 1)[0])
    return summaries


def _studentized(rows, estimate, sigma_star):
    """Normality block of ``sqrt(n) Gamma_n^{1/2} (estimate - sigma*)``
    over the rows with positive-definite ``Gamma_n``; None below two."""
    stud = [np.sqrt(r.n) * (_sqrtm_sym(np.asarray(r.gamma_n))
                            @ (np.asarray(getattr(r, estimate)) - sigma_star))
            for r in rows if r.positive_definite]
    return _normality_block(np.array(stud)) if len(stud) >= 2 else None


def _normality_block(stud):
    """Per-coordinate KS against the standard normal plus mean/SE."""
    reps, d = stud.shape
    block = {"replicates": reps, "ks_pvalue": [], "ks_stat": [],
             "mean": [], "mean_se": [], "abs_mean_within_3se": []}
    for j in range(d):
        ks = stats.kstest(stud[:, j], "norm")
        block["ks_pvalue"].append(float(ks.pvalue))
        block["ks_stat"].append(float(ks.statistic))
        m = float(stud[:, j].mean())
        se = float(stud[:, j].std(ddof=1) / np.sqrt(reps))
        block["mean"].append(m)
        block["mean_se"].append(se)
        block["abs_mean_within_3se"].append(bool(abs(m) <= 3 * se))
    return block


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(report: MonteCarloReport, format="csv", path=None,
                include_timings=False):
    """Write the report as CSV rows or a JSON document.

    CSV explodes each replicate into one row per coordinate; matrix-valued
    columns carry that coordinate's diagonal entry, and a failed replicate
    carries its message in ``error`` (quoted when it holds a comma).
    Timing columns are zeroed by default so identical configurations
    produce byte-identical files across runs.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        d = len(report.config.sigma_star)
        for row in report.rows:
            for coord in range(d):
                hat = row.sigma_hat[coord] if row.sigma_hat else None
                tilde = (row.sigma_tilde[coord]
                         if row.sigma_tilde is not None else None)
                gam = row.gamma_n[coord][coord] if row.gamma_n else None
                sco = row.score_n[coord] if row.score_n else None
                wall = row.wall_ms if include_timings else 0.0
                writer.writerow([row.rep, row.n, coord, hat, tilde, gam, sco,
                                 row.hy, row.plugin, row.error, wall])
        text = buf.getvalue()
    elif format == "json":
        doc = {
            "config": report.config.to_dict(),
            "rows": [asdict(r) for r in report.rows],
            "summaries": report.summaries,
        }
        if not include_timings:
            for r in doc["rows"]:
                r["wall_ms"] = 0.0
        text = json.dumps(doc, sort_keys=True, indent=1)
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is None or path == "-":
        return text
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return None


def read_report_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_thresholds(report: MonteCarloReport, assertions=None):
    """Check acceptance-style thresholds; returns a list of failures."""
    if assertions is None:
        assertions = report.config.assertions
    failures = []
    s = report.summaries
    alpha = assertions.get("ks_alpha")
    if alpha is not None:
        for n, entry in s["per_n"].items():
            for key in ("studentized", "studentized_bayes"):
                block = entry.get(key)
                if block is None:
                    continue
                for j, p in enumerate(block["ks_pvalue"]):
                    if p < alpha:
                        failures.append(
                            f"{key}[{n}] coord {j}: KS p={p:.4g} < {alpha}")
    if assertions.get("stud_mean_3se"):
        for n, entry in s["per_n"].items():
            block = entry.get("studentized")
            if block and not all(block["abs_mean_within_3se"]):
                failures.append(f"studentized[{n}]: |mean| exceeds 3 SE")
    slope_range = assertions.get("slope_range")
    if slope_range is not None:
        slope = s.get("rmse_slope")
        if slope is None or not slope_range[0] <= slope <= slope_range[1]:
            failures.append(f"rmse slope {slope} outside {slope_range}")
    ratio_max = assertions.get("variance_ratio_max")
    if ratio_max is not None:
        for n, entry in s["per_n"].items():
            ratio = entry.get("variance_ratio")
            if ratio is not None and not ratio < ratio_max:
                failures.append(
                    f"variance ratio [{n}] = {ratio:.4g} >= {ratio_max}")
    return failures
