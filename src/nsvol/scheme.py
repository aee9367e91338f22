"""Nonsynchronous observation-time grids and their spectral diagnostics.

Two assets are observed at their own strictly increasing time grids on a
common horizon ``[0, T]``.  This module generates such grids (Poisson or
deterministic uniform), builds the interval-overlap matrix

    G[i, j] = |I_i ∩ J_j| / sqrt(|I_i| |J_j|),

where ``I_i`` and ``J_j`` are the half-open sampling intervals of the two
grids, and computes the scheme-level quantities the estimation theory runs
on: resolvent traces of ``G G*`` and ``G* G``, diagonal power traces,
transfer-closure intervals, and interval-spacing regularity checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import banded
from .errors import SchemeError

__all__ = [
    "ObservationGrid",
    "OverlapMatrix",
    "SpacingCheck",
    "SchemeDiagnostics",
    "poisson_grid",
    "uniform_grid",
    "grid_from_spec",
    "overlap_matrix",
    "operator_norm",
    "resolvent_trace",
    "diag_power_traces",
    "theta_interval",
    "theta_length_sums",
    "check_a2",
    "load_grid_json",
    "save_grid_json",
    "load_grid_csv",
]

#: Default exponents for the spacing check; they satisfy the admissibility
#: constraint (5*d1 + 4*d3) v (3*d1 + 2*d2 + 2*d3) v (3*d1/2 + 3*d2) < 1/2.
DEFAULT_DELTAS = (0.05, 0.05, 0.05)


def _as_times(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise SchemeError(f"{name} must be a 1-d array with at least two times")
    if not np.all(np.isfinite(arr)):
        raise SchemeError(f"{name} contains non-finite entries")
    if np.any(np.diff(arr) <= 0):
        raise SchemeError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True, eq=False)
class ObservationGrid:
    """Observation times of both components.

    Attributes
    ----------
    s_times, t_times : ndarray
        Strictly increasing observation times of components 1 and 2.  Both
        start at 0 and end at ``horizon``.
    horizon : float
        End time ``T`` of the observation window.
    bn : float
        Scale of the scheme (number of observations per unit of the
        asymptotic index).  Generators record their intensity scale here;
        grids loaded from files default to the total interval count.

    The merged-grid bookkeeping (``merged``, ``k1``, ``k2``) is computed
    when read and not stored, so a grid holds only its own times.
    """

    s_times: np.ndarray
    t_times: np.ndarray
    horizon: float
    bn: float

    def __post_init__(self):
        s = _as_times(self.s_times, "s_times")
        t = _as_times(self.t_times, "t_times")
        T = float(self.horizon)
        if T <= 0:
            raise SchemeError("horizon must be positive")
        for name, arr in (("s_times", s), ("t_times", t)):
            if arr[0] != 0.0 or arr[-1] != T:
                raise SchemeError(f"{name} must start at 0 and end at horizon={T}")
        if not self.bn > 0:
            raise SchemeError("bn must be positive")
        object.__setattr__(self, "s_times", s)
        object.__setattr__(self, "t_times", t)
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "bn", float(self.bn))

    @property
    def merged(self):
        """Sorted, deduplicated union of the two time grids."""
        return np.union1d(self.s_times, self.t_times)

    @property
    def k1(self):
        """Positions of ``s_times`` inside ``merged``."""
        return np.searchsorted(self.merged, self.s_times)

    @property
    def k2(self):
        """Positions of ``t_times`` inside ``merged``."""
        return np.searchsorted(self.merged, self.t_times)

    @property
    def n_intervals1(self):
        return len(self.s_times) - 1

    @property
    def n_intervals2(self):
        return len(self.t_times) - 1

    @property
    def lengths1(self):
        return np.diff(self.s_times)

    @property
    def lengths2(self):
        return np.diff(self.t_times)

    @property
    def mesh(self):
        """Maximum sampling-interval length over both grids."""
        return max(self.lengths1.max(), self.lengths2.max())

    def count1(self, t):
        """Number of component-1 observation times in (0, t]."""
        return int(np.searchsorted(self.s_times[1:], t, side="right"))

    def active_intervals(self, t, side):
        """Number of sampling intervals meeting [0, t), for one side; an
        array of times gives an array of counts."""
        left = self.s_times[:-1] if side == 1 else self.t_times[:-1]
        return np.searchsorted(left, t, side="left")


def _poisson_times(rng, intensity, horizon):
    """Event times of a homogeneous Poisson process on (0, horizon).

    Inter-arrival exponential sampling in deterministic blocks, so the
    result depends only on the generator state.
    """
    if intensity <= 0:
        return np.empty(0)
    block = max(16, int(1.5 * intensity * horizon) + 1)
    gaps = rng.exponential(1.0 / intensity, size=block)
    times = np.cumsum(gaps)
    while times[-1] < horizon:
        gaps = rng.exponential(1.0 / intensity, size=block)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    inside = times[(times > 0.0) & (times < horizon)]
    return inside


def poisson_grid(rate1, rate2, horizon, bn, seed):
    """Generate a grid from two independent homogeneous Poisson processes.

    Component ``k`` is observed at the event times of a Poisson process of
    intensity ``bn * rate_k`` on ``(0, horizon)``, augmented with the
    endpoints ``{0, horizon}``.  Deterministic given ``seed``; a draw with
    no interior events yields the single interval ``[0, horizon]``.
    """
    if rate1 <= 0 or rate2 <= 0:
        raise SchemeError("rates must be positive")
    if horizon <= 0 or bn <= 0:
        raise SchemeError("horizon and bn must be positive")
    rng = np.random.default_rng(seed)
    s_in = _poisson_times(rng, bn * rate1, horizon)
    t_in = _poisson_times(rng, bn * rate2, horizon)
    s = np.concatenate([[0.0], s_in, [horizon]])
    t = np.concatenate([[0.0], t_in, [horizon]])
    return ObservationGrid(s, t, horizon, bn)


def uniform_grid(n1, n2, offset2=0.0, horizon=1.0, bn=None):
    """Deterministic test grid: equispaced times, side 2 optionally shifted.

    Side 1 observes at ``i * T / n1``.  Side 2 observes at 0, the interior
    points ``(j + offset2) * T / n2`` for ``j = 1, ..., n2 - 1``, and ``T``.
    ``bn`` defaults to ``n1 + n2``.
    """
    if n1 < 1 or n2 < 1:
        raise SchemeError("n1 and n2 must be at least 1")
    if not 0.0 <= offset2 < 1.0:
        raise SchemeError("offset2 must lie in [0, 1)")
    T = float(horizon)
    s = np.arange(n1 + 1) * (T / n1)
    s[-1] = T
    interior = (np.arange(1, n2) + offset2) * (T / n2)
    t = np.concatenate([[0.0], interior[(interior > 0) & (interior < T)], [T]])
    if bn is None:
        bn = n1 + n2
    return ObservationGrid(s, t, T, bn)


def grid_from_spec(scheme, rate1, rate2, n, horizon=1.0, seed=None,
                   offset2=0.5):
    """Grid of a scheme spec at scale ``n``.

    ``rate1`` and ``rate2`` are per-side frequency factors: Poisson
    intensities ``rate * n`` (``scheme="poisson"``, drawn from ``seed``) or
    ``round(rate * n)`` equispaced intervals, side 2 shifted by ``offset2``
    (``scheme="uniform"``).  The grid records ``n`` as its scale.
    """
    if scheme == "poisson":
        return poisson_grid(rate1, rate2, horizon, bn=n, seed=seed)
    if scheme == "uniform":
        return uniform_grid(max(1, round(rate1 * n)), max(1, round(rate2 * n)),
                            offset2, horizon, bn=n)
    raise SchemeError(f"unknown scheme {scheme!r}")


class OverlapMatrix:
    """Sparse interval-overlap matrix with contiguity metadata.

    Row ``i`` corresponds to the sampling interval ``I_i`` of side 1 and
    column ``j`` to ``J_j`` of side 2; the nonzero entries of each row (and
    each column) occupy a contiguous index run because intervals overlap a
    contiguous stretch of the other partition.
    """

    def __init__(self, grid: ObservationGrid):
        s = grid.s_times
        t = grid.t_times
        merged = grid.merged
        left = merged[:-1]
        lens = np.diff(merged)
        rows = np.searchsorted(s, left, side="right") - 1
        cols = np.searchsorted(t, left, side="right") - 1
        vals = lens / np.sqrt(grid.lengths1[rows] * grid.lengths2[cols])
        n1, n2 = grid.n_intervals1, grid.n_intervals2
        self.csr = sp.csr_matrix((vals, (rows, cols)), shape=(n1, n2))
        self.csr.sum_duplicates()
        self.rows = n1
        self.cols = n2
        self.grid = grid
        indptr = self.csr.indptr
        self.row_first = self.csr.indices[indptr[:-1]]
        self.row_last = self.csr.indices[indptr[1:] - 1]
        csc = self.csr.tocsc()
        cptr = csc.indptr
        self.col_first = csc.indices[cptr[:-1]]
        self.col_last = csc.indices[cptr[1:] - 1]

    @property
    def bandwidth(self):
        """Maximum column-index span within a single row."""
        return int((self.row_last - self.row_first).max())

    @property
    def col_bandwidth(self):
        """Maximum row-index span within a single column."""
        return int((self.col_last - self.col_first).max())

    def row_entries(self, i):
        """Column indices and values of row ``i`` (contiguous run)."""
        lo, hi = self.csr.indptr[i], self.csr.indptr[i + 1]
        return self.csr.indices[lo:hi], self.csr.data[lo:hi]

    def to_dense(self):
        return self.csr.toarray()

    def gram(self, side):
        """``G G*`` (side 1) or ``G* G`` (side 2) as a sparse matrix."""
        if side == 1:
            return (self.csr @ self.csr.T).tocsr()
        if side == 2:
            return (self.csr.T @ self.csr).tocsr()
        raise ValueError("side must be 1 or 2")


def overlap_matrix(grid: ObservationGrid) -> OverlapMatrix:
    """Exact interval-overlap matrix of a grid."""
    return OverlapMatrix(grid)


def operator_norm(overlap: OverlapMatrix, iters=80):
    """Operator-norm estimate of G by power iteration on ``G G*``."""
    n = overlap.rows
    v = np.full(n, 1.0 / math.sqrt(n))
    gram = overlap.gram(1)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return math.sqrt(lam)


def resolvent_diag(overlap, z, side, upto=None):
    """Diagonal of ``(I - z^2 GG*)^{-1}`` (side 1) or the ``G*G`` analog.

    Only the first ``upto`` entries are returned when ``upto`` is given;
    a negative ``upto`` raises ``ValueError``.
    """
    if upto is not None and upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    n = overlap.rows if side == 1 else overlap.cols
    if z == 0.0:
        return np.ones(n if upto is None else min(upto, n))
    if abs(z) >= 1.0:
        raise SchemeError(f"|z| must be < 1, got {z}")
    # rows of G G* (columns of G* G) interact only within one column's
    # (row's) contiguous run, so that run's span bounds the bandwidth
    hw = overlap.col_bandwidth if side == 1 else overlap.bandwidth
    band = -(z * z) * banded.upper_band(overlap.gram(side), hw, n)
    band[hw, :] += 1.0
    return banded.selected_inverse(banded.cholesky(band))[hw, :upto]


def resolvent_trace(overlap: OverlapMatrix, z, t=None, side=1):
    """Trace of the resolvent restricted to intervals meeting ``[0, t)``.

    Computes ``tr(E(t) (I - z^2 G G*)^{-1})`` for side 1, where ``E(t)``
    projects onto the sampling intervals of that side whose left endpoint
    lies before ``t``; side 2 uses ``G* G``.  ``t`` defaults to the horizon.
    Requires ``|z| < 1``, which the overlap norm bound makes sufficient for
    invertibility.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    if abs(z) >= 1.0:
        raise SchemeError(f"|z| must be < 1, got {z}")
    if t is None:
        t = overlap.grid.horizon
    m = overlap.grid.active_intervals(t, side)
    if m == 0:
        return 0.0
    if z == 0.0:
        return float(m)
    diag = resolvent_diag(overlap, z, side, upto=m)
    return float(diag.sum())


def diag_power_traces(overlap: OverlapMatrix, p, side=1):
    """Diagonal of ``(G G*)^p`` (side 1) or ``(G* G)^p`` (side 2).

    ``p = 0`` returns the all-ones vector.  Powers are accumulated by
    repeated sparse multiplication.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    n = overlap.rows if side == 1 else overlap.cols
    if p == 0:
        return np.ones(n)
    gram = overlap.gram(side)
    power = gram
    for _ in range(p - 1):
        power = (power @ gram).tocsr()
    return np.asarray(power.diagonal())


# ---------------------------------------------------------------------------
# transfer closures
# ---------------------------------------------------------------------------


def _expand_once(lo, hi, s, t):
    """Union of all sampling intervals (both grids) meeting each
    ``[lo[k], hi[k])``; ``lo`` and ``hi`` are arrays."""
    new_lo, new_hi = lo, hi
    for arr in (s, t):
        last = len(arr) - 2
        i_left = np.clip(np.searchsorted(arr, lo, side="right") - 1, 0, last)
        i_right = np.clip(np.searchsorted(arr, hi, side="left") - 1, 0, last)
        new_lo = np.minimum(new_lo, arr[i_left])
        new_hi = np.maximum(new_hi, arr[i_right + 1])
    return new_lo, new_hi


def theta_interval(grid: ObservationGrid, p, l):
    """Closure of one sampling interval under ``2p`` overlap transfers.

    Index ``l`` runs over the combined interval list, side-1 intervals
    first (``0 <= l < n_intervals1``) then side-2.  A transfer moves from
    an interval to any interval of either grid with nonempty (half-open)
    intersection; the union over all chains of ``2p`` transfers is again a
    half-open interval, returned as ``(lo, hi)``.
    """
    n1 = grid.n_intervals1
    n2 = grid.n_intervals2
    if not 0 <= l < n1 + n2:
        raise SchemeError(f"interval index {l} out of range [0, {n1 + n2})")
    if p < 0:
        raise ValueError("p must be >= 0")
    times, i = (grid.s_times, l) if l < n1 else (grid.t_times, l - n1)
    lo, hi = times[i:i + 1], times[i + 1:i + 2]
    for _ in range(2 * p):
        new_lo, new_hi = _expand_once(lo, hi, grid.s_times, grid.t_times)
        if new_lo[0] == lo[0] and new_hi[0] == hi[0]:
            break
        lo, hi = new_lo, new_hi
    return lo[0], hi[0]


def theta_length_sums(grid: ObservationGrid, p_max):
    """Total closure length per transfer depth, for scheme diagnostics.

    Returns ``sums[p] = sum_l |theta(p, l)|`` for ``p = 0, ..., p_max``.
    All intervals are expanded at once, and each sum is accumulated in
    interval order.  Threshold choice against these raw sums is left to the
    caller.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    s, t = grid.s_times, grid.t_times
    lo = np.concatenate([s[:-1], t[:-1]])
    hi = np.concatenate([s[1:], t[1:]])
    sums = np.empty(p_max + 1)
    sums[0] = np.cumsum(hi - lo)[-1]
    for p in range(1, p_max + 1):
        lo, hi = _expand_once(*_expand_once(lo, hi, s, t), s, t)
        sums[p] = np.cumsum(hi - lo)[-1]
    return sums


# ---------------------------------------------------------------------------
# spacing regularity check
# ---------------------------------------------------------------------------


@dataclass
class SpacingCheck:
    """Result of the index-pair spacing check for one side.

    ``min_ratio`` is the minimum of ``|S[j2] - S[j1]| / (j2 - j1)`` over
    pairs with gap at least ``gap_floor``; ``threshold`` is the asymptotic
    cutoff ``bn ** (-1 - delta3)``.  ``raw_violation`` records whether any
    qualifying pair fell at or below the cutoff.  ``violation`` applies a
    small-sample fluctuation guard on top: a pair only counts when it also
    undercuts the extreme-value floor expected from healthy spacings, so
    genuinely clustered schemes are flagged without tripping on ordinary
    order-statistic dips.
    """

    side: int
    min_ratio: float
    min_pair: tuple
    gap_floor: int
    threshold: float
    guard_floor: float
    raw_violation: bool
    violation: bool
    n_pairs: int


@dataclass
class SchemeDiagnostics:
    """Mesh, counting summaries, and the two-sided spacing check."""

    mesh: float
    deltas: tuple
    bn: float
    side1: SpacingCheck
    side2: SpacingCheck

    @property
    def any_violation(self):
        return self.side1.violation or self.side2.violation

    def to_dict(self):
        def side_dict(sc):
            return {
                "min_ratio": sc.min_ratio,
                "min_pair": list(sc.min_pair),
                "gap_floor": sc.gap_floor,
                "threshold": sc.threshold,
                "guard_floor": sc.guard_floor,
                "raw_violation": sc.raw_violation,
                "violation": sc.violation,
                "n_pairs": sc.n_pairs,
            }

        return {
            "mesh": self.mesh,
            "deltas": list(self.deltas),
            "bn": self.bn,
            "side1": side_dict(self.side1),
            "side2": side_dict(self.side2),
            "any_violation": self.any_violation,
        }


def validate_deltas(delta1, delta2, delta3):
    """Check the admissibility constraint on the spacing exponents."""
    if min(delta1, delta2, delta3) <= 0:
        raise SchemeError("spacing exponents must be positive")
    worst = max(5 * delta1 + 4 * delta3,
                3 * delta1 + 2 * delta2 + 2 * delta3,
                1.5 * delta1 + 3 * delta2)
    if worst >= 0.5:
        raise SchemeError(
            f"spacing exponents inadmissible: max combination {worst:.4f} >= 1/2")


def _check_side(times, bn, delta2, delta3, side, guard=True):
    ell = len(times) - 1
    threshold = bn ** (-1.0 - delta3)
    gap_floor = max(1, math.ceil(bn ** delta2))
    if ell < gap_floor:
        return SpacingCheck(side, math.inf, (-1, -1), gap_floor, threshold,
                            0.0, False, False, 0)
    mean_spacing = (times[-1] - times[0]) / ell
    log_ell = math.log(max(ell, 3))
    best = math.inf
    best_pair = (-1, -1)
    raw_violation = False
    violation = False
    n_pairs = 0
    for g in range(gap_floor, ell + 1):
        diffs = times[g:] - times[:-g]
        k = int(np.argmin(diffs))
        ratio = diffs[k] / g
        n_pairs += diffs.size
        if ratio < best:
            best = ratio
            best_pair = (k, k + g)
        if ratio <= threshold:
            raw_violation = True
            # Extreme-value floor for the minimum window mean among ~ell
            # healthy exponential-type spacings; 1.25 is a safety factor.
            floor = mean_spacing * max(0.0, 1.0 - 1.25 * math.sqrt(2.0 * log_ell / g))
            if not guard or ratio <= floor:
                violation = True
    guard_floor = mean_spacing * max(
        0.0, 1.0 - 1.25 * math.sqrt(2.0 * log_ell / max(gap_floor, 1)))
    return SpacingCheck(side, best, best_pair, gap_floor, threshold,
                        guard_floor, raw_violation, violation, n_pairs)


def check_a2(grid: ObservationGrid, delta1=None, delta2=None, delta3=None,
             guard=True):
    """Run the interval-spacing regularity diagnostic on one realization.

    For each side the check scans index pairs ``(j1, j2)`` with
    ``|j2 - j1| >= bn**delta2`` and flags the grid when the per-index
    spacing ``|S[j2] - S[j1]| / |j2 - j1|`` falls to ``bn**(-1-delta3)`` or
    below.  This is a finite-sample surrogate for an asymptotic statement:
    with ``guard=True`` (default), a pair is only flagged when it also
    undercuts the extreme-value floor of healthy spacings, which keeps the
    check meaningful at realistic sizes; the unguarded indicator is
    reported alongside as ``raw_violation``.
    """
    d1, d2, d3 = DEFAULT_DELTAS
    delta1 = d1 if delta1 is None else delta1
    delta2 = d2 if delta2 is None else delta2
    delta3 = d3 if delta3 is None else delta3
    validate_deltas(delta1, delta2, delta3)
    side1 = _check_side(grid.s_times, grid.bn, delta2, delta3, 1, guard)
    side2 = _check_side(grid.t_times, grid.bn, delta2, delta3, 2, guard)
    return SchemeDiagnostics(mesh=float(grid.mesh),
                             deltas=(delta1, delta2, delta3),
                             bn=grid.bn, side1=side1, side2=side2)


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------


def save_grid_json(grid: ObservationGrid, path):
    doc = {
        "s_times": grid.s_times.tolist(),
        "t_times": grid.t_times.tolist(),
        "horizon": grid.horizon,
        "bn": grid.bn,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _file_times(values, where):
    """One side's times as read from a file: a list of at least two
    numbers."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemeError(f"{where}: times must be numbers") from exc
    if arr.ndim != 1 or arr.size < 2:
        raise SchemeError(f"{where}: a side needs a list of at least two "
                          f"times, got {arr.size}")
    return arr


def _file_grid(where, s, t, horizon, bn):
    """``ObservationGrid`` whose errors name the file(s) it came from;
    ``bn`` defaults to the total interval count."""
    if bn is None:
        bn = (len(s) - 1) + (len(t) - 1)
    try:
        return ObservationGrid(s, t, horizon, bn)
    except (TypeError, ValueError) as exc:
        raise SchemeError(f"{where}: {exc}") from exc


def load_grid_json(path, bn=None):
    """Load a grid from a JSON document.

    ``bn`` falls back to the document value, then to the total interval
    count when neither is present.  A document that is not an object with
    ``s_times`` and ``t_times`` lists of at least two numbers raises
    ``SchemeError`` naming the file and the field.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemeError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemeError(f"{path}: expected a JSON object")
    for name in ("s_times", "t_times"):
        if name not in doc:
            raise SchemeError(f"{path}: missing field {name!r}")
    s = _file_times(doc["s_times"], f"{path}, field 's_times'")
    t = _file_times(doc["t_times"], f"{path}, field 't_times'")
    horizon = doc.get("horizon")
    try:
        horizon = float(max(s[-1], t[-1]) if horizon is None else horizon)
    except (TypeError, ValueError) as exc:
        raise SchemeError(f"{path}, field 'horizon': must be a number, "
                          f"got {horizon!r}") from exc
    return _file_grid(path, s, t, horizon, doc.get("bn") if bn is None else bn)


def _columns(table, types):
    """Arrays of ``table``'s fields converted by ``types`` (Python's own
    ``int`` and ``float``), or ``None`` if a row has the wrong field count
    or a field that does not convert."""
    try:
        cols = list(zip(*table, strict=True)) or [()] * len(types)
        return [np.array(list(map(conv, col)) or np.empty(0, conv))
                for conv, col in zip(types, cols, strict=True)]
    except ValueError:
        return None


def _repeats(key):
    """Rows whose key an earlier row already has."""
    repeats = np.ones(key.size, bool)
    repeats[np.unique(key, return_index=True)[1]] = False
    return repeats


def _read_csv(path, grid=None):
    """Times of a grid CSV file, or side-1 and side-2 values of a sample
    CSV file read against its ``grid``.

    The file is parsed into column arrays (an index beyond int64 makes an
    exactly comparing object column) and every check runs on whole
    columns.  The lowest-numbered bad row raises ``SchemeError`` naming it
    and the first check it fails, in the order of ``checks`` (a malformed
    row fails before any); then every index must occur.
    """
    with open(path) as fh:
        header, lines = fh.readline(), fh.read().split("\n")
    if grid is not None and not header.lower().startswith("side"):
        raise SchemeError(f"unexpected sample header in {path}: {header!r}")
    # only the first line may be a header, and a sample file must have one
    skip = grid is not None or header.strip().lower().startswith("index")
    text = list(map(str.strip, lines if skip else [header, *lines]))
    table = [line.split(",") for line in text if line]

    def where(r):  # the r-th row that is not blank
        i = [i for i, line in enumerate(text) if line][r]
        return f"{path}, row {i + 1 + skip} ({text[i]!r})"

    types = (int, float) if grid is None else (str, int, float, float)
    bad, cols = len(table), _columns(table, types)
    if cols is None:  # check only the rows before the first malformed one
        bad = next(r for r, row in enumerate(table)
                   if _columns([row], types) is None)
        cols = _columns(table[:bad], types)
    if grid is None:  # a grid row's index is its key, its time the value
        key, value = cols
        checks = [(key < 0, lambda r: f"negative index {key[r]}"),
                  (_repeats(key), lambda r: f"duplicate index {key[r]}")]
    else:
        side, idx, time, value = cols
        n1, n2 = grid.s_times.size, grid.t_times.size
        sided = (side == "1") | (side == "2")
        keyed = sided & (idx >= 0) & (idx < np.where(side == "1", n1, n2))
        key = np.where(keyed, idx + n1 * (side == "2"), -1).astype(np.intp)
        grid_time = np.concatenate([grid.s_times, grid.t_times])[key]
        off = keyed & ~(np.abs(time - grid_time) <= 1e-12 * grid.horizon)
        checks = [(~np.isfinite(value), lambda r: "non-finite value"),
                  (~sided, lambda r: f"bad side {table[r][0]!r}"),
                  (sided & ~keyed, lambda r: "index out of range"),
                  (_repeats(key),
                   lambda r: f"repeats side {side[r]} index {idx[r]}"),
                  (off, lambda r: "time differs from grid time "
                                  f"{float(grid_time[r])!r}")]
    failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    if failed.size:  # the lowest bad row, and the first check it fails
        message = next(msg for mask, msg in checks if mask[failed[0]])
        raise SchemeError(f"{where(failed[0])}: {message(failed[0])}")
    if bad < len(table):
        raise SchemeError(f"{where(bad)}: malformed row" + (
            ", expected index,time" if grid is None else ""))
    if grid is None and np.any(key >= bad):
        extra = key[key >= bad].min()
        missing = np.setdiff1d(np.arange(bad), key)[0]
        raise SchemeError(f"{where(np.argmax(key == extra))}: index {extra} "
                          f"leaves a gap; index {missing} is missing")
    if grid is not None and bad != n1 + n2:
        raise SchemeError("sample file does not cover every observation time")
    out = np.empty(bad)
    out[key] = value
    return out if grid is None else (out[:n1], out[n1:])


def load_grid_csv(s_path, t_path, horizon=None, bn=None):
    """Load a grid from two per-side CSV files with ``index,time`` rows."""
    s, t = (_file_times(_read_csv(path), path) for path in (s_path, t_path))
    if horizon is None:
        horizon = max(s[-1], t[-1])
    return _file_grid(f"{s_path}, {t_path}", s, t, horizon, bn)
