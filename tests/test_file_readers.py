"""Sample and grid CSV files: the column-array reader against the
row-by-row readers it replaced.

``read_sample_csv``, ``_read_times_csv`` and ``load_grid_csv`` below are
those readers verbatim, kept as the oracle.  On generated files (rows in
any order, blank lines, corrupted or missing rows) the package's readers
must accept what they accept, with bit-identical arrays, and reject what
they reject, with the identical message.  The two faults of the old
readers, a NaN time in a sample file and a header-like line inside a grid
file, are asserted separately.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
import pytest

import nsvol.scheme as scheme
import nsvol.sde as sde
from nsvol.errors import SchemeError
from nsvol.scheme import ObservationGrid, _file_grid, _file_times
from nsvol.sde import NonsyncSample


# --- oracle: the row-by-row readers, verbatim ------------------------------

def read_sample_csv(path, grid: ObservationGrid) -> NonsyncSample:
    """Read a ``side,index,time,value`` file against a known grid.

    Every row must name an in-range observation of its side once, at that
    observation's grid time (to within ``1e-12 * horizon``); the first row
    that does not raises ``SchemeError``.
    """
    times = {"1": grid.s_times, "2": grid.t_times}
    values = {side: np.full(arr.size, np.nan) for side, arr in times.items()}
    tol = 1e-12 * grid.horizon
    with open(path) as fh:
        header = fh.readline()
        if not header.lower().startswith("side"):
            raise SchemeError(f"unexpected sample header in {path}: {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            where = f"{path}, row {lineno} ({line!r})"
            try:
                side, idx, time, value = line.split(",")
                idx, time, value = int(idx), float(time), float(value)
            except ValueError as exc:
                raise SchemeError(f"{where}: malformed row") from exc
            if not np.isfinite(value):
                raise SchemeError(f"{where}: non-finite value")
            if side not in times:
                raise SchemeError(f"{where}: bad side {side!r}")
            if not 0 <= idx < times[side].size:
                raise SchemeError(f"{where}: index out of range")
            if not np.isnan(values[side][idx]):
                raise SchemeError(f"{where}: repeats side {side} index {idx}")
            if abs(time - times[side][idx]) > tol:
                raise SchemeError(
                    f"{where}: time differs from grid time "
                    f"{float(times[side][idx])!r}")
            values[side][idx] = value
    y1, y2 = values["1"], values["2"]
    if np.any(np.isnan(y1)) or np.any(np.isnan(y2)):
        raise SchemeError("sample file does not cover every observation time")
    return NonsyncSample(grid, y1, y2)


def _read_times_csv(path):
    """Times of one side from ``index,time`` rows.

    The indices must run over ``0 .. n-1`` once each, in any row order;
    the first row that breaks this raises ``SchemeError``.
    """
    times, rows = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.lower().startswith("index"):
                continue
            where = f"{path}, row {lineno} ({line!r})"
            try:
                idx, time = line.split(",")
                idx, time = int(idx), float(time)
            except ValueError as exc:
                raise SchemeError(f"{where}: malformed row, expected "
                                  f"index,time") from exc
            if idx < 0:
                raise SchemeError(f"{where}: negative index {idx}")
            if idx in times:
                raise SchemeError(f"{where}: duplicate index {idx}")
            times[idx], rows[idx] = time, where
    n = len(times)
    extra = min((k for k in times if k >= n), default=None)
    if extra is not None:
        missing = min(set(range(n)) - set(times))
        raise SchemeError(f"{rows[extra]}: index {extra} leaves a gap; "
                          f"index {missing} is missing")
    return _file_times([times[k] for k in range(n)], path)


def load_grid_csv(s_path, t_path, horizon=None, bn=None):
    """Load a grid from two per-side CSV files with ``index,time`` rows."""
    s = _read_times_csv(s_path)
    t = _read_times_csv(t_path)
    if horizon is None:
        horizon = max(s[-1], t[-1])
    if bn is None:
        bn = (len(s) - 1) + (len(t) - 1)
    return _file_grid(f"{s_path}, {t_path}", s, t, horizon, bn)


# --- generated files -------------------------------------------------------

GRIDS = [scheme.uniform_grid(2, 2, 0.0, 1.0),
         scheme.uniform_grid(3, 5, 0.25, 1.0),
         scheme.poisson_grid(1.0, 2.0, 1.0, bn=6, seed=4),
         scheme.poisson_grid(2.0, 1.0, 2.5, bn=5, seed=9)]

MALFORMED = ["drop", "extra", "semicolon", "1.0", "x", "", "abc"]
BLANKS = ["", "  ", "\t"]


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _malform(draw, fields, numeric):
    """``fields`` with a wrong field count or one of the ``numeric``
    fields replaced, mostly by text that does not parse."""
    how = draw(st.sampled_from(MALFORMED))
    if how == "drop":
        return fields[:-1]
    if how == "extra":
        return fields + ["0"]
    if how == "semicolon":
        return [";".join(fields)]
    k = draw(st.sampled_from(numeric))
    return fields[:k] + [how] + fields[k + 1:]


def _lines(draw, rows, header):
    """Text lines: rows padded now and then, blank lines between them."""
    lines = [(" " if draw(st.booleans()) else "") + ",".join(row)
             for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BLANKS)))
    return ([header] if header is not None else []) + lines


def _sample_row_fault(draw, kind, row, grid):
    h = grid.horizon
    if kind == "malformed":
        return _malform(draw, row, [1, 2, 3])
    if kind == "value":
        row[3] = draw(st.sampled_from(["inf", "-inf", "nan", "NaN"]))
    elif kind == "side":
        row[0] = draw(st.sampled_from(["0", "3", "x", "1 ", "01"]))
    elif kind == "range":
        size = (grid.s_times if row[0] == "1" else grid.t_times).size
        row[1] = str(draw(st.sampled_from([-1, size, size + 2])))
    else:
        t = 0.5 if row[2] in MALFORMED else float(row[2])
        row[2] = draw(st.sampled_from(
            [repr(t + 3e-12 * h), repr(t + 1e-9), repr(t + 1.0), "inf",
             "-inf"]))
    return row


def _grid_row_fault(draw, kind, row, n):
    if kind == "malformed":
        return _malform(draw, row, [0, 1])
    if kind == "negative":
        row[0] = draw(st.sampled_from(["-1", "-3"]))
    elif kind == "gap":
        row[0] = str(n + 1 + draw(st.integers(0, 3)))
    elif kind == "nonfinite":
        row[1] = draw(st.sampled_from(["inf", "-inf", "nan"]))
    else:
        row[1] = draw(st.sampled_from(["-0.5", "2.0", "0.0"]))
    return row


def _row_faults(draw, kinds):
    """One to three of ``kinds``, in any order, for one row: a row with
    several faults tests the order of the checks within a row."""
    return draw(st.permutations(kinds))[:draw(st.integers(1, 3))]


@st.composite
def sample_files(draw, max_faults=2):
    """(grid, lines) of a sample file with up to ``max_faults`` faults."""
    grid = draw(st.sampled_from(GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = grid.horizon
    rows = []
    for side, times in (("1", grid.s_times), ("2", grid.t_times)):
        for i, t in enumerate(times):
            # a time within the tolerance 1e-12 * horizon now and then
            t = t + draw(st.sampled_from([0.0, 0.0, 4e-13 * h, -9e-13 * h]))
            rows.append([side, str(i), repr(float(t)),
                         repr(float(rng.normal()))])
    rows = [rows[k] for k in rng.permutation(len(rows))]
    header = draw(st.sampled_from(["side,index,time,value", "Side,Index"]))
    for _ in range(draw(st.integers(0, max_faults))):
        fault = draw(st.sampled_from(["row", "row", "repeat", "missing",
                                      "header"]))
        r = draw(st.integers(0, len(rows) - 1))
        if fault == "row":
            for kind in _row_faults(draw, ["malformed", "value", "side",
                                           "range", "time"]):
                if len(rows[r]) == 4:
                    rows[r] = _sample_row_fault(draw, kind, rows[r], grid)
        elif fault == "repeat":
            rows.insert(draw(st.integers(0, len(rows))),
                        rows[r][:3] + [repr(float(rng.normal()))])
        elif fault == "missing":
            del rows[r]
        else:
            header = draw(st.sampled_from(
                ["index,time,value", "", " side,index,time,value"]))
    return grid, _lines(draw, rows, header)


@st.composite
def grid_file(draw, max_faults=2):
    """Lines of one side's grid file with up to ``max_faults`` faults."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)),
                            [1.0]])
    rows = [[str(i), repr(float(t))] for i, t in enumerate(times)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    for _ in range(draw(st.integers(0, max_faults))):
        fault = draw(st.sampled_from(["row", "row", "duplicate", "missing"]))
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        if fault == "row":
            for kind in _row_faults(draw, ["malformed", "negative", "gap",
                                           "nonfinite", "order"]):
                if len(rows[r]) == 2:
                    rows[r] = _grid_row_fault(draw, kind, rows[r], n)
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))),
                        [rows[r][0], repr(float(rng.uniform()))])
        else:
            del rows[r]
    header = draw(st.sampled_from([None, "index,time", "INDEX,TIME",
                                   " Index,time"]))
    return _lines(draw, rows, header)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=sample_files())
def test_sample_reader_matches_row_by_row_oracle(workdir, case):
    grid, lines = case
    path = _write(workdir / "sample.csv", lines)
    old = _outcome(read_sample_csv, path, grid)
    new = _outcome(sde.read_sample_csv, path, grid)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert not isinstance(new, tuple), new
        assert new.y1_obs.tobytes() == old.y1_obs.tobytes()
        assert new.y2_obs.tobytes() == old.y2_obs.tobytes()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(s_lines=grid_file(), t_lines=grid_file())
def test_grid_reader_matches_row_by_row_oracle(workdir, s_lines, t_lines):
    s_path = _write(workdir / "s.csv", s_lines)
    t_path = _write(workdir / "t.csv", t_lines)
    old = _outcome(load_grid_csv, s_path, t_path)
    new = _outcome(scheme.load_grid_csv, s_path, t_path)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert not isinstance(new, tuple), new
        for name in ("s_times", "t_times"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
        assert (new.horizon, new.bn) == (old.horizon, old.bn)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=sample_files(max_faults=0), pick=st.integers(0, 10 ** 6))
def test_nan_time_rejected_where_oracle_accepted(workdir, case, pick):
    grid, lines = case
    rows = [k for k, line in enumerate(lines[1:], 1) if line.strip()]
    k = rows[pick % len(rows)]
    side, idx, _, value = lines[k].strip().split(",")
    lines[k] = ",".join([side, idx, "nan", value])
    path = _write(workdir / "nan.csv", lines)
    assert isinstance(read_sample_csv(path, grid), NonsyncSample)
    grid_time = (grid.s_times if side == "1" else grid.t_times)[int(idx)]
    message = (f"{path}, row {k + 1} ({lines[k]!r}): time differs from "
               f"grid time {float(grid_time)!r}")
    with pytest.raises(SchemeError) as err:
        sde.read_sample_csv(path, grid)
    assert str(err.value) == message


@settings(max_examples=50, derandomize=True, deadline=None)
@given(lines=grid_file(max_faults=0), at=st.integers(1, 10 ** 6),
       line=st.sampled_from(["INDEX,0.3", "index", "Index,time"]))
def test_header_like_line_inside_grid_file_is_data(workdir, lines, at, line):
    k = 1 + at % len(lines)
    t_path = _write(workdir / "t.csv", ["0,0.0", "1,1.0"])
    clean = load_grid_csv(_write(workdir / "s.csv", lines), t_path)
    s_path = _write(workdir / "s.csv", lines[:k] + [line] + lines[k:])
    assert np.array_equal(load_grid_csv(s_path, t_path).s_times,
                          clean.s_times)
    with pytest.raises(SchemeError) as err:
        scheme.load_grid_csv(s_path, t_path)
    assert str(err.value) == (f"{s_path}, row {k + 1} ({line!r}): malformed "
                              f"row, expected index,time")
