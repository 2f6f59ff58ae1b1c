"""Synthetic data generators, CSV ingestion and the reference quantile."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from ._checks import check_perturb_scale, check_q
from .noise import RandomSource

__all__ = [
    "generate_synthetic",
    "load_csv",
    "perturb",
    "true_quantile",
]

SYNTHETIC_KINDS = ("uniform", "gaussian")


def generate_synthetic(kind: str, n: int, rng: RandomSource) -> np.ndarray:
    """uniform[-5, 5] or gaussian(0, 5) draws, the two synthetic benchmarks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    key = kind.strip().lower()
    if key == "uniform":
        return rng.gen.uniform(-5.0, 5.0, n)
    if key == "gaussian":
        return rng.gen.normal(0.0, 5.0, n)
    raise ValueError(f"unknown synthetic kind: {kind!r} (choose from {SYNTHETIC_KINDS})")


def load_csv(path, column: str) -> np.ndarray:
    """Read one numeric column; parse failures report the offending row.

    What is read is defined by the csv module's excel dialect and float
    (_parse_rows). numpy's C parser reads the column instead on text where
    it gives the same values bit for bit (_parse_column).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
        except csv.Error as exc:
            raise _csv_error(path, rows.line_num, exc) from None
        if header is None or column not in header:
            raise ValueError(
                f"column {column!r} not found in {path} (available: {header})"
            )
        # a repeated name reads its last column, as a DictReader row does
        col = len(header) - 1 - header[::-1].index(column)
        text = fh.read()
    out = _parse_column(text, col)
    if out is None:
        out = _parse_rows(path, text, col, rows.line_num)
    return out


# NUL, which the csv module of Python 3.10 rejects, and the separators
# \x1c-\x1f, which numpy strips around a number and float does not
_NOT_FOR_LOADTXT = "\x00\x1c\x1d\x1e\x1f"


def _parse_column(text: str, col: int) -> np.ndarray | None:
    """Column col of the data rows by np.loadtxt, or None where the csv
    module and float might read the text otherwise: loadtxt refuses it, it
    has no data row (loadtxt would warn), it holds a character of
    _NOT_FOR_LOADTXT, or a field longer than csv.field_size_limit()."""
    if (
        not text.lstrip("\r\n")
        or any(c in text for c in _NOT_FOR_LOADTXT)
        or not _fields_within_limit(text)
    ):
        return None
    try:
        return np.loadtxt(
            io.StringIO(text),
            dtype=float,
            delimiter=",",
            usecols=col,
            comments=None,
            quotechar='"',
            ndmin=1,
        )
    except ValueError:
        return None


def _fields_within_limit(text: str) -> bool:
    """Whether no field of text can be longer than csv.field_size_limit()."""
    limit = csv.field_size_limit()
    if len(text) <= limit:
        return True
    # an unquoted field lies within one line; a quoted one may span lines
    return '"' not in text and max(map(len, text.split("\n"))) <= limit


def _parse_rows(path: Path, text: str, col: int, lines_before: int) -> np.ndarray:
    """Column col of the data rows as the csv module and float read them:
    the definition of what load_csv accepts. lines_before is the header's
    line count, so errors name lines of the file."""
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        # blank rows are skipped and short rows read None, as in a DictReader
        cells = [row[col] if col < len(row) else None for row in rows if row]
    except csv.Error as exc:
        raise _csv_error(path, lines_before + rows.line_num, exc) from None
    if not cells:
        raise ValueError(f"{path} has no data rows")
    try:
        out = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except (TypeError, ValueError):
        # only on failure: find the first bad cell; header is row 1
        for row_number, raw in enumerate(cells, start=2):
            try:
                float(raw)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}, row {row_number}: cannot parse {raw!r} as a number"
                ) from None
        raise
    return out


def _csv_error(path: Path, line: int, exc: csv.Error) -> ValueError:
    return ValueError(f"{path}, line {line}: {exc}")


def perturb(values, scale: float, rng: RandomSource) -> np.ndarray:
    """Gaussian jitter used to break ties for the interval-based baseline."""
    vals = np.asarray(values, dtype=float)
    check_perturb_scale(scale)
    if scale == 0.0:
        return vals.copy()
    return vals + rng.gen.normal(0.0, scale, vals.shape)


def true_quantile(values, q):
    """Reference quantile: linear interpolation between order statistics.

    q is one level, which gives a float, or a 1-d array of levels, which
    gives an array from one partition of the data. Among tied order
    statistics the two forms may pick a different one, so a tie of 0.0 and
    -0.0 can come back with either sign.
    """
    levels = np.asarray(q, dtype=float)
    check_q(levels)
    out = np.quantile(np.asarray(values, dtype=float), levels)
    return float(out) if levels.ndim == 0 else out
