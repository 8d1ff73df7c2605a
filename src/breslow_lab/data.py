"""Right-censored survival data: validation, CSV ingestion, serialization.

The observable unit is a triplet (follow-up time, event indicator, covariate
vector).  Datasets are immutable after construction; every estimator in the
package consumes a :class:`SurvivalDataset`.
"""

from __future__ import annotations

import csv
from functools import cached_property
from itertools import chain, islice
from typing import Iterable

import numpy as np


class DataError(ValueError):
    """Raised when raw input cannot form a valid dataset."""


class _SortedView:
    """Rows in time order on one time axis, the distinct follow-up times.

    See :attr:`SurvivalDataset.sorted_view`.  ``time_group``,
    ``distinct_event_times`` and ``event_cov_sums`` are built on first read
    from the kept ``group_of``, since not every estimator reads them.
    """

    def __init__(self, times, events, covariates):
        order = np.argsort(times)
        sorted_times = times[order]
        is_start = np.empty(sorted_times.size, dtype=bool)
        is_start[0] = True
        is_start[1:] = sorted_times[1:] != sorted_times[:-1]
        group_of = np.cumsum(is_start) - 1
        if group_of[-1] < sorted_times.size - 1:
            key = group_of * sorted_times.size + order
            key.sort()
            order = key - group_of * sorted_times.size
        self.order = order                      # stable argsort of follow-up times
        self.times = sorted_times               # times[order]
        self.events = events[order]
        self.means = covariates.mean(axis=0)    # column means of the covariates
        self.centered = covariates[order] - self.means
        self.group_starts = np.flatnonzero(is_start)  # first sorted index of each distinct time
        self.distinct_times = sorted_times[self.group_starts]
        self.group_of = group_of                # distinct-time index of each sorted row
        # Events per distinct time (0 where none falls).
        self.event_counts = np.bincount(group_of[self.events], minlength=self.distinct_times.size)

    @cached_property
    def time_group(self) -> np.ndarray:
        """Distinct-time index of each input row."""
        time_group = np.empty_like(self.group_of)
        time_group[self.order] = self.group_of
        return time_group

    @cached_property
    def distinct_event_times(self) -> np.ndarray:
        return self.distinct_times[self.event_counts > 0]

    @cached_property
    def event_cov_sums(self) -> np.ndarray:
        """Per distinct time, the sum of the centered event covariates."""
        groups = self.group_of[self.events]
        sums = np.zeros((self.distinct_times.size, self.centered.shape[1]))
        for col in range(sums.shape[1]):
            sums[:, col] = np.bincount(
                groups, weights=self.centered[self.events, col], minlength=sums.shape[0]
            )
        return sums


class SurvivalDataset:
    """Immutable collection of right-censored observations.

    Stores column arrays (``times``, ``events``, ``covariates``).  At least
    one event is required: with no events the baseline hazard estimate would
    be identically zero and the regression coefficients unidentifiable.
    """

    def __init__(self, times, events, covariates):
        times = np.asarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        covariates = np.asarray(covariates, dtype=float)
        if times.ndim != 1 or events.shape != times.shape:
            raise DataError("times and events must be 1-d arrays of equal length")
        if times.size == 0:
            raise DataError("dataset must contain at least one observation")
        if covariates.ndim == 1 and covariates.size % times.size == 0:
            covariates = covariates.reshape(times.size, -1)
        if covariates.shape[0] != times.shape[0]:
            raise DataError("covariate rows must match the number of observations")
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            bad = times[~(np.isfinite(times) & (times > 0))][0]
            raise DataError(f"follow-up times must be positive and finite, got {float(bad)}")
        if not np.all(np.isfinite(covariates)):
            raise DataError("covariates must be finite")
        if not events.any():
            raise DataError("dataset has no events; estimators are undefined")
        self._times = times
        self._times.setflags(write=False)
        self._events = events
        self._events.setflags(write=False)
        self._covariates = covariates
        self._covariates.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def events(self) -> np.ndarray:
        return self._events

    @property
    def covariates(self) -> np.ndarray:
        return self._covariates

    @property
    def n(self) -> int:
        return int(self._times.size)

    @property
    def covariate_dim(self) -> int:
        return int(self._covariates.shape[1])

    @cached_property
    def sorted_view(self) -> _SortedView:
        """Rows in follow-up time order, with tie groups and centered covariates.

        One sort shared by every estimator; ties grouped once.  ``order`` is
        the stable argsort of the times, built as numpy's default argsort
        followed, if any times tie, by one integer sort of the keys ``tie
        group * n + row`` that puts each run of tied rows back in input
        order (cheaper than a stable sort of the floats).  One centering at
        the column means, so a shifted column fits the same.  Event data
        have one row per distinct time, 0 where no event falls, and
        ``time_group`` holds each input row's distinct-time index, so every
        running sum is read by index.
        """
        return _SortedView(self._times, self._events, self._covariates)


def validate_dataset(raw: Iterable[tuple]) -> SurvivalDataset:
    """Build a dataset from raw ``(time, event, covariates)`` rows.

    The covariate dimension is inferred from the first row; every later row
    must match it.  Raises :class:`DataError` on nonpositive or non-finite
    times, inconsistent covariate lengths, or a dataset without events.
    """
    rows = list(raw)
    if not rows:
        raise DataError("empty input")
    short = next((i for i, row in enumerate(rows) if len(row) != 3), None)
    if short is not None:
        raise DataError(f"row {short + 1}: expected (time, event, covariates)")
    first_cov = np.atleast_1d(np.asarray(rows[0][2], dtype=float))
    p = first_cov.size
    times = np.empty(len(rows))
    events = np.empty(len(rows), dtype=bool)
    covs = np.empty((len(rows), p))
    for i, (t, e, z) in enumerate(rows):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.size != p:
            raise DataError(f"row {i + 1}: covariate length {z.size} != {p}")
        times[i] = float(t)
        events[i] = bool(e)
        covs[i] = z
    return SurvivalDataset(times, events, covs)


_CSV_TRUE = {"1", "true"}
_CSV_FALSE = {"0", "false"}

# Rows per block of ``load_csv`` and ``write_csv``: one numpy conversion per
# column of a read block, one ``%`` template per written block.  A block's
# cell strings (about 0.2 MB at p = 3) stay in cache and barely move the peak
# RSS; 4096-row blocks read 2e5 rows about 25 % slower and raised the
# analysis set-up's peak RSS by 3 MB.
_BLOCK_ROWS = 512


def _expected_header(p: int) -> list[str]:
    return ["time", "event"] + [f"z{i}" for i in range(1, p + 1)]


def _check_rows(path, rows, first: int, p: int):
    """Columns of ``rows``, data rows ``first``, ``first + 1``, ... of ``path``,
    read one row at a time: blank rows are skipped and the first bad row, in
    file order, raises its :class:`DataError`."""
    times, events, covs = [], [], []
    for i, cells in enumerate(rows, start=first):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != p + 2:
            raise DataError(f"{path}: row {i}: expected {p + 2} fields, got {len(cells)}")
        try:
            times.append(float(cells[0]))
        except ValueError:
            raise DataError(f"{path}: row {i}: bad time value {cells[0]!r}") from None
        ev_token = cells[1].strip().lower()
        if ev_token in _CSV_TRUE:
            events.append(True)
        elif ev_token in _CSV_FALSE:
            events.append(False)
        else:
            raise DataError(f"{path}: row {i}: bad event value {cells[1]!r}")
        try:
            covs.extend(map(float, cells[2:]))
        except ValueError:
            raise DataError(f"{path}: row {i}: bad covariate value") from None
    return (np.array(times, dtype=float), np.array(events, dtype=bool),
            np.reshape(np.array(covs, dtype=float), (len(times), p)))


def _parse_block(rows, p: int):
    """Columns of ``rows``, each converted by one numpy call (which parses a
    number as ``float()`` does), or None if any row is blank or breaks a rule."""
    if any(len(cells) != p + 2 for cells in rows):
        return None
    times, tokens, *z = zip(*rows)
    flags = {}
    for token in set(tokens):
        key = token.strip().lower()
        if key not in _CSV_TRUE and key not in _CSV_FALSE:
            return None
        flags[token] = key in _CSV_TRUE
    try:
        times = np.array(times, dtype=float)
        # In C order, as the row loop builds it: column means read the order.
        covs = np.array(z, dtype=float).reshape(p, len(rows)).T.copy()
    except ValueError:
        return None
    return times, np.fromiter(map(flags.__getitem__, tokens), bool, len(rows)), covs


def _read_rows(reader, count: int, path, first: int, p: int | None) -> list:
    """The next ``count`` records of ``reader`` (fewer at the end), data rows
    ``first``, ... (``p`` is None for the header).  Text that is not UTF-8
    or a record the csv module rejects raises a :class:`DataError`, once the
    rows read before it pass their checks."""
    rows = []
    try:
        rows.extend(islice(reader, count))
    except (UnicodeDecodeError, csv.Error) as exc:
        if p is not None:
            _check_rows(path, rows, first, p)
        if isinstance(exc, UnicodeDecodeError):
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        where = "header" if p is None else f"row {first + len(rows)}"
        raise DataError(f"{path}: {where}: {exc}") from None
    return rows


def load_csv(path) -> SurvivalDataset:
    """Load a dataset from CSV with header ``time,event,z1,...,zp``.

    `p = 0` (header ``time,event``) is accepted.  The event column must be
    one of ``0``, ``1``, ``true``, ``false``.  Malformed rows are reported
    with their 1-based data-row number.  A leading UTF-8 byte-order mark
    is skipped.  Rows are read in blocks of ``_BLOCK_ROWS``; a block that
    breaks a rule is read again row by row, so the first bad row wins.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_rows(reader, 1, path, 0, None)
        if not header:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header[0]]
        p = len(header) - 2
        if p < 0 or header != _expected_header(p):
            raise DataError(f"{path}: header must be time,event,z1,...,zp; got {header!r}")
        blocks, first = [], 1
        while rows := _read_rows(reader, _BLOCK_ROWS, path, first, p):
            blocks.append(_parse_block(rows, p) or _check_rows(path, rows, first, p))
            first += len(rows)
    times, events, covs = (np.concatenate(col) for col in zip(*blocks)) if blocks else ((),) * 3
    if not len(times):
        raise DataError(f"{path}: no data rows")
    try:
        return SurvivalDataset(times, events, covs)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_csv(path, header: list[str], columns) -> None:
    """Write ``header`` and the equal-length 1-d ``columns`` as CSV with LF
    line endings.

    Float columns are written with 17 significant digits (lossless), integer
    and boolean columns with ``%d``, by one ``%`` template per block of
    ``_BLOCK_ROWS`` rows.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if any(col.shape != (n,) for col in columns):
        raise ValueError("columns must be 1-d arrays of equal length")
    template = ",".join("%.17g" if col.dtype.kind == "f" else "%d" for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
            fh.write(template * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def save_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset back to CSV (see :func:`write_csv`); ``load_csv`` reads it back."""
    write_csv(path, _expected_header(data.covariate_dim),
              [data.times, data.events, *data.covariates.T])
