"""State-by-day positivity panels: CSV ingestion, rate computation,
trailing 7-day smoothing, per-row normalization, and the column-group
stacking comparison.

The expected CSV schema is one row per (date, state) with columns ``date``
(ISO ``YYYY-MM-DD`` or compact ``YYYYMMDD``), ``state`` (two-letter code),
``positive`` and ``totalTestResults`` (cumulative counts).  Extra columns
are ignored; rows for states or dates outside the requested window are
skipped, and a UTF-8 byte-order mark before the header is dropped.  Rows
are read by column index.  The raw date text is tested first, so a row
whose date is known to fall outside the window costs one lookup; then the
state code; and a date is parsed only on a requested state's row, with one
``strptime`` call per distinct date text and load: the file repeats every
date once per state.  Error messages give the physical line of the row.

A panel over ``days`` output days is loaded with a 7-day warmup so that the
trailing moving average for the first output day is complete: the count
window starts 7 days before the requested start date.  The smoothed value
for an output day averages the 7 daily rates ending on that day.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .core import _count, approx_report, as_matrix, rank_k_approx, thin_svd
from .reshape import stack_column_groups, unstack_column_groups

__all__ = [
    "DataError",
    "US_STATE_CODES",
    "SMOOTH_WINDOW",
    "CountPanel",
    "SeriesPanel",
    "CovidReport",
    "load_state_counts",
    "positivity_and_smooth",
    "piecewise_linear_panel",
    "covid_experiment",
]

US_STATE_CODES = (
    "AK", "AL", "AR", "AZ", "CA", "CO", "CT", "DE", "FL", "GA",
    "HI", "IA", "ID", "IL", "IN", "KS", "KY", "LA", "MA", "MD",
    "ME", "MI", "MN", "MO", "MS", "MT", "NC", "ND", "NE", "NH",
    "NJ", "NM", "NV", "NY", "OH", "OK", "OR", "PA", "RI", "SC",
    "SD", "TN", "TX", "UT", "VA", "VT", "WA", "WI", "WV", "WY",
)

SMOOTH_WINDOW = 7

_REQUIRED_COLUMNS = ("date", "state", "positive", "totalTestResults")


class DataError(ValueError):
    """The input data cannot support the requested computation."""


def _parse_date(text: str) -> dt.date:
    text = text.strip()
    # Only the ISO format has a dash, so the text picks its one candidate.
    fmt = "%Y-%m-%d" if "-" in text else "%Y%m%d"
    try:
        return dt.datetime.strptime(text, fmt).date()
    except ValueError:
        raise DataError(
            f"unparseable date {text!r}, want YYYY-MM-DD or YYYYMMDD"
        ) from None


def _coerce_date(value) -> dt.date:
    if isinstance(value, dt.datetime):
        return value.date()
    if isinstance(value, dt.date):
        return value
    return _parse_date(str(value))


def _window(start: dt.date, days: int) -> list[dt.date]:
    """The count window's dates: ``SMOOTH_WINDOW`` days before ``start``, then
    ``days`` days from it."""
    if (start.toordinal() - SMOOTH_WINDOW < dt.date.min.toordinal()
            or start.toordinal() + days - 1 > dt.date.max.toordinal()):
        raise DataError(
            f"count window of {days} days from {start} (and the {SMOOTH_WINDOW} days "
            f"before it) falls outside the calendar years 1-9999"
        )
    first = start - dt.timedelta(days=SMOOTH_WINDOW)
    return [first + dt.timedelta(days=i) for i in range(days + SMOOTH_WINDOW)]


@dataclass(frozen=True)
class CountPanel:
    """Cumulative positives and tests per (state, day) over the count
    window [start - 7 days, start + days), so ``days + 7`` columns.  The
    extra leading week feeds the trailing average of the first output day.
    """

    entities: tuple[str, ...]
    start: dt.date
    days: int
    positives: np.ndarray
    tests: np.ndarray

    def __post_init__(self):
        want = (len(self.entities), self.days + SMOOTH_WINDOW)
        if self.positives.shape != want or self.tests.shape != want:
            raise ValueError(
                f"count arrays must be {want}, got {self.positives.shape} "
                f"and {self.tests.shape}"
            )


@dataclass(frozen=True)
class SeriesPanel:
    """One smoothed series per entity: ``matrix`` is entities x days.
    ``start`` is the date of column 0, or None for synthetic panels."""

    entities: tuple[str, ...]
    start: dt.date | None
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, "panel matrix")
        if m.shape[0] != len(self.entities):
            raise ValueError(
                f"{len(self.entities)} entities but {m.shape[0]} matrix rows"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def days(self) -> int:
        return self.matrix.shape[1]


def load_state_counts(csv_path, start_date, days: int, states=None) -> CountPanel:
    """Read cumulative counts for the requested states over the count
    window.  Every (state, day) cell in the window must be present exactly
    once with both counts filled in; gaps and duplicates are data errors,
    and so is a count that is not a finite number >= 0.  A row with empty
    counts still takes its cell."""
    try:
        days = _count(days, "days")
    except ValueError as exc:
        raise DataError(str(exc)) from None
    start = _coerce_date(start_date)
    codes = tuple(states) if states is not None else US_STATE_CODES
    if not codes:
        raise DataError("need at least one state code")
    if len(set(codes)) != len(codes):
        raise DataError("duplicate state codes requested")
    dates = _window(start, days)
    ncols = len(dates)
    window = {day: i for i, day in enumerate(dates)}
    row_of = {code: i for i, code in enumerate(codes)}

    # Cells in row-major order, cell i * ncols + col for state i on window
    # day col: the counts, nan until a row fills them, and whether a row
    # has taken the cell so far, filled or not.
    size = len(codes) * ncols
    positives = [math.nan] * size
    tests = [math.nan] * size
    seen = bytearray(size)

    # The file repeats each date once per state, so each distinct raw date
    # text is parsed once and mapped to its window column (None outside),
    # and each distinct raw state text is stripped once and mapped to its
    # row (None for a state not requested).
    col_of: dict[str, int | None] = {}
    state_of: dict[str, int | None] = {}

    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # Only the reader raises csv.Error, as on a field over the csv module's size limit.
        try:
            header = next(reader, [])
            missing = [c for c in _REQUIRED_COLUMNS if c not in header]
            if missing:
                raise DataError(f"CSV is missing required columns: {', '.join(missing)}")
            # A repeated column name reads from its last occurrence.
            index = {name: j for j, name in enumerate(header)}
            i_date, i_state, i_pos, i_tests = (index[c] for c in _REQUIRED_COLUMNS)
            count_columns = (
                (i_pos, "positive", positives),
                (i_tests, "totalTestResults", tests),
            )
            width = max(i_date, i_state, i_pos, i_tests) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [""] * (width - len(row))
                text = row[i_date]
                # -1: a date text not met yet.
                col = col_of.get(text, -1)
                if col is None:
                    continue
                raw = row[i_state]
                i = state_of.get(raw, -1)
                if i == -1:
                    i = state_of[raw] = row_of.get(raw.strip())
                if i is None:
                    continue
                # Parsed only on a requested state's row, so an unparseable date
                # elsewhere is no error.
                if col == -1:
                    col = col_of[text] = window.get(_parse_date(text))
                    if col is None:
                        continue
                cell = i * ncols + col
                if seen[cell]:
                    raise DataError(
                        f"duplicate row for state {codes[i]} on {dates[col].isoformat()} "
                        f"(line {reader.line_num})"
                    )
                seen[cell] = 1
                for j, field, target in count_columns:
                    value = row[j].strip()
                    if not value:
                        continue
                    try:
                        count = float(value)
                    except ValueError:
                        count = math.nan
                    # Also false for nan, so unparseable text lands here too.
                    if not 0.0 <= count < math.inf:
                        raise DataError(
                            f"bad {field} value {value!r} for state {codes[i]} on "
                            f"{dates[col].isoformat()} (line {reader.line_num}); "
                            f"a count must be a finite number >= 0"
                        )
                    target[cell] = count
        except csv.Error as exc:
            raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None

    shape = (len(codes), ncols)
    positives = np.array(positives).reshape(shape)
    tests = np.array(tests).reshape(shape)
    gaps = []
    holes = np.isnan(positives) | np.isnan(tests)
    for i, j in zip(*np.nonzero(holes)):
        gaps.append(f"{codes[i]} {dates[j].isoformat()}")
    if gaps:
        shown = ", ".join(gaps[:10])
        more = "" if len(gaps) <= 10 else f" and {len(gaps) - 10} more"
        raise DataError(f"missing counts for {shown}{more}")

    return CountPanel(
        entities=codes, start=start, days=days, positives=positives, tests=tests
    )


def positivity_and_smooth(
    counts: CountPanel, rate_mode: str = "cumulative", normalize: bool = True
) -> SeriesPanel:
    """Turn counts into smoothed positivity series.

    ``rate_mode='cumulative'`` divides the cumulative counts directly;
    ``'daily'`` divides day-over-day increments (the test increment must be
    strictly positive on every needed day).  Each output day is the mean of
    the 7 daily rates ending on it.  With ``normalize`` every row is scaled
    by its own maximum, which must be positive."""
    pos, tst = counts.positives, counts.tests
    dates = _window(counts.start, counts.days)
    if rate_mode == "cumulative":
        # Column 0 is only ever a subtrahend for daily increments; rates
        # start one column in.
        need = tst[:, 1:]
        if (need == 0.0).any():
            i, j = map(int, next(zip(*np.nonzero(need == 0.0))))
            raise DataError(
                f"zero cumulative tests for {counts.entities[i]} on "
                f"{dates[j + 1].isoformat()}"
            )
        rates = pos[:, 1:] / need
    elif rate_mode == "daily":
        dpos = np.diff(pos, axis=1)
        dtst = np.diff(tst, axis=1)
        if (dtst <= 0.0).any():
            i, j = map(int, next(zip(*np.nonzero(dtst <= 0.0))))
            raise DataError(
                f"non-increasing cumulative tests for {counts.entities[i]} on "
                f"{dates[j + 1].isoformat()}"
            )
        rates = dpos / dtst
    else:
        raise ValueError(f"rate_mode must be 'cumulative' or 'daily', got {rate_mode!r}")

    windows = np.lib.stride_tricks.sliding_window_view(rates, SMOOTH_WINDOW, axis=1)
    smoothed = windows.mean(axis=-1)

    if normalize:
        peaks = smoothed.max(axis=1)
        flat = np.flatnonzero(peaks <= 0.0)
        if flat.size:
            names = ", ".join(counts.entities[i] for i in flat[:10])
            raise DataError(f"cannot normalize rows with non-positive peak: {names}")
        smoothed = smoothed / peaks[:, None]

    return SeriesPanel(entities=counts.entities, start=counts.start, matrix=smoothed)


def piecewise_linear_panel(
    entities: int = 50, days: int = 150, regimes: int = 3, seed: int = 20200517
) -> SeriesPanel:
    """Synthetic stand-in for a smoothed panel: every row is piecewise
    linear over ``regimes`` equal spans, ramping between levels drawn
    uniformly from [0.2, 0.8].

    All rows share the same time grid, so splitting the columns at the
    regime boundaries and stacking the groups leaves a matrix whose rows
    all live in the span of a constant and a shared ramp."""
    entities, days = _count(entities, "entities"), _count(days, "days")
    regimes = _count(regimes, "regimes")
    if days % regimes:
        raise ValueError(f"{regimes} regimes do not divide {days} days")
    width = days // regimes
    rng = np.random.default_rng(seed)
    # One starting level plus one target level per regime, drawn row-major
    # so the panel is reproducible for a given seed.
    levels = rng.uniform(0.2, 0.8, size=(entities, regimes + 1))
    ramp = np.arange(width) / width
    matrix = np.empty((entities, days))
    for r in range(regimes):
        left = levels[:, r : r + 1]
        right = levels[:, r + 1 : r + 2]
        matrix[:, r * width : (r + 1) * width] = left + (right - left) * ramp
    names = tuple(f"s{i:02d}" for i in range(entities))
    return SeriesPanel(entities=names, start=None, matrix=matrix)


@dataclass(frozen=True)
class CovidReport:
    """Plain-versus-stacked comparison at one (groups, rank) setting.
    Reconstructions are entity x day panels; the stacked one is mapped back
    from the stacked layout."""

    groups: int
    rank: int
    plain_rel_error: float
    stacked_rel_error: float
    plain_parameters: int
    stacked_parameters: int
    plain_recon: np.ndarray
    stacked_recon: np.ndarray


def covid_experiment(panel: SeriesPanel, groups: int, rank: int) -> CovidReport:
    """Approximate the panel at the given rank twice, plain and after
    column-group stacking, at matched rank.  ``groups`` must be a positive
    integer that divides the day count, and ``rank`` an integer from 1 to
    the smaller side of both layouts; with ``groups=1`` the two routes are
    identical by construction."""
    m = panel.matrix
    g = _count(groups, "groups")
    stacked = stack_column_groups(m, g)
    k = _count(rank, "rank", 1, min(min(m.shape), min(stacked.shape)))

    plain_recon = rank_k_approx(thin_svd(m, rank=k), k)
    stacked_recon = rank_k_approx(thin_svd(stacked, rank=k), k)
    plain_rep = approx_report(m, k, approx=plain_recon)
    stacked_rep = approx_report(stacked, k, approx=stacked_recon)

    return CovidReport(
        groups=g,
        rank=k,
        plain_rel_error=plain_rep.rel_error,
        stacked_rel_error=stacked_rep.rel_error,
        plain_parameters=plain_rep.parameters,
        stacked_parameters=stacked_rep.parameters,
        plain_recon=plain_recon,
        stacked_recon=unstack_column_groups(stacked_recon, g),
    )
