"""State-by-day positivity panels: CSV ingestion, rate computation,
trailing 7-day smoothing, per-row normalization, and the column-group
stacking comparison.

The expected CSV schema is one row per (date, state) with columns ``date``
(ISO ``YYYY-MM-DD`` or compact ``YYYYMMDD``), ``state`` (two-letter code),
``positive`` and ``totalTestResults`` (cumulative counts).  Extra columns
are ignored; rows for states or dates outside the requested window are
skipped, and a UTF-8 byte-order mark before the header is dropped.  The
header is read by the csv module.  The rest of the file is read in chunks
of text; while the text holds no quote, NUL or carriage return and no line
longer than the csv field limit, each line is split at its commas, which
gives the csv module's row.  From the first chunk that breaks this, the
csv module reads on from the first line not yet taken, and the rows taken
before stay; so a pipe reads every file that a path reads.  Either way
rows are read by column index.  The raw date text is tested first, so
a row whose date is known to fall outside the window costs one lookup, and
on the comma split only its leading fields are split; then the state code;
and a date is parsed only on a requested state's row, once per distinct
date text and load: the file repeats every date once per state.  A
canonical date, ASCII ``YYYY-MM-DD`` or ``YYYYMMDD``, needs no ``strptime``
call.  Error messages give the physical line of the row, and text that is
not UTF-8 the file byte offset of its first bad byte; a pipe, which has no
offset, gets the decoder's own message.

A panel over ``days`` output days is loaded with a 7-day warmup so that the
trailing moving average for the first output day is complete: the count
window starts 7 days before the requested start date.  The smoothed value
for an output day averages the 7 daily rates ending on that day.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import _count, approx_report, as_matrix, rank_k_approx, thin_svd
from .reshape import stack_column_groups, unstack_column_groups

__all__ = [
    "DataError",
    "US_STATE_CODES",
    "SMOOTH_WINDOW",
    "CountPanel",
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

# Characters of file text the comma split reads at a time.
_CHUNK = 64 * 1024

# One line of text as a file opened with ``newline=""`` yields it: ended
# by an LF, a CR LF or a lone CR, or by the end of the text.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _lines(text: str, fh):
    """The lines of ``text`` and then of ``fh``, as ``fh`` would yield
    them had none been read into ``text``.  What follows ``text``'s last LF
    is completed from ``fh`` only when the lines before it are spent, so
    that no byte is decoded before the rows ahead of it are read."""
    cut = text.rfind("\n") + 1
    for line in _LINE.finditer(text, 0, cut):
        yield line[0]
    # A chunk may end between the CR and the LF of a line end.
    for line in _LINE.finditer(text[cut:] + fh.readline()):
        yield line[0]
    yield from fh


class DataError(ValueError):
    """The input data cannot support the requested computation."""


def _parse_date(text: str) -> dt.date:
    """The day a ``YYYY-MM-DD`` or ``YYYYMMDD`` text names, surrounding
    whitespace aside.  The canonical spellings, ASCII digits split 4-2-2,
    are read by ``dt.date``; any other text, and any day ``dt.date``
    refuses, goes to ``strptime``, which accepts exactly 8 digits only
    when split 4-2-2, so it gives the same day or the same error."""
    text = text.strip()
    if text.isascii():
        if len(text) == 8:
            digits = text
        elif len(text) == 10 and text[4] == text[7] == "-":
            digits = text[:4] + text[5:7] + text[8:]
        else:
            digits = ""
        if digits.isdigit():
            try:
                return dt.date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))
            except ValueError:
                pass
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


def _first_day(start: dt.date, days: int) -> dt.date:
    """The count window's first day, ``SMOOTH_WINDOW`` days before ``start``;
    window column c falls on that day plus c days."""
    if (start.toordinal() - SMOOTH_WINDOW < dt.date.min.toordinal()
            or start.toordinal() + days - 1 > dt.date.max.toordinal()):
        raise DataError(
            f"count window of {days} days from {start} (and the {SMOOTH_WINDOW} days "
            f"before it) falls outside the calendar years 1-9999"
        )
    return start - dt.timedelta(days=SMOOTH_WINDOW)


def _day(first: dt.date, col: int) -> str:
    return (first + dt.timedelta(days=col)).isoformat()


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


def load_state_counts(csv_path, start_date, days: int, states=None) -> CountPanel:
    """Read cumulative counts for the requested states over the count
    window.  Every (state, day) cell in the window must be present exactly
    once with both counts filled in; gaps and duplicates are data errors,
    and so is a count that is not a finite number >= 0.  A row with empty
    counts still takes its cell.  Only the cells that rows take are held,
    so memory grows with the rows read, not with ``days`` x states: besides
    those cells, the loader holds one chunk of text and at most one line.
    From a chunk the comma split cannot take, the csv module reads the rest
    of the file, so a pipe reads every file that a path reads.  Each
    distinct date text is parsed once per load, and a canonical one
    without ``strptime``."""
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
    first = _first_day(start, days)
    ncols = days + SMOOTH_WINDOW
    size = len(codes) * ncols
    row_of = {code: i for i, code in enumerate(codes)}

    # The cells rows have taken, i * ncols + col for state i on window day
    # col: its counts packed in one complex, positive + totalTestResults * 1j,
    # or None when the row left a count empty.
    cells: dict[int, complex | None] = {}

    # The file repeats each date once per state, so each distinct raw date
    # text is parsed once and mapped to its window column (None outside),
    # and each distinct raw state text is stripped once and mapped to its
    # row (None for a state not requested).
    col_of: dict[str, int | None] = {}
    state_of: dict[str, int | None] = {}

    def take(row: list[str], line: int) -> None:
        """File one row, read from physical line ``line``, in ``cells``."""
        if len(row) < width:
            if not row:
                return
            row += [""] * (width - len(row))
        text = row[i_date]
        # -1: a date text not met yet.  The callers skip a known date outside
        # the window; a short row's padded "" is never known, being no date.
        col = col_of.get(text, -1)
        raw = row[i_state]
        i = state_of.get(raw, -1)
        if i == -1:
            i = state_of[raw] = row_of.get(raw.strip())
        if i is None:
            return
        # Parsed only on a requested state's row, so an unparseable date
        # elsewhere is no error.
        if col == -1:
            col = (_parse_date(text) - first).days
            col = col_of[text] = col if 0 <= col < ncols else None
            if col is None:
                return
        cell = i * ncols + col
        if cell in cells:
            raise DataError(
                f"duplicate row for state {codes[i]} on {_day(first, col)} (line {line})"
            )
        pair = []
        for j, field in count_columns:
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
                    f"{_day(first, col)} (line {line}); "
                    f"a count must be a finite number >= 0"
                )
            pair.append(count)
        cells[cell] = complex(*pair) if len(pair) == 2 else None

    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # ``reader`` starts after physical line ``taken``.
        taken = 0
        # Only a csv reader raises csv.Error, as on a field over the csv
        # module's size limit.
        try:
            header = next(reader, [])
            missing = [c for c in _REQUIRED_COLUMNS if c not in header]
            if missing:
                raise DataError(f"CSV is missing required columns: {', '.join(missing)}")
            # A repeated column name reads from its last occurrence.
            index = {name: j for j, name in enumerate(header)}
            i_date, i_state, i_pos, i_tests = (index[c] for c in _REQUIRED_COLUMNS)
            count_columns = ((i_pos, "positive"), (i_tests, "totalTestResults"))
            width = max(i_date, i_state, i_pos, i_tests) + 1
            # While the text holds no quote, carriage return or NUL (which
            # older csv modules refuse), each line is one record and its
            # comma split is the csv row.  A line no longer than the field
            # limit holds no field over it.
            limit = csv.field_size_limit()
            stop = i_date + 1
            taken = reader.line_num
            # The text from the start of the first line not yet taken.
            text = ""
            while True:
                chunk = fh.read(_CHUNK)
                text += chunk
                if '"' in chunk or "\0" in chunk or "\r" in chunk:
                    break
                lines = text.split("\n")
                if len(text) > limit and max(map(len, lines)) > limit:
                    break
                text = lines.pop() if chunk else ""
                for line_num, line in enumerate(lines, taken + 1):
                    # The date is tested before the rest of the line is split.
                    head = line.split(",", stop)
                    if len(head) > i_date and col_of.get(head[i_date], -1) is None:
                        continue
                    if line:
                        take(line.split(","), line_num)
                taken += len(lines)
                if not chunk:
                    break
            # Text is left when the comma split met a chunk it cannot take:
            # then the csv module reads on from the start of that text.
            # Each line before it held no quote, CR or NUL, so its comma
            # split was the csv module's row.
            if text:
                reader = csv.reader(_lines(text, fh))
                for row in reader:
                    if len(row) > i_date and col_of.get(row[i_date], -1) is None:
                        continue
                    take(row, taken + reader.line_num)
        except csv.Error as exc:
            raise DataError(
                f"malformed CSV at line {taken + reader.line_num}: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            # The fault's object is the bytes the text layer last handed
            # its decoder, held-back bytes included, so they end at the
            # file's read position; a pipe has no position to place it by.
            if not fh.seekable():
                raise DataError(str(exc)) from None
            offset = fh.buffer.tell() - len(exc.object) + exc.start
            raise DataError(
                f"CSV is not UTF-8: can't decode byte 0x{exc.object[exc.start]:02x}: "
                f"{exc.reason} (byte offset {offset})"
            ) from None

    holes = size - sum(value is not None for value in cells.values())
    if holes:
        gaps = itertools.islice((c for c in range(size) if cells.get(c) is None), 10)
        shown = ", ".join(f"{codes[cell // ncols]} {_day(first, cell % ncols)}" for cell in gaps)
        more = "" if holes <= 10 else f" and {holes - 10} more"
        raise DataError(f"missing counts for {shown}{more}")

    table = np.array([cells[cell] for cell in range(size)]).reshape(len(codes), ncols)
    positives, tests = table.real.copy(), table.imag.copy()
    return CountPanel(
        entities=codes, start=start, days=days, positives=positives, tests=tests
    )


def positivity_and_smooth(
    counts: CountPanel, rate_mode: str = "cumulative", normalize: bool = True
) -> np.ndarray:
    """Turn counts into smoothed positivity series: an entities x days
    matrix whose rows follow ``counts.entities`` and whose column 0 falls
    on ``counts.start``.

    ``rate_mode='cumulative'`` divides the cumulative counts directly;
    ``'daily'`` divides day-over-day increments (the test increment must be
    strictly positive on every needed day).  Each output day is the mean of
    the 7 daily rates ending on it.  With ``normalize`` every row is scaled
    by its own maximum, which must be positive."""
    pos, tst = counts.positives, counts.tests
    first = _first_day(counts.start, counts.days)
    if rate_mode == "cumulative":
        # Column 0 is only ever a subtrahend for daily increments; rates
        # start one column in.
        need = tst[:, 1:]
        if (need == 0.0).any():
            i, j = map(int, next(zip(*np.nonzero(need == 0.0))))
            raise DataError(
                f"zero cumulative tests for {counts.entities[i]} on {_day(first, j + 1)}"
            )
        rates = pos[:, 1:] / need
    elif rate_mode == "daily":
        dpos = np.diff(pos, axis=1)
        dtst = np.diff(tst, axis=1)
        if (dtst <= 0.0).any():
            i, j = map(int, next(zip(*np.nonzero(dtst <= 0.0))))
            raise DataError(
                f"non-increasing cumulative tests for {counts.entities[i]} on "
                f"{_day(first, j + 1)}"
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

    return smoothed


def piecewise_linear_panel(
    entities: int = 50, days: int = 150, regimes: int = 3, seed: int = 20200517
) -> np.ndarray:
    """Synthetic stand-in for a smoothed panel, as an entities x days
    matrix: every row is piecewise linear over ``regimes`` equal spans,
    ramping between levels drawn uniformly from [0.2, 0.8].

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
    return matrix


@dataclass(frozen=True)
class CovidReport:
    """Plain-versus-stacked comparison at one (groups, rank) setting.
    Reconstructions are entity x day panels; the stacked one is mapped back
    from the stacked layout."""

    plain_rel_error: float
    stacked_rel_error: float
    plain_parameters: int
    stacked_parameters: int
    plain_recon: np.ndarray
    stacked_recon: np.ndarray


def covid_experiment(panel, groups: int, rank: int) -> CovidReport:
    """Approximate the finite real entities x days matrix ``panel`` at the
    given rank twice, plain and after column-group stacking, at matched
    rank.  ``groups`` must be a positive integer that divides the day
    count, and ``rank`` an integer from 1 to the smaller side of both
    layouts; with ``groups=1`` the two routes are identical by
    construction."""
    m = as_matrix(panel, "panel")
    g = _count(groups, "groups")
    stacked = stack_column_groups(m, g)
    k = _count(rank, "rank", 1, min(min(m.shape), min(stacked.shape)))

    plain_recon = rank_k_approx(thin_svd(m, rank=k), k)
    stacked_recon = rank_k_approx(thin_svd(stacked, rank=k), k)
    plain_rep = approx_report(m, k, approx=plain_recon)
    stacked_rep = approx_report(stacked, k, approx=stacked_recon)

    return CovidReport(
        plain_rel_error=plain_rep.rel_error,
        stacked_rel_error=stacked_rep.rel_error,
        plain_parameters=plain_rep.parameters,
        stacked_parameters=stacked_rep.parameters,
        plain_recon=plain_recon,
        stacked_recon=unstack_column_groups(stacked_recon, g),
    )
