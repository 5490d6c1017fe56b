"""Positivity-panel loading, smoothing, and the stacking experiment."""

import _strptime
import csv
import datetime as dt
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from helpers import START, linear_counts as _linear_counts, write_counts as _write_counts

import reorgsvd.covid as covid
from reorgsvd import (
    DataError,
    covid_experiment,
    piecewise_linear_panel,
    relative_error,
    stack_column_groups,
)
from reorgsvd.covid import US_STATE_CODES, load_state_counts, positivity_and_smooth


def _timeseries(path, start, days, states, rate_mode="cumulative", normalize=True):
    """The smoothed panel, loaded and converted as the covid command does."""
    counts = load_state_counts(path, start, days, states=states)
    return positivity_and_smooth(counts, rate_mode=rate_mode, normalize=normalize)


def test_loader_reads_window_and_skips_foreign_rows(tmp_path):
    rows = _linear_counts(["CA", "NY"], 5)
    rows.append(["2019-01-01", "CA", "1", "2"])     # outside the window
    rows.append([START.isoformat(), "ZZ", "1", "2"])  # unknown code
    path = _write_counts(tmp_path / "c.csv", rows)
    counts = load_state_counts(path, START, 5, states=["CA", "NY"])
    assert counts.entities == ("CA", "NY")
    assert counts.positives.shape == (2, 12)
    assert counts.tests[0, 0] == 1000.0 * 2
    assert counts.positives[1, -1] == pytest.approx(0.2 * 1000.0 * 13)


def test_loader_accepts_compact_dates(tmp_path):
    rows = _linear_counts(["CA"], 3, date_text=lambda d: d.strftime("%Y%m%d"))
    path = _write_counts(tmp_path / "c.csv", rows)
    counts = load_state_counts(path, "2020-05-17", 3, states=["CA"])
    assert counts.positives.shape == (1, 10)


def test_loader_errors(tmp_path):
    path = _write_counts(
        tmp_path / "h.csv", [], header=("date", "state", "positive")
    )
    with pytest.raises(DataError, match="totalTestResults"):
        load_state_counts(path, START, 3, states=["CA"])

    rows = _linear_counts(["CA"], 3)
    path = _write_counts(tmp_path / "dup.csv", rows + [rows[0]])
    with pytest.raises(DataError, match="duplicate"):
        load_state_counts(path, START, 3, states=["CA"])

    rows = _linear_counts(["CA"], 3)
    del rows[4]
    path = _write_counts(tmp_path / "gap.csv", rows)
    with pytest.raises(DataError, match="CA 2020-05-14"):
        load_state_counts(path, START, 3, states=["CA"])

    rows = _linear_counts(["CA"], 3)
    rows[2][2] = "not-a-number"
    path = _write_counts(tmp_path / "bad.csv", rows)
    with pytest.raises(DataError, match="not-a-number"):
        load_state_counts(path, START, 3, states=["CA"])

    with pytest.raises(DataError):
        load_state_counts(_write_counts(tmp_path / "e.csv", rows), START, 0)


def test_loader_refuses_an_empty_or_repeated_state_list(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA"], 3))
    with pytest.raises(DataError, match="need at least one state code"):
        load_state_counts(path, START, 3, states=[])
    with pytest.raises(DataError, match="duplicate state codes requested"):
        load_state_counts(path, START, 3, states=["CA", "NY", "CA"])


def test_csv_route_skips_a_blank_line_and_a_datetime_start_is_its_day(tmp_path):
    # A quoted field sends the load through the csv module, which reads a
    # blank line as an empty row; a datetime names the day it falls on.
    rows = _linear_counts(["CA", "NY"], 3)
    want = load_state_counts(_write_counts(tmp_path / "c.csv", rows), START, 3,
                             states=["CA", "NY"])
    lines = _lf_lines(rows)
    lines[3] = '"' + lines[3].replace(",", '",', 1)
    lines.insert(5, "\n")
    path = tmp_path / "q.csv"
    path.write_text("".join(lines), newline="")
    got = load_state_counts(path, dt.datetime(2020, 5, 17, 13, 30), 3, states=["CA", "NY"])
    assert got.start == START
    assert got.positives.tobytes() == want.positives.tobytes()
    assert got.tests.tobytes() == want.tests.tobytes()


def test_count_panel_checks_the_shape_of_its_arrays():
    with pytest.raises(ValueError, match=r"count arrays must be \(1, 10\), "
                                         r"got \(1, 9\) and \(1, 10\)"):
        covid.CountPanel(("CA",), START, 3, np.zeros((1, 9)), np.zeros((1, 10)))


def test_window_must_fit_the_calendar(tmp_path):
    # The first and last representable windows load (and find no rows);
    # one day further on either side is refused before any date is built.
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA"], 3))
    for start, days in ((dt.date(1, 1, 8), 1), (dt.date(9999, 12, 31), 1),
                        (dt.date(9999, 12, 1), 31)):
        with pytest.raises(DataError, match="missing counts for CA"):
            load_state_counts(path, start, days, states=["CA"])
    for start, days in ((dt.date(1, 1, 7), 1), (dt.date(9999, 12, 1), 32)):
        with pytest.raises(DataError, match="outside the calendar"):
            load_state_counts(path, start, days, states=["CA"])


def test_default_states_are_the_fifty_codes():
    assert len(US_STATE_CODES) == 50
    assert len(set(US_STATE_CODES)) == 50
    assert "DC" not in US_STATE_CODES and "PR" not in US_STATE_CODES


def test_constant_rate_panels_match_between_modes(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA", "NY", "TX"], 6))
    cumulative = _timeseries(path, START, 6, states=["CA", "NY", "TX"],
                             rate_mode="cumulative", normalize=False)
    daily = _timeseries(path, START, 6, states=["CA", "NY", "TX"],
                        rate_mode="daily", normalize=False)
    # constant positivity: both modes recover the constant everywhere
    for i, rate in enumerate((0.1, 0.2, 0.3)):
        assert np.allclose(cumulative[i], rate, atol=1e-12)
        assert np.allclose(daily[i], rate, atol=1e-12)


def test_trailing_average_window_is_seven_days_ending_on_the_day(tmp_path):
    # daily rates are 1,2,3,... starting at the first warmup day, encoded
    # via quadratic cumulative positives over linear cumulative tests
    rows = []
    cum_pos = 0.0
    for off in range(-7, 4):
        day = START + dt.timedelta(days=off)
        tests = 100.0 * (off + 9)
        if off > -7:
            cum_pos += (off + 7) * 100.0 * 1e-3
        rows.append([day.isoformat(), "CA", f"{cum_pos:.6f}", f"{tests:.1f}"])
    path = _write_counts(tmp_path / "c.csv", rows)
    panel = positivity_and_smooth(
        load_state_counts(path, START, 4, states=["CA"]),
        rate_mode="daily",
        normalize=False,
    )
    # daily rate on warmup day j (j = 1..) is j/1000; output day d averages
    # rates d+1 .. d+7, i.e. mean(1..7) + d in units of 1e-3
    expect = np.array([np.arange(d + 1, d + 8).mean() for d in range(4)]) * 1e-3
    assert np.allclose(panel[0], expect, atol=1e-12)


def test_zero_and_nonincreasing_test_counts_are_data_errors(tmp_path):
    # The bad day is NY's last window column, 2020-05-19: the errors date
    # it from the window's first day, so an off-by-one names another day.
    rows = _linear_counts(["CA", "NY"], 3)
    rows[-1][3] = "0"
    path = _write_counts(tmp_path / "z.csv", rows)
    with pytest.raises(DataError) as exc:
        positivity_and_smooth(load_state_counts(path, START, 3, states=["CA", "NY"]))
    assert str(exc.value) == "zero cumulative tests for NY on 2020-05-19"

    rows = _linear_counts(["CA", "NY"], 3)
    rows[-1][3] = rows[-2][3]  # repeated cumulative count: zero increment
    path = _write_counts(tmp_path / "flat.csv", rows)
    counts = load_state_counts(path, START, 3, states=["CA", "NY"])
    with pytest.raises(DataError) as exc:
        positivity_and_smooth(counts, rate_mode="daily")
    assert str(exc.value) == "non-increasing cumulative tests for NY on 2020-05-19"
    # cumulative mode tolerates a flat day
    positivity_and_smooth(counts, rate_mode="cumulative")


def test_normalization_scales_each_row_to_unit_peak(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA", "NY"], 5))
    raw = _timeseries(path, START, 5, states=["CA", "NY"], normalize=False)
    scaled = _timeseries(path, START, 5, states=["CA", "NY"])
    assert np.allclose(scaled.max(axis=1), 1.0, atol=1e-15)
    ratio = raw / scaled
    assert np.allclose(ratio, ratio[:, :1], atol=1e-12)


def test_rate_mode_is_validated(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA"], 3))
    counts = load_state_counts(path, START, 3, states=["CA"])
    with pytest.raises(ValueError):
        positivity_and_smooth(counts, rate_mode="weekly")


def test_synthetic_panel_is_deterministic_and_in_range():
    a = piecewise_linear_panel()
    b = piecewise_linear_panel()
    assert np.array_equal(a, b)
    assert a.shape == (50, 150)
    assert a.min() >= 0.2 and a.max() <= 0.8
    c = piecewise_linear_panel(seed=7)
    assert not np.array_equal(a, c)


def test_synthetic_panel_rows_are_affine_within_regimes():
    panel = piecewise_linear_panel(entities=4, days=30, regimes=3, seed=5)
    for r in range(3):
        block = panel[:, r * 10 : (r + 1) * 10]
        second_diff = np.diff(block, n=2, axis=1)
        assert np.abs(second_diff).max() < 1e-12


def test_synthetic_panel_validates_arguments():
    with pytest.raises(ValueError):
        piecewise_linear_panel(days=10, regimes=3)
    with pytest.raises(ValueError):
        piecewise_linear_panel(entities=0)


def test_experiment_reports_consistent_numbers():
    panel = piecewise_linear_panel(entities=10, days=30, regimes=3, seed=11)
    rep = covid_experiment(panel, 3, 2)
    assert rep.plain_parameters == 2 * (10 + 30)
    assert rep.stacked_parameters == 2 * (30 + 10)
    assert rep.plain_recon.shape == (10, 30)
    assert rep.stacked_recon.shape == (10, 30)
    # the stacked error can be measured in either layout; entry movement
    # does not change Frobenius distances
    stacked = stack_column_groups(panel, 3)
    err_direct = relative_error(panel, rep.stacked_recon)
    assert err_direct == pytest.approx(rep.stacked_rel_error, rel=1e-9, abs=1e-12)
    assert rep.plain_rel_error == pytest.approx(
        relative_error(panel, rep.plain_recon), rel=1e-12
    )
    assert stacked.shape == (30, 10)


def test_experiment_with_one_group_is_the_plain_run():
    panel = piecewise_linear_panel(entities=8, days=12, regimes=2, seed=3)
    rep = covid_experiment(panel, 1, 3)
    assert rep.plain_rel_error == rep.stacked_rel_error
    assert np.array_equal(rep.plain_recon, rep.stacked_recon)


def test_experiment_validates_arguments():
    panel = piecewise_linear_panel(entities=6, days=12, regimes=2, seed=2)
    with pytest.raises(ValueError):
        covid_experiment(panel, 5, 1)
    with pytest.raises(ValueError):
        covid_experiment(panel, 2, 0)
    with pytest.raises(ValueError):
        covid_experiment(panel, 2, 100)


def test_experiment_takes_a_nested_list_and_rejects_non_finite_entries():
    panel = piecewise_linear_panel(entities=4, days=6, regimes=2, seed=4)
    rows = panel.tolist()
    got, want = covid_experiment(rows, 2, 1), covid_experiment(panel, 2, 1)
    assert got.stacked_rel_error == want.stacked_rel_error
    assert np.array_equal(got.stacked_recon, want.stacked_recon)
    rows[2][3] = np.inf
    with pytest.raises(ValueError, match="^panel contains non-finite entries$"):
        covid_experiment(rows, 2, 1)


def test_loader_accepts_iso_and_compact_dates_in_one_file(tmp_path):
    rows = _linear_counts(["CA", "NY"], 4)
    for n, row in enumerate(rows):
        if n % 2:
            row[0] = row[0].replace("-", "")
    path = _write_counts(tmp_path / "mixed.csv", rows)
    mixed = load_state_counts(path, START, 4, states=["CA", "NY"])
    iso = load_state_counts(
        _write_counts(tmp_path / "iso.csv", _linear_counts(["CA", "NY"], 4)),
        START, 4, states=["CA", "NY"],
    )
    assert np.array_equal(mixed.positives, iso.positives)
    assert np.array_equal(mixed.tests, iso.tests)

    # The two spellings of one day name the same cell.
    again = [START.strftime("%Y%m%d"), "CA", "1", "2"]
    path = _write_counts(tmp_path / "twice.csv", _linear_counts(["CA"], 4) + [again])
    with pytest.raises(DataError, match="duplicate row for state CA on 2020-05-17"):
        load_state_counts(path, START, 4, states=["CA"])


def test_unparseable_date_matters_only_on_requested_rows(tmp_path):
    rows = _linear_counts(["CA"], 3) + [["17/05/2020", "ZZ", "1", "2"]]
    counts = load_state_counts(_write_counts(tmp_path / "a.csv", rows), START, 3,
                               states=["CA"])
    assert counts.entities == ("CA",)

    rows = _linear_counts(["CA"], 3) + [["17/05/2020", "CA", "1", "2"]]
    with pytest.raises(DataError, match="unparseable date '17/05/2020'"):
        load_state_counts(_write_counts(tmp_path / "b.csv", rows), START, 3,
                          states=["CA"])


def test_short_rows_leave_gaps_and_extra_columns_are_ignored(tmp_path):
    rows = _linear_counts(["CA"], 3)
    gap_day = rows[5][0]
    rows[5] = rows[5][:3]  # no totalTestResults field at all
    rows[6] = rows[6][:2]  # neither count
    path = _write_counts(tmp_path / "short.csv", rows)
    with pytest.raises(DataError, match=f"missing counts for CA {gap_day}, CA "):
        load_state_counts(path, START, 3, states=["CA"])

    plain = load_state_counts(
        _write_counts(tmp_path / "p.csv", _linear_counts(["CA"], 3)), START, 3,
        states=["CA"],
    )
    rows = [row + ["extra", "7"] for row in _linear_counts(["CA"], 3)]
    wide = load_state_counts(_write_counts(tmp_path / "w.csv", rows), START, 3,
                             states=["CA"])
    assert np.array_equal(wide.positives, plain.positives)
    assert np.array_equal(wide.tests, plain.tests)


def test_gap_report_formats_only_the_cells_it_names(tmp_path):
    # One row over a 20,007-day window of ten states leaves 200,069 holes.
    # The loader holds only the cells that rows take and formats only the
    # ten holes it names, so its memory is bounded by the file, not by the
    # window: a table of the window's cells, at 16 bytes a cell, or a
    # string for every hole breaks the bound.
    path = tmp_path / "near-empty.csv"
    path.write_text("date,state,positive,totalTestResults\n2020-06-01,CA,1,2\n")
    states = ["CA", "NY", "TX", "WA", "OR", "NV", "AZ", "UT", "ID", "MT"]
    days = 20_000
    cells = len(states) * (days + covid.SMOOTH_WINDOW)
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as exc:
            load_state_counts(path, "2020-06-01", days, states=states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The window opens 7 days before the start, and the start is the one
    # filled day.
    first = dt.date(2020, 5, 25)
    shown = [first + dt.timedelta(days=i) for i in range(11) if i != 7]
    assert str(exc.value) == (
        "missing counts for " + ", ".join(f"CA {day.isoformat()}" for day in shown)
        + f" and {cells - 11} more"
    )
    assert peak < 2**20


def test_duplicate_rule_counts_rows_not_filled_cells(tmp_path):
    rows = _linear_counts(["CA"], 3)
    # A row whose counts are both empty fills nothing but still takes its
    # cell, so a later row for the same cell is a duplicate ...
    path = _write_counts(tmp_path / "a.csv", [[rows[0][0], "CA", "", ""]] + rows)
    with pytest.raises(DataError, match=r"duplicate row for state CA on .* \(line 3\)"):
        load_state_counts(path, START, 3, states=["CA"])
    # ... and so is any row after a filled one, even an empty one.
    path = _write_counts(tmp_path / "b.csv", rows + [[rows[0][0], "CA", "", ""]])
    with pytest.raises(DataError, match=r"duplicate row for state CA on .* \(line 12\)"):
        load_state_counts(path, START, 3, states=["CA"])


@pytest.mark.parametrize("text", ["inf", "-5", "nan"])
@pytest.mark.parametrize("column, field", [(2, "positive"), (3, "totalTestResults")])
def test_non_finite_and_negative_counts_are_data_errors(tmp_path, text, column, field):
    rows = _linear_counts(["CA", "NY"], 3)
    rows[5][column] = text
    path = _write_counts(tmp_path / "c.csv", rows)
    pattern = (rf"bad {field} value '{text}' for state {rows[5][1]} on "
               rf"{rows[5][0]} \(line 7\)")
    with pytest.raises(DataError, match=pattern):
        load_state_counts(path, START, 3, states=["CA", "NY"])


def test_error_line_numbers_are_physical_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("date,state,positive,totalTestResults\n\n2020-06-01,CA,x,5\n")
    with pytest.raises(DataError, match=r"bad positive value 'x' .* \(line 3\)"):
        load_state_counts(path, "2020-06-01", 1, states=["CA"])

    path = tmp_path / "quoted.csv"
    path.write_text(
        "date,state,positive,totalTestResults,note\n"
        '2020-05-31,CA,1,2,"two\nlines"\n'
        "2020-06-01,CA,3,y,\n"
    )
    with pytest.raises(DataError, match=r"bad totalTestResults value 'y' .* \(line 4\)"):
        load_state_counts(path, "2020-06-01", 1, states=["CA"])


def test_each_distinct_date_text_is_parsed_at_most_once(tmp_path, monkeypatch):
    rows = _linear_counts(["CA", "NY", "TX", "WA"], 20)
    rows += [[row[0], "ZZ", "1", "2"] for row in rows[:27]]
    random.Random(4).shuffle(rows)
    # Every third row spells its date compactly and some others drop the
    # zero padding, as in 2020-5-17: both canonical spellings are met, and
    # one that only strptime reads.
    unpadded = set()
    for n, row in enumerate(rows):
        if n % 3 == 0:
            row[0] = row[0].replace("-", "")
        elif n % 4 == 1:
            day = dt.date.fromisoformat(row[0])
            row[0] = f"{day.year}-{day.month}-{day.day}"
            unpadded.add(row[0])
    # The csv writer ends lines with CRLF, so the csv module reads that file
    # from its header; the comma split reads the LF one throughout.  The
    # third has a quote in its last row: in chunks of 256 characters the
    # comma split takes the rows before it, then the csv module reads on
    # from the chunk that holds it, and must not parse a date text again.
    lines = _lf_lines(rows)
    date, code, pos, tst = rows[-1]
    files = {"crlf": _write_counts(tmp_path / "c.csv", rows)}
    for name, text in (("lf", lines),
                       ("quote-last", lines[:-1] + [f'{date},"{code}",{pos},{tst}\n'])):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("".join(text), newline="")
    assert len("".join(lines)) > 10 * 256
    wanted = {"CA", "NY", "TX"}
    texts = {row[0] for row in rows if row[1] in wanted}
    distinct = len(texts)

    calls = []
    real = covid._parse_date

    def counting(text):
        calls.append(text)
        return real(text)

    # datetime.strptime hands every call to the _strptime module.
    strptime_calls = []
    real_strptime = _strptime._strptime

    def counting_strptime(text, fmt):
        strptime_calls.append(text)
        return real_strptime(text, fmt)

    monkeypatch.setattr(covid, "_parse_date", counting)
    monkeypatch.setattr(_strptime, "_strptime", counting_strptime)
    monkeypatch.setattr(covid, "_CHUNK", 256)
    assert texts & unpadded
    for name, path in files.items():
        calls.clear()
        strptime_calls.clear()
        counts = load_state_counts(path, START, 20, states=sorted(wanted))
        assert counts.positives.shape == (3, 27), name
        assert 0 < len(calls) <= distinct, name
        # The canonical spellings never reach strptime; each other one
        # does, once.
        assert sorted(strptime_calls) == sorted(texts & unpadded), name


def test_a_byte_order_mark_before_the_header_is_ignored(tmp_path):
    rows = _linear_counts(["CA", "NY"], 4)
    plain = load_state_counts(_write_counts(tmp_path / "p.csv", rows), START, 4,
                              states=["CA", "NY"])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "p.csv").read_bytes())
    marked = load_state_counts(bom, START, 4, states=["CA", "NY"])
    assert np.array_equal(marked.positives, plain.positives)
    assert np.array_equal(marked.tests, plain.tests)


_FIELDS = ("positive", "totalTestResults")
_DEFAULT_CHUNK = covid._CHUNK


def _reference_counts(path, start, days, codes):
    """The loader's contract written out plainly: every row in file order,
    every date parsed where the state is requested, no caches."""
    first = start - dt.timedelta(days=7)
    dates = [first + dt.timedelta(days=j) for j in range(days + 7)]
    positives = np.full((len(codes), len(dates)), np.nan)
    tests = np.full((len(codes), len(dates)), np.nan)
    taken = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in ("date", "state") + _FIELDS if c not in header]
        if missing:
            raise DataError(f"CSV is missing required columns: {', '.join(missing)}")
        where = {name: j for j, name in enumerate(header)}
        columns = [where[c] for c in ("date", "state") + _FIELDS]
        for row in reader:
            if not row:
                continue
            row = row + [""] * (max(columns) + 1 - len(row))
            date_text, code, *values = (row[j] for j in columns)
            code = code.strip()
            if code not in codes:
                continue
            date_text = date_text.strip()
            day = None
            for fmt in ("%Y-%m-%d", "%Y%m%d"):
                try:
                    day = dt.datetime.strptime(date_text, fmt).date()
                    break
                except ValueError:
                    pass
            if day is None:
                raise DataError(
                    f"unparseable date {date_text!r}, want YYYY-MM-DD or YYYYMMDD"
                )
            if day not in dates:
                continue
            i, j = codes.index(code), dates.index(day)
            cell = f"state {code} on {day.isoformat()} (line {reader.line_num})"
            if (i, j) in taken:
                raise DataError(f"duplicate row for {cell}")
            taken.add((i, j))
            for field, value, target in zip(_FIELDS, values, (positives, tests)):
                value = value.strip()
                if not value:
                    continue
                try:
                    count = float(value)
                except ValueError:
                    count = math.nan
                if not (math.isfinite(count) and count >= 0.0):
                    raise DataError(f"bad {field} value {value!r} for {cell}; "
                                    f"a count must be a finite number >= 0")
                target[i, j] = count
    gaps = [f"{codes[i]} {dates[j].isoformat()}"
            for i in range(len(codes)) for j in range(len(dates))
            if math.isnan(positives[i, j]) or math.isnan(tests[i, j])]
    if gaps:
        more = f" and {len(gaps) - 10} more" if len(gaps) > 10 else ""
        raise DataError(f"missing counts for {', '.join(gaps[:10])}{more}")
    return positives, tests


def _random_counts_csv(rng, path, codes, days):
    """A shuffled counts file for ``codes`` over the window of ``days``
    output days plus rows around it, with faults at a random rate."""
    rate = rng.choice([0.0, 0.01, 0.05])
    extra = rng.random() < 0.5
    header = ["date", "state", "positive", "totalTestResults"] + (["note"] if extra else [])
    rng.shuffle(header)

    def date_text(off):
        day = START + dt.timedelta(days=off)
        return day.strftime(rng.choice(["%Y-%m-%d", "%Y%m%d"]))

    def count_text(value):
        if rng.random() < rate:
            return rng.choice(["", "x", "-1", "inf", "nan", "1e400", "--3"])
        text = rng.choice([f"{value:.1f}", str(int(value)), f"{value:.6e}"])
        if rng.random() < 0.05:
            text = "-0"
        return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " "])

    def record(off, code, pos, tst):
        note = rng.choice(["", "n", "two\nlines", 'say "hi"'])
        cells = {"date": date_text(off), "state": code, "positive": count_text(pos),
                 "totalTestResults": count_text(tst), "note": note}
        return [cells[name] for name in header]

    rows = []
    for code in codes:
        spelled = rng.choice([code, f" {code}", f"{code} ", f"\t{code}"])
        for off in range(-9, days + 2):
            if rng.random() < rate:
                continue
            tst = 1000.0 * (off + 12) + rng.randrange(100)
            rows.append(record(off, spelled, tst * rng.uniform(0.0, 0.3), tst))
            if rng.random() < rate:
                rows.append(record(off, code, 1.0, 2.0))
    for _ in range(rng.randrange(8)):
        rows.append(record(rng.randrange(-9, days + 2), rng.choice(["ZZ", "PR", "ca"]),
                           1.0, 2.0))
    for _ in range(rng.randrange(3)):
        bad = [rng.choice(["17/05/2020", "2020-13-01", "", "20200230", "May 17"]),
               rng.choice(["ZZ", "PR"] + (list(codes) if rng.random() < rate * 10 else [])),
               "1", "2"]
        rows.append([dict(zip(("date", "state", "positive", "totalTestResults"), bad))
                     .get(name, "") for name in header])
    for _ in range(rng.randrange(3)):
        rows.append([])
    for _ in range(rng.randrange(3) if rate else 0):
        rows.append(record(0, rng.choice(codes), 1.0, 2.0)[: rng.randrange(1, 4)])
    if extra:
        rows += [record(0, "ZZ", 1.0, 2.0) + ["surplus", "7"]]
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=rng.choice(["\r\n", "\n"]))
        writer.writerow(header)
        writer.writerows(rows)


def test_loader_matches_a_plain_reference_on_random_files(tmp_path, monkeypatch):
    # Files end their lines with LF or CRLF, and those with a note column
    # hold quotes, so the comma split and the csv module both read them;
    # each file is loaded with every chunk size, so the chunk at which the
    # csv module starts over falls at every kind of place in a line.
    rng = random.Random(2020)
    outcomes = {"loaded": 0, "refused": 0}
    for case in range(150):
        codes = tuple(rng.sample(["CA", "NY", "TX", "WA"], rng.randrange(1, 4)))
        days = rng.randrange(1, 5)
        path = tmp_path / f"c{case}.csv"
        _random_counts_csv(rng, path, codes, days)
        try:
            want = _reference_counts(path, START, days, codes)
        except DataError as exc:
            want = str(exc)
        for chunk in (1, 7, 4096, _DEFAULT_CHUNK):
            monkeypatch.setattr(covid, "_CHUNK", chunk)
            if isinstance(want, str):
                with pytest.raises(DataError) as err:
                    load_state_counts(path, START, days, states=codes)
                assert str(err.value) == want, (case, chunk)
                continue
            got = load_state_counts(path, START, days, states=codes)
            assert got.positives.tobytes() == want[0].tobytes(), (case, chunk)
            assert got.tests.tobytes() == want[1].tobytes(), (case, chunk)
        outcomes["refused" if isinstance(want, str) else "loaded"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def _lf_lines(rows, header=("date", "state", "positive", "totalTestResults")):
    """The file's physical lines, header first, each ended by LF."""
    return [",".join(row) + "\n" for row in [list(header)] + rows]


@pytest.mark.parametrize("chunk", [256, _DEFAULT_CHUNK])
@pytest.mark.parametrize("fault", ["quote", "nul", "lone-cr", "crlf"])
def test_a_later_chunk_that_needs_the_csv_module_keeps_line_numbers(
    tmp_path, monkeypatch, chunk, fault
):
    # About 100 KB of LF lines.  Line 2,501, past the first 64 KiB, holds
    # what only the csv module reads, and line 2,601 a bad count.
    monkeypatch.setattr(covid, "_CHUNK", chunk)
    codes = ["CA", "NY", "TX", "WA"]
    rows = _linear_counts(codes, 750)
    lines = _lf_lines(rows)
    k, bad = 2500, 2600
    assert len("".join(lines[:k])) > _DEFAULT_CHUNK
    shift = 0
    if fault == "quote":
        date, code, pos, tst = rows[k - 1]
        lines[k] = f'{date},"{code}",{pos},{tst}\n'
    elif fault == "nul":
        lines[k] = lines[k][:-1] + ",a\0b\n"
    elif fault == "lone-cr":
        # A lone CR ends a physical line, so every later line number is
        # one more than the count of LFs before it.
        lines[k] = lines[k][:-1] + ",\rnote\n"
        shift = 1
    else:
        lines[k:] = [line[:-1] + "\r\n" for line in lines[k:]]
    path = tmp_path / "c.csv"
    path.write_text("".join(lines), newline="")
    want = load_state_counts(_write_counts(tmp_path / "ref.csv", rows), START, 750,
                             states=codes)
    got = load_state_counts(path, START, 750, states=codes)
    assert got.positives.tobytes() == want.positives.tobytes()
    assert got.tests.tobytes() == want.tests.tobytes()

    date, code, pos, tst = rows[bad - 1]
    lines[bad] = lines[bad].replace(f",{pos},", ",x,")
    path.write_text("".join(lines), newline="")
    with pytest.raises(DataError) as exc:
        load_state_counts(path, START, 750, states=codes)
    assert str(exc.value) == (
        f"bad positive value 'x' for state {code} on {date} (line {bad + 1 + shift}); "
        f"a count must be a finite number >= 0"
    )


def test_a_field_over_the_limit_across_chunks_names_its_line(tmp_path):
    # The field starts some 61 KB into the first chunk and ends in the third.
    rows = _linear_counts(["CA", "NY", "TX"], 600)
    lines = _lf_lines(rows)
    k = 1700
    start = len("".join(lines[:k])) + len("".join(rows[k - 1][:2])) + 2
    assert 0 < start < _DEFAULT_CHUNK < start + 131_073
    rows[k - 1][2] = "9" * 131_073
    lines[k] = ",".join(rows[k - 1]) + "\n"
    path = tmp_path / "c.csv"
    path.write_text("".join(lines), newline="")
    with pytest.raises(DataError) as exc:
        load_state_counts(path, START, 600, states=["CA", "NY", "TX"])
    assert str(exc.value) == (
        f"malformed CSV at line {k + 1}: field larger than field limit (131072)"
    )


def _load_peak(path, codes) -> int:
    tracemalloc.start()
    try:
        load_state_counts(path, "2020-06-01", 150, states=codes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("line", [2, 40_881], ids=["line-2", "last-line"])
def test_a_quote_costs_no_memory_over_a_quote_free_load(tmp_path, line):
    # The benchmark's size: 56 codes over 730 days, 40,880 LF rows.  A
    # quoted state on line 2 sends the whole file through the csv module,
    # which should then hold no more than the comma split does: not the
    # first chunk at 4 bytes a character, nor that chunk split into lines.
    # On the last line, the comma split has taken every earlier row before
    # the csv module takes over.
    codes = list(covid.US_STATE_CODES) + ["AS", "DC", "GU", "MP", "PR", "VI"]
    rows = _linear_counts(codes, 723)
    assert len(rows) == 40_880
    lines = _lf_lines(rows)
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(lines), newline="")
    date, code, pos, tst = rows[line - 2]
    lines[line - 1] = f'{date},"{code}",{pos},{tst}\n'
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("".join(lines), newline="")
    states = list(covid.US_STATE_CODES)
    # A first load outside the trace takes the one-time allocations.
    want = load_state_counts(plain, "2020-06-01", 150, states=states)
    got = load_state_counts(quoted, "2020-06-01", 150, states=states)
    assert got.positives.tobytes() == want.positives.tobytes()
    margin = 16 * 1024
    assert _load_peak(quoted, states) <= _load_peak(plain, states) + margin


@pytest.mark.parametrize("chunk", [7, _DEFAULT_CHUNK])
def test_the_field_limit_is_read_when_the_load_starts(tmp_path, monkeypatch, chunk):
    # Under a 20-character limit every data line is over the limit, yet
    # no field is, so the file loads as it does at the default limit; a
    # 21-character field on line 9 is refused there.  Under a 40-character
    # limit the data lines are not over it, and a 41-character line that
    # is one field is refused.
    monkeypatch.setattr(covid, "_CHUNK", chunk)
    rows = _linear_counts(["CA", "NY"], 3)
    path = tmp_path / "c.csv"
    path.write_text("".join(_lf_lines(rows)), newline="")
    want = load_state_counts(path, START, 3, states=["CA", "NY"])
    lines = _lf_lines(rows)
    lines[8] = "x" * 41 + "\n"
    (tmp_path / "bare.csv").write_text("".join(lines), newline="")
    rows[7][3] = rows[7][3].rjust(21, "0")
    (tmp_path / "long.csv").write_text("".join(_lf_lines(rows)), newline="")
    old = csv.field_size_limit(20)
    try:
        got = load_state_counts(path, START, 3, states=["CA", "NY"])
        errors = []
        for name, limit in (("long.csv", 20), ("bare.csv", 40)):
            csv.field_size_limit(limit)
            with pytest.raises(DataError) as exc:
                load_state_counts(tmp_path / name, START, 3, states=["CA", "NY"])
            errors.append(str(exc.value))
    finally:
        csv.field_size_limit(old)
    assert got.positives.tobytes() == want.positives.tobytes()
    assert got.tests.tobytes() == want.tests.tobytes()
    assert errors == [f"malformed CSV at line 9: field larger than field limit ({n})"
                      for n in (20, 40)]
    # At the default limit the long field is a count like any other.
    assert load_state_counts(tmp_path / "long.csv", START, 3,
                             states=["CA", "NY"]).tests.tobytes() == want.tests.tobytes()


@pytest.mark.parametrize("chunk", [7, _DEFAULT_CHUNK])
@pytest.mark.parametrize("bad, reason", [(b"\xff", "invalid start byte"),
                                         (b"\xe2\x82", "invalid continuation byte")],
                         ids=["ff", "e2-82"])
@pytest.mark.parametrize("line, bom", [(2, b""), (4002, b"\xef\xbb\xbf")],
                         ids=["line-2", "line-4002-bom"])
def test_invalid_utf8_is_named_by_its_file_byte_offset(
    tmp_path, monkeypatch, chunk, bad, reason, line, bom
):
    # The bad bytes replace the date's fourth character on ``line``: on line
    # 4,002 that is past the first 64 KiB, after a byte-order mark.
    monkeypatch.setattr(covid, "_CHUNK", chunk)
    codes = ["CA", "NY", "TX", "WA"]
    lines = _lf_lines(_linear_counts(codes, 1000))
    offset = len(bom) + len("".join(lines[: line - 1])) + 3
    assert (line == 2) == (offset < _DEFAULT_CHUNK)
    data = bom + "".join(lines).encode()
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    assert load_state_counts(path, START, 1000, states=codes).positives.shape == (4, 1007)
    path.write_bytes(data[:offset] + bad + data[offset + 1 :])
    with pytest.raises(DataError) as exc:
        load_state_counts(path, START, 1000, states=codes)
    assert str(exc.value) == (
        f"CSV is not UTF-8: can't decode byte 0x{bad[0]:02x}: {reason} (byte offset {offset})"
    )


@pytest.mark.parametrize("chunk", [1, 7, _DEFAULT_CHUNK])
@pytest.mark.parametrize("place", ["header-bom", "after-quote", "eof"])
def test_invalid_utf8_in_the_header_after_a_quote_and_at_eof(
    tmp_path, monkeypatch, chunk, place
):
    # In the header after a byte-order mark; right after a quoted field on
    # line 4,002, past the first 64 KiB, where the csv module takes over;
    # and a 4-byte sequence cut short at the end.
    monkeypatch.setattr(covid, "_CHUNK", chunk)
    codes = ["CA", "NY", "TX", "WA"]
    lines = _lf_lines(_linear_counts(codes, 1000))
    bom = b"\xef\xbb\xbf" if place == "header-bom" else b""
    if place == "after-quote":
        date, code, rest = lines[4001].split(",", 2)
        lines[4001] = f'{date},"{code}",{rest}'
    data = bom + "".join(lines).encode()
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    assert load_state_counts(path, START, 1000, states=codes).positives.shape == (4, 1007)
    if place == "header-bom":
        offset, bad, reason = 8, b"\xff", "invalid start byte"
    elif place == "after-quote":
        offset = len("".join(lines[:4001])) + len(date) + 5
        assert offset > _DEFAULT_CHUNK and data[offset - 1 : offset] == b'"'
        bad, reason = b"\xe2\x82", "invalid continuation byte"
    else:
        offset, bad, reason = len(data), b"\xf0\x9f\x98", "unexpected end of data"
    path.write_bytes(data[:offset] + bad + data[offset:])
    with pytest.raises(DataError) as exc:
        load_state_counts(path, START, 1000, states=codes)
    assert str(exc.value) == (
        f"CSV is not UTF-8: can't decode byte 0x{bad[0]:02x}: {reason} (byte offset {offset})"
    )


def test_a_bad_count_before_the_hand_over_is_named_before_a_later_bad_byte(tmp_path):
    # A quote on line 1,901 hands the second 64 KiB chunk to the csv module.
    # Line 3,201 of that chunk holds a bad count, and a bad byte lies in the
    # block after it: the line the chunk ends in is completed from the
    # file, which decodes that block, only once the rows before it are read.
    codes = ["CA", "NY", "TX", "WA"]
    rows = _linear_counts(codes, 1000)
    rows[1899][1] = f'"{rows[1899][1]}"'
    rows[3199][2] = "-5"
    lines = _lf_lines(rows)
    data = "".join(lines).encode()
    offset = len("".join(lines[:3201])) + 20_000
    assert len("".join(lines[:1901])) > _DEFAULT_CHUNK
    (tmp_path / "c.csv").write_bytes(data[:offset] + b"\xff" + data[offset:])
    with pytest.raises(DataError, match=r"bad positive value '-5' .* \(line 3201\)"):
        load_state_counts(tmp_path / "c.csv", START, 1000, states=codes)


def test_a_pipe_gets_the_decoders_message():
    # A pipe has no file offset to name the bad byte by: the message is the
    # decoder's, whose position counts from the start of the block it was
    # handed, here the whole file.
    data = bytearray("".join(_lf_lines(_linear_counts(["CA"], 190))).encode())
    assert 5000 < len(data) < 8192
    data[5000] = 0xFF
    read, write = os.pipe()
    try:
        os.write(write, bytes(data))
        os.close(write)
        with pytest.raises(DataError) as exc:
            load_state_counts(f"/dev/fd/{read}", START, 190, states=["CA"])
    finally:
        os.close(read)
    assert str(exc.value) == (
        "'utf-8' codec can't decode byte 0xff in position 5000: invalid start byte"
    )


def _strptime_route(text):
    """The date parse written plainly: strptime with the format the text's
    dash picks."""
    text = text.strip()
    fmt = "%Y-%m-%d" if "-" in text else "%Y%m%d"
    try:
        return dt.datetime.strptime(text, fmt).date()
    except ValueError:
        raise DataError(
            f"unparseable date {text!r}, want YYYY-MM-DD or YYYYMMDD"
        ) from None


def test_parse_date_matches_the_strptime_route():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # Leap and common years around the century rules, year 0 and the last
    # one; months and days just outside their ranges; and any 2 digits.
    years = st.sampled_from(["0000", "0001", "1900", "2000", "2020", "2021", "9999"])
    months = st.sampled_from(["00", "01", "02", "09", "10", "12", "13", "19"])
    days = st.sampled_from(["00", "01", "09", "28", "29", "30", "31", "32"])
    anyway = st.integers(0, 99).map("{:02d}".format)
    # Arabic-Indic and fullwidth digits, which strptime's \d also reads.
    foreign = st.sampled_from(["\u0660", "\uff10"])
    spaces = st.sampled_from(["", " ", "\t", "\u3000", " \n"])

    @st.composite
    def texts(draw):
        year = draw(years | st.integers(0, 9999).map("{:04d}".format))
        month, day = draw(months | anyway), draw(days | anyway)
        text = draw(st.sampled_from([f"{year}{month}{day}", f"{year}-{month}-{day}",
                                     f"{year}-{month.lstrip('0')}-{day}",
                                     f"{year}{month}{day[1:]}"]))
        for _ in range(draw(st.integers(0, 2))):
            j = draw(st.integers(0, len(text) - 1))
            if text[j].isdigit():
                text = text[:j] + chr(ord(draw(foreign)) + int(text[j])) + text[j + 1:]
        return draw(spaces) + text + draw(spaces)

    outcomes = {"parsed": 0, "refused": 0}

    @hyp.settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @hyp.given(texts() | st.text(alphabet="0123456789- \u0661", max_size=12))
    def check(text):
        try:
            want = _strptime_route(text)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                covid._parse_date(text)
            assert str(err.value) == str(exc)
            outcomes["refused"] += 1
            return
        assert covid._parse_date(text) == want
        outcomes["parsed"] += 1

    check()
    assert min(outcomes.values()) >= 50, outcomes


def test_fuzzed_headers_read_the_last_required_columns_or_name_the_missing(tmp_path):
    # The four required columns, some of them dropped, shuffled among extra
    # ones, with one name repeated and with or without a byte-order mark.
    # Cells of a column the loader must not read hold decoys that would
    # change or refuse the load, so a load equal to the canonical one shows
    # that each required name was read from its last occurrence.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    required = ("date", "state", "positive", "totalTestResults")
    decoy = {"date": "not a date", "state": "ZZ", "positive": "-1", "totalTestResults": "-1"}
    codes = ["CA", "NY"]
    rows = _linear_counts(codes, 3)
    want = load_state_counts(_write_counts(tmp_path / "c.csv", rows), START, 3, states=codes)
    canonical = dict(zip(required, zip(*rows)))

    @st.composite
    def headers(draw):
        missing = draw(st.one_of(st.just([]), st.lists(st.sampled_from(required),
                                                        unique=True, min_size=1)))
        extras = draw(st.lists(st.text(max_size=12).filter(lambda s: s not in required),
                               max_size=4))
        names = [c for c in required if c not in missing] + extras
        if names:
            names.append(draw(st.sampled_from(names)))
        names = draw(st.permutations(names))
        filler = {name: draw(st.text(max_size=8)) for name in extras}
        return names, filler, draw(st.booleans())

    outcomes = {"loaded": 0, "refused": 0}

    @hyp.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hyp.given(headers())
    def check(case):
        names, filler, bom = case
        # A file that opens with U+FEFF has a byte-order mark, whether or
        # not the first name was meant to start with one.
        seen = list(names)
        if seen and not bom and seen[0].startswith("\ufeff"):
            seen[0] = seen[0][1:]
        last = {name: j for j, name in enumerate(seen)}

        def cell(j, i):
            name = seen[j]
            if name in required:
                return canonical[name][i] if last[name] == j else decoy[name]
            return filler.get(names[j], "")

        path = tmp_path / "f.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("\ufeff" if bom else "")
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows([cell(j, i) for j in range(len(names))] for i in range(len(rows)))
        missing = [c for c in required if c not in last]
        if missing:
            with pytest.raises(DataError) as err:
                load_state_counts(path, START, 3, states=codes)
            assert str(err.value) == f"CSV is missing required columns: {', '.join(missing)}"
            outcomes["refused"] += 1
            return
        got = load_state_counts(path, START, 3, states=codes)
        assert got.entities == want.entities and got.start == want.start
        assert got.positives.tobytes() == want.positives.tobytes()
        assert got.tests.tobytes() == want.tests.tobytes()
        outcomes["loaded"] += 1

    check()
    assert min(outcomes.values()) >= 10, outcomes
