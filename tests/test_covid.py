"""Positivity-panel loading, smoothing, and the stacking experiment."""

import _strptime
import csv
import datetime as dt
import math
import random

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
        assert np.allclose(cumulative.matrix[i], rate, atol=1e-12)
        assert np.allclose(daily.matrix[i], rate, atol=1e-12)


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
    assert np.allclose(panel.matrix[0], expect, atol=1e-12)


def test_zero_and_nonincreasing_test_counts_are_data_errors(tmp_path):
    rows = _linear_counts(["CA"], 3)
    rows[1][3] = "0"
    path = _write_counts(tmp_path / "z.csv", rows)
    with pytest.raises(DataError, match="zero cumulative tests"):
        positivity_and_smooth(load_state_counts(path, START, 3, states=["CA"]))

    rows = _linear_counts(["CA"], 3)
    rows[3][3] = rows[2][3]  # repeated cumulative count: zero increment
    path = _write_counts(tmp_path / "flat.csv", rows)
    counts = load_state_counts(path, START, 3, states=["CA"])
    with pytest.raises(DataError, match="non-increasing"):
        positivity_and_smooth(counts, rate_mode="daily")
    # cumulative mode tolerates a flat day
    positivity_and_smooth(counts, rate_mode="cumulative")


def test_normalization_scales_each_row_to_unit_peak(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA", "NY"], 5))
    raw = _timeseries(path, START, 5, states=["CA", "NY"], normalize=False)
    scaled = _timeseries(path, START, 5, states=["CA", "NY"])
    assert np.allclose(scaled.matrix.max(axis=1), 1.0, atol=1e-15)
    ratio = raw.matrix / scaled.matrix
    assert np.allclose(ratio, ratio[:, :1], atol=1e-12)


def test_rate_mode_is_validated(tmp_path):
    path = _write_counts(tmp_path / "c.csv", _linear_counts(["CA"], 3))
    counts = load_state_counts(path, START, 3, states=["CA"])
    with pytest.raises(ValueError):
        positivity_and_smooth(counts, rate_mode="weekly")


def test_synthetic_panel_is_deterministic_and_in_range():
    a = piecewise_linear_panel()
    b = piecewise_linear_panel()
    assert np.array_equal(a.matrix, b.matrix)
    assert a.matrix.shape == (50, 150)
    assert a.entities[0] == "s00" and len(a.entities) == 50
    assert a.matrix.min() >= 0.2 and a.matrix.max() <= 0.8
    c = piecewise_linear_panel(seed=7)
    assert not np.array_equal(a.matrix, c.matrix)


def test_synthetic_panel_rows_are_affine_within_regimes():
    panel = piecewise_linear_panel(entities=4, days=30, regimes=3, seed=5)
    for r in range(3):
        block = panel.matrix[:, r * 10 : (r + 1) * 10]
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
    assert rep.groups == 3 and rep.rank == 2
    assert rep.plain_parameters == 2 * (10 + 30)
    assert rep.stacked_parameters == 2 * (30 + 10)
    assert rep.plain_recon.shape == (10, 30)
    assert rep.stacked_recon.shape == (10, 30)
    # the stacked error can be measured in either layout; entry movement
    # does not change Frobenius distances
    stacked = stack_column_groups(panel.matrix, 3)
    err_direct = relative_error(panel.matrix, rep.stacked_recon)
    assert err_direct == pytest.approx(rep.stacked_rel_error, rel=1e-9, abs=1e-12)
    assert rep.plain_rel_error == pytest.approx(
        relative_error(panel.matrix, rep.plain_recon), rel=1e-12
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
    # Every third row spells its date compactly, so both formats are met.
    for row in rows[::3]:
        row[0] = row[0].replace("-", "")
    path = _write_counts(tmp_path / "c.csv", rows)
    wanted = {"CA", "NY", "TX"}
    distinct = len({row[0] for row in rows if row[1] in wanted})

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
    counts = load_state_counts(path, START, 20, states=sorted(wanted))
    assert counts.positives.shape == (3, 27)
    assert 0 < len(calls) <= distinct
    assert len(strptime_calls) == len(set(strptime_calls)) == len(calls)


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
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_loader_matches_a_plain_reference_on_random_files(tmp_path):
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
            with pytest.raises(DataError) as err:
                load_state_counts(path, START, days, states=codes)
            assert str(err.value) == str(exc), case
            outcomes["refused"] += 1
            continue
        got = load_state_counts(path, START, days, states=codes)
        assert got.positives.tobytes() == want[0].tobytes(), case
        assert got.tests.tobytes() == want[1].tobytes(), case
        outcomes["loaded"] += 1
    assert min(outcomes.values()) >= 30, outcomes


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
