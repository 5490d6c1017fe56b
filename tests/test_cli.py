"""Command-line behavior: outputs, determinism, exit codes."""

import csv
import dataclasses
import datetime as dt
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import START, linear_counts, write_counts

import reorgsvd.cli as cli
import reorgsvd.core as core
import reorgsvd.covid as covid
from reorgsvd import (
    TridiagParams,
    certify_rank1_gap,
    load_gray_image,
    write_gray_image,
)


@pytest.fixture
def image_dir(tmp_path):
    rng = np.random.default_rng(51)
    d = tmp_path / "images"
    d.mkdir()
    tile = rng.uniform(0.3, 1.0, (4, 4))
    kron = np.kron(rng.uniform(0.2, 1.0, (8, 12)), tile)
    write_gray_image(kron / kron.max(), d / "kron.pgm")
    write_gray_image(rng.uniform(0, 1, (30, 20)), d / "noise.pgm")
    return d


def test_approx_plain_writes_report_and_images(image_dir, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        ["approx", str(image_dir / "kron.pgm"), "--ranks", "1,3", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "approx_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["method"] == "plain"
    assert [r["rank"] for r in report["records"]] == [1, 3]
    for rec in report["records"]:
        assert rec["parameters"] == rec["rank"] * (32 + 48)
        img = load_gray_image(out / rec["output_image"])
        assert img.shape == (32, 48)
    errs = [r["rel_error"] for r in report["records"]]
    assert errs[0] >= errs[1]


def test_approx_tiled_records_scheme_and_crops(image_dir, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "approx", str(image_dir / "noise.pgm"), "--method", "tiled",
            "--tile-rows", "7", "--tile-cols", "6", "--ranks", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "approx_report.json").read_text())
    assert report["tile"] == {
        "tile_rows": 7, "tile_cols": 6, "grid_rows": 4, "grid_cols": 3,
        "cropped_rows": 28, "cropped_cols": 18,
    }
    assert report["worked_rows"] == 42
    assert report["worked_cols"] == 12
    img = load_gray_image(out / report["records"][0]["output_image"])
    assert img.shape == (28, 18)


def test_approx_reruns_are_byte_identical(image_dir, tmp_path):
    args = ["approx", str(image_dir / "kron.pgm"), "--ranks", "2", "--out"]
    assert cli.main(args + [str(tmp_path / "a")]) == 0
    assert cli.main(args + [str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "approx_report.json").read_bytes()
    b = (tmp_path / "b" / "approx_report.json").read_bytes()
    assert a == b


def test_approx_usage_errors_exit_2(image_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["approx", str(image_dir / "kron.pgm"), "--out", "x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(
            ["approx", str(image_dir / "kron.pgm"), "--method", "tiled",
             "--ranks", "1", "--out", "x"]
        )
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(
            ["approx", str(image_dir / "kron.pgm"), "--tile", "4",
             "--tile-rows", "4", "--method", "tiled", "--ranks", "1", "--out", "x"]
        )
    assert err.value.code == 2
    # A tile size with the plain method is refused whichever flag gives it.
    for flag in ("--tile", "--tile-rows", "--tile-cols"):
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["approx", str(image_dir / "kron.pgm"), "--method", "plain", flag, "4",
                 "--ranks", "1", "--out", str(tmp_path / "o")]
            )
        assert err.value.code == 2
        assert "tile sizes only apply to --method tiled" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approx", "x.pgm", "--ranks", "1,x"], "expected comma-separated integers, got '1,x'"),
        (["approx", "x.pgm", "--ranks", ","], "expected at least one integer"),
        (["sweep", "d", "--tile-sizes", "4", "--targets", "0.1,y"],
         "expected comma-separated numbers, got '0.1,y'"),
        (["sweep", "d", "--tile-sizes", "4", "--targets", ","], "expected at least one number"),
        (["covid", "c.csv", "--start-date", "2020-06-01", "--states", ","],
         "argument --states: expected at least one state code"),
        # A repeated value would be swept, certified or reported twice; a
        # repeated target used to count each image's win once per repeat.
        (["approx", "x.pgm", "--ranks", "2,1,2"], "argument --ranks: repeated integer in '2,1,2'"),
        (["sweep", "d", "--tile-sizes", "4, 4", "--targets", "0.1"],
         "argument --tile-sizes: repeated integer in '4, 4'"),
        (["sweep", "d", "--tile-sizes", "4", "--targets", "0.1,0.10"],
         "argument --targets: repeated number in '0.1,0.10'"),
        (["covid", "c.csv", "--start-date", "2020-06-01", "--states", "CA,NY, CA"],
         "argument --states: repeated state code in 'CA,NY, CA'"),
        (["verify-theorem", "--sizes", "5,5"], "argument --sizes: repeated integer in '5,5'"),
    ],
)
def test_malformed_lists_exit_2(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_approx_data_errors_exit_1(image_dir, tmp_path, capsys):
    rc = cli.main(
        ["approx", str(image_dir / "missing.pgm"), "--ranks", "1", "--out",
         str(tmp_path / "o")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = cli.main(
        ["approx", str(image_dir / "kron.pgm"), "--ranks", "0", "--out",
         str(tmp_path / "o")]
    )
    assert rc == 1
    # kron.pgm is 32 x 48, so no rank above 32 exists.
    capsys.readouterr()
    rc = cli.main(
        ["approx", str(image_dir / "kron.pgm"), "--ranks", "2,33", "--out",
         str(tmp_path / "o")]
    )
    assert rc == 1
    assert "rank must be an integer in [1, 32], got 33" in capsys.readouterr().err


def test_approx_black_image_exits_1(tmp_path, capsys):
    write_gray_image(np.zeros((6, 5)), tmp_path / "black.pgm")
    rc = cli.main(["approx", str(tmp_path / "black.pgm"), "--ranks", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "relative error undefined for a zero matrix" in capsys.readouterr().err


def test_approx_builds_each_reconstruction_once(image_dir, tmp_path, monkeypatch):
    built = []
    real = cli.rank_k_approx

    def counting(f, k):
        built.append(k)
        return real(f, k)

    monkeypatch.setattr(cli, "rank_k_approx", counting)
    monkeypatch.setattr(core, "rank_k_approx", counting)
    rc = cli.main(["approx", str(image_dir / "kron.pgm"), "--ranks", "1,4,2",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert built == [1, 4, 2]


def test_sweep_parallel_output_matches_sequential(image_dir, tmp_path, monkeypatch):
    base = ["sweep", str(image_dir), "--tile-sizes", "4,5", "--targets", "0.1,0.3"]
    monkeypatch.delenv("RESHAPE_THREADS", raising=False)
    assert cli.main(base + ["--out", str(tmp_path / "seq.csv")]) == 0
    monkeypatch.setenv("RESHAPE_THREADS", "3")
    assert cli.main(base + ["--out", str(tmp_path / "par.csv")]) == 0
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()

    with open(tmp_path / "seq.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 images x 2 targets x (plain + 2 tile sizes)
    assert len(rows) == 12
    assert sorted({r["image"] for r in rows}) == ["kron.pgm", "noise.pgm"]
    for r in rows:
        assert int(r["parameters"]) == int(r["achieved_rank"]) * (
            int(r["rows"]) + int(r["cols"])
        )


def test_sweep_csv_columns_and_cell_text(tmp_path):
    # Entries are powers of two with one per column, one per 2x2 tile and a
    # distinct position in each tile, so the plain matrix and its 2x2
    # unfolding both have exactly orthogonal columns and sigma = 1, 1/2,
    # 1/4, 1/8 with no rounding; the 4x4 tile unfolds to one 16x1 column.
    d = tmp_path / "pin"
    d.mkdir()
    (d / "d.pgm").write_text("P2\n4 4\n8\n8 0 0 0\n0 0 2 0\n0 4 0 0\n0 0 0 1\n")
    out = tmp_path / "o.csv"
    rc = cli.main(["sweep", str(d), "--tile-sizes", "2,4", "--targets", "0.3",
                   "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines() == [
        "image,method,tile_rows,tile_cols,rows,cols,target_rel_error,"
        "achieved_rank,achieved_rel_error,parameters,winner",
        # rank 2 leaves sqrt((1/16 + 1/64) / (85/64)) = sqrt(1/17)
        "d.pgm,plain,,,4,4,0.29999999999999999,2,0.24253562503633297,16,true",
        "d.pgm,tiled,2,2,4,4,0.29999999999999999,2,0.24253562503633297,16,false",
        "d.pgm,tiled,4,4,16,1,0.29999999999999999,1,0,17,false",
    ]


def test_sweep_empty_directory_exits_1(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    rc = cli.main(["sweep", str(d), "--tile-sizes", "4", "--targets", "0.1",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "no .pgm files" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_sweep_rejects_bad_threads_value(image_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RESHAPE_THREADS", "many")
    rc = cli.main(["sweep", str(image_dir), "--tile-sizes", "4", "--targets", "0.1",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "RESHAPE_THREADS" in capsys.readouterr().err


def test_covid_command_end_to_end(tmp_path):
    path = write_counts(tmp_path / "c.csv", linear_counts(["CA", "NY", "TX"], 6))
    out = tmp_path / "out"
    rc = cli.main(
        ["covid", str(path), "--start-date", "2020-05-17", "--days", "6",
         "--states", "CA,NY,TX", "--groups", "3", "--rank", "1",
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "covid_report.json").read_text())
    assert report["states"] == ["CA", "NY", "TX"]
    assert report["plain"]["parameters"] == 1 * (3 + 6)
    assert report["stacked"]["parameters"] == 1 * (9 + 2)
    with open(out / "covid_series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 6
    assert rows[0]["state"] == "CA" and rows[0]["date"] == "2020-05-17"
    # constant-rate panel normalizes to all ones and is exactly rank 1
    assert float(rows[0]["actual"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0]["plain_recon"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spelled", ["20200517", " 2020-05-17"])
def test_covid_report_gives_the_start_date_as_the_series_does(tmp_path, spelled):
    # A compact or padded --start-date names the same day, and the report
    # writes that day as the series CSV does.
    path = write_counts(tmp_path / "c.csv", linear_counts(["CA", "NY"], 6))
    out = tmp_path / "out"
    rc = cli.main(["covid", str(path), "--start-date", spelled, "--days", "6",
                   "--states", "CA,NY", "--groups", "3", "--rank", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "covid_report.json").read_text())
    assert report["start_date"] == "2020-05-17"
    with open(out / "covid_series.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["date"] == "2020-05-17"


def test_covid_series_bytes_are_the_csv_modules_with_17_digit_floats(tmp_path):
    # Codes that need quoting, and counts that give no round numbers.
    rng = np.random.default_rng(61)
    codes = ['A"B', "NY", "TX", "A\nB"]
    rows = []
    for code in codes:
        tests = np.cumsum(rng.uniform(500.0, 1500.0, 13))
        for off, tst in zip(range(-7, 6), tests):
            day = (START + dt.timedelta(days=off)).isoformat()
            rows.append([day, code, f"{tst * rng.uniform(0.05, 0.3):.3f}", f"{tst:.1f}"])
    path = write_counts(tmp_path / "c.csv", rows)
    assert '"A""B"' in path.read_text()
    out = tmp_path / "out"
    rc = cli.main(["covid", str(path), "--start-date", START.isoformat(), "--days", "6",
                   "--states", ",".join(codes), "--groups", "3", "--rank", "1",
                   "--out", str(out)])
    assert rc == 0

    panel = covid.positivity_and_smooth(covid.load_state_counts(path, START, 6, states=codes))
    rep = covid.covid_experiment(panel, 3, 1)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state", "date", "actual", "plain_recon", "stacked_recon"])
    for i, code in enumerate(codes):
        for d in range(6):
            day = (START + dt.timedelta(days=d)).isoformat()
            values = (panel[i, d], rep.plain_recon[i, d], rep.stacked_recon[i, d])
            writer.writerow([code, day] + [format(float(x), ".17g") for x in values])
    written = (out / "covid_series.csv").read_bytes()
    assert written == buf.getvalue().encode("utf-8")
    assert written.splitlines()[1].startswith(b'"A""B",2020-05-17,')

    # The writer's "%.17g" gives format's text on every kind of float.
    for x in (-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, float("inf"), float("nan")):
        assert "%.17g" % x == format(x, ".17g")


def test_covid_bad_csv_exits_1(tmp_path, capsys):
    path = write_counts(tmp_path / "bad.csv", [], header=("date", "state"))
    rc = cli.main(["covid", str(path), "--start-date", "2020-05-17", "--days", "3",
                   "--states", "CA", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "missing required columns" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["9999-12-01", "0001-01-03"])
def test_covid_window_outside_the_calendar_exits_1(tmp_path, capsys, start):
    # The window runs from 7 days before the start to the last day; either
    # end past the last or before the first representable date is a data
    # error, not an OverflowError from the date arithmetic.
    path = write_counts(tmp_path / "c.csv", linear_counts(["CA"], 3))
    rc = cli.main(["covid", str(path), "--start-date", start, "--days", "100",
                   "--states", "CA", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: count window of 100 days from " + start)
    assert "outside the calendar" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["inf", "-5"])
def test_covid_bad_count_exits_1_naming_the_line(tmp_path, capsys, text):
    rows = linear_counts(["CA", "NY", "TX"], 3)
    rows[4][2] = text
    path = write_counts(tmp_path / "c.csv", rows)
    rc = cli.main(["covid", str(path), "--start-date", "2020-05-17", "--days", "3",
                   "--states", "CA,NY,TX", "--groups", "1", "--rank", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bad positive value '{text}' for state {rows[4][1]}" in err
    assert "(line 6)" in err


@pytest.mark.parametrize("where, line", [("header", 1), ("row", 3), ("multiline", 5)])
def test_covid_oversized_csv_field_exits_1_naming_the_line(tmp_path, capsys, where, line):
    # A field past the csv module's 131,072-character limit is bad data,
    # reported at the physical line it ends on, not a csv.Error traceback.
    big = "x" * 200_000
    header = ["date", "state", "positive", "totalTestResults"]
    rows = linear_counts(["CA"], 3)
    if where == "header":
        header.append(big)
    elif where == "row":
        rows[1][2] = big
    else:
        rows[1][2] = "1\n2\n" + big
    path = write_counts(tmp_path / "c.csv", rows, header=header)
    out = tmp_path / "o"
    rc = cli.main(["covid", str(path), "--start-date", "2020-05-17", "--days", "3",
                   "--states", "CA", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed CSV at line {line}: field larger than field limit (131072)\n"
    )
    assert not out.exists()


def test_verify_theorem_certifies_and_writes_report(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = cli.main(["verify-theorem", "--sizes", "5,12", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "n=5: certified" in printed and "n=12: certified" in printed
    report = json.loads(out.read_text())
    assert report["all_certified"] is True
    assert report["first_win_n"] == 5
    assert [r["n"] for r in report["reports"]] == [5, 12]
    assert all(r["violations"] == [] for r in report["reports"])


@pytest.mark.parametrize("gamma", ["1e100", "1e-100"])
def test_verify_theorem_certifies_at_extreme_scales(gamma, capsys):
    # The inverse's entries scale as 1 / gamma, so its squared norms leave
    # the float range unless the SVD scales its input first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["verify-theorem", "--sizes", "20", "--gamma", gamma])
    assert rc == 0
    assert "n=20: certified" in capsys.readouterr().out


@pytest.mark.parametrize("gamma", ["1e160", "1e-160"])
def test_verify_theorem_refuses_gamma_out_of_range(gamma, capsys):
    # The certificate's squares scale as 1 / gamma**2 and would leave the
    # float range: refused up front instead of a false violation or an
    # uncaught overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["verify-theorem", "--sizes", "20", "--gamma", gamma])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gamma" in err


def test_verify_theorem_violation_exits_3(monkeypatch, capsys):
    real = certify_rank1_gap(TridiagParams(0.5, 0.5, 1.0, 6))
    doctored = dataclasses.replace(real, top_singular_value=real.spectral_bound * 2)
    monkeypatch.setattr(cli, "certify_rank1_gap", lambda p: doctored)
    rc = cli.main(["verify-theorem", "--sizes", "6"])
    assert rc == 3
    assert "VIOLATED" in capsys.readouterr().out


def test_verify_theorem_invalid_size_exits_1(capsys):
    rc = cli.main(["verify-theorem", "--sizes", "1"])
    assert rc == 1
    assert "n >= 2" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment for a child ``python -m reorgsvd.cli``.  The child
    does not get pytest's ``pythonpath``, so the repo's ``src`` leads its
    PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "reorgsvd.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "approx" in proc.stdout and "verify-theorem" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "reorgsvd.cli"], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 2


def _cap_address_space():
    """Limit the child to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_verify_theorem_rejects_a_size_over_its_limit_before_any_output():
    # A dense 20000 x 20000 inverse does not fit in 1 GiB, and the size
    # before it is not certified first.
    proc = subprocess.run(
        [sys.executable, "-m", "reorgsvd.cli", "verify-theorem", "--sizes", "10,20000"],
        capture_output=True,
        text=True,
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_cap_address_space,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: certification needs n <= {cli._MAX_CERT_SIZE}, got 20000\n"


def _hostile_argv(case: str, d: Path) -> list[str]:
    """The command line of one hostile case, its input files written to
    ``d``."""
    image = str(d / "8x8.pgm")
    write_gray_image(np.linspace(0.1, 1.0, 64).reshape(8, 8), image)
    counts = d / "c.csv"
    if case == "non-utf8-csv":
        data = bytearray("".join(
            ",".join(row) + "\n"
            for row in [["date", "state", "positive", "totalTestResults"]]
            + linear_counts(["CA", "NY", "TX", "WA"], 1000)
        ).encode())
        data[100_003] = 0xFF
        counts.write_bytes(bytes(data))
    else:
        write_counts(counts, linear_counts(["CA"], 3))
    covid_args = ["covid", str(counts), "--states", "CA", "--out", str(d / "o")]
    if case == "p5-header-over-its-raster":
        path = d / "huge.pgm"
        path.write_bytes(b"P5\n100000 100000\n255\n" + bytes(100))
        return ["approx", str(path), "--ranks", "1", "--out", str(d / "o")]
    return {
        "covid-days-1e12": covid_args + ["--start-date", "2020-05-17",
                                         "--days", "1000000000000"],
        "covid-start-past-9999": covid_args + ["--start-date", "9999-12-30"],
        "tile-over-the-image": ["approx", image, "--method", "tiled", "--tile", "9",
                                "--ranks", "1", "--out", str(d / "o")],
        "ranks-1e21": ["approx", image, "--ranks", str(10**21), "--out", str(d / "o")],
        "sweep-targets-0": ["sweep", str(d), "--tile-sizes", "2", "--targets", "0",
                            "--out", str(d / "s.csv")],
        "gamma-1e308": ["verify-theorem", "--sizes", "10", "--gamma", "1e308"],
        "alpha-1": ["verify-theorem", "--sizes", "10", "--alpha", "1"],
        "non-utf8-csv": ["covid", str(counts), "--start-date", "2020-05-17",
                         "--days", "1000", "--states", "CA,NY,TX,WA", "--out", str(d / "o")],
    }[case]


@pytest.mark.parametrize("case, names", [
    ("p5-header-over-its-raster", "raster truncated"),
    ("covid-days-1e12", "1000000000000 days"),
    ("covid-start-past-9999", "9999-12-30"),
    ("tile-over-the-image", "9 x 9 tile"),
    ("ranks-1e21", str(10**21)),
    ("sweep-targets-0", "8x8.pgm: target must be in (0, 1), got 0.0"),
    ("gamma-1e308", "1e+308"),
    ("alpha-1", "|alpha|"),
    ("non-utf8-csv", "(byte offset 100003)"),
])
def test_hostile_input_exits_cleanly_under_a_memory_cap(tmp_path, case, names):
    # Each case runs in a child limited to 1 GiB of address space: it must
    # end with exit code 1 or 2 and one `error:` line that names what it
    # refuses, never a traceback.
    proc = subprocess.run(
        [sys.executable, "-m", "reorgsvd.cli", *_hostile_argv(case, tmp_path)],
        capture_output=True,
        text=True,
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_cap_address_space,
        timeout=120,
    )
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("error: ") and names in last, last


def test_approx_rejects_oversized_ascii_header_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2 1000000000 1000000000 255\n")
    tracemalloc.start()
    try:
        rc = cli.main(["approx", str(path), "--ranks", "1", "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: raster truncated")
    assert peak < 1 << 20


def test_worker_count_is_clamped_to_images_and_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("RESHAPE_THREADS", raising=False)
    assert cli._worker_count(10) == 1
    for raw, jobs, want in [("64", 10, 4), ("64", 3, 3), ("2", 10, 2), ("0", 10, 1),
                            ("-5", 10, 1), (" 3 ", 10, 3)]:
        monkeypatch.setenv("RESHAPE_THREADS", raw)
        assert cli._worker_count(jobs) == want, (raw, jobs)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    monkeypatch.setenv("RESHAPE_THREADS", "8")
    assert cli._worker_count(10) == 1


def test_sweep_pool_gets_the_clamped_worker_count(image_dir, tmp_path, monkeypatch):
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    monkeypatch.setenv("RESHAPE_THREADS", "1000")
    rc = cli.main(["sweep", str(image_dir), "--tile-sizes", "4", "--targets", "0.1",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    assert seen == [2]  # two images in the directory


def test_covid_series_rejects_non_finite_values(tmp_path, monkeypatch, capsys):
    path = write_counts(tmp_path / "c.csv", linear_counts(["CA", "NY", "TX"], 6))
    real = covid.rank_k_approx

    def poisoned(f, k):
        recon = real(f, k)
        recon[-1, -1] = np.inf
        return recon

    monkeypatch.setattr(covid, "rank_k_approx", poisoned)
    out = tmp_path / "o"
    rc = cli.main(["covid", str(path), "--start-date", "2020-05-17", "--days", "6",
                   "--states", "CA,NY,TX", "--groups", "3", "--rank", "1",
                   "--out", str(out)])
    assert rc == 1
    assert "error: approx contains non-finite entries" in capsys.readouterr().err
    assert not (out / "covid_series.csv").exists()


def test_parallel_sweep_reports_a_malformed_graymap_like_a_sequential_one(
    image_dir, tmp_path, monkeypatch, capsys
):
    # The worker's error must cross the process boundary intact and name
    # the image it came from.
    argv = ["sweep", str(image_dir), "--tile-sizes", "4", "--targets", "0.1",
            "--out", str(tmp_path / "o.csv")]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)

    def stderr_of_both_runs():
        monkeypatch.delenv("RESHAPE_THREADS", raising=False)
        assert cli.main(argv) == 1
        sequential = capsys.readouterr().err
        monkeypatch.setenv("RESHAPE_THREADS", "2")
        assert cli._worker_count(3) == 2
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == sequential
        return sequential

    # An all-black image has no relative error ...
    (image_dir / "black.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    assert stderr_of_both_runs() == (
        "error: black.pgm: relative error undefined for a zero matrix\n"
    )
    # ... and a malformed one, sorted before it, fails first.
    (image_dir / "bad.pgm").write_bytes(b"P2\n2 2\n9\n0 1 2 x\n")
    assert stderr_of_both_runs() == (
        "error: bad.pgm: sample 3 value is not an unsigned integer: b'x' (byte offset 15)\n"
    )


# Edge values for the hostile argument vectors, and valid values small
# enough that an accepted run is quick.
_EDGE = ["0", "-1", str(10**21), "1e308", "nan", "inf", ""]
_INTS = ["1", "2", "3", "4", "8", "12"]
_TARGETS = ["0.05", "0.2", "0.5", "0.9999"]
_PARAMS = ["0.5", "-0.5", "0.9999", "1e-100", "1e100", "0.3"]
_SIZES = ["2", "3", "10", "17", "40"]
_DATES = ["2020-05-17", "2020-05-20", "2020-05-10"]
_BAD_DATES = ["", "garbage", "2020-02-30", "0001-01-01", "9999-12-30"]


def _argv_strategies(st, d: Path):
    """Argument vectors for each subcommand, over the inputs written to
    ``d``: graymaps of at most 32 x 32, a counts CSV of 84 rows, garbage
    and missing files.  Each value is a valid one or a hostile one."""
    write_gray_image(np.linspace(0.1, 1.0, 32 * 32).reshape(32, 32), d / "images" / "a.pgm")
    write_gray_image(np.random.default_rng(17).random((12, 20)), d / "images" / "b.pgm")
    (d / "p2.pgm").write_bytes(b"P2 3 2 9\n1 2 3\n4 5 9\n")
    (d / "garbage").write_bytes(b"\x00\xffP5 nonsense\n" * 4)
    (d / "empty").mkdir()
    write_counts(d / "c.csv", linear_counts(["CA", "NY", "TX", "WA"], 14))
    hostile_files = [str(d / name) for name in ("garbage", "absent", "empty")] + [""]

    def value(valid, hostile=_EDGE):
        return st.one_of(st.sampled_from(valid), st.sampled_from(hostile))

    def listed(valid, hostile=_EDGE):
        return st.lists(value(valid, hostile), min_size=1, max_size=3).map(",".join)

    def words(flags, optional):
        """Each flag with its drawn value; an optional one may be left out."""
        return st.tuples(*(
            st.one_of(st.just([]), v.map(lambda x, f=flag: [f, x])) if optional
            else v.map(lambda x, f=flag: [f, x])
            for flag, v in flags.items()
        )).map(lambda parts: [w for part in parts for w in part])

    def command(name, positional, required, optional):
        return st.tuples(st.just([name]), positional, words(required, False),
                         words(optional, True)).map(lambda t: t[0] + t[1] + t[2] + t[3])

    out = value([str(d / "out" / "o")], [str(d / "garbage"), ""])
    image = value([str(d / "images" / "a.pgm"), str(d / "p2.pgm")], hostile_files)
    ints = value(_INTS)
    return {
        "approx": st.one_of(
            command("approx", image.map(lambda f: [f]),
                    {"--ranks": listed(_INTS), "--out": out},
                    {"--method": value(["plain"], ["x"])}),
            command("approx", image.map(lambda f: [f]),
                    {"--method": value(["tiled"], ["x"]), "--ranks": listed(_INTS),
                     "--out": out},
                    {"--tile": ints, "--tile-rows": ints, "--tile-cols": ints})),
        "sweep": command(
            "sweep", value([str(d / "images")], hostile_files).map(lambda f: [f]),
            {"--tile-sizes": listed(_INTS), "--targets": listed(_TARGETS, _EDGE + ["-inf"]),
             "--out": value([str(d / "out" / "s.csv")], [str(d / "empty"), ""])},
            {}),
        "covid": command(
            "covid", value([str(d / "c.csv")], hostile_files).map(lambda f: [f]),
            {"--start-date": value(_DATES, _BAD_DATES), "--days": value(["7", "10", "14"]),
             "--states": value(["CA", "CA,NY", "NY,TX,WA"], ["", "XX", "ca", "CA,CA"]),
             "--out": out},
            {"--groups": ints, "--rank": ints,
             "--rate-mode": value(["cumulative", "daily"], ["x"])}),
        "verify-theorem": command(
            "verify-theorem", st.just([]),
            {"--sizes": listed(_SIZES)},
            {"--alpha": value(_PARAMS, _EDGE + ["-inf"]), "--beta": value(_PARAMS),
             "--gamma": value(_PARAMS), "--out": value([str(d / "out" / "v.json")],
                                                       [str(d / "empty"), ""])}),
    }


@pytest.mark.parametrize("subcommand", ["approx", "sweep", "covid", "verify-theorem"])
def test_hostile_argument_vectors_exit_cleanly_under_a_memory_cap(tmp_path, subcommand):
    # Each drawn command line runs in a child limited to 1 GiB of address
    # space: no traceback, a documented exit code, and a failure's last
    # stderr line is the program's `error:` line or argparse's usage error.
    hyp = pytest.importorskip("hypothesis")
    (tmp_path / "images").mkdir()
    argvs = _argv_strategies(hyp.strategies, tmp_path)[subcommand]
    usage_error = re.compile(r"reorgsvd( [a-z-]+)?: error: ")

    @hyp.settings(derandomize=True, max_examples=3, deadline=None, database=None)
    @hyp.given(argvs)
    def check(argv):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "reorgsvd.cli", *argv],
            capture_output=True,
            text=True,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"},
            cwd=tmp_path,
            preexec_fn=_cap_address_space,
            timeout=120,
        )
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode in (0, 1, 2, 3), (argv, proc.stderr)
        if proc.returncode:
            last = proc.stderr.splitlines()[-1]
            assert last.startswith("error: ") or usage_error.match(last), (argv, last)

    check()
