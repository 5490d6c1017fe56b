"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, work)`` writes every file the program will read
under ``work/inputs`` and returns two things: the plan (one CLI argument
list per operation, plus the number of ``thin_svd`` calls one pass implies)
and the context that ``checks.py`` needs to verify the outputs.  The same
seed gives byte-identical files and the same plan.

Graymaps are written by the few lines below, never by the program's own
writer, so the reference matrices the checks use owe nothing to the code
under test.  Run on its own to look at a workload's inputs:

    python3 perfbench/gen.py --workload image-sweep --seed 1
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

# --- image-sweep -----------------------------------------------------------

# (file, kind, rows, cols, format, maxval, block).  Smooth and textured
# images give full-rank unfoldings of every shape; the blocky ones are
# piecewise constant on block x block cells aligned to the origin, so the
# tile size equal to the block gives a rank-1 unfolding and the smaller
# tiles rank-deficient ones (the null-column completion path).
SWEEP_IMAGES = (
    ("smooth-a.pgm", "smooth", 144, 120, "P5", 255, None),
    ("smooth-b.pgm", "smooth", 120, 136, "P2", 255, None),
    ("texture-a.pgm", "texture", 128, 128, "P5", 255, None),
    ("texture-b.pgm", "texture", 104, 136, "P2", 255, None),
    ("blocks-a.pgm", "blocks", 160, 160, "P5", 255, 8),
    ("blocks-b.pgm", "blocks", 96, 128, "P2", 255, 4),
)
TILE_SIZES = (4, 8, 12, 16)
TARGETS = (0.05, 0.1, 0.2)

# The larger image for ``approx``: ASCII with a 10-bit maxval, so both the
# P2 tokenizer and a non-255 scale are on the path.
APPROX_IMAGE = ("large.pgm", 192, 176, "P2", 1023)
# (extra CLI flags, tile rows, tile cols, ranks); the 12 x 10 tile does not
# divide 176 columns, so the centre crop runs.
APPROX_RUNS = (
    ((), None, None, (4, 12, 24)),
    (("--tile", "8"), 8, 8, (2, 4, 8)),
    (("--tile-rows", "12", "--tile-cols", "10"), 12, 10, (1, 3, 6)),
)

# --- theorem-cert ----------------------------------------------------------

THEOREM_PARAMS = (0.5, 0.5, 1.0)  # alpha, beta, gamma
THEOREM_SIZES = (10, 30, 50, 75, 100, 125, 150, 175, 200)
THEOREM_INVOCATIONS = 3

# --- covid-panel -----------------------------------------------------------

US_STATES = (
    "AK", "AL", "AR", "AZ", "CA", "CO", "CT", "DE", "FL", "GA",
    "HI", "IA", "ID", "IL", "IN", "KS", "KY", "LA", "MA", "MD",
    "ME", "MI", "MN", "MO", "MS", "MT", "NC", "ND", "NE", "NH",
    "NJ", "NM", "NV", "NY", "OH", "OK", "OR", "PA", "RI", "SC",
    "SD", "TN", "TX", "UT", "VA", "VT", "WA", "WI", "WV", "WY",
)
# Codes a real export carries besides the 50 states; the loader skips them.
EXTRA_CODES = ("AS", "DC", "GU", "MP", "PR", "VI")
CSV_FIRST_DAY = dt.date(2020, 3, 1)
CSV_DAYS = 730
CSV_COLUMNS = (
    "date", "state", "positive", "probableCases", "negative", "pending",
    "totalTestResultsSource", "totalTestResults", "hospitalizedCurrently",
    "death", "dataQualityGrade",
)
# (rate mode, start date, days, groups, rank)
COVID_RUNS = (
    ("cumulative", "2020-06-01", 150, 3, 2),
    ("daily", "2020-10-15", 150, 5, 2),
    ("cumulative", "2021-03-01", 150, 2, 3),
    ("daily", "2021-08-01", 150, 6, 1),
)


def _quantize(m: np.ndarray, maxval: int) -> np.ndarray:
    return np.rint(np.clip(m, 0.0, 1.0) * maxval).astype(np.int64)


def _smooth(rng, rows: int, cols: int) -> np.ndarray:
    y, x = np.mgrid[0:rows, 0:cols]
    y = y / rows
    x = x / cols
    img = np.zeros((rows, cols))
    for _ in range(4):
        fy, fx = rng.uniform(0.3, 2.5, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        img += rng.uniform(0.5, 1.0) * np.cos(2 * np.pi * (fy * y + fx * x) + phase)
    for _ in range(3):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        w = rng.uniform(0.08, 0.25)
        img += rng.uniform(-1.5, 1.5) * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * w * w))
    img = (img - img.min()) / (img.max() - img.min())
    return 0.1 + 0.8 * img + rng.normal(0.0, 0.004, size=img.shape)


def _texture(rng, rows: int, cols: int) -> np.ndarray:
    y, x = np.mgrid[0:rows, 0:cols]
    img = 0.6 * _smooth(rng, rows, cols)
    for _ in range(3):
        fy, fx = rng.uniform(0.05, 0.45, size=2)
        img += 0.06 * np.sin(2 * np.pi * (fy * y + fx * x) + rng.uniform(0, 2 * np.pi))
    return img + rng.uniform(-0.08, 0.08, size=img.shape)


def _blocks(rng, rows: int, cols: int, block: int) -> np.ndarray:
    levels = rng.integers(20, 236, size=(rows // block, cols // block)) / 255.0
    return np.kron(levels, np.ones((block, block)))


def write_pgm(path: Path, samples: np.ndarray, fmt: str, maxval: int) -> None:
    """Write integer samples as a P5 (8-bit) or P2 graymap."""
    rows, cols = samples.shape
    if fmt == "P5":
        header = f"P5\n{cols} {rows}\n{maxval}\n".encode("ascii")
        path.write_bytes(header + samples.astype(np.uint8).tobytes())
        return
    lines = [f"P2\n# benchmark input\n{cols} {rows}\n{maxval}"]
    lines += [" ".join(map(str, row)) for row in samples.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _image_sweep(rng, work: Path):
    inputs = work / "inputs"
    images_dir = inputs / "images"
    images_dir.mkdir(parents=True)
    makers = {"smooth": _smooth, "texture": _texture}
    images = {}
    for name, kind, rows, cols, fmt, maxval, block in SWEEP_IMAGES:
        if kind == "blocks":
            raw = _blocks(rng, rows, cols, block)
        else:
            raw = makers[kind](rng, rows, cols)
        samples = _quantize(raw, maxval)
        write_pgm(images_dir / name, samples, fmt, maxval)
        images[name] = {"matrix": samples / maxval, "block": block}

    name, rows, cols, fmt, maxval = APPROX_IMAGE
    raw = 0.7 * _smooth(rng, rows, cols) + 0.3 * _texture(rng, rows, cols)
    samples = _quantize(raw, maxval)
    write_pgm(inputs / name, samples, fmt, maxval)
    large = samples / maxval

    ops = [{
        "argv": ["sweep", str(images_dir), "--tile-sizes", ",".join(map(str, TILE_SIZES)),
                 "--targets", ",".join(map(str, TARGETS)),
                 "--out", str(work / "ops" / "0" / "sweep.csv")],
        "out": str(work / "ops" / "0"),
    }]
    approx = []
    for flags, p, q, ranks in APPROX_RUNS:
        out = work / "ops" / str(len(ops))
        method = "plain" if p is None else "tiled"
        ops.append({
            "argv": ["approx", str(inputs / name), "--method", method, *flags,
                     "--ranks", ",".join(map(str, ranks)), "--out", str(out)],
            "out": str(out),
        })
        approx.append({"tile": None if p is None else (p, q), "ranks": ranks})
    svd_calls = len(SWEEP_IMAGES) * (1 + len(TILE_SIZES)) + len(APPROX_RUNS)
    context = {"images": images, "large": large, "approx": approx}
    return ops, svd_calls, context


def _theorem_cert(rng, work: Path):
    # Each size moves by at most one, so the work per pass barely depends
    # on the seed; the seed also deals the sizes out to the invocations
    # and orders them within each.
    sizes = [n + int(rng.integers(-1, 2)) for n in THEOREM_SIZES]
    order = rng.permutation(len(sizes))
    groups = [[sizes[i] for i in order[k::THEOREM_INVOCATIONS]]
              for k in range(THEOREM_INVOCATIONS)]
    alpha, beta, gamma = THEOREM_PARAMS
    ops = []
    for group in groups:
        out = work / "ops" / str(len(ops))
        ops.append({
            "argv": ["verify-theorem", "--alpha", str(alpha), "--beta", str(beta),
                     "--gamma", str(gamma), "--sizes", ",".join(map(str, group)),
                     "--out", str(out / "cert.json")],
            "out": str(out),
        })
    context = {"groups": groups, "params": THEOREM_PARAMS}
    return ops, 2 * len(sizes), context


def _state_counts(rng, days: int):
    """Daily (tests, positives) per code: a seasonal test volume with a
    weekly dip, and positivity as a per-state mixture of three waves."""
    t = np.arange(days)
    waves = [np.exp(-0.5 * ((t - c) / w) ** 2) for c, w in ((130, 40), (300, 45), (660, 30))]
    out = {}
    for code in US_STATES + EXTRA_CODES:
        base = rng.uniform(2_000, 60_000)
        volume = base * (0.4 + t / days) * (1.0 - 0.25 * (t % 7 == 6))
        tests = np.maximum(1, rng.poisson(volume))
        mix = rng.uniform(0.2, 1.0, size=3)
        shift = int(rng.integers(-12, 13))
        rate = 0.02 + 0.25 * sum(m * np.roll(w, shift) for m, w in zip(mix, waves))
        out[code] = (tests, rng.binomial(tests, np.minimum(rate, 0.9)))
    return out


def _covid_panel(rng, work: Path):
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    counts = _state_counts(rng, CSV_DAYS)
    cumulative = {code: (np.cumsum(tst), np.cumsum(pos)) for code, (tst, pos) in counts.items()}
    path = inputs / "counts.csv"
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # Newest day first, states in code order, as the COVID Tracking
        # Project export is laid out.
        for d in range(CSV_DAYS - 1, -1, -1):
            day = (CSV_FIRST_DAY + dt.timedelta(days=d)).strftime("%Y%m%d")
            for code in sorted(cumulative):
                tst, pos = cumulative[code]
                p, n = int(pos[d]), int(tst[d])
                writer.writerow([day, code, p, "", n - p, "", "totalTestsViral", n,
                                 int(rng.integers(0, 5000)) if d > 30 else "",
                                 p // 60, "A"])
                rows += 1

    ops = []
    runs = []
    for mode, start, days, groups, rank in COVID_RUNS:
        out = work / "ops" / str(len(ops))
        ops.append({
            "argv": ["covid", str(path), "--start-date", start, "--days", str(days),
                     "--groups", str(groups), "--rank", str(rank), "--rate-mode", mode,
                     "--out", str(out)],
            "out": str(out),
        })
        runs.append({"mode": mode, "start": dt.date.fromisoformat(start), "days": days,
                     "groups": groups, "rank": rank})
    context = {"cumulative": cumulative, "runs": runs, "csv_rows": rows}
    return ops, 2 * len(COVID_RUNS), context


WORKLOADS = {
    "image-sweep": _image_sweep,
    "theorem-cert": _theorem_cert,
    "covid-panel": _covid_panel,
}


def generate(workload: str, seed: int, work: Path):
    """Write the inputs of ``workload`` under ``work`` and return
    ``(plan, context)``.  Paths in the plan are as given by ``work``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    ops, svd_calls, context = WORKLOADS[workload](rng, work)
    plan = {"workload": workload, "seed": seed, "ops": ops, "svd_calls": svd_calls,
            "csv_rows": context.get("csv_rows", 0)}
    return plan, context


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=None,
                        help="directory to write into (default perfbench/out/inputs-<workload>-<seed>)")
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    work = Path(args.out) if args.out else here / "out" / f"inputs-{args.workload}-{args.seed}"
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    plan, _ = generate(args.workload, args.seed, work)
    print(json.dumps(plan, indent=2))


if __name__ == "__main__":
    main()
