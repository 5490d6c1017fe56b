"""Output checks against computations made apart from the program.

Each workload's checker reads the files one pass of the CLI wrote and
returns, per operation, the list of problems found (empty when the
operation's outputs are right).  References come from ``numpy.linalg``
(LAPACK) on the benchmark's own matrices, crops, tilings and rates, or
from properties the method must have; nothing is compared with a stored
copy, and nothing here imports the program.

Tolerances are relative to the norm of the matrix involved: the program's
Jacobi SVD and LAPACK agree on singular values to about 1e-14 relative to
sigma_1, so squared tails agree to well under ``TAIL_RTOL`` of ||A||_F^2.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

import gen

TAIL_RTOL = 1e-10    # squared errors and tails, relative to ||A||_F^2
SIGMA_RTOL = 1e-11   # singular values, relative to ||A||_F
RECON_RTOL = 1e-12   # reconstructions, relative to ||A||_F per unit of sigma_1 / gap


def lapack_tails(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and tails[k] = sum of sigma_i^2 for i >= k."""
    s = np.linalg.svd(m, compute_uv=False)
    sq = s * s
    tails = np.zeros(sq.size + 1)
    tails[:-1] = np.cumsum(sq[::-1])[::-1]
    return s, tails


def truncate(m: np.ndarray, k: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def recon_tolerance(m: np.ndarray, s: np.ndarray, k: int) -> float:
    """Entrywise slack for comparing two rank-k truncations of ``m``: the
    truncation moves by about (perturbation / gap) * ||m||."""
    gap = s[k - 1] - s[k] if k < s.size else s[k - 1]
    if gap <= 0.0:
        return float("inf")
    return RECON_RTOL * float(np.linalg.norm(m)) * max(1.0, s[0] / gap)


def crop(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """Centre crop to multiples of the tile, floor(remainder / 2) off the
    top and left."""
    rows, cols = m.shape
    top, left = (rows % p) // 2, (cols % q) // 2
    return m[top: top + rows - rows % p, left: left + cols - cols % q]


def unfold(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """One column per p x q tile.  The order of tiles and of entries within
    a tile is this file's own; singular values and truncations do not
    depend on it."""
    gr, gc = m.shape[0] // p, m.shape[1] // q
    return m.reshape(gr, p, gc, q).transpose(1, 3, 0, 2).reshape(p * q, gr * gc)


def fold(x: np.ndarray, p: int, q: int, shape: tuple[int, int]) -> np.ndarray:
    gr, gc = shape[0] // p, shape[1] // q
    return x.reshape(p, q, gr, gc).transpose(2, 0, 3, 1).reshape(shape)


def read_p5(path: Path) -> np.ndarray:
    """8-bit P5 without comments, the only form the program writes."""
    data = path.read_bytes()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or int(maxval) != 255:
        raise ValueError(f"{path.name}: not an 8-bit P5 graymap")
    w, h = int(width), int(height)
    return np.frombuffer(data[len(data) - w * h:], dtype=np.uint8).reshape(h, w).astype(np.int64)


def quantize(m: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(m, 0.0, 1.0) * 255.0 + 0.5).astype(np.int64)


def _guard(check_one, *args) -> list[str]:
    """Run one operation's check; missing or malformed output is a problem."""
    try:
        return check_one(*args)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"output missing or malformed: {exc!r}"]


def _rank_problem(k: int, tails: np.ndarray, target: float) -> str | None:
    """None when ``k`` is the least rank whose LAPACK tail meets the
    target's budget, or a neighbour whose boundary tail lies within
    rounding of the budget."""
    total = tails[0]
    budget = target * target * total
    slack = TAIL_RTOL * total
    least = int(np.argmax(tails[1:] <= budget)) + 1
    ok = k == least
    ok |= k == least + 1 and tails[least] >= budget - slack
    ok |= k == least - 1 and tails[k] <= budget + slack
    return None if ok else f"rank {k}, LAPACK least rank {least}"


def _check_sweep(ctx, out: Path) -> list[str]:
    problems = []
    images = ctx["images"]
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = len(images) * len(gen.TARGETS) * (1 + len(gen.TILE_SIZES))
    if len(rows) != want:
        return [f"sweep.csv has {len(rows)} rows, want {want}"]
    spectra = {}
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        name = row["image"]
        if name not in images:
            problems.append(f"unknown image {name!r}")
            continue
        img = images[name]["matrix"]
        s = int(row["tile_rows"]) if row["method"] == "tiled" else None
        key = (name, s)
        if key not in spectra:
            m = img if s is None else unfold(crop(img, s, s), s, s)
            spectra[key] = (m.shape, lapack_tails(m)[1])
        shape, tails = spectra[key]
        where = f"{name} tile={s} target={row['target_rel_error']}"
        k = int(row["achieved_rank"])
        target = float(row["target_rel_error"])
        if (int(row["rows"]), int(row["cols"])) != shape:
            problems.append(f"{where}: shape {row['rows']}x{row['cols']}, want {shape}")
            continue
        bad = _rank_problem(k, tails, target)
        if bad:
            problems.append(f"{where}: {bad}")
        err = float(row["achieved_rel_error"])
        if abs(err * err - tails[k] / tails[0]) > TAIL_RTOL:
            problems.append(f"{where}: rel error {err} vs LAPACK {np.sqrt(tails[k] / tails[0])}")
        if int(row["parameters"]) != k * sum(shape):
            problems.append(f"{where}: parameters {row['parameters']} != rank*(rows+cols)")
        block = images[name]["block"]
        if s is not None and s == block and k != 1:
            problems.append(f"{where}: blocky image at its block size needs rank {k}, not 1")
        groups.setdefault((name, row["target_rel_error"]), []).append(row)
    wins = {}
    for (name, target), group in groups.items():
        winners = [r for r in group if r["winner"] == "true"]
        if len(winners) != 1:
            problems.append(f"{name} target={target}: {len(winners)} winners")
            continue
        if int(winners[0]["parameters"]) != min(int(r["parameters"]) for r in group):
            problems.append(f"{name} target={target}: winner is not the cheapest")
        if winners[0]["method"] == "tiled":
            wins[float(target)] = wins.get(float(target), 0) + 1
    stdout = (out / "stdout.txt").read_text(encoding="utf-8").splitlines()
    expect = [f"target {t:g}: tiled wins {wins.get(t, 0)}/{len(images)} images"
              for t in gen.TARGETS]
    if stdout != expect:
        problems.append(f"sweep printed {stdout}, want {expect}")
    return problems


def _check_approx(ctx, run, out: Path) -> list[str]:
    report = json.loads((out / "approx_report.json").read_text(encoding="utf-8"))
    img = ctx["large"]
    if run["tile"] is None:
        cropped, work = img, img
    else:
        p, q = run["tile"]
        cropped = crop(img, p, q)
        work = unfold(cropped, p, q)
    s, tails = lapack_tails(work)
    problems = []
    if (report["image_rows"], report["image_cols"]) != img.shape:
        problems.append("image shape in report differs from the input")
    if (report["worked_rows"], report["worked_cols"]) != work.shape:
        problems.append(f"worked shape {report['worked_rows']}x{report['worked_cols']}, "
                        f"want {work.shape}")
        return problems
    records = report["records"]
    if [r["rank"] for r in records] != list(run["ranks"]):
        return problems + [f"ranks {[r['rank'] for r in records]}, want {list(run['ranks'])}"]
    previous = float("inf")
    for rec in records:
        k = rec["rank"]
        if abs(rec["abs_error_sq"] - tails[k]) > TAIL_RTOL * tails[0]:
            problems.append(f"rank {k}: abs_error_sq {rec['abs_error_sq']} vs LAPACK {tails[k]}")
        if abs(rec["rel_error"] ** 2 - tails[k] / tails[0]) > TAIL_RTOL:
            problems.append(f"rank {k}: rel_error {rec['rel_error']} vs LAPACK")
        if rec["rel_error"] > previous:
            problems.append(f"rank {k}: error rose from {previous} to {rec['rel_error']}")
        previous = rec["rel_error"]
        if rec["parameters"] != k * sum(work.shape):
            problems.append(f"rank {k}: parameters {rec['parameters']} != rank*(rows+cols)")
        recon = truncate(work, k)
        if run["tile"] is not None:
            recon = fold(recon, p, q, cropped.shape)
        written = read_p5(out / rec["output_image"])
        if written.shape != cropped.shape:
            problems.append(f"rank {k}: image {written.shape}, want {cropped.shape}")
            continue
        off = int(np.abs(written - quantize(recon)).max())
        if off > 1:
            problems.append(f"rank {k}: written image is {off} gray levels off LAPACK")
    return problems


def check_image_sweep(ctx, outs: list[Path]) -> list[list[str]]:
    return [_guard(_check_sweep, ctx, outs[0])] + [
        _guard(_check_approx, ctx, run, out) for run, out in zip(ctx["approx"], outs[1:])
    ]


def tridiag_inverse(n: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """inv(L @ U) by LAPACK, with L unit lower bidiagonal (subdiagonal
    alpha) and U upper bidiagonal (diagonal gamma, superdiagonal
    beta * gamma)."""
    lower = np.eye(n)
    upper = gamma * np.eye(n)
    i = np.arange(n - 1)
    lower[i + 1, i] = alpha
    upper[i, i + 1] = beta * gamma
    return np.linalg.inv(lower @ upper)


def diagonals(m: np.ndarray) -> np.ndarray:
    """Wrap-around diagonal k of a square matrix as column k."""
    n = m.shape[0]
    i = np.arange(n)
    return m[i[:, None], (i[:, None] + i[None, :]) % n]


def _check_cert(ctx, sizes: list[int], out: Path, gaps: dict) -> list[str]:
    alpha, beta, gamma = ctx["params"]
    problems = []
    report = json.loads((out / "cert.json").read_text(encoding="utf-8"))
    if report["all_certified"] is not True:
        problems.append("all_certified is not true")
    if [r["n"] for r in report["reports"]] != sizes:
        return problems + [f"sizes {[r['n'] for r in report['reports']]}, want {sizes}"]
    margins = []
    for rec in report["reports"]:
        n = rec["n"]
        inv = tridiag_inverse(n, alpha, beta, gamma)
        norm = float(np.linalg.norm(inv))
        s_plain, t_plain = lapack_tails(inv)
        _, t_reorg = lapack_tails(diagonals(inv))
        if not rec["certified"]:
            problems.append(f"n={n}: not certified: {rec['violations']}")
        if abs(rec["top_singular_value"] - s_plain[0]) > SIGMA_RTOL * norm:
            problems.append(f"n={n}: sigma_1 {rec['top_singular_value']} vs LAPACK {s_plain[0]}")
        for field, tails in (("plain_rank1_err_sq", t_plain), ("reorg_rank1_err_sq", t_reorg)):
            if abs(rec[field] - tails[1]) > TAIL_RTOL * norm * norm:
                problems.append(f"n={n}: {field} {rec[field]} vs LAPACK {tails[1]}")
        margins.append((n, t_plain[1] - t_reorg[1], TAIL_RTOL * norm * norm))
        gaps[n] = rec["rank1_gap"]
    # first_win_n is the first listed size where LAPACK's reorganized error
    # is below the plain one; a size whose margin is within rounding of
    # zero may go either way.
    allowed = set()
    for n, margin, slack in margins:
        if margin > -slack:
            allowed.add(n)
        if margin > slack:
            break
    else:
        allowed.add(None)
    if report["first_win_n"] not in allowed:
        problems.append(f"first_win_n {report['first_win_n']}, LAPACK allows {sorted(allowed, key=str)}")
    lines = (out / "stdout.txt").read_text(encoding="utf-8").splitlines()
    if [line.split(":")[1].split()[0] for line in lines] != ["certified"] * len(sizes):
        problems.append(f"printed lines are not one 'certified' per size: {lines}")
    return problems


def check_theorem_cert(ctx, outs: list[Path]) -> list[list[str]]:
    gaps: dict[int, float] = {}
    results = [_guard(_check_cert, ctx, sizes, out, gaps) for sizes, out in zip(ctx["groups"], outs)]
    ordered = [gaps[n] for n in sorted(gaps)]
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        results[-1].append(f"rank-1 gap does not grow with n: {ordered}")
    return results


def panel(ctx, run) -> np.ndarray:
    """The smoothed, peak-normalized positivity panel, states x days,
    from the counts the generator wrote."""
    first = (run["start"] - gen.CSV_FIRST_DAY).days - 7
    cols = slice(first, first + run["days"] + 7)
    tests = np.array([ctx["cumulative"][c][0][cols] for c in gen.US_STATES], dtype=float)
    pos = np.array([ctx["cumulative"][c][1][cols] for c in gen.US_STATES], dtype=float)
    if run["mode"] == "cumulative":
        rates = pos[:, 1:] / tests[:, 1:]
    else:
        rates = np.diff(pos, axis=1) / np.diff(tests, axis=1)
    smooth = np.stack([rates[:, d: d + 7].sum(axis=1) / 7.0 for d in range(run["days"])], axis=1)
    return smooth / smooth.max(axis=1, keepdims=True)


def _check_covid(ctx, run, out: Path) -> list[str]:
    problems = []
    report = json.loads((out / "covid_report.json").read_text(encoding="utf-8"))
    with open(out / "covid_series.csv", newline="", encoding="utf-8") as fh:
        series = list(csv.DictReader(fh))
    m = panel(ctx, run)
    g, k, days = run["groups"], run["rank"], run["days"]
    n = len(gen.US_STATES)
    if report["states"] != list(gen.US_STATES) or len(series) != m.size:
        return [f"report covers {len(report['states'])} states and "
                f"{len(series)} series rows, want {n} and {m.size}"]
    dates = [(run["start"] + dt.timedelta(days=d)).isoformat() for d in range(days)]
    keys = [(r["state"], r["date"]) for r in series]
    if keys != [(c, d) for c in gen.US_STATES for d in dates]:
        return ["series rows are not states x days in order"]
    column = {f: np.array([float(r[f]) for r in series]).reshape(n, days)
              for f in ("actual", "plain_recon", "stacked_recon")}
    off = float(np.abs(column["actual"] - m).max())
    if off > 1e-12:
        problems.append(f"actual differs from the benchmark's own rates by {off}")

    stacked = np.vstack([m[:, j * (days // g): (j + 1) * (days // g)] for j in range(g)])
    for name, mat, recon in (
        ("plain", m, column["plain_recon"]),
        ("stacked", stacked, np.vstack(np.hsplit(column["stacked_recon"], g))),
    ):
        s, tails = lapack_tails(mat)
        total = tails[0]
        err = report[name]["rel_error"]
        if abs(err * err - tails[k] / total) > TAIL_RTOL:
            problems.append(f"{name} rel_error {err} vs LAPACK {np.sqrt(tails[k] / total)}")
        resid = mat - recon
        if abs(float((resid * resid).sum()) - tails[k]) > TAIL_RTOL * total:
            problems.append(f"{name} reconstruction is not a best rank-{k} approximation")
        off = float(np.abs(recon - truncate(mat, k)).max())
        if off > recon_tolerance(mat, s, k):
            problems.append(f"{name} reconstruction is {off} off the LAPACK rank-{k} one")
        want = k * sum(mat.shape)
        if report[name]["parameters"] != want:
            problems.append(f"{name} parameters {report[name]['parameters']}, want {want}")
    return problems


def check_covid_panel(ctx, outs: list[Path]) -> list[list[str]]:
    return [_guard(_check_covid, ctx, run, out) for run, out in zip(ctx["runs"], outs)]


CHECKERS = {
    "image-sweep": check_image_sweep,
    "theorem-cert": check_theorem_cert,
    "covid-panel": check_covid_panel,
}


def check(workload: str, ctx, outs: list[Path]) -> list[list[str]]:
    """Problems per operation, in operation order."""
    return CHECKERS[workload](ctx, outs)
