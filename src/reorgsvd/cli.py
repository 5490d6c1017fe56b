"""Command-line front end.

Four subcommands: ``approx`` (rank-k image approximation, plain or tiled),
``sweep`` (parameter-budget comparison over a directory of graymaps),
``covid`` (column-group stacking on a positivity panel) and
``verify-theorem`` (closed-form certificates for the tridiagonal-inverse
family).  Plain, tiled and stacked are all tile layouts (1 x cols, p x q
and 1 x w transposed); the certificates use wrap-around diagonals.  Exit
codes: 0 success, 1 bad data or I/O, 2 usage, 3 certificate violation.

``sweep`` fans out across worker processes when the RESHAPE_THREADS
environment variable is an integer above 1, with at most one process per
image and per CPU; output is byte-identical either way.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import datetime as dt
import io
import os
import sys
from pathlib import Path

from .core import SvdConvergenceError, _count, approx_report, rank_k_approx, thin_svd
from .covid import DataError, covid_experiment, load_state_counts, positivity_and_smooth
from .pgm import load_gray_image, write_gray_image
from .report import SCHEMA_VERSION, dump, format_float
from .reshape import columns_to_tiles, tile_to_columns
from .sweep import SweepRecord, crop_to_tile_multiple, tile_sweep
from .tridiag import TridiagParams, certify_rank1_gap

__all__ = ["main"]

# The largest size verify-theorem certifies.  Each certificate takes a dense
# SVD of the n x n inverse, whose time grows about eightfold per doubling:
# n = 1000 took 39 s with one BLAS thread on a 2-core x86-64 VM.
_MAX_CERT_SIZE = 1000


def _list_of(kind, noun: str):
    """Argument type for a comma-separated list of distinct ``kind`` values."""

    def parse(text: str) -> list:
        try:
            values = [kind(part) for part in map(str.strip, text.split(",")) if part]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}")
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated {noun} in {text!r}")
        return values

    return parse


def _csv_cell(value) -> str:
    """A sweep CSV cell: empty for None, lowercase booleans, 17-digit floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _cmd_approx(args) -> int:
    img = load_gray_image(args.image)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem

    if args.method == "tiled":
        p, q = args.tile_rows, args.tile_cols
        cropped = crop_to_tile_multiple(img, p, q)
        work, scheme = tile_to_columns(cropped, p, q)
        label = f"tiled{p}x{q}"
        tile_info = {
            "tile_rows": p,
            "tile_cols": q,
            "grid_rows": scheme.grid_rows,
            "grid_cols": scheme.grid_cols,
            "cropped_rows": cropped.shape[0],
            "cropped_cols": cropped.shape[1],
        }
    else:
        work, scheme = img, None
        label = "plain"
        tile_info = None

    limit = min(work.shape)
    for k in args.ranks:
        _count(k, "rank", 1, limit)
    f = thin_svd(work, rank=max(args.ranks))
    records = []
    for k in args.ranks:
        approx = rank_k_approx(f, k)
        rep = approx_report(work, k, approx=approx)
        if scheme is not None:
            approx = columns_to_tiles(approx, scheme)
        name = f"{stem}_{label}_rank{k}.pgm"
        write_gray_image(approx, out_dir / name)
        records.append(
            {
                "rank": k,
                "parameters": rep.parameters,
                "abs_error_sq": rep.abs_error_sq,
                "rel_error": rep.rel_error,
                "output_image": name,
            }
        )

    dump(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "approx",
            "input": str(args.image),
            "method": args.method,
            "image_rows": img.shape[0],
            "image_cols": img.shape[1],
            "tile": tile_info,
            "worked_rows": work.shape[0],
            "worked_cols": work.shape[1],
            "records": records,
        },
        out_dir / "approx_report.json",
    )
    return 0


def _sweep_worker(job: tuple[str, str, list[int], list[float]]):
    path, name, tile_sizes, targets = job
    try:
        return tile_sweep(load_gray_image(path), name, tile_sizes, targets)
    except (ValueError, SvdConvergenceError) as exc:
        # Name the image; a DataError also crosses a process boundary intact.
        raise DataError(f"{name}: {exc}") from None


def _worker_count(jobs: int) -> int:
    """Sweep processes for ``jobs`` images: RESHAPE_THREADS, clamped to
    the number of images and of CPUs, and at least 1."""
    raw = os.environ.get("RESHAPE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"RESHAPE_THREADS must be an integer, got {raw!r}") from None
    return max(min(n, jobs, os.cpu_count() or 1), 1)


def _cmd_sweep(args) -> int:
    root = Path(args.directory)
    paths = sorted(root.glob("*.pgm"))
    if not paths:
        raise DataError(f"no .pgm files in {root}")
    jobs = [(str(p), p.name, args.tile_sizes, args.targets) for p in paths]

    workers = _worker_count(len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_image = list(pool.map(_sweep_worker, jobs))
    else:
        per_image = [_sweep_worker(job) for job in jobs]

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        names = [field.name for field in dataclasses.fields(SweepRecord)]
        writer.writerow(names)
        for records in per_image:
            for r in records:
                writer.writerow([_csv_cell(getattr(r, name)) for name in names])

    # Per-target win counts over the whole directory, for a quick read.
    for target in args.targets:
        wins = sum(
            1
            for records in per_image
            for r in records
            if r.winner and r.method == "tiled" and r.target_rel_error == float(target)
        )
        print(f"target {target:g}: tiled wins {wins}/{len(per_image)} images")
    return 0


def _cmd_covid(args) -> int:
    counts = load_state_counts(args.csv, args.start_date, args.days, states=args.states)
    panel = positivity_and_smooth(counts, args.rate_mode, normalize=not args.no_normalize)
    rep = covid_experiment(panel, args.groups, args.rank)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    dump(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "covid",
            "input": str(args.csv),
            "start_date": counts.start.isoformat(),
            "days": args.days,
            "states": list(counts.entities),
            "rate_mode": args.rate_mode,
            "normalized": not args.no_normalize,
            "groups": args.groups,
            "rank": args.rank,
            "plain": {
                "parameters": rep.plain_parameters,
                "rel_error": rep.plain_rel_error,
            },
            "stacked": {
                "parameters": rep.stacked_parameters,
                "rel_error": rep.stacked_rel_error,
            },
        },
        out_dir / "covid_report.json",
    )

    with open(out_dir / "covid_series.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "date", "actual", "plain_recon", "stacked_recon"])
        series = (panel, rep.plain_recon, rep.stacked_recon)
        days = [(counts.start + dt.timedelta(days=d)).isoformat() for d in range(counts.days)]
        # Each line is the csv module's own "code," (a row of the file's
        # dialect, which quotes a line feed, without its terminator), the
        # date and three floats, where "%.17g" gives the text of
        # format(x, ".17g"); one write per entity.
        for code, *rows in zip(counts.entities, *series):
            cell = io.StringIO()
            csv.writer(cell, lineterminator="\n").writerow([code, ""])
            head = cell.getvalue()[:-1]
            fh.write("".join(
                "%s%s,%.17g,%.17g,%.17g\n" % (head, day, a, p, s)
                for day, a, p, s in zip(days, *(r.tolist() for r in rows))
            ))

    print(
        f"plain rank-{args.rank}: {rep.plain_parameters} parameters, "
        f"rel error {rep.plain_rel_error:.4f}"
    )
    print(
        f"stacked g={args.groups} rank-{args.rank}: {rep.stacked_parameters} parameters, "
        f"rel error {rep.stacked_rel_error:.4f}"
    )
    return 0


def _cmd_verify(args) -> int:
    # Every size is checked before the first certificate, so a bad one
    # prints nothing else.
    for n in args.sizes:
        if n < 2:
            raise ValueError(f"certification needs n >= 2, got {n}")
        if n > _MAX_CERT_SIZE:
            raise ValueError(f"certification needs n <= {_MAX_CERT_SIZE}, got {n}")
    reports = []
    any_violation = False
    first_win = None
    for n in args.sizes:
        cert = certify_rank1_gap(TridiagParams(args.alpha, args.beta, args.gamma, n))
        violations = list(cert.violations())
        any_violation = any_violation or bool(violations)
        if first_win is None and cert.reorg_wins:
            first_win = n
        status = "certified" if not violations else "VIOLATED"
        print(
            f"n={n}: {status} plain_err_sq={cert.plain_rank1_err_sq:.6g} "
            f"reorg_err_sq={cert.reorg_rank1_err_sq:.6g} gap={cert.rank1_gap:.6g}"
        )
        for line in violations:
            print(f"  violation: {line}")
        entry = dataclasses.asdict(cert)
        entry.update(
            rank1_gap=cert.rank1_gap,
            reorg_wins=cert.reorg_wins,
            certified=not violations,
            violations=violations,
        )
        reports.append(entry)

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        dump(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "verify-theorem",
                "alpha": args.alpha,
                "beta": args.beta,
                "gamma": args.gamma,
                "sizes": list(args.sizes),
                "reports": reports,
                "first_win_n": first_win,
                "all_certified": not any_violation,
            },
            out_path,
        )
    return 3 if any_violation else 0


_EXIT_CODES = (
    "Exit codes: 0 success, 1 data or I/O failure, 2 usage error, "
    "3 certification violation (verify-theorem)."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reorgsvd",
        description="Low-rank approximation with entry reorganization.",
        epilog=_EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("approx", help="rank-k approximation of one graymap",
                        epilog=_EXIT_CODES)
    ap.add_argument("image", help="input .pgm (P2 or P5)")
    ap.add_argument("--method", choices=("plain", "tiled"), default="plain",
                    help="layout to approximate (default: %(default)s)")
    ap.add_argument("--tile-rows", type=int, help="tile height, for --method tiled")
    ap.add_argument("--tile-cols", type=int, help="tile width, for --method tiled")
    ap.add_argument("--tile", type=int,
                    help="square tiles: the same as --tile-rows TILE --tile-cols TILE")
    ap.add_argument("--ranks", type=_list_of(int, "integer"), required=True,
                    help="comma-separated ranks, e.g. 5,15,25")
    ap.add_argument("--out", required=True, help="output directory")
    ap.set_defaults(func=_cmd_approx)

    sw = sub.add_parser(
        "sweep",
        help="tile-size sweep over a directory of graymaps",
        epilog="RESHAPE_THREADS=N runs the sweep in N worker processes, at most one "
               "per image and one per CPU; the output is byte-identical to the "
               "sequential run. " + _EXIT_CODES,
    )
    sw.add_argument("directory", help="directory of .pgm graymaps")
    sw.add_argument("--tile-sizes", type=_list_of(int, "integer"), required=True,
                    help="comma-separated square tile edges, e.g. 4,8,16")
    sw.add_argument("--targets", type=_list_of(float, "number"), required=True,
                    help="comma-separated target relative errors, each in (0, 1)")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("covid", help="column-group stacking on a positivity panel",
                        epilog=_EXIT_CODES)
    cv.add_argument("csv", help="counts CSV (date,state,positive,totalTestResults)")
    cv.add_argument("--start-date", required=True,
                    help="first output day, e.g. 2020-06-01; counts are read from "
                         "7 days before it")
    cv.add_argument("--days", type=int, default=150,
                    help="number of output days (default: %(default)s)")
    cv.add_argument("--states", type=_list_of(str, "state code"),
                    help="comma-separated codes; default: the 50 US states")
    cv.add_argument("--groups", type=int, default=3,
                    help="contiguous day groups to stack (default: %(default)s)")
    cv.add_argument("--rank", type=int, default=2,
                    help="approximation rank (default: %(default)s)")
    cv.add_argument("--rate-mode", choices=("cumulative", "daily"), default="cumulative",
                    help="divide cumulative counts or day-over-day increments "
                         "(default: %(default)s)")
    cv.add_argument("--no-normalize", action="store_true",
                    help="keep each state's smoothed series instead of dividing it "
                         "by its peak")
    cv.add_argument("--out", required=True, help="output directory")
    cv.set_defaults(func=_cmd_covid)

    vt = sub.add_parser("verify-theorem", help="certify the rank-1 gap for the "
                                               "tridiagonal-inverse family",
                        epilog=_EXIT_CODES)
    vt.add_argument("--alpha", type=float, default=0.5,
                    help="subdiagonal of L, |alpha| < 1 (default: %(default)s)")
    vt.add_argument("--beta", type=float, default=0.5,
                    help="U's superdiagonal over its diagonal, |beta| < 1 "
                         "(default: %(default)s)")
    vt.add_argument("--gamma", type=float, default=1.0,
                    help="diagonal of U, in [1e-100, 1e100] (default: %(default)s)")
    vt.add_argument("--sizes", type=_list_of(int, "integer"), required=True,
                    help=f"comma-separated matrix sizes, each in [2, {_MAX_CERT_SIZE}]")
    vt.add_argument("--out", default=None, help="optional JSON report path")
    vt.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "approx":
        if args.tile is not None:
            if args.tile_rows is not None or args.tile_cols is not None:
                parser.error("--tile conflicts with --tile-rows/--tile-cols")
            args.tile_rows = args.tile_cols = args.tile
        if args.method == "tiled" and (args.tile_rows is None or args.tile_cols is None):
            parser.error("--method tiled needs --tile or both --tile-rows and --tile-cols")
        if args.method == "plain" and (args.tile_rows is not None or args.tile_cols is not None):
            parser.error("tile sizes only apply to --method tiled")

    try:
        return args.func(args)
    except (ValueError, OSError, SvdConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
