"""Call spans around the program's public functions, for the traced run.

``Tracer.install`` replaces every public function of the package's modules
(the names in each module's ``__all__`` that the module defines) with a
wrapper, under every name the package binds it to: ``cli``, ``sweep``,
``tridiag``, ``covid`` and ``reshape`` each import ``thin_svd`` by name, and
each of those bindings is replaced.  A wrapper appends one span (name,
start, end, index of the enclosing span, extra) to a list in memory; the
list is written out once, when the run ends.  Nothing in the program is
edited.  ``format_float`` stays unwrapped: the CLI calls it once per CSV
cell, and that formatting is counted as the CLI's own time.

``layer_metrics`` turns one pass's spans into the per-layer metrics:
inclusive seconds (``.s``), seconds minus the wrapped calls made from
inside (``.self_s``) and call counts (``.calls``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "core", "reshape", "sweep", "tridiag", "pgm", "covid", "report")
UNWRAPPED = frozenset({"report.format_float"})

# A factorization counts as rank-deficient when its smallest singular value
# is at most this share of ||A||_F, the program's NULL_COLUMN_RTOL at the
# commit that defined the benchmark (fixed here so the metric keeps its
# meaning if the program's constant moves).
RANKDEF_RTOL = 1e-13

# (metric, unit) in report order; every traced run reports all of them.
PER_LAYER = (
    ("cli.sweep.s", "s"),
    ("cli.approx.s", "s"),
    ("cli.covid.s", "s"),
    ("cli.verify-theorem.s", "s"),
    ("cli.self_s", "s"),
    ("core.thin_svd.calls", "count"),
    ("core.thin_svd.s", "s"),
    ("core.thin_svd.square.s", "s"),
    ("core.thin_svd.oblong.s", "s"),
    ("core.thin_svd.rankdef.s", "s"),
    ("core.rank_k_approx.s", "s"),
    ("core.rank_k_approx.calls", "count"),
    ("core.approx_report.self_s", "s"),
    ("core.relative_error.s", "s"),
    ("reshape.tile_to_columns.s", "s"),
    ("reshape.columns_to_tiles.s", "s"),
    ("reshape.diag_to_columns.s", "s"),
    ("reshape.stack_column_groups.s", "s"),
    ("reshape.unstack_column_groups.s", "s"),
    ("sweep.tile_sweep.self_s", "s"),
    ("sweep.crop_to_tile_multiple.s", "s"),
    ("tridiag.closed_form_inverse.s", "s"),
    ("tridiag.certify_rank1_gap.self_s", "s"),
    ("pgm.load_gray_image.s", "s"),
    ("pgm.write_gray_image.s", "s"),
    ("covid.load_state_counts.s", "s"),
    ("covid.load_state_counts.rows_per_s", "rows/s"),
    ("covid.positivity_and_smooth.s", "s"),
    ("covid.covid_experiment.self_s", "s"),
    ("report.dump.s", "s"),
)


def _svd_info(args, result):
    rows, cols = np.shape(args[0])
    sigma = result.sigma
    rankdef = bool(sigma.size and sigma[-1] <= RANKDEF_RTOL * math.sqrt(float(sigma @ sigma)))
    return [rows, cols, rankdef]


class Tracer:
    """Spans of wrapped calls, in the order the calls started."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        if name == "cli.main":
            def info(args, result):
                return args[0][0] if args and args[0] else ""
        elif name == "core.thin_svd":
            info = _svd_info
        else:
            info = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        for layer in LAYERS:
            importlib.import_module(f"reorgsvd.{layer}")
        package = [m for n, m in list(sys.modules.items())
                   if n == "reorgsvd" or n.startswith("reorgsvd.")]
        for layer in LAYERS:
            module = sys.modules[f"reorgsvd.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or name in UNWRAPPED):
                    continue
                wrapper = self._wrap(name, fn)
                for m in package:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, key, wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


def layer_metrics(spans: list[list], first: int, csv_rows: int) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one pass).
    ``csv_rows`` is the number of data rows in the counts CSV that each
    ``load_state_counts`` call reads."""
    covered = defaultdict(float)
    for name, start, end, parent, info in spans[first:]:
        if parent >= 0:
            covered[parent] += end - start
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for index, (name, start, end, parent, info) in enumerate(spans[first:], first):
        took = end - start
        key = f"cli.{info}" if name == "cli.main" else name
        incl[key] += took
        own[key] += took - covered[index]
        calls[key] += 1
        if name == "core.thin_svd":
            rows, cols, rankdef = info
            incl["core.thin_svd.square" if rows == cols else "core.thin_svd.oblong"] += took
            if rankdef:
                incl["core.thin_svd.rankdef"] += took

    load_s = incl["covid.load_state_counts"]
    derived = {
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "covid.load_state_counts.rows_per_s":
            csv_rows * calls["covid.load_state_counts"] / load_s if load_s else 0.0,
    }
    out = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = float(calls[metric[: -len(".calls")]])
        elif metric.endswith(".self_s"):
            out[metric] = own[metric[: -len(".self_s")]]
        else:
            out[metric] = incl[metric[: -len(".s")]]
    return out
