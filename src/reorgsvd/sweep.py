"""Parameter-budget comparison between plain truncated SVD and the
tile-to-columns layout, swept over tile sizes and error targets.

For each target relative error the sweep finds, per method, the smallest
rank that reaches the target, converts it to a parameter count, and flags
the cheapest method.  Ties go to the plain orientation, then to the tile
size listed first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _count, _denominator, parameter_count, thin_svd
from .pgm import GrayImage
from .reshape import tile_to_columns

__all__ = [
    "SweepRecord",
    "crop_to_tile_multiple",
    "tile_sweep",
]


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one (method, tile size, target) cell of a sweep.

    ``tile_rows``/``tile_cols`` are None for the plain method.  ``rows`` and
    ``cols`` are the shape of the matrix the SVD actually ran on (the
    image for the plain method, the unfolding of its crop for tiles), so
    ``parameters == achieved_rank * (rows + cols)`` always holds.
    """

    image: str
    method: str
    tile_rows: int | None
    tile_cols: int | None
    rows: int
    cols: int
    target_rel_error: float
    achieved_rank: int
    achieved_rel_error: float
    parameters: int
    winner: bool


def crop_to_tile_multiple(m: np.ndarray, tile_rows: int, tile_cols: int) -> np.ndarray:
    """Center-crop the matrix ``m`` so both dimensions are tile-size
    multiples, as a view of ``m``.

    Keeps floor(remainder / 2) rows off the top and the rest off the
    bottom, likewise for columns.  Fails if ``m`` is smaller than one
    tile."""
    rows, cols = m.shape
    p, q = _count(tile_rows, "tile_rows"), _count(tile_cols, "tile_cols")
    if rows < p or cols < q:
        raise ValueError(f"image {rows} x {cols} is smaller than one {p} x {q} tile")
    keep_r, keep_c = rows - rows % p, cols - cols % q
    top, left = (rows - keep_r) // 2, (cols - keep_c) // 2
    return m[top : top + keep_r, left : left + keep_c]


def _rank_for_target(sigma: np.ndarray, target: float) -> tuple[int, float]:
    """Smallest k with tail energy ratio at most target**2, plus the
    achieved relative error, both straight from the singular values."""
    sq = sigma * sigma
    # Reversed cumulative sums give every tail without subtractions, so no
    # cancellation as the tail gets small.
    tails = np.zeros(sq.size + 1)
    tails[: sq.size] = np.cumsum(sq[::-1])[::-1]
    total = _denominator(tails[0])
    budget = target * target * total
    # The tails never increase and the last is exactly zero, so the first
    # k >= 1 with tails[k] <= budget exists and a binary search finds it.
    k = int(np.searchsorted(-tails[1:], -budget, side="left")) + 1
    return k, math.sqrt(tails[k] / total)


def tile_sweep(
    img: GrayImage,
    image_name: str,
    tile_sizes: list[int],
    targets: list[float],
) -> list[SweepRecord]:
    """All (method, target) records for one image.

    ``tile_sizes`` are square tile edges; each is swept independently with
    its own center crop.  Records appear grouped by target, plain method
    first, then tiles in the given order; exactly one record per target
    carries ``winner=True``."""
    if not tile_sizes:
        raise ValueError("need at least one tile size")
    if not targets:
        raise ValueError("need at least one target")
    for t in targets:
        if not 0.0 < t < 1.0:
            raise ValueError(f"target must be in (0, 1), got {t}")

    # (tile edge, or None for the plain method; SVD shape; singular values)
    layouts = [(None, img.shape, thin_svd(img.matrix, rank=0).sigma)]
    for s in tile_sizes:
        edge = _count(s, "tile_sizes")
        cropped = crop_to_tile_multiple(img.matrix, edge, edge)
        x, scheme = tile_to_columns(cropped, edge, edge)
        layouts.append((edge, scheme.unfolded_shape, thin_svd(x, rank=0).sigma))

    out: list[SweepRecord] = []
    for target in targets:
        group = []
        for edge, (rows, cols), sigma in layouts:
            k, err = _rank_for_target(sigma, target)
            group.append(
                SweepRecord(
                    image=image_name,
                    method="plain" if edge is None else "tiled",
                    tile_rows=edge,
                    tile_cols=edge,
                    rows=rows,
                    cols=cols,
                    target_rel_error=float(target),
                    achieved_rank=k,
                    achieved_rel_error=err,
                    parameters=parameter_count(rows, cols, k),
                    winner=False,
                )
            )
        # Lowest parameter count wins; ties resolve to the earliest record,
        # which puts the plain method ahead of any tile size.
        best = min(range(len(group)), key=lambda i: group[i].parameters)
        group[best] = replace(group[best], winner=True)
        out.extend(group)
    return out
