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

from .core import SvdFactorization, _count, parameter_count, thin_svd
from .pgm import GrayImage
from .reshape import tile_to_columns

__all__ = [
    "SweepRecord",
    "crop_to_tile_multiple",
    "min_rank_for_error",
    "tile_sweep",
]


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one (method, tile size, target) cell of a sweep.

    ``tile_rows``/``tile_cols`` are None for the plain method.  ``rows`` and
    ``cols`` are the shape of the matrix the SVD actually ran on (the
    cropped image for the plain method, the unfolding for tiles), so
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


def crop_to_tile_multiple(img: GrayImage, tile_rows: int, tile_cols: int) -> GrayImage:
    """Center-crop so both dimensions are tile-size multiples.

    Keeps floor(remainder / 2) rows off the top and the rest off the
    bottom, likewise for columns.  Fails if the image is smaller than one
    tile."""
    rows, cols = img.shape
    p, q = _count(tile_rows, "tile_rows"), _count(tile_cols, "tile_cols")
    if rows < p or cols < q:
        raise ValueError(f"image {rows} x {cols} is smaller than one {p} x {q} tile")
    keep_r = rows - rows % p
    keep_c = cols - cols % q
    top = (rows - keep_r) // 2
    left = (cols - keep_c) // 2
    if top == 0 and left == 0 and keep_r == rows and keep_c == cols:
        return img
    return GrayImage(
        matrix=img.matrix[top : top + keep_r, left : left + keep_c].copy(),
        maxval=img.maxval,
    )


def _check_target(target: float) -> None:
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")


def _rank_for_target(sigma: np.ndarray, target: float) -> tuple[int, float]:
    """Smallest k with tail energy ratio at most target**2, plus the
    achieved relative error, both straight from the singular values."""
    sq = sigma * sigma
    # Reversed cumulative sums give every tail without subtractions, so no
    # cancellation as the tail gets small.
    tails = np.zeros(sq.size + 1)
    tails[: sq.size] = np.cumsum(sq[::-1])[::-1]
    total = tails[0]
    if total == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    budget = target * target * total
    # The tails never increase and the last is exactly zero, so the first
    # k >= 1 with tails[k] <= budget exists and a binary search finds it.
    k = int(np.searchsorted(-tails[1:], -budget, side="left")) + 1
    return k, math.sqrt(tails[k] / total)


def min_rank_for_error(a, target: float, f: SvdFactorization | None = None) -> tuple[int, float]:
    """Minimum rank whose truncation brings the relative Frobenius error of
    ``a`` down to ``target``, with the error actually achieved.

    ``target`` must lie in (0, 1).  A precomputed factorization of ``a``
    may be passed to reuse it across targets."""
    _check_target(target)
    if f is None:
        f = thin_svd(a, rank=0)
    return _rank_for_target(f.sigma, target)


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
        _check_target(t)

    # (tile edge, or None for the plain method; SVD shape; singular values)
    layouts = [(None, img.shape, thin_svd(img.matrix, rank=0).sigma)]
    for s in tile_sizes:
        edge = _count(s, "tile_sizes")
        cropped = crop_to_tile_multiple(img, edge, edge)
        x, scheme = tile_to_columns(cropped.matrix, edge, edge)
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
