"""Entry-preserving reorganizations of a dense matrix.

Two layout families are provided, each with its exact inverse:

* tiles: cut the matrix into a grid of p x q tiles and make each tile one
  column of the output.  Stacking g contiguous column groups vertically is
  the 1 x (cols / g) tiling transposed, and the plain matrix is the
  1 x cols tile, whose unfolding is its transpose;
* wrap-around diagonals: for square input, make each cyclic diagonal one
  column of the output.

Every operation only moves entries, so round trips are bitwise exact.  The
tile layout doubles as a sum-of-Kronecker-products factorizer: the rank-r
truncation of the tiled unfolding is a sum of r Kronecker terms.

Layout conventions (fixed, relied on by the regression tests):

* tiles are enumerated down the columns of the tile grid (tile column index
  varies slowest), and each tile is vectorized column-major;
* stacking puts column group i into output rows i*rows .. (i+1)*rows;
* the diagonal layout puts input entry (i, (i + k) mod n) at output (i, k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _count, as_matrix, thin_svd

__all__ = [
    "TileScheme",
    "KroneckerTerm",
    "tile_to_columns",
    "columns_to_tiles",
    "stack_column_groups",
    "unstack_column_groups",
    "diag_to_columns",
    "columns_to_diag",
    "kronecker_product",
    "ksvd_terms",
]


@dataclass(frozen=True)
class TileScheme:
    """Shape bookkeeping for one tiling: p x q tiles in a gr x gc grid."""

    tile_rows: int
    tile_cols: int
    grid_rows: int
    grid_cols: int

    def __post_init__(self):
        for name in ("tile_rows", "tile_cols", "grid_rows", "grid_cols"):
            _count(getattr(self, name), name)

    @property
    def unfolded_shape(self) -> tuple[int, int]:
        return (self.tile_rows * self.tile_cols, self.grid_rows * self.grid_cols)


def tile_to_columns(a, tile_rows: int, tile_cols: int) -> tuple[np.ndarray, TileScheme]:
    """Unfold ``a`` so each p x q tile becomes one column.

    The tile sizes must be positive integers (Python or numpy, not
    ``bool``) that divide the matrix dimensions exactly; use a crop first
    when they do not.  Output column gc*grid_rows + gr holds the tile
    at grid position (gr, gc), vectorized column-major.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    p, q = _count(tile_rows, "tile_rows"), _count(tile_cols, "tile_cols")
    if rows % p or cols % q:
        raise ValueError(
            f"tile {p} x {q} does not divide matrix {rows} x {cols}"
        )
    gr, gc = rows // p, cols // q
    # Axes after the first reshape: (grid row, row in tile, grid col,
    # col in tile).  Column-major vectorization of a tile means the row in
    # tile varies fastest, then the col in tile; tile order means grid row
    # varies fastest, then grid col.
    x = m.reshape(gr, p, gc, q).transpose(3, 1, 2, 0).reshape(q * p, gc * gr)
    return np.ascontiguousarray(x), TileScheme(p, q, gr, gc)


def columns_to_tiles(x, scheme: TileScheme) -> np.ndarray:
    """Exact inverse of :func:`tile_to_columns` under the same scheme."""
    m = as_matrix(x)
    if m.shape != scheme.unfolded_shape:
        raise ValueError(
            f"unfolded matrix is {m.shape}, scheme expects {scheme.unfolded_shape}"
        )
    p, q = scheme.tile_rows, scheme.tile_cols
    gr, gc = scheme.grid_rows, scheme.grid_cols
    a = m.reshape(q, p, gc, gr).transpose(3, 1, 2, 0).reshape(gr * p, gc * q)
    return np.ascontiguousarray(a)


def stack_column_groups(a, groups: int) -> np.ndarray:
    """Split the columns into ``groups`` contiguous blocks and stack them
    vertically; group i lands in output rows i*rows .. (i+1)*rows.
    ``groups`` must be a positive integer that divides the column count.
    The stack is the unfolding of 1 x (cols / groups) tiles, transposed."""
    m = as_matrix(a)
    cols = m.shape[1]
    g = _count(groups, "groups")
    if cols % g:
        raise ValueError(f"{g} groups do not divide {cols} columns")
    return np.ascontiguousarray(tile_to_columns(m, 1, cols // g)[0].T)


def unstack_column_groups(b, groups: int) -> np.ndarray:
    """Exact inverse of :func:`stack_column_groups` for the same ``groups``."""
    m = as_matrix(b)
    srows, w = m.shape
    g = _count(groups, "groups")
    if srows % g:
        raise ValueError(f"{g} groups do not divide {srows} stacked rows")
    return columns_to_tiles(m.T, TileScheme(1, w, srows // g, g))


def _cyclic_gather(a, step: int) -> np.ndarray:
    """Output (i, k) is input (i, (k + step * i) mod n), for a square ``a``."""
    m = as_matrix(a)
    n, cols = m.shape
    if n != cols:
        raise ValueError(f"diagonal layout needs a square matrix, got {m.shape}")
    idx = np.arange(n)
    return m[idx[:, None], (step * idx[:, None] + idx[None, :]) % n]


def diag_to_columns(a) -> np.ndarray:
    """Gather the wrap-around diagonals of a square matrix into columns:
    output (i, k) is input (i, (i + k) mod n).  Column 0 is the main
    diagonal; column k is the k-th cyclic superdiagonal."""
    return _cyclic_gather(a, 1)


def columns_to_diag(b) -> np.ndarray:
    """Exact inverse of :func:`diag_to_columns`: input (i, j) is taken from
    output cell (i, (j - i) mod n)."""
    return _cyclic_gather(b, -1)


@dataclass(frozen=True)
class KroneckerTerm:
    """One term ``kron(b, c)`` of a sum-of-Kronecker-products expansion.

    The scale of the term is folded into ``c``, so the sum of
    ``kron(t.b, t.c)`` over the terms is the approximation itself.
    """

    b: np.ndarray
    c: np.ndarray


def kronecker_product(b, c) -> np.ndarray:
    """Kronecker product of two dense matrices."""
    return np.kron(as_matrix(b, "b"), as_matrix(c, "c"))


def ksvd_terms(a, tile_rows: int, tile_cols: int, r: int) -> list[KroneckerTerm]:
    """Leading ``r`` Kronecker terms of ``a`` for tile shape p x q.

    Each singular triple of the tiled unfolding yields one term: the right
    singular vector reshapes (column-major) to the gr x gc coefficient
    matrix ``b`` and the scaled left singular vector to the p x q tile
    ``c``.  Summing all min(p*q, gr*gc) terms reproduces ``a`` exactly up
    to the accuracy of the factorization.
    """
    x, scheme = tile_to_columns(a, tile_rows, tile_cols)
    r = _count(r, "r", 1, min(x.shape))
    f = thin_svd(x, rank=r)
    p, q = scheme.tile_rows, scheme.tile_cols
    gr, gc = scheme.grid_rows, scheme.grid_cols
    terms = []
    for j in range(r):
        b = f.v[:, j].reshape(gc, gr).T
        c = (f.sigma[j] * f.u[:, j]).reshape(q, p).T
        terms.append(KroneckerTerm(b=np.ascontiguousarray(b), c=np.ascontiguousarray(c)))
    return terms
