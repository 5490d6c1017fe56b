"""Low-rank matrix approximation with entry reorganization.

Reorganizing a matrix before truncating its SVD (tiling into columns,
stacking column groups, gathering wrap-around diagonals) costs nothing in
information but can buy a much better approximation per stored parameter.
This package provides the reorganizations, a self-contained thin SVD, the
closed-form tridiagonal-inverse family with its rank-1 certificates, and
the image and time-series experiment harnesses built on top.
"""

from .core import (
    SvdConvergenceError,
    SvdFactorization,
    frobenius_norm,
    parameter_count,
    rank_k_approx,
    relative_error,
    thin_svd,
)
from .covid import DataError, covid_experiment, piecewise_linear_panel
from .pgm import GrayImage, PgmError, load_gray_image, write_gray_image
from .reshape import (
    KroneckerTerm,
    columns_to_diag,
    columns_to_tiles,
    diag_to_columns,
    kronecker_product,
    ksvd_terms,
    stack_column_groups,
    tile_to_columns,
    unstack_column_groups,
)
from .sweep import tile_sweep
from .tridiag import (
    TridiagParams,
    assemble_tridiagonal,
    certify_rank1_gap,
    closed_form_inverse,
    diag_energy,
    geometric_partial_sums,
    remainder_increment,
    spectral_norm_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DataError",
    "GrayImage",
    "KroneckerTerm",
    "PgmError",
    "SvdConvergenceError",
    "SvdFactorization",
    "TridiagParams",
    "assemble_tridiagonal",
    "certify_rank1_gap",
    "closed_form_inverse",
    "columns_to_diag",
    "columns_to_tiles",
    "covid_experiment",
    "diag_energy",
    "diag_to_columns",
    "frobenius_norm",
    "geometric_partial_sums",
    "kronecker_product",
    "ksvd_terms",
    "load_gray_image",
    "parameter_count",
    "piecewise_linear_panel",
    "rank_k_approx",
    "relative_error",
    "remainder_increment",
    "spectral_norm_bound",
    "stack_column_groups",
    "thin_svd",
    "tile_sweep",
    "tile_to_columns",
    "unstack_column_groups",
    "write_gray_image",
]
