"""A bidiagonally-factored tridiagonal family whose inverses have closed
forms, plus a numerical certificate that the wrap-around diagonal layout
improves rank-1 approximation of those inverses as the size grows.

The family is parameterized by (alpha, beta, gamma, n) with |alpha| < 1,
|beta| < 1, gamma > 0.  The tridiagonal matrix is the product L @ U of a
unit lower bidiagonal factor (subdiagonal alpha) and an upper bidiagonal
factor (diagonal gamma, superdiagonal beta * gamma).  Its inverse has
entries that decay geometrically away from the diagonal:

    inv[i, j] = (-alpha)**max(i-j, 0) * (-beta)**max(j-i, 0)
                * S[n - max(i, j)] / gamma        (0-based i, j)

where S[i] = 1 + delta + ... + delta**(i-1) and delta = alpha * beta.  The
squared norm of the inverse's main diagonal grows linearly in n with a
bounded remainder, while the top singular value of the inverse stays under
an n-independent bound; past a crossover size, gathering the wrap-around
diagonals into columns therefore beats the plain orientation at rank 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _count, approx_report, frobenius_norm, rank_k_approx, thin_svd
from .reshape import diag_to_columns

__all__ = [
    "TridiagParams",
    "Rank1Certificate",
    "build_bidiagonal_factors",
    "assemble_tridiagonal",
    "geometric_partial_sums",
    "closed_form_inverse",
    "spectral_norm_bound",
    "diag_energy",
    "linear_rate",
    "remainder_term",
    "remainder_increment",
    "certify_rank1_gap",
]

# Below this distance from delta = 1 the ratio forms of the geometric sums
# lose too many digits; direct summation is used instead.
_NEAR_ONE = 1e-8

# Relative slack for the closed-form consistency checks in the certificate.
_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class TridiagParams:
    """Family parameters.  Decay needs |alpha| < 1 and |beta| < 1.  The
    factorization needs gamma > 0, and gamma in [1e-100, 1e100] keeps the
    squared quantities, which scale as 1 / gamma**2, in the float64 range."""

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
                raise ValueError(f"{name} must be a finite number, got {val!r}")
        if abs(self.alpha) >= 1.0 or abs(self.beta) >= 1.0:
            raise ValueError("|alpha| and |beta| must be below 1")
        if not 1e-100 <= self.gamma <= 1e100:
            raise ValueError(f"gamma must lie in [1e-100, 1e100], got {self.gamma!r}")
        _count(self.n, "n")

    @property
    def delta(self) -> float:
        return self.alpha * self.beta


def build_bidiagonal_factors(p: TridiagParams) -> tuple[np.ndarray, np.ndarray]:
    """The pair (L, U): L unit lower bidiagonal with subdiagonal ``alpha``,
    U upper bidiagonal with diagonal ``gamma`` and superdiagonal
    ``beta * gamma``."""
    n = p.n
    lower = np.eye(n)
    upper = p.gamma * np.eye(n)
    if n > 1:
        idx = np.arange(n - 1)
        lower[idx + 1, idx] = p.alpha
        upper[idx, idx + 1] = p.beta * p.gamma
    return lower, upper


def assemble_tridiagonal(p: TridiagParams) -> np.ndarray:
    """The family member itself, formed as L @ U."""
    lower, upper = build_bidiagonal_factors(p)
    return lower @ upper


def geometric_partial_sums(delta: float, n: int) -> np.ndarray:
    """Array of S[1..n] with S[i] = 1 + delta + ... + delta**(i-1).

    Uses the ratio form (1 - delta**i) / (1 - delta) away from delta = 1
    and direct cumulative summation near it.
    """
    n = _count(n, "n")
    if abs(1.0 - delta) < _NEAR_ONE:
        return np.cumsum(np.power(delta, np.arange(n)))
    return (1.0 - np.power(delta, np.arange(1, n + 1))) / (1.0 - delta)


def closed_form_inverse(p: TridiagParams) -> np.ndarray:
    """Inverse of the tridiagonal member, assembled entrywise from the
    closed form rather than by solving linear systems."""
    n = p.n
    s = geometric_partial_sums(p.delta, n)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    lo = np.maximum(i - j, 0)
    hi = np.maximum(j - i, 0)
    # S index n - max(i, j) in 1-based terms is position n - max(i, j) - 1
    # of the 0-based array.
    tail = s[n - 1 - np.maximum(i, j)]
    return np.power(-p.alpha, lo) * np.power(-p.beta, hi) * tail / p.gamma


def spectral_norm_bound(p: TridiagParams) -> float:
    """An n-independent upper bound on the top singular value of the
    inverse, from the geometric decay of its rows and columns."""
    a = abs(p.alpha)
    b = abs(p.beta)
    row = (1.0 / (1.0 - p.alpha * p.alpha)) * (2.0 / (1.0 - a) - 1.0)
    col = (1.0 / (p.gamma * p.gamma * (1.0 - p.beta * p.beta))) * (2.0 / (1.0 - b) - 1.0)
    return math.sqrt(row) * math.sqrt(col)


def diag_energy(p: TridiagParams) -> float:
    """Closed form of the sum of squared partial sums S[1]**2 + ... + S[n]**2,
    which equals gamma**2 times the squared norm of the inverse's main
    diagonal."""
    d = p.delta
    n = p.n
    if abs(1.0 - d) < _NEAR_ONE:
        s = geometric_partial_sums(d, n)
        return float(s @ s)
    return (
        n
        - 2.0 * d * (1.0 - d**n) / (1.0 - d)
        + d * d * (1.0 - d ** (2 * n)) / (1.0 - d * d)
    ) / ((1.0 - d) ** 2)


def linear_rate(p: TridiagParams) -> float:
    """Per-step growth rate of the squared diagonal norm of the inverse:
    1 / (gamma**2 * (1 - delta)**2)."""
    d = p.delta
    return 1.0 / (p.gamma * p.gamma * (1.0 - d) ** 2)


def remainder_term(p: TridiagParams) -> float:
    """Size-dependent remainder in the decomposition

        squared diagonal norm = linear_rate * n + remainder_term.

    Converges as n grows; see :func:`remainder_increment` for its step."""
    d = p.delta
    n = p.n
    if abs(1.0 - d) < _NEAR_ONE:
        return diag_energy(p) / (p.gamma * p.gamma) - linear_rate(p) * n
    num = 2.0 * d * (1.0 - d**n) / (1.0 - d) - d * d * (1.0 - d ** (2 * n)) / (1.0 - d * d)
    return -num / (p.gamma * p.gamma * (1.0 - d) ** 2)


def remainder_increment(p: TridiagParams) -> float:
    """Exact step ``remainder_term(n+1) - remainder_term(n)``, written so
    consecutive remainders never have to be subtracted: the difference
    telescopes to -(2*delta**(n+1) - delta**(2n+2)) / (gamma**2*(1-delta)**2).
    """
    d = p.delta
    n = p.n
    return -(2.0 * d ** (n + 1) - d ** (2 * n + 2)) / (p.gamma * p.gamma * (1.0 - d) ** 2)


@dataclass(frozen=True)
class Rank1Certificate:
    """Measured and closed-form quantities for the size-``n`` member of the
    caller's family, with the checks that make the rank-1 comparison sound.

    ``plain_rank1_err_sq`` and ``reorg_rank1_err_sq`` are measured squared
    Frobenius errors of rank-1 truncations of the inverse, in its plain
    orientation and after the wrap-around diagonal layout.  The remaining
    fields are closed forms the measurements are checked against.
    """

    n: int
    top_singular_value: float
    spectral_bound: float
    frob_sq: float
    diag_norm_sq: float
    plain_rank1_err_sq: float
    reorg_rank1_err_sq: float
    rate: float
    remainder: float

    def violations(self) -> tuple[str, ...]:
        """Empty when every cross-check holds; otherwise one line per
        failed check."""
        out = []
        slack = _CHECK_RTOL * self.frob_sq
        if self.top_singular_value > self.spectral_bound * (1.0 + 1e-12):
            out.append(
                "top singular value "
                f"{self.top_singular_value!r} exceeds spectral bound {self.spectral_bound!r}"
            )
        resid = self.frob_sq - self.top_singular_value**2
        if abs(self.plain_rank1_err_sq - resid) > slack:
            out.append(
                f"plain rank-1 error {self.plain_rank1_err_sq!r} does not match "
                f"frob_sq - sigma1**2 = {resid!r}"
            )
        if self.plain_rank1_err_sq < self.frob_sq - self.spectral_bound**2 - slack:
            out.append(
                f"plain rank-1 error {self.plain_rank1_err_sq!r} is below the floor "
                f"frob_sq - bound**2 = {self.frob_sq - self.spectral_bound ** 2!r}"
            )
        if self.reorg_rank1_err_sq > self.frob_sq - self.diag_norm_sq + slack:
            out.append(
                f"reorganized rank-1 error {self.reorg_rank1_err_sq!r} exceeds the ceiling "
                f"frob_sq - diag_norm_sq = {self.frob_sq - self.diag_norm_sq!r}"
            )
        model = self.rate * self.n + self.remainder
        if abs(model - self.diag_norm_sq) > _CHECK_RTOL * abs(self.diag_norm_sq):
            out.append(
                f"rate * n + remainder = {model!r} does not match "
                f"diag_norm_sq = {self.diag_norm_sq!r}"
            )
        return tuple(out)

    @property
    def certified(self) -> bool:
        return not self.violations()

    @property
    def rank1_gap(self) -> float:
        """Plain minus reorganized squared rank-1 error; positive when the
        diagonal layout wins."""
        return self.plain_rank1_err_sq - self.reorg_rank1_err_sq

    @property
    def reorg_wins(self) -> bool:
        return self.reorg_rank1_err_sq < self.plain_rank1_err_sq


def certify_rank1_gap(p: TridiagParams) -> Rank1Certificate:
    """Measure the rank-1 errors of the inverse in both layouts and bundle
    them with the closed forms.  Needs n >= 2 for a rank-1 truncation to
    discard anything."""
    if p.n < 2:
        raise ValueError(f"certification needs n >= 2, got {p.n}")
    inv = closed_form_inverse(p)
    f = thin_svd(inv, rank=1)
    plain = approx_report(inv, 1, approx=rank_k_approx(f, 1))
    d = diag_to_columns(inv)
    reorg = approx_report(d, 1, approx=rank_k_approx(thin_svd(d, rank=1), 1))
    diag = np.diagonal(inv)
    return Rank1Certificate(
        n=p.n,
        top_singular_value=float(f.sigma[0]),
        spectral_bound=spectral_norm_bound(p),
        frob_sq=frobenius_norm(inv) ** 2,
        diag_norm_sq=float(diag @ diag),
        plain_rank1_err_sq=plain.abs_error_sq,
        reorg_rank1_err_sq=reorg.abs_error_sq,
        rate=linear_rate(p),
        remainder=remainder_term(p),
    )
