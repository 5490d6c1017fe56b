"""Dense-matrix primitives: validation, Frobenius norm, a one-sided Jacobi
thin SVD, and rank-k truncation with error and parameter accounting.

All public operations accept anything :func:`numpy.asarray` understands and
validate it up front, so the rest of the package can assume a well-formed,
finite, real, 2-D float64 array.  Factorizations and reports are frozen
dataclasses; nothing in this module mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdConvergenceError",
    "SvdFactorization",
    "ApproxReport",
    "as_matrix",
    "frobenius_norm",
    "thin_svd",
    "rank_k_approx",
    "relative_error",
    "parameter_count",
    "approx_report",
]

# Sweep cap and stopping threshold for the one-sided Jacobi iteration.  The
# threshold bounds the cosine between two columns, so it is relative to the
# pair's own norms: scaling a matrix, or one of its columns, does not change
# how hard it is to converge.
JACOBI_MAX_SWEEPS = 60
JACOBI_REL_TOL = 1e-12

# Column norms at or below NULL_COLUMN_RTOL * ||A||_F are treated as a
# numerically zero singular value: the singular value is reported as the
# tiny norm that was measured, but the left factor column is replaced by a
# unit vector orthogonal to the columns already accepted, because
# normalizing a vector of that size would amplify rounding noise.
NULL_COLUMN_RTOL = 1e-13


class SvdConvergenceError(RuntimeError):
    """Jacobi sweep cap exhausted before the off-diagonal mass went under
    the stopping threshold."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous float64 2-D array and validate it.

    Rejects empty axes and non-finite entries.  Returns a copy unless the
    input already satisfies every requirement, so callers may treat the
    result as their own.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {m.ndim}-D")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    m = as_matrix(a)
    # Accumulate in the flat dot product; fast and accurate for float64.
    flat = m.ravel()
    return math.sqrt(float(flat @ flat))


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``a = u @ diag(sigma) @ v.T``.

    ``u`` is rows x r, ``v`` is cols x r, ``sigma`` has length
    r = min(rows, cols) and is nonnegative and non-increasing.  Numerically
    zero singular values are kept (as the tiny measured values) so the
    factor shapes depend only on the input shape.  ``sweeps`` is the number
    of Jacobi sweeps :func:`thin_svd` ran, the final rotation-free one
    included; it is 0 for a factorization built by hand.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    sweeps: int = 0

    def __post_init__(self):
        r = self.sigma.shape[0]
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("factor arrays have wrong dimensionality")
        if self.u.shape[1] != r or self.v.shape[1] != r:
            raise ValueError("factor column counts disagree with sigma")
        if r and (self.sigma[0] < 0 or np.any(np.diff(self.sigma) > 0)):
            raise ValueError("sigma must be nonnegative and non-increasing")

    @property
    def rank_limit(self) -> int:
        """Number of singular triples stored, min(rows, cols)."""
        return self.sigma.shape[0]


def _pivot_order(a: np.ndarray) -> np.ndarray:
    """Column order of ``a`` for QR with column pivoting (Businger and
    Golub): each step takes the column with the largest norm left after
    projecting out the columns already taken.

    Runs modified Gram-Schmidt on a scratch copy held one column per row.
    Once every residual is exactly zero the remaining columns keep their
    order.
    """
    res = np.array(a.T)
    order = np.arange(res.shape[0])
    for k in range(res.shape[0] - 1):
        tail = res[k:]
        norms = np.einsum("ij,ij->i", tail, tail)
        j = k + int(np.argmax(norms))
        top = norms[j - k]
        if top == 0.0:
            break
        if j != k:
            res[[k, j]] = res[[j, k]]
            order[[k, j]] = order[[j, k]]
        w = res[k] / math.sqrt(float(top))
        rest = res[k + 1:]
        rest -= np.outer(rest @ w, w)
    return order


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair schedule for one Jacobi sweep over ``n`` columns.

    Round-robin tournament (circle method): column 0 stays seated while the
    others rotate one seat per round, and each round pairs seat k with the
    seat mirrored across the table.  An odd ``n`` gets a dummy column whose
    pairs are dropped.  Over the ``n - 1`` rounds (``n`` when ``n`` is odd)
    every pair (p, q), p < q, appears exactly once, and the pairs of one
    round are disjoint, so a round can be rotated as a batch.
    """
    seats = n + n % 2
    half = seats // 2
    ring = np.arange(1, seats)
    rounds = []
    for r in range(seats - 1):
        table = np.concatenate(([0], np.roll(ring, r)))
        a, b = table[:half], table[::-1][:half]
        real = (a < n) & (b < n)
        if real.any():
            rounds.append((np.minimum(a, b)[real], np.maximum(a, b)[real]))
    return rounds


def thin_svd(a) -> SvdFactorization:
    """Thin SVD by QR-preconditioned one-sided Jacobi rotations
    (Drmac and Veselic).

    Works on the tall orientation (the input is transposed first when it is
    wide, and the factors are swapped back at the end).  An m x n input is
    reduced to an n x n triangle before any rotation: ``A P = Q1 R1`` with
    the column order ``P`` of :func:`_pivot_order`, then ``R1.T = Q2 R2``,
    both by ``numpy.linalg.qr``.  The Jacobi iteration runs on the lower
    triangular ``X = R2.T``, whose columns are close to orthogonal already,
    and ``A = (Q1 U_X) diag(sigma) (P Q2 V_X).T``.

    Each sweep visits every column pair of ``X`` once in round-robin order
    (Brent and Luk): a sweep over n columns is n - 1 rounds (n when n is
    odd), and each round holds up to n / 2 disjoint pairs that are rotated
    together with array operations.  The rotation for a pair (p, q)
    orthogonalizes the two columns and is applied to the same columns of
    ``Q2 V_X``.  A pair is rotated when its cosine exceeds ``JACOBI_REL_TOL``,
    whatever the size of the two columns, which keeps small singular values
    accurate relative to themselves.  Convergence is declared after a sweep
    with no rotations.  At most ``JACOBI_MAX_SWEEPS`` sweeps run, the final
    rotation-free one included; if the last of them still rotated,
    :class:`SvdConvergenceError` is raised.  The sweeps run are reported in
    :attr:`SvdFactorization.sweeps`.
    """
    m0 = as_matrix(a)
    transposed = m0.shape[0] < m0.shape[1]
    if transposed:
        m0 = m0.T
    tn = m0.shape[1]
    norm_f = math.sqrt(float(np.einsum("ij,ij->", m0, m0)))

    perm = _pivot_order(m0)
    q1, r1 = np.linalg.qr(m0[:, perm])
    q2, r2 = np.linalg.qr(r1.T)
    del r1
    # Row j holds column j of X (row j of R2) followed by column j of
    # Q2 V_X, so one row gather and one row scatter per round rotate both;
    # V_X starts as the identity, so that half starts as Q2.T.
    rows = np.concatenate((r2, q2.T), axis=1)
    del q2, r2
    work = rows[:, :tn]

    rel2 = JACOBI_REL_TOL * JACOBI_REL_TOL
    rounds = _round_robin(tn)

    for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
        # Fresh squared column norms each sweep; the in-sweep updates below
        # are cheap estimates that drift over many rotations.
        norms = (work * work).sum(axis=1)
        rotated = False
        for p, q in rounds:
            rp = rows[p]
            rq = rows[q]
            apq = np.einsum("ij,ij->i", rp[:, :tn], rq[:, :tn])
            app = norms[p]
            aqq = norms[q]
            # An estimate that drifted to zero or below must not let a pair
            # with apq == 0 through: the angle below divides by apq.
            act = apq * apq > rel2 * np.abs(app * aqq)
            if not act.all():
                if not act.any():
                    continue
                p, q, rp, rq = p[act], q[act], rp[act], rq[act]
                apq, app, aqq = apq[act], app[act], aqq[act]
            rotated = True
            zeta = (aqq - app) / (2.0 * apq)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            cc = c[:, None]
            sc = s[:, None]
            rows[p] = cc * rp - sc * rq
            rows[q] = cc * rq + sc * rp
            norms[p] = app - t * apq
            norms[q] = aqq + t * apq
        if not rotated:
            break
    else:
        raise SvdConvergenceError(
            f"one-sided Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )

    sig = np.sqrt((work * work).sum(axis=1))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    rows = rows[order]

    # Left factor of X.  The k columns large enough to normalize lead,
    # because sig is sorted; the rest are replaced by an orthonormal basis
    # of the complement of the first k.
    k = int(np.count_nonzero(sig > norm_f * NULL_COLUMN_RTOL))
    ux = np.empty((tn, tn))
    ux[:, :k] = (rows[:k, :tn] / sig[:k, None]).T
    if k < tn:
        ux[:, k:] = np.linalg.qr(ux[:, :k], mode="complete")[0][:, k:]

    v = np.empty((tn, tn))
    v[perm] = rows[:, tn:].T
    del rows, work
    u = q1 @ ux
    if transposed:
        return SvdFactorization(u=v, sigma=sig, v=u, sweeps=sweeps)
    return SvdFactorization(u=u, sigma=sig, v=v, sweeps=sweeps)


def rank_k_approx(f: SvdFactorization, k: int) -> np.ndarray:
    """Best rank-k approximation assembled from the leading k triples."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"rank must be an integer, got {k!r}")
    if k < 1 or k > f.rank_limit:
        raise ValueError(f"rank must be in [1, {f.rank_limit}], got {k}")
    uk = f.u[:, :k]
    vk = f.v[:, :k]
    return (uk * f.sigma[:k]) @ vk.T


def relative_error(a, b) -> float:
    """``||a - b||_F / ||a||_F``; requires matching shapes and nonzero ``a``."""
    ma = as_matrix(a, "a")
    mb = as_matrix(b, "b")
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    denom = frobenius_norm(ma)
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    return frobenius_norm(ma - mb) / denom


def parameter_count(rows: int, cols: int, k: int) -> int:
    """Storage cost of a rank-k factorization of a rows x cols matrix:
    k * (rows + cols) scalars, counting both factor panels."""
    for name, val in (("rows", rows), ("cols", cols), ("k", k)):
        if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < 1:
            raise ValueError(f"{name} must be a positive integer, got {val!r}")
    return int(k) * (int(rows) + int(cols))


@dataclass(frozen=True)
class ApproxReport:
    """One rank-k approximation outcome for a single matrix."""

    rows: int
    cols: int
    rank: int
    parameters: int
    abs_error_sq: float
    rel_error: float


def approx_report(a, k: int, f: SvdFactorization | None = None) -> ApproxReport:
    """Approximate ``a`` at rank ``k`` and report the cost and the error.

    Pass a precomputed factorization ``f`` of ``a`` to amortize the SVD
    across several ranks.  ``a`` must be nonzero for the relative error to
    be defined.
    """
    m = as_matrix(a)
    if f is None:
        f = thin_svd(m)
    y = rank_k_approx(f, k)
    diff = (m - y).ravel()
    abs_sq = float(diff @ diff)
    return ApproxReport(
        rows=m.shape[0],
        cols=m.shape[1],
        rank=int(k),
        parameters=parameter_count(m.shape[0], m.shape[1], int(k)),
        abs_error_sq=abs_sq,
        rel_error=math.sqrt(abs_sq) / frobenius_norm(m),
    )
