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

# Singular values under the rank cut of _pivot_order (eps * sqrt(n) times
# the largest column norm) are exact zeros.  Those above it but at or below
# NULL_COLUMN_RTOL * ||A||_F keep the value measured.  For both, the left
# factor column is replaced by a unit vector orthogonal to the columns
# already accepted, because normalizing a vector of that size would amplify
# rounding noise.
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
    """Thin SVD ``a = u @ diag(sigma) @ v.T``, or its leading triples.

    ``sigma`` has length min(rows, cols) and is nonnegative and
    non-increasing; :func:`thin_svd` reports the singular values under its
    rank cut as exact zeros, so the length depends only on the input shape.
    ``u`` is rows x k and ``v`` is cols x k with k <= len(sigma): the
    leading k singular vectors, as ``thin_svd(a, rank=k)`` returns them,
    with every singular value still held; ``thin_svd(a)`` holds every
    triple (k = len(sigma)).  ``sweeps`` is the number of Jacobi sweeps
    :func:`thin_svd` ran, the final rotation-free one included, and
    ``rotations`` the number of pair rotations it applied; both are 0 for a
    factorization built by hand.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    sweeps: int = 0
    rotations: int = 0

    def __post_init__(self):
        r = self.sigma.shape[0]
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("factor arrays have wrong dimensionality")
        if self.u.shape[1] != self.v.shape[1] or self.u.shape[1] > r:
            raise ValueError("factor column counts disagree with sigma")
        if r and (self.sigma[0] < 0 or np.any(np.diff(self.sigma) > 0)):
            raise ValueError("sigma must be nonnegative and non-increasing")

    @property
    def rank_limit(self) -> int:
        """Number of singular triples stored: the vector columns held, which
        is min(rows, cols) for ``thin_svd(a)``."""
        return self.u.shape[1]


def _pivot_order(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Column order of ``a`` for QR with column pivoting (Businger and
    Golub), and the numerical rank r it reveals: each step takes the column
    with the largest norm left after projecting out the columns already
    taken.

    The steps stop once that largest residual norm is at most
    eps * sqrt(n) * |r11|, with r11 the norm of the first column taken
    (the absolute-error rule of LAPACK's xGEJSV), and r is the number of
    steps taken; a zero matrix has r = 0.  Dropping the rest of R1 is a
    backward error of at most n * eps * sigma_1.  Runs modified
    Gram-Schmidt on a scratch copy held one column per row.  The columns
    after the first r keep their order.
    """
    res = np.array(a.T)
    n = res.shape[0]
    order = np.arange(n)
    for k in range(n):
        tail = res[k:]
        norms = np.einsum("ij,ij->i", tail, tail)
        j = k + int(np.argmax(norms))
        top = norms[j - k]
        if k == 0:
            # Squared, like the norms.
            cut = np.finfo(np.float64).eps ** 2 * n * top
        if top <= cut:
            return order, k
        if j != k:
            res[[k, j]] = res[[j, k]]
            order[[k, j]] = order[[j, k]]
        w = res[k] / math.sqrt(float(top))
        rest = res[k + 1:]
        rest -= np.outer(rest @ w, w)
    return order, n


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


def _jacobi(x: np.ndarray) -> tuple[int, int]:
    """One-sided Jacobi on the n x n ``X``, held one column per row (row j
    of ``x`` is column j of ``X``).  Works in place and returns the sweeps
    run and the pair rotations applied.

    A round that rotates h pairs gathers their rows into one h x 2 x n
    block, multiplies it by the h 2 x 2 rotations in one batched product,
    and scatters the result back.
    """
    n = x.shape[0]
    rel2 = JACOBI_REL_TOL * JACOBI_REL_TOL
    # Each round's pairs interleaved, p0 q0 p1 q1 ..., so that one gather
    # and one scatter move the whole round.
    rounds = [np.stack((p, q), axis=1).ravel() for p, q in _round_robin(n)]
    rotations = 0

    for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
        # Fresh squared column norms each sweep; the in-sweep updates below
        # are cheap estimates that drift over many rotations.
        norms = (x * x).sum(axis=1)
        rotated = False
        for pq in rounds:
            blk = x[pq].reshape(-1, 2, n)
            apq = np.einsum("ij,ij->i", blk[:, 0], blk[:, 1])
            app = norms[pq[0::2]]
            aqq = norms[pq[1::2]]
            # An estimate that drifted to zero or below must not let a pair
            # with apq == 0 through: the angle below divides by apq.
            act = apq * apq > rel2 * np.abs(app * aqq)
            if not act.all():
                if not act.any():
                    continue
                pq = pq.reshape(-1, 2)[act].ravel()
                blk = blk[act]
                apq, app, aqq = apq[act], app[act], aqq[act]
            rotated = True
            rotations += apq.shape[0]
            zeta = (aqq - app) / (2.0 * apq)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # Row pair (p, q) becomes (c p - s q, s p + c q).
            g = np.empty((c.shape[0], 2, 2))
            g[:, 0, 0] = c
            g[:, 1, 1] = c
            g[:, 1, 0] = s
            np.negative(s, out=g[:, 0, 1])
            x[pq] = np.matmul(g, blk).reshape(-1, n)
            shift = t * apq
            norms[pq[0::2]] = app - shift
            norms[pq[1::2]] = aqq + shift
        if not rotated:
            return sweeps, rotations
    raise SvdConvergenceError(
        f"one-sided Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def thin_svd(a, rank: int | None = None) -> SvdFactorization:
    """Thin SVD by QR-preconditioned one-sided Jacobi rotations
    (Drmac and Veselic), truncated to the leading ``rank`` singular
    triples.

    Works on the tall orientation (the input is transposed first when it is
    wide, and the factors are swapped back at the end).  An input whose
    largest entry lies outside [2**-100, 2**100] is first scaled by a power
    of two, which is exact, and ``sigma`` is scaled back, so that no
    squared norm overflows or underflows.  An m x n input is reduced to an
    r x r triangle before any rotation: ``A P = Q1 R1`` with the column
    order ``P`` and the numerical rank r of :func:`_pivot_order`, then
    ``R1[:r].T = Q2 R2``, both by ``numpy.linalg.qr``; only the R of the
    second is kept.  The rank cut drops the rows of ``R1`` after the first
    r pivots, whose residual column norms are at most eps * sqrt(n) * |r11|
    (LAPACK's xGEJSV rule): a backward error of at most n * eps * sigma_1,
    within LAPACK's own absolute error.  The n - r singular values it drops
    are reported as exact zeros.  The Jacobi iteration runs on the lower
    triangular ``X = R2.T``, whose columns are close to orthogonal already,
    and ``A P Q2 = (Q1[:, :r] U_X) diag(sigma) V_X.T``, so the long side is
    ``U = Q1[:, :r] U_X``, completed to k columns inside the range of
    ``Q1`` where fewer than k singular values are usable.

    Each sweep visits every column pair of ``X`` once in round-robin order
    (Brent and Luk): a sweep over n columns is n - 1 rounds (n when n is
    odd), and each round holds up to n / 2 disjoint pairs.  A round
    gathers the pairs that need a rotation into one block, multiplies it
    by their 2 x 2 rotations in one batched ``numpy.matmul``, and scatters
    the result back.  The rotation for a pair (p, q) orthogonalizes the
    two columns.  A pair is rotated when its cosine exceeds
    ``JACOBI_REL_TOL``, whatever the size of the two columns, which keeps
    the singular values above the rank cut accurate relative to themselves
    (columns graded from 1 to 1e-10 keep every one to about 1e-15
    relative).  Convergence is declared after a sweep with no rotations.
    At most
    ``JACOBI_MAX_SWEEPS`` sweeps run, the final rotation-free one
    included; if the last of them still rotated,
    :class:`SvdConvergenceError` is raised.  The sweeps run and the pair
    rotations applied are reported in :attr:`SvdFactorization.sweeps` and
    :attr:`SvdFactorization.rotations`.

    ``rank=k``, an integer in [0, min(m, n)], returns every singular value
    and the leading k singular vectors on each side; ``rank=None`` (the
    default) means k = min(m, n), every triple.  The rotations, and so
    ``sigma``, ``sweeps``, ``rotations`` and the k vectors on the long
    side (``u`` for a tall or square input, ``v`` for a wide one), do not
    depend on k: a call at rank k returns the leading columns of the call
    at full rank, bit for bit.  With ``rank=0`` ``Q1`` is not formed
    either, and both QR factorizations return R only.  The short side is
    ``A.T @ u_k`` (``A @ v_k`` for a wide input), made orthonormal by one
    QR whose column signs follow the signs of the R diagonal (a zero
    counts as positive).  It is orthonormal to about 1e-15 and inherits
    the Jacobi stopping tolerance: at full rank the reconstruction is
    within 1e-12 * ||A||_F of ``a`` (about 1e-13 on the inputs tested),
    and at rank k within 1e-12 * ||A||_F * max(1, sigma_1 / gap) of
    LAPACK's rank-k truncation, where gap = sigma_k - sigma_{k+1}.
    """
    m0 = as_matrix(a)
    transposed = m0.shape[0] < m0.shape[1]
    if transposed:
        m0 = m0.T
    tn = m0.shape[1]
    if rank is None:
        rank = tn
    elif (not isinstance(rank, (int, np.integer)) or isinstance(rank, bool)
            or not 0 <= rank <= tn):
        raise ValueError(f"rank must be an integer in [0, {tn}], got {rank!r}")
    rank = int(rank)
    # Squared norms, and the skip test's products of two of them, stay in
    # range once the largest entry is in [0.5, 1).
    scale = 0
    top = float(np.abs(m0).max())
    if top and not 2.0**-100 <= top <= 2.0**100:
        scale = math.frexp(top)[1]
        m0 = np.ldexp(m0, -scale)
    norm_f = math.sqrt(float(np.einsum("ij,ij->", m0, m0)))

    perm, r = _pivot_order(m0)
    if rank == 0:
        r1 = np.linalg.qr(m0[:, perm], mode="r")
    else:
        q1, r1 = np.linalg.qr(m0[:, perm])
    # Rows r and below of R1 fall under the rank cut and are dropped, so X
    # is r x r; row j holds column j of X = R2.T.
    x = np.linalg.qr(r1[:r].T, mode="r")
    del r1
    sweeps, rotations = _jacobi(x)

    sig = np.sqrt((x * x).sum(axis=1))
    order = np.argsort(-sig, kind="stable")
    # The singular values under the rank cut are exact zeros.
    sig = np.concatenate((sig[order], np.zeros(tn - r)))
    sigma = np.ldexp(sig, scale)
    if rank == 0:
        empty_u, empty_v = np.empty((m0.shape[0], 0)), np.empty((tn, 0))
        if transposed:
            empty_u, empty_v = empty_v, empty_u
        return SvdFactorization(u=empty_u, sigma=sigma, v=empty_v,
                                sweeps=sweeps, rotations=rotations)
    x = x[order[:rank]]

    # Left factor of X.  The k columns large enough to normalize lead,
    # because sig is sorted; the rest are replaced by an orthonormal basis
    # of the complement of the first k.  The columns are padded with zeros
    # to n, so that the product with Q1 is the same BLAS call at every
    # rank and its leading columns come out bit-identical.
    k = int(np.count_nonzero(sig > norm_f * NULL_COLUMN_RTOL))
    kw = min(k, rank)
    ux = np.zeros((tn, tn))
    ux[:r, :kw] = (x[:kw] / sig[:kw, None]).T
    if kw < rank:
        ux[:, kw:rank] = np.linalg.qr(ux[:, :kw], mode="complete")[0][:, kw:rank]
    del x
    u = q1 @ ux
    del q1, ux
    u = np.ascontiguousarray(u[:, :rank])
    # A.T u_j = sigma_j v_j; the QR restores the orthogonality that
    # rounding costs, and the sign fix keeps each column along A.T u_j.
    v, rv = np.linalg.qr(m0.T @ u)
    v *= np.where(np.diagonal(rv) < 0.0, -1.0, 1.0)
    if transposed:
        u, v = v, u
    return SvdFactorization(u=u, sigma=sigma, v=v, sweeps=sweeps, rotations=rotations)


def rank_k_approx(f: SvdFactorization, k: int) -> np.ndarray:
    """Best rank-k approximation assembled from the leading k triples;
    ``k`` may not exceed the triples ``f`` holds."""
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


def approx_report(a, k: int, approx: np.ndarray | None = None) -> ApproxReport:
    """Approximate ``a`` at rank ``k`` and report the cost and the error.

    Without ``approx``, ``a`` is factored to its leading k triples.  Pass
    the rank-k reconstruction ``approx`` itself when the caller builds it
    anyway.  ``a`` must be nonzero for the relative error to be defined.
    """
    m = as_matrix(a)
    # Checked first, so that k = 0 is refused as a rank before it reaches
    # thin_svd, which accepts it.
    parameters = parameter_count(m.shape[0], m.shape[1], int(k))
    norm = frobenius_norm(m)
    if norm == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    if approx is None:
        approx = rank_k_approx(thin_svd(m, rank=k), k)
    elif np.shape(approx) != m.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {np.shape(approx)}")
    diff = (m - approx).ravel()
    abs_sq = float(diff @ diff)
    return ApproxReport(
        rows=m.shape[0],
        cols=m.shape[1],
        rank=int(k),
        parameters=parameters,
        abs_error_sq=abs_sq,
        rel_error=math.sqrt(abs_sq) / norm,
    )
