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


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an ``int`` when it is an integer (Python or numpy, not
    ``bool``) in [low, high], or at least ``low`` when ``high`` is None;
    anything else raises a ``ValueError`` that names the argument."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    if high is None:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``m`` scaled exactly by 2**-e, and e: 0 when the largest entry lies
    in [2**-100, 2**100] or is zero, else the e that puts it in [0.5, 1),
    so that squared norms and their products stay in the float64 range."""
    top = float(np.abs(m).max())
    if top and not 2.0**-100 <= top <= 2.0**100:
        e = math.frexp(top)[1]
        return np.ldexp(m, -e), e
    return m, 0


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries, scaled by a power of two
    first where they are extreme, so that no square overflows or underflows."""
    m, e = _unit_scale(as_matrix(a))
    # Accumulate in the flat dot product; fast and accurate for float64.
    flat = m.ravel()
    try:
        return math.ldexp(math.sqrt(float(flat @ flat)), e)
    except OverflowError:
        raise ValueError("Frobenius norm overflows float64") from None


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``a = u @ diag(sigma) @ v.T``, or its leading triples.

    ``sigma`` has length min(rows, cols) and is nonnegative and
    non-increasing; :func:`thin_svd` reports the singular values under its
    rank cut, its one zero rule, as exact zeros, so the length depends only
    on the input shape.
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


def _round_robin(n: int) -> np.ndarray:
    """Pair schedule for one Jacobi sweep over ``n`` columns, one round per
    row with its pairs interleaved, p0 q0 p1 q1 ..., so that one gather and
    one scatter move the whole round.

    Round-robin tournament (circle method): column 0 stays seated while the
    others rotate one seat per round, so seat k > 0 of round r holds column
    1 + (k - 1 - r) mod (seats - 1), and each round pairs seat k with the
    seat mirrored across the table.  An odd ``n`` gets a dummy column whose
    pair is dropped from every round.  Over the ``n - 1`` rounds (``n`` when
    ``n`` is odd) every pair (p, q), p < q, appears exactly once, and the
    pairs of one round are disjoint, so a round can be rotated as a batch.
    Fewer than two columns have no pairs and no rounds.
    """
    if n < 2:
        return np.empty((0, 0), dtype=np.intp)
    seats = n + n % 2
    half = seats // 2
    r = np.arange(seats - 1)[:, None]
    k = np.arange(1, seats)
    table = np.zeros((seats - 1, seats), dtype=np.intp)
    table[:, 1:] = 1 + (k - 1 - r) % (seats - 1)
    a, b = table[:, :half], table[:, : half - 1 : -1]
    pairs = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=2)
    if n % 2:
        # The dummy is column n, always the larger of its pair.
        pairs = pairs[pairs[:, :, 1] < n].reshape(seats - 1, half - 1, 2)
    return pairs.reshape(seats - 1, -1)


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
    rounds = _round_robin(n)
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
    ``U = Q1[:, :r] U_X``, followed past the rank cut, the one zero rule,
    by the trailing columns of ``Q1``.

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
    rank = tn if rank is None else _count(rank, "rank", 0, tn)
    m0, scale = _unit_scale(m0)

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

    # U_X in the top-left block of the identity, so that the columns past
    # the rank cut are Q1's own.  The product with Q1 is then the same BLAS
    # call at every rank, and its leading columns come out bit-identical.
    ux = np.eye(tn)
    ux[:r, :r] = (x[order] / sig[:r, None]).T
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
    k = _count(k, "rank", 1, f.rank_limit)
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
    rows, cols, k = _count(rows, "rows"), _count(cols, "cols"), _count(k, "k")
    return k * (rows + cols)


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
    """Approximate ``a`` at rank ``k``, an integer in [1, min(rows, cols)],
    and report the cost and the error.

    Without ``approx``, ``a`` is factored to its leading k triples.  Pass
    the rank-k reconstruction ``approx`` itself when the caller builds it
    anyway; it must be finite and of the shape of ``a``.  ``a`` must be
    nonzero for the relative error to be defined.  ``abs_error_sq`` is the
    squared error rounded to float64 (0.0 where it underflows; a
    ``ValueError`` where it overflows).
    """
    m = as_matrix(a)
    k = _count(k, "rank", 1, min(m.shape))
    parameters = parameter_count(m.shape[0], m.shape[1], k)
    norm = frobenius_norm(m)
    if norm == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    if approx is None:
        approx = rank_k_approx(thin_svd(m, rank=k), k)
    else:
        approx = as_matrix(approx, "approx")
        if approx.shape != m.shape:
            raise ValueError(f"shape mismatch: {m.shape} vs {approx.shape}")
    diff, e = _unit_scale(m - approx)
    flat = diff.ravel()
    sq = float(flat @ flat)
    try:
        abs_sq = math.ldexp(sq, 2 * e)
    except OverflowError:
        raise ValueError("squared error overflows float64") from None
    return ApproxReport(
        rows=m.shape[0],
        cols=m.shape[1],
        rank=k,
        parameters=parameters,
        abs_error_sq=abs_sq,
        rel_error=math.ldexp(math.sqrt(sq), e) / norm,
    )
