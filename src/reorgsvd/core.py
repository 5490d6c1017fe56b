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

# Rows per block of the Gram matrix that proves a sweep quiet, and the
# squared row norm under which the proof gives up: above it, tol**2 times
# a product of two norms, and every dot near the line, stay clear of the
# subnormal range.
_GRAM_BLOCK = 16
_GRAM_TINY = 2.0**-460


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


def _sum_sq(m: np.ndarray) -> tuple[float, int]:
    """The sum of squared entries of ``m`` as (s, e), the sum being s * 4**e,
    with s summed over ``m`` scaled by 2**-e by :func:`_unit_scale`."""
    m, e = _unit_scale(m)
    # Accumulate in the flat dot product; fast and accurate for float64.
    flat = m.ravel()
    return float(flat @ flat), e


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries, scaled by a power of two
    first where they are extreme, so that no square overflows or underflows."""
    s, e = _sum_sq(as_matrix(a))
    try:
        return math.ldexp(math.sqrt(s), e)
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
    :func:`thin_svd` took, the final rotation-free one included, whether it
    was run or proved quiet, and ``rotations`` the number of pair rotations
    it applied; both are 0 for a factorization built by hand.
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
    Gram-Schmidt on a scratch copy held one column per row, swapping a
    pivot into place through one row copy and subtracting each projection
    as one rank-1 update.  The columns after the first r keep their order.
    """
    res = np.array(a.T)
    n = res.shape[0]
    order = list(range(n))
    for k in range(n):
        tail = res[k:]
        norms = np.einsum("ij,ij->i", tail, tail)
        j = k + int(np.argmax(norms))
        top = norms[j - k]
        if k == 0:
            # Squared, like the norms.
            cut = np.finfo(np.float64).eps ** 2 * n * top
        if top <= cut:
            return np.array(order, dtype=np.intp), k
        if j != k:
            row = res[j].copy()
            res[j] = res[k]
            res[k] = row
            order[k], order[j] = order[j], order[k]
        w = res[k] / math.sqrt(float(top))
        rest = res[k + 1:]
        # The products of np.outer, for less overhead.
        rest -= np.einsum("i,j->ij", rest @ w, w)
    return np.array(order, dtype=np.intp), n


def _schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair schedule for one Jacobi sweep over an even number ``n`` of
    columns, as the first round's row order and one row permutation from
    each round to the next.

    Round-robin tournament (circle method): column 0 stays seated while the
    others rotate one seat per round, so seat k > 0 of round r holds column
    1 + (k - 1 - r) mod (n - 1), and each round pairs seat k with the seat
    mirrored across the table.  Over the n - 1 rounds every pair (p, q),
    p < q, appears exactly once, and the pairs of one round are disjoint,
    so a round can be rotated as a batch.  A round's order lists its pairs
    interleaved, p0 q0 p1 q1 ...: the order in which :func:`_jacobi` holds
    the rows of X while the round runs.

    Returns the first round's order and the moves, one row per round: row
    r holds the positions, in round r's order, of the columns of round
    r + 1 (of the first round, for the last r), so that
    ``order[moves[r]]`` is the next order.  The moves overwrite the orders
    row by row, so the schedule is one array.  Zero columns have no rounds.
    """
    if n == 0:
        return np.arange(0), np.empty((0, 0), dtype=np.intp)
    rnd = np.arange(n - 1)[:, None]
    table = np.zeros((n - 1, n), dtype=np.intp)
    # In place, so that no temporary the size of the table is made.
    np.subtract(np.arange(n - 1), rnd, out=table[:, 1:])
    table[:, 1:] %= n - 1
    table[:, 1:] += 1
    a, b = table[:, : n // 2], table[:, : n // 2 - 1 : -1]
    moves = np.empty_like(table)
    np.minimum(a, b, out=moves[:, 0::2])
    np.maximum(a, b, out=moves[:, 1::2])
    first = moves[0].copy()
    rows = np.arange(n)
    pos = np.empty(n, dtype=np.intp)
    pos[first] = rows
    for r in range(n - 1):
        nxt = moves[r + 1] if r + 1 < n - 1 else first
        # ``pos`` locates the columns in round r, whose order is spent.
        moves[r] = pos[nxt]
        pos[nxt] = rows
    return first, moves


def _pair_views(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """``m``, its rows as pairs of rows, and the first and the second row
    of each pair."""
    pairs = m.reshape(m.shape[0] // 2, 2, m.shape[1])
    return m, pairs, pairs[:, 0], pairs[:, 1]


def _sweep_is_quiet(rows: np.ndarray, norms: np.ndarray) -> bool:
    """True when a Jacobi sweep over ``rows``, with the squared row norms
    ``norms`` the kernel computed for it, would rotate no pair; False when
    a pair would rotate, or when the check gives up.

    Until its first rotation a sweep meets each pair with the rows and
    norms it started with, so it rotates nothing when no pair (p, q) has
    ``apq**2 > tol**2 * |app * aqq|``, apq being the kernel's einsum of
    the two rows and tol ``JACOBI_REL_TOL`` (Demmel and Veselic's pair
    cosine test).  A BLAS dot and that einsum each lie within
    gamma_m ||p|| ||q|| of the exact dot, with m the row length, u the unit
    roundoff and gamma_m = m u / (1 - m u), so a pair whose Gram entry has
    |G_pq| <= (1 - 4 m u / tol) tol sqrt(app aqq) cannot pass.  The Gram
    matrix is taken ``_GRAM_BLOCK`` rows at a time, and the pairs above
    that line, the near ones, get the kernel's own test, einsum included,
    ``_GRAM_BLOCK`` pairs at a time.  A zero row's dots are exact zeros,
    which never pass.  Gives up when another row's squared norm is under
    ``_GRAM_TINY``, where underflow could void the bound, when more than n
    pairs are near, or when the margin factor is under 1/2 (m above about
    1,100).
    """
    n, m = rows.shape
    tol = JACOBI_REL_TOL
    # 2**-53 is the unit roundoff u, and gamma_m = m u / (1 - m u).
    margin = 1.0 - 4.0 * m * 2.0**-53 / tol
    tiny = norms < _GRAM_TINY
    if margin < 0.5 or (tiny.any() and rows[tiny].any()):
        return False
    # A zero row's Gram entries are exact zeros, so any positive size
    # leaves its pairs under the line.
    size = np.sqrt(np.maximum(norms, _GRAM_TINY))
    line = margin * tol * size
    near = []
    count = 0
    for i in range(0, n - 1, _GRAM_BLOCK):
        # |G_pq| / size_q against line_p, in place, so that the check
        # allocates little beyond one block.
        gram = rows[i : i + _GRAM_BLOCK] @ rows[i + 1 :].T
        np.abs(gram, out=gram)
        gram /= size[i + 1 :]
        # Column c of the block is row i + 1 + c, so c >= a holds the
        # pairs p < q of block row a.
        a, c = np.nonzero(gram > line[i : i + _GRAM_BLOCK, None])
        upper = c >= a
        count += int(np.count_nonzero(upper))
        if count > n:
            return False
        near.append((a[upper] + i, c[upper] + i + 1))
    rel2 = tol * tol
    for p, q in near:
        for k in range(0, len(p), _GRAM_BLOCK):
            pc, qc = p[k : k + _GRAM_BLOCK], q[k : k + _GRAM_BLOCK]
            apq = np.einsum("ij,ij->i", rows[pc], rows[qc])
            if (apq * apq > rel2 * np.abs(norms[pc] * norms[qc])).any():
                return False
    return True


def _jacobi(x: np.ndarray) -> tuple[int, int]:
    """One-sided Jacobi on ``X``, held one column per row (row j of ``x``
    is column j of ``X``), with an even number n of columns; :func:`thin_svd`
    gives an odd triangle one zero column, whose pairs are never rotated.
    Works in place and returns the sweeps taken, the last rotation-free
    one included, and the pair rotations applied.

    While it runs, the rows sit in the current round's order
    (:func:`_schedule`), so the round's n/2 pairs are one n/2 x 2 view of
    the rows.
    One batched product rotates that view into a second buffer, and one
    ``take`` moves the rows into the next round's order.  A pair that
    needs no rotation gets the identity, which leaves its rows as they
    are.  Every rotation, norm estimate and count is the one the pairs
    would get one round at a time in column order.

    A sweep that follows one with fewer rotations than a quarter of its
    (n - 1) n/2 pair slots is first checked by :func:`_sweep_is_quiet`
    from its fresh norms and one Gram product; when that proves it would
    rotate nothing, the kernel has converged without running it, and the
    sweep is counted as if it had run.  Otherwise it runs as any other.

    ``x`` must hold no -0.0, which the identity would return as +0.0 (the
    product sums from +0.0).  :func:`thin_svd` passes none: its QRs fill R
    with +0.0 below the diagonal and sum from +0.0, and its pad row is zeros.
    """
    n = x.shape[0]
    rel2 = JACOBI_REL_TOL * JACOBI_REL_TOL
    first, moves = _schedule(n)
    h = n // 2
    # ``cur`` holds the rows in the current round's order; x itself serves
    # as the other buffer.
    cur, nxt = _pair_views(x[first]), _pair_views(x)
    # Row pair (p, q) becomes (c p - s q, s p + c q).
    g = np.empty((h, 2, 2))
    gc, gc2, gs, gms = g[:, 0, 0], g[:, 1, 1], g[:, 1, 0], g[:, 0, 1]
    # Ufuncs take these sooner than the floats 1.0 and 2.0, to the same bits.
    ones, twos = np.ones(h), np.full(h, 2.0)
    rotations = 0
    converged = False
    # A sweep after one that rotated under a quarter of its (n - 1) h pair
    # slots may be proved quiet instead of run.
    slots = (n - 1) * h
    few = False

    # An inactive pair may divide by apq == 0 below; its angle is set to 0,
    # the identity, whatever the division gave.
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
            # Fresh squared column norms each sweep, in round order; the
            # in-sweep updates below are cheap estimates that drift over
            # many rotations.
            norms = np.multiply(cur[0], cur[0], out=nxt[0]).sum(axis=1)
            if few and _sweep_is_quiet(cur[0], norms):
                converged = True
                break
            before = rotations
            rotated = False
            for move in moves:
                _, pairs, p, q = cur
                apq = np.einsum("ij,ij->i", p, q)
                app = norms[0::2]
                aqq = norms[1::2]
                # An estimate that drifted to zero or below must not let a
                # pair with apq == 0 through: the angle below divides by apq.
                act = apq * apq > rel2 * np.abs(app * aqq)
                k = int(np.count_nonzero(act))
                if k:
                    rotated = True
                    rotations += k
                    zeta = (aqq - app) / (twos * apq)
                    t = np.copysign(ones, zeta) / (np.abs(zeta) + np.hypot(ones, zeta))
                    if k < h:
                        t[~act] = 0.0
                    np.divide(ones, np.sqrt(ones + t * t), out=gc)
                    gc2[...] = gc
                    np.multiply(t, gc, out=gs)
                    np.negative(gs, out=gms)
                    np.matmul(g, pairs, out=nxt[1])
                    shift = t * apq
                    app -= shift
                    aqq += shift
                    cur, nxt = nxt, cur
                # The method, not np.take: the same call without its
                # Python wrapper, which is felt at one call a round.
                cur[0].take(move, axis=0, out=nxt[0], mode="clip")
                cur, nxt = nxt, cur
                norms = norms[move]
            few = 4 * (rotations - before) < slots
            if not rotated:
                converged = True
                break

    # Back to column order, in x.
    rows = cur[0]
    if rows is x:
        rows = nxt[0]
        np.copyto(rows, x)
    np.take(rows, np.argsort(first), axis=0, out=x, mode="clip")
    if not converged:
        raise SvdConvergenceError(
            f"one-sided Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    return sweeps, rotations


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
    (Brent and Luk): a sweep over an even r columns is r - 1 rounds of r / 2
    disjoint pairs.  An odd r gets one zero column first, so a sweep is r
    rounds of (r + 1) / 2 pairs, and the one pair per round that holds the
    zero column is never rotated.  The columns of ``X`` are kept in the
    current round's pair order, so a round is one batched ``numpy.matmul``
    of all its pairs by their 2 x 2 rotations (the identity for a pair
    that needs none) into a second buffer, and one ``numpy.take`` that
    puts the columns in the next round's order.
    The rotation for a pair (p, q) orthogonalizes the two columns.  A pair
    is rotated when its cosine exceeds ``JACOBI_REL_TOL``, whatever the
    size of the two columns, which keeps the singular values above the
    rank cut accurate relative to themselves (columns graded from 1 to
    1e-10 keep every one to about 1e-15 relative).  Convergence is
    declared after a sweep with no rotations.  After a sweep that rotated
    under a quarter of its pairs, the next one may instead be proved quiet
    from one Gram product of the columns, in blocks of 16, with the
    kernel's own test on the few pairs whose Gram entry lies near the
    tolerance; a proved sweep is counted as a run one, so the result is
    the same bit for bit.  At most ``JACOBI_MAX_SWEEPS`` sweeps are taken,
    the final rotation-free one included; if the last of them still
    rotated, :class:`SvdConvergenceError` is raised.  The sweeps taken and
    the pair rotations applied are reported in
    :attr:`SvdFactorization.sweeps` and :attr:`SvdFactorization.rotations`.

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
    counts as positive).  It is orthonormal to about 1e-15, but the 1e-12
    pair tolerance adds up over the columns: at full rank the reconstruction
    error relative to ||A||_F grows with the size, to 8.2e-13 on sides 2 to
    40 (2,000 seeded Gaussians), 1.1e-12 at 100 x 100, 1.6e-12 at 200 x 200
    and 2.2e-12 at 400 x 400 (three seeded Gaussians each), and at rank
    k within 1e-12 * ||A||_F * max(1, sigma_1 / gap) of LAPACK's rank-k
    truncation, where gap = sigma_k - sigma_{k+1}.
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
    if r % 2:
        # A zero column gives the schedule an even order; it is orthogonal
        # to every column, so its pairs are never rotated and it stays zero.
        x = np.vstack((x, np.zeros((1, r))))
    sweeps, rotations = _jacobi(x)
    x = x[:r]

    sig = np.sqrt((x * x).sum(axis=1))
    order = np.argsort(-sig, kind="stable")
    # The singular values under the rank cut are exact zeros.
    sig = np.concatenate((sig[order], np.zeros(tn - r)))
    sigma = np.ldexp(sig, scale)
    if rank == 0:
        u, v = np.empty((m0.shape[0], 0)), np.empty((tn, 0))
    else:
        # U_X in the top-left block of the identity keeps Q1's own columns
        # past the rank cut, and makes the product with Q1 one BLAS call at
        # every rank, whose leading columns come out bit-identical.
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


def _denominator(size: float) -> float:
    """``size``, a norm of a matrix or its sum of squares, checked as the
    divisor of a relative error: a zero matrix has no relative error."""
    if size == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    return size


def _relative_to(a: np.ndarray, b, name: str) -> tuple[np.ndarray, float]:
    """``b`` checked as ``name``, and ``||a||_F``, the norm a relative error
    divides by: ``b`` must have the shape of ``a``, and ``a`` be nonzero."""
    b = as_matrix(b, name)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return b, _denominator(frobenius_norm(a))


def relative_error(a, b) -> float:
    """``||a - b||_F / ||a||_F``; requires matching shapes and nonzero ``a``."""
    ma = as_matrix(a, "a")
    mb, denom = _relative_to(ma, b, "b")
    return frobenius_norm(ma - mb) / denom


def parameter_count(rows: int, cols: int, k: int) -> int:
    """Storage cost of a rank-k factorization of a rows x cols matrix:
    k * (rows + cols) scalars, counting both factor panels."""
    rows, cols, k = _count(rows, "rows"), _count(cols, "cols"), _count(k, "k")
    return k * (rows + cols)


@dataclass(frozen=True)
class ApproxReport:
    """The cost and the Frobenius error, squared and relative, of one rank-k approximation."""

    parameters: int
    abs_error_sq: float
    rel_error: float


def approx_report(a, k: int, approx: np.ndarray) -> ApproxReport:
    """The cost and the error of ``approx``, the caller's rank-``k``
    reconstruction of ``a``, with ``k`` an integer in [1, min(rows, cols)].

    ``approx`` must be finite and of the shape of ``a``, and ``a`` must be
    nonzero for the relative error to be defined.  ``abs_error_sq`` is the
    squared error rounded to float64 (0.0 where it underflows; a
    ``ValueError`` where it overflows).
    """
    m = as_matrix(a)
    k = _count(k, "rank", 1, min(m.shape))
    approx, norm = _relative_to(m, approx, "approx")
    sq, e = _sum_sq(m - approx)
    try:
        abs_sq = math.ldexp(sq, 2 * e)
    except OverflowError:
        raise ValueError("squared error overflows float64") from None
    return ApproxReport(
        parameters=parameter_count(m.shape[0], m.shape[1], k),
        abs_error_sq=abs_sq,
        rel_error=math.ldexp(math.sqrt(sq), e) / norm,
    )
