"""Small input helpers shared between the panel and CLI tests, the
round-at-a-time Jacobi kernel, with its own schedule, that the pair-major
one must match, and the pivot loop that ``core._pivot_order`` must match."""

import csv
import datetime as dt
import math

import numpy as np

from reorgsvd import core

START = dt.date(2020, 5, 17)


def write_counts(path, rows, header=("date", "state", "positive", "totalTestResults")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def linear_counts(states, days, date_text=lambda d: d.isoformat()):
    """Cumulative tests 1000, 2000, ... and positives at a per-state
    constant rate, so every daily and cumulative rate is that constant."""
    rows = []
    for i, code in enumerate(states):
        rate = 0.1 * (i + 1)
        for off in range(-7, days):
            day = START + dt.timedelta(days=off)
            tests = 1000.0 * (off + 9)
            rows.append([date_text(day), code, f"{rate * tests:.6f}", f"{tests:.1f}"])
    return rows


def _round_robin(n: int) -> np.ndarray:
    """Pair schedule for one Jacobi sweep over ``n`` columns, one round per
    row with its pairs interleaved, p0 q0 p1 q1 ...: the order in which
    :func:`_jacobi` holds the rows of X while the round runs.

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


def reference_jacobi(x: np.ndarray) -> tuple[int, int]:
    """One-sided Jacobi on the n x n ``X``, held one column per row (row j
    of ``x`` is column j of ``X``).  Works in place and returns the sweeps
    run and the pair rotations applied.

    A round that rotates h pairs gathers their rows into one h x 2 x n
    block, multiplies it by the h 2 x 2 rotations in one batched product,
    and scatters the result back.

    The gather-and-scatter kernel that ``core._jacobi`` replaced, kept
    as it was (with the names of ``core`` qualified), so that tests can
    check the pair-major kernel against it bit for bit.  It runs any n,
    odd or even, on the schedule of :func:`_round_robin`, also kept as it
    was, so that the reference does not lean on the schedule under test.
    """
    n = x.shape[0]
    rel2 = core.JACOBI_REL_TOL * core.JACOBI_REL_TOL
    rounds = _round_robin(n)
    rotations = 0

    for sweeps in range(1, core.JACOBI_MAX_SWEEPS + 1):
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
    raise core.SvdConvergenceError(
        f"one-sided Jacobi did not converge in {core.JACOBI_MAX_SWEEPS} sweeps"
    )


def reference_pivot_order(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Column order of ``a`` for QR with column pivoting, and the numerical
    rank it reveals.

    The loop ``core._pivot_order`` had before it swapped rows through one
    copy, kept the order in a list and formed the rank-1 update by einsum,
    kept as it was, so that tests can check the order and the rank against
    it.
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
