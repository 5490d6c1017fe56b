"""The pair-major Jacobi kernel against the gather-and-scatter kernel it
replaced: the same bytes, sweeps and rotations, the same round schedule,
and no more memory."""

import tracemalloc

import numpy as np
import pytest
from helpers import reference_jacobi

import reorgsvd.core as core
from reorgsvd import SvdConvergenceError, TridiagParams, closed_form_inverse, diag_to_columns


def _triangle(a):
    """The triangle ``thin_svd`` hands to the Jacobi kernel: pivoted QR,
    the rank cut, then the R of the kept rows of R1 transposed."""
    perm, r = core._pivot_order(a)
    r1 = np.linalg.qr(a[:, perm], mode="r")
    return np.linalg.qr(r1[:r].T, mode="r")


def _gaussian(n, seed=0):
    if n == 0:
        return np.empty((0, 0))
    return _triangle(np.random.default_rng([seed, n]).standard_normal((n + 3, n)))


def _graded(n):
    # Rows and columns graded from 1 to 1e-10, both shuffled.
    rng = np.random.default_rng([1, n])
    rows = rng.permutation(np.logspace(0, -10, n + 3))
    cols = rng.permutation(np.logspace(0, -10, n))
    return _triangle(rng.standard_normal((n + 3, n)) * rows[:, None] * cols)


def _duplicates(n):
    x = _gaussian(n, seed=2)
    x[7] = x[3]
    x[n - 1] = x[3]
    return x


def _diagonal_layout():
    params = TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=200)
    return _triangle(diag_to_columns(closed_form_inverse(params)))


def _orthogonal_pairs(n):
    # Unit rows, so most pairs are exactly orthogonal with equal norms (a
    # 0/0 angle) or orthogonal with unequal ones (x/0); only the pairs with
    # row 0 need a rotation, one in each partial round.
    x = np.eye(n)
    x[0, 1] = 0.5
    x[0, n - 1] = -0.25
    return x


def _signed_zeros(n):
    # Rows that are never rotated keep their -0.0 entries, while other pairs
    # of the same rounds are rotated.
    x = _orthogonal_pairs(n)
    x[n - 3, 2] = -0.0
    x[n - 2, 0] = -0.0
    return x


INPUTS = {f"gaussian-{n}": (lambda n=n: _gaussian(n))
          for n in [*range(41), 65, 128, 129, 200, 201]}
INPUTS |= {f"graded-{n}": (lambda n=n: _graded(n)) for n in (7, 16, 33, 64, 65)}
INPUTS |= {f"duplicates-{n}": (lambda n=n: _duplicates(n)) for n in (20, 21)}
INPUTS["diagonal-layout-200"] = _diagonal_layout
INPUTS |= {f"orthogonal-pairs-{n}": (lambda n=n: _orthogonal_pairs(n)) for n in (12, 13)}
INPUTS |= {f"signed-zeros-{n}": (lambda n=n: _signed_zeros(n)) for n in (10, 11)}
INPUTS |= {f"identity-{n}": (lambda n=n: np.eye(n)) for n in (9, 10)}


@pytest.mark.parametrize("name", INPUTS)
def test_jacobi_is_bit_identical_to_the_reference(name):
    x = INPUTS[name]()
    want, got = x.copy(), x.copy()
    counts = reference_jacobi(want)
    state = np.geterr()
    result = core._jacobi(got)
    assert result == counts
    assert [type(c) for c in result] == [int, int]
    # Bytes, so that -0.0 against 0.0 counts as a difference.
    assert got.tobytes() == want.tobytes()
    assert np.geterr() == state


def test_jacobi_sweep_cap_matches_the_reference(monkeypatch):
    x = _gaussian(30)
    needed, _ = reference_jacobi(x.copy())
    assert needed >= 3
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed)
    assert core._jacobi(x.copy()) == reference_jacobi(x.copy())
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed - 1)
    want, got = x.copy(), x.copy()
    with pytest.raises(SvdConvergenceError, match=f"in {needed - 1} sweeps"):
        reference_jacobi(want)
    with pytest.raises(SvdConvergenceError, match=f"in {needed - 1} sweeps"):
        core._jacobi(got)
    # Both leave x as the capped sweeps made it.
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 71))
def test_round_moves_walk_the_round_robin_rounds(n):
    rounds = core._round_robin(n)
    first, moves = core._round_moves(n)
    assert moves.shape == (len(rounds), n)
    order = first
    for pq, move in zip(rounds, moves):
        assert order[: pq.size].tolist() == pq.tolist()
        assert sorted(order.tolist()) == list(range(n))
        if n % 2:
            # The idle column comes last.
            assert order[-1] not in pq
        order = order[move]
    # The last move leads back to the first round.
    assert order.tolist() == first.tolist()


@pytest.mark.parametrize("n", [200, 201])
def test_jacobi_memory_at_most_the_reference(n, monkeypatch):
    x = _gaussian(n)
    peaks = []
    for kernel in (reference_jacobi, core._jacobi):
        # A small call first, so that neither peak holds numpy's first-call
        # caches.
        kernel(_gaussian(4 + n % 2))
        # Each kernel allocates all it holds before its second sweep ends,
        # so two sweeps show its peak in a fifth of the traced time.
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 2)
        y = x.copy()
        tracemalloc.start()
        try:
            with pytest.raises(SvdConvergenceError):
                kernel(y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
    assert peaks[1] <= peaks[0]
