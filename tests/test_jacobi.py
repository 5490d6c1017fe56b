"""The pair-major Jacobi kernel against the gather-and-scatter kernel it
replaced: the same bytes, sweeps and rotations, an odd triangle padded
with a zero column as ``thin_svd`` pads it, the round schedule, and a
bounded memory peak."""

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


def _pad(x):
    """``x`` as ``thin_svd`` hands it to the kernel: an odd number of rows
    gets one zero row, a zero column of X."""
    n = x.shape[0]
    return np.vstack((x, np.zeros((n % 2, x.shape[1]))))


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
    n = x.shape[0]
    want, got = x.copy(), _pad(x)
    counts = reference_jacobi(want)
    state = np.geterr()
    result = core._jacobi(got)
    assert result == counts
    assert [type(c) for c in result] == [int, int]
    # Bytes, so that -0.0 against 0.0 counts as a difference.
    assert got[:n].tobytes() == want.tobytes()
    # The pad row comes back all +0.0.
    assert got[n:].tobytes() == bytes(8 * n * (n % 2))
    assert np.geterr() == state


def test_jacobi_sweep_cap_matches_the_reference(monkeypatch):
    for n in (30, 31):
        x = _gaussian(n)
        needed, _ = reference_jacobi(x.copy())
        assert needed >= 3
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed)
        assert core._jacobi(_pad(x)) == reference_jacobi(x.copy())
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed - 1)
        want, got = x.copy(), _pad(x)
        with pytest.raises(SvdConvergenceError, match=f"in {needed - 1} sweeps"):
            reference_jacobi(want)
        with pytest.raises(SvdConvergenceError, match=f"in {needed - 1} sweeps"):
            core._jacobi(got)
        # Both leave x as the capped sweeps made it, and the pad row zero.
        assert got[:n].tobytes() == want.tobytes()
        assert got[n:].tobytes() == bytes(8 * n * (n % 2))
        monkeypatch.undo()


@pytest.mark.parametrize("n", range(1, 71))
def test_round_moves_walk_the_round_robin_rounds(n):
    # An odd n runs on the schedule of n + 1 columns, the last one zero.
    m = n + n % 2
    first, moves = core._schedule(m)
    assert moves.shape == (m - 1, m)
    order, seen = first, []
    for move in moves:
        assert sorted(order.tolist()) == list(range(m))
        assert sorted(move.tolist()) == list(range(m))
        seen.append(order.tolist())
        order = order[move]
    # The last move leads back to the first round, and no round repeats.
    assert order.tolist() == first.tolist()
    assert len({tuple(o) for o in seen}) == m - 1


@pytest.mark.parametrize("n", [200, 201])
def test_jacobi_memory_peak_is_bounded(n, monkeypatch):
    # The kernel holds a second copy of the rows and the schedule, each
    # about the size of the triangle, and building the schedule takes about
    # one more.
    x = _gaussian(n)
    # A small call first, so that the peak holds none of numpy's first-call
    # caches.
    core._jacobi(_pad(_gaussian(4 + n % 2)))
    # The kernel allocates all it holds before its second sweep ends, so
    # two sweeps show its peak.
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 2)
    y = _pad(x)
    tracemalloc.start()
    try:
        with pytest.raises(SvdConvergenceError):
            core._jacobi(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * x.nbytes


def _rank_deficient():
    rng = np.random.default_rng(8)
    return rng.standard_normal((12, 7)) @ rng.standard_normal((7, 12))


# Each input with the order r of its triangle.
GLUE_INPUTS = {
    "tall-odd": (lambda: np.random.default_rng(3).standard_normal((9, 7)), 7),
    "tall-even": (lambda: np.random.default_rng(4).standard_normal((10, 8)), 8),
    "wide-odd": (lambda: np.random.default_rng(5).standard_normal((7, 12)), 7),
    "square-even": (lambda: np.random.default_rng(6).standard_normal((6, 6)), 6),
    "square-rank-7": (_rank_deficient, 7),
}


@pytest.mark.parametrize("name", GLUE_INPUTS)
def test_thin_svd_pads_odd_triangles_for_the_kernel(name, monkeypatch):
    # thin_svd on the real kernel against thin_svd on the reference kernel
    # run on the unpadded triangle: the pad must change no output bit.
    build, r = GLUE_INPUTS[name]
    a = build()
    real = {rank: core.thin_svd(a, rank=rank) for rank in (None, 0, 1)}
    shapes = []

    def unpadded_reference(x):
        shapes.append(x.shape)
        assert x[r:].tobytes() == bytes(x[r:].nbytes)
        return reference_jacobi(x[:r])

    monkeypatch.setattr(core, "_jacobi", unpadded_reference)
    for rank, want in real.items():
        got = core.thin_svd(a, rank=rank)
        for field in ("u", "sigma", "v"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.sweeps, got.rotations) == (want.sweeps, want.rotations)
    assert shapes == [(r + r % 2, r)] * 3
