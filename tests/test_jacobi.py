"""The pair-major Jacobi kernel against the gather-and-scatter kernel it
replaced: the same bytes, sweeps and rotations, an odd triangle padded
with a zero column as ``thin_svd`` pads it, the round schedule, a
bounded memory peak, and the triangle without -0.0 that ``thin_svd``
hands the kernel.  Also the pivot order against the loop it replaced,
and the check that proves a last sweep quiet instead of running it."""

import tracemalloc

import numpy as np
import pytest
from helpers import reference_jacobi, reference_pivot_order

import reorgsvd.core as core
from reorgsvd import (
    SvdConvergenceError,
    TridiagParams,
    closed_form_inverse,
    diag_to_columns,
    tile_to_columns,
)
from reorgsvd.sweep import crop_to_tile_multiple


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
    # Rows that are never rotated hold -0.0 entries, while other pairs of
    # the same rounds are rotated.  The kernel's precondition rules such
    # input out; on it, the identity returns each -0.0 as +0.0.
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
    if name.startswith("signed-zeros"):
        want += 0.0
        assert not np.signbit(got[got == 0.0]).any()
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


@pytest.mark.parametrize("n, capped", [
    pytest.param(200, True, id="200"),
    pytest.param(201, True, id="201"),
    pytest.param(190, False, id="190-full-run"),
])
def test_jacobi_memory_peak_is_bounded(n, capped, monkeypatch):
    # The kernel holds a second copy of the rows and the schedule, each
    # about the size of the triangle; the schedule is built in place.
    x = _gaussian(n)
    # A small call first, so that the peak holds none of numpy's first-call
    # caches.
    core._jacobi(_pad(_gaussian(4 + n % 2)))
    # The kernel allocates all it holds before its second sweep ends, so
    # two sweeps show its peak.  The full run also covers the exit, which
    # puts the rows back in column order; where the last round left them in
    # x itself (as at n=190), an exit that copies x first passes the bound.
    if capped:
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 2)
    y = _pad(x)
    tracemalloc.start()
    try:
        if capped:
            with pytest.raises(SvdConvergenceError):
                core._jacobi(y)
        else:
            core._jacobi(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes


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


def _sprinkled(shape, seed):
    # A Gaussian matrix with about a third of its entries set to -0.0.
    rng = np.random.default_rng([9, seed])
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.3] = -0.0
    return a


def _upper_in_pivot_order(n, seed):
    # Upper triangular with column norms decreasing, so that the pivoted QR
    # keeps the order, and -0.0 below the diagonal and in places above it.
    rng = np.random.default_rng([10, seed])
    a = np.triu(rng.standard_normal((n, n))) + np.diag(np.full(n, 10.0 * n))
    a *= np.logspace(0, -3, n)
    a[np.tril_indices(n, -1)] = -0.0
    a[(rng.random((n, n)) < 0.2) & (np.triu(np.ones((n, n)), 1) > 0)] = -0.0
    return a


def _graded_columns(shape, seed):
    rng = np.random.default_rng([11, seed])
    a = rng.standard_normal(shape) * np.logspace(0, -300, shape[1])
    a[rng.random(shape) < 0.2] = -0.0
    return a


def _signs(shape, seed):
    # Entries in {-1, -0.0, +0.0, 1}, in repeated blocks.
    rng = np.random.default_rng([12, seed])
    block = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(3, 2))
    return np.tile(block, (shape[0] // 3 + 1, shape[1] // 2 + 1))[: shape[0], : shape[1]]


def _rank_one(shape, seed):
    rng = np.random.default_rng([13, seed])
    a = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
    a[:, ::3] = -0.0
    return a


NO_NEGATIVE_ZERO_INPUTS = [
    build(shape, seed)
    for seed in range(3)
    for shape in ((9, 7), (12, 12), (7, 15), (30, 11))
    for build in (_sprinkled, _graded_columns, _signs, _rank_one)
] + [_upper_in_pivot_order(n, seed) for n in (2, 5, 8, 13) for seed in range(3)] + [
    np.zeros((4, 6)), np.full((5, 3), -0.0), np.diag([3.0, -0.0, 2.0, -1.0])
]


def test_thin_svd_hands_the_kernel_no_negative_zero(monkeypatch):
    # The kernel's precondition: the triangle thin_svd passes holds no -0.0
    # even when the input is full of them.
    kernel, triangles = core._jacobi, []

    def spy(x):
        triangles.append(x.copy())
        return kernel(x)

    monkeypatch.setattr(core, "_jacobi", spy)
    for a in NO_NEGATIVE_ZERO_INPUTS:
        assert np.signbit(a[a == 0.0]).any() or not a.any()
        for rank in (None, 0):
            core.thin_svd(a, rank=rank)
    assert len(triangles) == 2 * len(NO_NEGATIVE_ZERO_INPUTS)
    assert not any(np.signbit(x[x == 0.0]).any() for x in triangles)


def _blocky_unfolding(rows, cols, block, t):
    """A tile unfolding of a piecewise constant image, as the bench's sweep
    makes it: ``rows`` x ``cols`` in ``block`` x ``block`` cells, cropped
    to and unfolded by t x t tiles, in the tall orientation ``thin_svd``
    pivots."""
    rng = np.random.default_rng([14, rows, cols])
    levels = rng.integers(20, 236, size=(rows // block, cols // block)) / 255.0
    image = np.kron(levels, np.ones((block, block)))
    a = tile_to_columns(crop_to_tile_multiple(image, t, t), t, t)[0]
    return a if a.shape[0] >= a.shape[1] else a.T


def _pivot_gaussian(n):
    return np.random.default_rng([0, n]).standard_normal((n + 3, n))


def _pivot_graded(n):
    rng = np.random.default_rng([1, n])
    return (rng.standard_normal((n + 3, n))
            * np.logspace(0, -10, n + 3)[:, None] * np.logspace(0, -10, n))


# Functions that make each input, so that a fault in the code under test
# fails the tests, not the collection.  The bench's blocky images are
# 160 x 160 in 8 x 8 cells and 96 x 128 in 4 x 4 cells; the latter at
# tile 12 gives the 144 x 80 unfolding.
PIVOT_INPUTS = {f"gaussian-{n}": (lambda n=n: _pivot_gaussian(n))
                for n in (1, 2, 3, 7, 16, 40, 65, 200)}
PIVOT_INPUTS |= {f"graded-{n}": (lambda n=n: _pivot_graded(n)) for n in (7, 33, 65)}
PIVOT_INPUTS["duplicates-21"] = lambda: _duplicates(21)
PIVOT_INPUTS["diagonal-layout-200"] = lambda: diag_to_columns(
    closed_form_inverse(TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=200)))
PIVOT_INPUTS["orthogonal-pairs-13"] = lambda: _orthogonal_pairs(13)
PIVOT_INPUTS["identity-10"] = lambda: np.eye(10)
PIVOT_INPUTS |= {
    f"blocky-{rows}x{cols}-tile-{t}": (lambda a=(rows, cols, block, t): _blocky_unfolding(*a))
    for rows, cols, block in ((160, 160, 8), (96, 128, 4))
    for t in (4, 8, 12, 16)
}
PIVOT_INPUTS["rank-deficient"] = _rank_deficient
PIVOT_INPUTS |= {f"signed-zeros-{i}": (lambda a=a: a)
                 for i, a in enumerate(NO_NEGATIVE_ZERO_INPUTS[:16])}
PIVOT_INPUTS["zero"] = lambda: np.zeros((6, 4))
PIVOT_INPUTS["single-column"] = lambda: np.random.default_rng(15).standard_normal((9, 1))


@pytest.mark.parametrize("name", PIVOT_INPUTS)
def test_pivot_order_matches_the_reference_loop(name):
    a = PIVOT_INPUTS[name]()
    want, want_r = reference_pivot_order(a)
    got, got_r = core._pivot_order(a)
    assert got_r == want_r and type(got_r) is int
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _kernel_rotates_a_pair(rows, norms):
    """Whether the kernel's own test, einsum of the two rows included,
    passes for any pair of ``rows`` with the squared norms ``norms``."""
    n = rows.shape[0]
    rel2 = core.JACOBI_REL_TOL * core.JACOBI_REL_TOL
    p, q = np.triu_indices(n, 1)
    apq = np.einsum("ij,ij->i", rows[p], rows[q])
    return bool((apq * apq > rel2 * np.abs(norms[p] * norms[q])).any())


def _rows_with_cosines(cosines, n=12, m=14, zero_row=False):
    """Rows of graded norms, orthogonal but for pair (2k, 2k + 1), whose
    cosine is cosines[k] times the kernel's tolerance."""
    rows = np.zeros((n, m))
    rows[:, :n] = np.diag(np.logspace(0, -6, n))
    for k, c in enumerate(cosines):
        rows[2 * k + 1, 2 * k] = c * core.JACOBI_REL_TOL * rows[2 * k + 1, 2 * k + 1]
    if zero_row:
        rows[-1] = 0.0
    return rows


@pytest.mark.parametrize("cosines, quiet", [
    ((1.05, 0.95), False),
    ((0.95,), True),
    ((0.95, 1.05), False),
    # Near the line, so the kernel's own test decides.
    ((0.999, 0.95), True),
    ((1.0001, 0.95), False),
    ((0.9999999, 0.999), True),
    ((), True),
])
@pytest.mark.parametrize("zero_row", [False, True])
def test_quiet_sweep_check_agrees_with_the_kernel_test(cosines, quiet, zero_row):
    rows = _rows_with_cosines(cosines, zero_row=zero_row)
    norms = (rows * rows).sum(axis=1)
    assert _kernel_rotates_a_pair(rows, norms) is not quiet
    assert core._sweep_is_quiet(rows, norms) is quiet


def test_quiet_sweep_check_gives_up_on_a_tiny_row():
    # A row whose squared norm is under 2**-460 could put the bound under
    # underflow, so the sweep is run, although it rotates nothing.
    rows = _rows_with_cosines((0.95,))
    rows[5] *= 2.0**-240
    norms = (rows * rows).sum(axis=1)
    assert not _kernel_rotates_a_pair(rows, norms)
    assert core._sweep_is_quiet(rows, norms) is False


def _gaussian_200():
    return np.random.default_rng(16).standard_normal((200, 200))


def _inverse_200():
    return closed_form_inverse(TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=200))


@pytest.mark.parametrize("build", [_gaussian_200, _inverse_200], ids=["gaussian", "inverse"])
def test_thin_svd_proves_its_last_sweep_quiet(build, monkeypatch):
    a = build()
    check, results = core._sweep_is_quiet, []

    def spy(rows, norms):
        results.append(check(rows, norms))
        return results[-1]

    monkeypatch.setattr(core, "_sweep_is_quiet", spy)
    proved = core.thin_svd(a)
    # The kernel ended on the proof, not on a sweep it ran.
    assert results[-1] is True
    # With the check failing, every sweep runs, to the same bytes and counts.
    monkeypatch.setattr(core, "_sweep_is_quiet", lambda rows, norms: False)
    run = core.thin_svd(a)
    for field in ("u", "sigma", "v"):
        assert getattr(proved, field).tobytes() == getattr(run, field).tobytes()
    assert (proved.sweeps, proved.rotations) == (run.sweeps, run.rotations)
