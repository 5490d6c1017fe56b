"""Core primitives: validation, Frobenius norm, thin SVD, truncation."""

import argparse
import math
import tracemalloc

import numpy as np
import pytest
from helpers import START, linear_counts, write_counts

import reorgsvd.cli as cli
import reorgsvd.core as core
from reorgsvd import (
    DataError,
    SvdConvergenceError,
    SvdFactorization,
    TridiagParams,
    closed_form_inverse,
    covid_experiment,
    diag_to_columns,
    frobenius_norm,
    geometric_partial_sums,
    ksvd_terms,
    parameter_count,
    piecewise_linear_panel,
    rank_k_approx,
    relative_error,
    stack_column_groups,
    thin_svd,
    tile_sweep,
    tile_to_columns,
    unstack_column_groups,
    write_gray_image,
)
from reorgsvd.core import approx_report, as_matrix
from reorgsvd.covid import load_state_counts
from reorgsvd.reshape import TileScheme
from reorgsvd.sweep import crop_to_tile_multiple


def test_as_matrix_accepts_lists_and_coerces_dtype():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_frobenius_norm_hand_values(demo_matrix):
    assert frobenius_norm([[3.0, 4.0]]) == 5.0
    assert frobenius_norm(demo_matrix) ** 2 == pytest.approx(2548.0, rel=1e-14)
    # The squared entries leave the float range; the norm does not.
    for scale in (1e200, 1e-200):
        norm = frobenius_norm(np.full((2, 2), scale))
        assert norm == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)


def test_frobenius_norm_overflow_is_a_value_error():
    assert frobenius_norm(np.full((2, 2), 8e307)) == 1.6e308
    big = np.full((2, 2), 1e308)
    with pytest.raises(ValueError, match="Frobenius norm overflows float64"):
        frobenius_norm(big)
    with pytest.raises(ValueError, match="Frobenius norm overflows float64"):
        relative_error(big, np.zeros((2, 2)))


def test_thin_svd_matches_lapack_singular_values():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m, n = rng.integers(1, 25, size=2)
        a = rng.normal(size=(m, n))
        sig = thin_svd(a).sigma
        ref = np.linalg.svd(a, compute_uv=False)
        assert sig.shape == ref.shape
        assert np.all(np.abs(sig - ref) <= 1e-10 * max(ref[0], 1.0))


def test_thin_svd_matches_lapack_on_closed_form_inverses():
    # Even and odd column counts exercise both round-robin tables.
    for n in (100, 101):
        inv = closed_form_inverse(TridiagParams(0.7, -0.6, 0.3, n))
        sig = thin_svd(inv).sigma
        ref = np.linalg.svd(inv, compute_uv=False)
        assert np.abs(sig - ref).max() <= 1e-13 * ref[0]


def _circle_method(n):
    """The circle-method schedule written out round by round: seat 0 stays,
    the other seats rotate by one per round, and seat k meets the mirrored
    seat; pairs with the dummy seat of an odd n are dropped."""
    seats = n + n % 2
    ring = list(range(1, seats))
    rounds = []
    for r in range(seats - 1):
        table = [0] + ring[len(ring) - r:] + ring[:len(ring) - r]
        pairs = [(min(table[k], table[-1 - k]), max(table[k], table[-1 - k]))
                 for k in range(seats // 2)]
        pairs = [pair for pair in pairs if pair[1] < n]
        if pairs:
            rounds.append(pairs)
    return rounds


@pytest.mark.parametrize("n", range(1, 71))
def test_round_robin_visits_each_pair_once_in_disjoint_rounds(n):
    # An odd n runs on the schedule of n + 1 columns, and the pairs of
    # column n, the zero column, are dropped here as the dummy seat's are.
    order, moves = core._schedule(n + n % 2)
    assert len(moves) == n - 1 + n % 2
    rounds = []
    for move in moves:
        pq = order.reshape(-1, 2).tolist()
        assert len(set(order.tolist())) == order.size
        assert all(p < q for p, q in pq)
        pairs = [(p, q) for p, q in pq if q < n]
        if pairs:
            rounds.append(pairs)
        order = order[move]
    seen = sorted(pair for pairs in rounds for pair in pairs)
    assert seen == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert rounds == _circle_method(n)


def test_thin_svd_sweep_cap(monkeypatch):
    default_cap = core.JACOBI_MAX_SWEEPS
    a = np.random.default_rng(21).normal(size=(8, 8))
    f = thin_svd(a)
    assert np.abs((f.u * f.sigma) @ f.v.T - a).max() <= 1e-12 * np.abs(a).max()
    # A random 8x8 matrix needs rotations in its first sweep, so a cap of
    # one sweep leaves no room for the rotation-free sweep that ends the
    # iteration.
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(SvdConvergenceError):
        thin_svd(a)

    # The cap counts the final rotation-free sweep: a cap equal to the
    # number of sweeps the matrix needs succeeds, one less raises.
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", default_cap)
    needed = thin_svd(a).sweeps
    assert 2 <= needed < default_cap
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed)
    assert thin_svd(a).sweeps == needed
    monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", needed - 1)
    with pytest.raises(SvdConvergenceError):
        thin_svd(a)


def test_thin_svd_graded_columns_keep_relative_accuracy():
    # Columns graded from 1 to 1e-10, largest first and smallest first: a
    # skip test relative to the pair's own norms rotates the small columns
    # as thoroughly as the large ones, so every singular value keeps its
    # relative accuracy whatever the column order.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for seed in range(10):
        for grade in (np.logspace(0, -10, 12), np.logspace(-10, 0, 12)):
            a = np.random.default_rng(seed).normal(size=(16, 12)) * grade
            with mpmath.workdps(40):
                ref = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
            ref = np.sort([float(x) for x in ref])[::-1]
            sig = thin_svd(a).sigma
            worst = max(worst, float(np.max(np.abs(sig - ref) / ref)))
    assert worst <= 1e-13


@pytest.mark.parametrize("n", [76, 101, 150])
def test_thin_svd_factors_orthonormal_on_diagonal_layouts(n):
    # The theorem's diagonal layouts have many columns far below ||A||_F;
    # they must still come out orthogonal to each other and to the rest.
    params = TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=n)
    x = diag_to_columns(closed_form_inverse(params))
    f = thin_svd(x)
    assert np.abs(f.u.T @ f.u - np.eye(n)).max() <= 1e-11
    assert np.abs(f.v.T @ f.v - np.eye(n)).max() <= 1e-11


@pytest.mark.parametrize("n", [101, 150, 200])
def test_thin_svd_reconstructs_diagonal_layouts_at_full_rank(n):
    # These layouts hold singular values just above the rank cut; their
    # left vectors are normalized like every other, so the full
    # factorization gives back the input to rounding.
    params = TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=n)
    x = diag_to_columns(closed_form_inverse(params))
    f = thin_svd(x)
    err = np.linalg.norm((f.u * f.sigma) @ f.v.T - x)
    assert err <= 5e-15 * np.linalg.norm(x)


def test_thin_svd_reconstruction_error_at_200_by_200():
    # The 1e-12 pair tolerance adds up over the columns: this Gaussian, the
    # first 200 x 200 draw of README's accuracy table, comes back within
    # 1.50e-12 * ||A||_F, past the 1e-12 that holds on small sides.  A
    # stopping tolerance that shrinks the error should tighten the bound.
    a = np.random.default_rng(1).normal(size=(200, 200))
    f = thin_svd(a)
    err = np.linalg.norm((f.u * f.sigma) @ f.v.T - a)
    assert err <= 1.6e-12 * np.linalg.norm(a)


def test_thin_svd_memory_stays_linear_in_the_long_side():
    # A rank-1 16 x 2400 input has 15 columns past the rank cut; nothing the
    # factorization builds may grow with the square of the long side
    # (2400 x 2400 float64 is 44 MiB).
    a = np.ones((16, 2400))
    tracemalloc.start()
    try:
        f = thin_svd(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(f.v.T @ f.v - np.eye(16)).max() <= 1e-12


def test_thin_svd_calls_no_lapack_svd_or_eigensolver(monkeypatch):
    # thin_svd uses numpy.linalg.qr; any LAPACK SVD or eigen routine would
    # make it a wrapper rather than the package's own SVD.
    def refuse(*args, **kwargs):
        raise AssertionError("thin_svd called a LAPACK SVD or eigen routine")

    for name in ("svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse, raising=False)
    rng = np.random.default_rng(3)
    rank2 = rng.normal(size=(14, 2)) @ rng.normal(size=(2, 9))
    for a in (rng.normal(size=(9, 9)), rng.normal(size=(20, 6)),
              rng.normal(size=(6, 20)), rank2, np.zeros((7, 4))):
        f = thin_svd(a)
        assert np.abs((f.u * f.sigma) @ f.v.T - a).max() <= 1e-12 * max(np.abs(a).max(), 1.0)
        k = min(a.shape) // 2
        assert np.array_equal(thin_svd(a, rank=0).sigma, f.sigma)
        fk = thin_svd(a, rank=k)
        assert fk.u.shape[1] == k and np.array_equal(fk.sigma, f.sigma)


@pytest.mark.parametrize("shape", [(7, 7), (12, 5), (5, 12), (1, 9), (9, 1), (2, 2)])
def test_thin_svd_factor_invariants(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = rng.normal(size=shape)
    f = thin_svd(a)
    r = min(shape)
    assert f.u.shape == (shape[0], r)
    assert f.v.shape == (shape[1], r)
    assert np.abs(f.u.T @ f.u - np.eye(r)).max() < 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(r)).max() < 1e-12
    assert np.all(np.diff(f.sigma) <= 0)
    assert f.sigma[-1] >= 0
    recon = (f.u * f.sigma) @ f.v.T
    assert np.abs(recon - a).max() <= 1e-12 * max(np.abs(a).max(), 1.0)


def test_thin_svd_does_not_mutate_input():
    rng = np.random.default_rng(0)
    for shape in [(6, 18), (18, 6)]:
        a = rng.normal(size=shape)
        keep = a.copy()
        thin_svd(a)
        assert np.array_equal(a, keep)


def test_thin_svd_zero_matrix():
    f = thin_svd(np.zeros((5, 3)))
    assert np.all(f.sigma == 0.0)
    assert np.abs(f.u.T @ f.u - np.eye(3)).max() < 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(3)).max() < 1e-12


def test_thin_svd_rank_deficient_input():
    rng = np.random.default_rng(9)
    a = np.outer(rng.normal(size=10), rng.normal(size=8))
    a += np.outer(rng.normal(size=10), rng.normal(size=8))
    f = thin_svd(a)
    assert np.all(f.sigma[2:] == 0.0)
    assert np.abs((f.u * f.sigma) @ f.v.T - a).max() <= 1e-12 * np.abs(a).max()


def test_thin_svd_rank_one_input_needs_no_rotation():
    # The rank cut leaves a 1 x 1 X, which has no pair to rotate; the other
    # singular values are exact zeros.
    rng = np.random.default_rng(12)
    for shape in [(10, 8), (8, 10), (30, 1), (1, 1)]:
        a = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
        f = thin_svd(a)
        assert (f.sweeps, f.rotations) == (1, 0)
        assert np.all(f.sigma[1:] == 0.0)
        assert f.sigma[0] == pytest.approx(np.linalg.norm(a), rel=1e-14)
        assert np.abs((f.u * f.sigma) @ f.v.T - a).max() <= 1e-14 * np.abs(a).max()


def test_thin_svd_rotates_only_the_numerical_rank(monkeypatch):
    # The n = 200 diagonal layout keeps about 88 columns above rounding;
    # Jacobi must see only those.
    params = TridiagParams(alpha=0.5, beta=0.5, gamma=1.0, n=200)
    x = diag_to_columns(closed_form_inverse(params))
    seen = []
    real = core._jacobi

    def spy(block):
        seen.append(block.shape)
        return real(block)

    monkeypatch.setattr(core, "_jacobi", spy)
    f = thin_svd(x, rank=1)
    (r, c), = seen
    assert r == c < 200
    assert np.all(f.sigma[:r] > 0.0) and np.all(f.sigma[r:] == 0.0)
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.abs(f.sigma - ref).max() <= 1e-13 * ref[0]


@pytest.mark.parametrize("factor", [10.0, 0.1])
def test_thin_svd_rank_cut_threshold(factor):
    # Orthonormal columns scaled by 1, 0.9, ..., 0.6 and one small column
    # at factor * eps * sqrt(n) * r11, where r11 = 1 is the largest column
    # norm: above the cut the small singular value keeps its relative
    # accuracy, below it is an exact zero.
    n = 6
    q = np.linalg.qr(np.random.default_rng(8).normal(size=(12, n)))[0]
    small = factor * np.finfo(np.float64).eps * math.sqrt(n)
    d = np.array([1.0, 0.9, 0.8, 0.7, 0.6, small])
    f = thin_svd(q * d[::-1])
    assert np.abs(f.sigma[:5] - d[:5]).max() <= 1e-14
    if factor > 1.0:
        assert abs(f.sigma[5] - small) <= 1e-13 * small
    else:
        assert f.sigma[5] == 0.0
    assert np.abs(f.u.T @ f.u - np.eye(n)).max() < 1e-12


def _scale_input():
    # Entries are multiples of 2**-20 with the largest at 0.75, so every
    # power-of-two multiple down to 2**-1054 is exact, subnormals included.
    a = np.random.default_rng(14).integers(-2**19, 2**19, size=(7, 5)) / 2.0**20
    a[3, 2] = 0.75
    return a


@pytest.mark.parametrize("k", [1000, 500, -500, -997, -1050])
def test_thin_svd_is_exact_under_power_of_two_scaling(k):
    # 2**±500 is about 1e±150, 2**-997 about 1e-300 and 2**-1050 is
    # subnormal.  Squared norms of such inputs overflow or underflow, so
    # thin_svd scales them by a power of two first, which is exact.
    a = _scale_input()
    base = thin_svd(a)
    for x in (a, a.T):
        f = thin_svd(np.ldexp(x, k))
        assert np.array_equal(f.sigma, np.ldexp(base.sigma, k))
        ref = np.linalg.svd(np.ldexp(x, k), compute_uv=False)
        assert np.abs(f.sigma - ref).max() <= 1e-13 * ref[0]
        r = min(x.shape)
        assert np.abs(f.u.T @ f.u - np.eye(r)).max() < 1e-12
        assert np.abs(f.v.T @ f.v - np.eye(r)).max() < 1e-12
    f = thin_svd(np.ldexp(a, k))
    assert np.array_equal(f.u, base.u) and np.array_equal(f.v, base.v)


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160, 1e-300, 1e-310])
def test_thin_svd_handles_extreme_scales(scale):
    a = np.random.default_rng(6).normal(size=(5, 4)) * scale
    f = thin_svd(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.abs(f.sigma - ref).max() <= 1e-13 * ref[0]
    assert np.abs(f.u.T @ f.u - np.eye(4)).max() < 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(4)).max() < 1e-12


def test_thin_svd_identity_has_flat_spectrum():
    f = thin_svd(np.eye(6))
    assert np.allclose(f.sigma, 1.0, atol=1e-14)


def test_thin_svd_transpose_swaps_factors():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(5, 11))
    f = thin_svd(a)
    ft = thin_svd(a.T)
    assert np.allclose(f.sigma, ft.sigma, rtol=1e-12)


def test_hand_built_factorization_reports_no_sweeps():
    f = SvdFactorization(u=np.eye(2), sigma=np.array([2.0, 1.0]), v=np.eye(2))
    assert f.sweeps == 0
    assert f.rotations == 0


def test_factorization_may_hold_fewer_vectors_than_sigma():
    sigma = np.array([3.0, 2.0, 1.0])
    f = SvdFactorization(u=np.eye(4)[:, :1], sigma=sigma, v=np.eye(3)[:, :1])
    assert f.rank_limit == 1
    assert SvdFactorization(u=np.empty((4, 0)), sigma=sigma, v=np.empty((3, 0))).rank_limit == 0
    with pytest.raises(ValueError):
        SvdFactorization(u=np.eye(4)[:, :2], sigma=sigma, v=np.eye(3)[:, :1])
    with pytest.raises(ValueError):
        SvdFactorization(u=np.eye(4), sigma=sigma, v=np.eye(4))


def _rank_path_inputs():
    rng = np.random.default_rng(31)
    graded = rng.normal(size=(16, 12)) * np.logspace(0, -10, 12)
    rankdef = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 14))
    diag = diag_to_columns(closed_form_inverse(TridiagParams(0.5, 0.5, 1.0, 40)))
    return {
        "square": rng.normal(size=(24, 24)),
        "tall": rng.normal(size=(40, 9)),
        "wide": rng.normal(size=(7, 30)),
        "rankdef": rankdef,
        "graded": graded,
        "diag": diag,
    }


@pytest.mark.parametrize("name", ["square", "tall", "wide", "rankdef", "graded", "diag"])
def test_thin_svd_rank_path_matches_the_full_call(name):
    a = _rank_path_inputs()[name]
    full = thin_svd(a)
    r = min(a.shape)
    tall = a.shape[0] >= a.shape[1]
    norm = np.linalg.norm(a)
    lu, ls, lvt = np.linalg.svd(a, full_matrices=False)
    assert np.abs(full.sigma - ls).max() <= 1e-13 * ls[0]
    # Around the rank cut the long side's columns switch from the rotated
    # ones to the first QR factor's own.
    nonzero = int(np.count_nonzero(full.sigma))
    ranks = {0, 1, 5, nonzero - 1, nonzero, nonzero + 1, r}
    for k in sorted(k for k in ranks if 0 <= k <= r):
        f = thin_svd(a, rank=k)
        assert f.u.shape == (a.shape[0], k) and f.v.shape == (a.shape[1], k)
        assert f.rank_limit == k
        # Same rotations at every rank: sigma, the counters and the long
        # side's vectors are bit-identical to the call at full rank.
        assert np.array_equal(f.sigma, full.sigma)
        assert (f.sweeps, f.rotations) == (full.sweeps, full.rotations)
        free, other = (f.u, f.v) if tall else (f.v, f.u)
        assert np.array_equal(free, (full.u if tall else full.v)[:, :k])
        if k == 0:
            continue
        assert np.abs(other.T @ other - np.eye(k)).max() < 1e-13
        # Against LAPACK's rank-k truncation, which moves by about
        # (perturbation / gap) * ||A||_F; with no gap it is not unique.
        gap = ls[k - 1] - ls[k] if k < r else ls[k - 1]
        if gap <= 0.0:
            continue
        ref = (lu[:, :k] * ls[:k]) @ lvt[:k]
        tol = 1e-12 * norm * max(1.0, ls[0] / gap)
        assert np.abs(rank_k_approx(f, k) - ref).max() <= tol


def _width_input(n, shape):
    rng = np.random.default_rng(n)
    if shape == "square":
        return rng.normal(size=(n, n))
    if shape == "tall":
        return rng.normal(size=(n + 13, n))
    if shape == "wide":
        return rng.normal(size=(n, 3 * n + 1))
    r = max(1, n // 3)
    return rng.normal(size=(n + 2, r)) @ rng.normal(size=(r, n))


# Whether a product column keeps its bits depends on the width n of X (where
# it falls in the BLAS kernel's column blocks), not on the input's shape, so
# the small widths take the four shapes in turn.
_WIDTH_SHAPES = ("square", "tall", "wide", "rankdef")
_WIDTH_CASES = [(n, _WIDTH_SHAPES[n % 4]) for n in range(1, 41)]
_WIDTH_CASES += [(65, shape) for shape in _WIDTH_SHAPES]
_WIDTH_CASES += [(129, "square"), (129, "wide")]


@pytest.mark.parametrize("n, shape", _WIDTH_CASES)
def test_thin_svd_rank_path_is_bit_identical_across_widths(n, shape):
    # Every rank rotates the same n x n X and lifts the long side through
    # U_X zero-padded to n columns, so sigma, the counters and the long
    # side's vectors must keep their bits whichever rank is asked for, at
    # every width n of X.
    a = _width_input(n, shape)
    tall = a.shape[0] >= a.shape[1]
    full = thin_svd(a)
    for k in sorted({0, 1, n // 2, n}):
        f = thin_svd(a, rank=k)
        assert np.array_equal(f.sigma, full.sigma), k
        assert (f.sweeps, f.rotations) == (full.sweeps, full.rotations), k
        free, full_free = (f.u, full.u) if tall else (f.v, full.v)
        assert np.array_equal(free, full_free[:, :k]), k


def test_thin_svd_counts_pair_rotations_at_every_rank():
    # Two columns make one pair: one rotation leaves them orthogonal, and
    # the second sweep finds nothing to rotate.  Orthogonal columns need no
    # rotation at all.
    a = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    for rank in (None, 0, 1, 2):
        f = thin_svd(a, rank=rank)
        assert (f.sweeps, f.rotations) == (2, 1)
    f = thin_svd(np.diag([3.0, 2.0, 1.0]))
    assert (f.sweeps, f.rotations) == (1, 0)


def test_thin_svd_rejects_bad_rank():
    a = np.ones((5, 3))
    for rank in (True, False, -1, 4, 2.0, "2"):
        with pytest.raises(ValueError, match="rank"):
            thin_svd(a, rank=rank)
    assert thin_svd(a, rank=np.int64(3)).rank_limit == 3


def test_thin_svd_rank_zero_does_not_build_the_long_factor():
    # With rank=0 both QR factorizations return R only: the m x n Q1 is
    # never built, which a full call holds on top of the QR's own copy.
    a = np.random.default_rng(4).normal(size=(2400, 16))
    peaks = {}
    for rank in (None, 0):
        tracemalloc.start()
        try:
            thin_svd(a, rank=rank)
            peaks[rank] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[None] - a.nbytes // 2


def test_truncated_factorization_bounds_rank_k_approx():
    f = thin_svd(np.random.default_rng(3).normal(size=(6, 5)), rank=2)
    assert rank_k_approx(f, 2).shape == (6, 5)
    with pytest.raises(ValueError, match=r"rank must be an integer in \[1, 2\], got 3"):
        rank_k_approx(f, 3)


def test_factorization_rejects_increasing_sigma():
    with pytest.raises(ValueError):
        SvdFactorization(
            u=np.eye(2), sigma=np.array([1.0, 2.0]), v=np.eye(2)
        )


def test_factorization_rejects_factors_of_the_wrong_dimensionality():
    with pytest.raises(ValueError, match="factor arrays have wrong dimensionality"):
        SvdFactorization(u=np.eye(2), sigma=np.eye(2), v=np.eye(2))


def test_rank_k_error_matches_tail_energy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 9))
    f = thin_svd(a)
    for k in (1, 4, 9):
        err_sq = np.sum((a - rank_k_approx(f, k)) ** 2)
        tail = float(np.sum(f.sigma[k:] ** 2))
        assert err_sq == pytest.approx(tail, rel=1e-10, abs=1e-12)


def test_rank_k_monotone_in_k():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(10, 10))
    f = thin_svd(a)
    errs = [np.sum((a - rank_k_approx(f, k)) ** 2) for k in range(1, 11)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))


def test_rank_k_rejects_out_of_range():
    f = thin_svd(np.eye(4))
    for k in (0, -1, 5, 2.0, True):
        with pytest.raises(ValueError):
            rank_k_approx(f, k)


def test_relative_error_basics():
    a = [[1.0, 0.0], [0.0, 1.0]]
    assert relative_error(a, a) == 0.0
    assert relative_error(a, [[0.0, 0.0], [0.0, 0.0]]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(a, [[1.0]])
    with pytest.raises(ValueError):
        relative_error([[0.0]], [[1.0]])


def test_parameter_count():
    assert parameter_count(400, 600, 5) == 5000
    assert parameter_count(3, 4, 2) == 14
    for bad in [(0, 4, 1), (3, -1, 1), (3, 4, 0), (3.5, 4, 1), (3, 4, True)]:
        with pytest.raises(ValueError):
            parameter_count(*bad)


def test_approx_report_consistency():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(9, 14))
    approx = rank_k_approx(thin_svd(a, rank=3), 3)
    rep = approx_report(a, 3, approx=approx)
    assert rep.parameters == 3 * (9 + 14)
    f = thin_svd(a)
    assert rep.rel_error == pytest.approx(
        relative_error(a, rank_k_approx(f, 3)), rel=1e-12
    )
    assert rep.abs_error_sq == pytest.approx(
        rep.rel_error**2 * frobenius_norm(a) ** 2, rel=1e-12
    )
    with pytest.raises(ValueError, match=r"rank must be an integer in \[1, 9\], got 0"):
        approx_report(a, 0, approx=approx)
    with pytest.raises(ValueError, match="rank"):
        approx_report(a, 10, approx=approx)


def test_approx_report_rejects_a_misshapen_approx_and_a_zero_matrix():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(8, 8))
    with pytest.raises(ValueError, match="shape mismatch"):
        approx_report(a, 2, approx=np.zeros((8, 7)))
    with pytest.raises(ValueError, match="zero matrix"):
        approx_report(np.zeros((3, 4)), 1, approx=np.zeros((3, 4)))


def test_approx_report_rejects_non_finite_approx():
    a = np.random.default_rng(14).normal(size=(5, 4))
    for bad in (np.nan, np.inf):
        approx = a.copy()
        approx[2, 1] = bad
        with pytest.raises(ValueError, match="approx contains non-finite entries"):
            approx_report(a, 2, approx=approx)


def test_count_arguments_share_one_rule(tmp_path):
    # Every argument that counts something (a rank, a tile edge, a group
    # count, a size) takes a Python or numpy integer and nothing else: no
    # float, however integral, and no bool.  The message names the argument.
    rng = np.random.default_rng(21)
    a = rng.normal(size=(6, 6))
    f = thin_svd(a)
    img = rng.uniform(size=(6, 6))
    write_gray_image(img, tmp_path / "i.pgm")
    counts = write_counts(tmp_path / "c.csv", linear_counts(["CA"], 2))
    panel = piecewise_linear_panel(4, 6, 3)

    def approx_cli(v):
        cli._cmd_approx(argparse.Namespace(
            image=str(tmp_path / "i.pgm"), method="plain", ranks=[v],
            out=str(tmp_path / "o")))

    sites = [
        ("rank", ValueError, lambda v: thin_svd(a, rank=v)),
        ("rank", ValueError, lambda v: rank_k_approx(f, v)),
        ("rows", ValueError, lambda v: parameter_count(v, 4, 2)),
        ("cols", ValueError, lambda v: parameter_count(3, v, 2)),
        ("k", ValueError, lambda v: parameter_count(3, 4, v)),
        ("rank", ValueError, lambda v: approx_report(a, v, approx=a)),
        ("tile_rows", ValueError, lambda v: TileScheme(v, 1, 1, 1)),
        ("grid_cols", ValueError, lambda v: TileScheme(1, 1, 1, v)),
        ("tile_rows", ValueError, lambda v: tile_to_columns(a, v, 3)),
        ("tile_cols", ValueError, lambda v: tile_to_columns(a, 3, v)),
        ("groups", ValueError, lambda v: stack_column_groups(a, v)),
        ("groups", ValueError, lambda v: unstack_column_groups(a, v)),
        ("r", ValueError, lambda v: ksvd_terms(a, 3, 3, v)),
        ("tile_rows", ValueError, lambda v: crop_to_tile_multiple(a, v, 3)),
        ("tile_cols", ValueError, lambda v: crop_to_tile_multiple(a, 3, v)),
        ("tile_sizes", ValueError, lambda v: tile_sweep(img, "i.pgm", [v], [0.5])),
        # The panel loader reports every bad argument as a DataError.
        ("days", DataError,
         lambda v: load_state_counts(counts, START, v, states=["CA"])),
        ("entities", ValueError, lambda v: piecewise_linear_panel(v, 6, 3)),
        ("days", ValueError, lambda v: piecewise_linear_panel(4, v, 1)),
        ("regimes", ValueError, lambda v: piecewise_linear_panel(4, 6, v)),
        ("groups", ValueError, lambda v: covid_experiment(panel, v, 1)),
        ("rank", ValueError, lambda v: covid_experiment(panel, 1, v)),
        ("n", ValueError, lambda v: TridiagParams(0.5, 0.5, 1.0, v)),
        ("n", ValueError, lambda v: geometric_partial_sums(0.25, v)),
        ("rank", ValueError, approx_cli),
    ]
    for name, error, call in sites:
        call(np.int64(2))
        for bad in (2.5, True, np.float64(2.0)):
            with pytest.raises(error, match=rf"^{name} must be (a positive|an) integer"):
                call(bad)


def test_approx_report_at_extreme_scales():
    def _report(m, k):
        return approx_report(m, k, approx=rank_k_approx(thin_svd(m, rank=k), k))

    a = np.random.default_rng(0).normal(size=(6, 5))
    base = _report(a, 2)
    # A numpy overflow warning fails the test (pyproject.toml).
    for scale in (1e150, 1e-150, 1e-170):
        rep = _report(a * scale, 2)
        assert abs(rep.rel_error - base.rel_error) <= 1e-12
        assert rep.abs_error_sq == pytest.approx(
            base.abs_error_sq * scale * scale, rel=1e-12, abs=1e-320
        )
    # The squared error rounded to float64: 0.0 once it underflows, and
    # refused at 1e170, where it is about 1e340.
    assert rep.abs_error_sq == 0.0
    with pytest.raises(ValueError, match="squared error overflows float64"):
        _report(a * 1e170, 2)
    # relative_error never forms the squared error, so it still answers.
    big = a * 1e170
    approx = rank_k_approx(thin_svd(big, rank=2), 2)
    assert abs(relative_error(big, approx) - base.rel_error) <= 1e-12
