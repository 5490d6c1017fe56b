"""Closed forms for the bidiagonally-factored tridiagonal family."""

import dataclasses
import math

import numpy as np
import pytest

from reorgsvd import (
    TridiagParams,
    assemble_tridiagonal,
    certify_rank1_gap,
    closed_form_inverse,
    diag_energy,
    geometric_partial_sums,
    remainder_increment,
    spectral_norm_bound,
    thin_svd,
)
from reorgsvd.tridiag import build_bidiagonal_factors, linear_rate, remainder_term


def _random_params(rng, n):
    return TridiagParams(
        alpha=float(rng.uniform(-0.9, 0.9)),
        beta=float(rng.uniform(-0.9, 0.9)),
        gamma=float(rng.uniform(0.2, 5.0)),
        n=n,
    )


def test_params_validation():
    with pytest.raises(ValueError):
        TridiagParams(1.0, 0.5, 1.0, 4)
    with pytest.raises(ValueError):
        TridiagParams(0.5, -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        TridiagParams(0.5, 0.5, 0.0, 4)
    with pytest.raises(ValueError):
        TridiagParams(0.5, 0.5, 1.0, 0)
    with pytest.raises(ValueError):
        TridiagParams(float("nan"), 0.5, 1.0, 4)


def test_factor_entries_hand_checked():
    lower, upper = build_bidiagonal_factors(TridiagParams(0.25, 0.5, 2.0, 3))
    assert np.array_equal(
        lower, np.array([[1.0, 0, 0], [0.25, 1.0, 0], [0, 0.25, 1.0]])
    )
    assert np.array_equal(
        upper, np.array([[2.0, 1.0, 0], [0, 2.0, 1.0], [0, 0, 2.0]])
    )


def test_assembled_matrix_matches_entry_formulas():
    # second route to the same matrix: write the three bands directly
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 7, 30):
        p = _random_params(rng, n)
        m = assemble_tridiagonal(p)
        direct = np.zeros((n, n))
        idx = np.arange(n)
        direct[idx, idx] = p.gamma * (1.0 + p.delta)
        direct[0, 0] = p.gamma
        if n > 1:
            direct[idx[1:], idx[:-1]] = p.alpha * p.gamma
            direct[idx[:-1], idx[1:]] = p.beta * p.gamma
        assert np.abs(m - direct).max() <= 1e-12 * abs(p.gamma)


def test_unit_bidiagonal_inverse_is_signed_power_ladder():
    # the lower factor inverts entrywise to (-alpha)**(i-j) on and below
    # the diagonal
    p = TridiagParams(0.6, 0.3, 1.0, 8)
    lower, _ = build_bidiagonal_factors(p)
    inv = np.linalg.inv(lower)
    i = np.arange(8)[:, None]
    j = np.arange(8)[None, :]
    expect = np.where(i >= j, np.power(-p.alpha, np.maximum(i - j, 0)), 0.0)
    assert np.abs(inv - expect).max() < 1e-12


def test_closed_form_inverse_hand_checked_2x2():
    inv = closed_form_inverse(TridiagParams(0.5, 0.5, 1.0, 2))
    assert np.abs(inv - np.array([[1.25, -0.5], [-0.5, 1.0]])).max() < 1e-15


def test_closed_form_inverse_matches_lapack():
    rng = np.random.default_rng(22)
    for n in (1, 2, 5, 20, 60):
        p = _random_params(rng, n)
        inv = closed_form_inverse(p)
        ref = np.linalg.inv(assemble_tridiagonal(p))
        assert np.abs(inv - ref).max() <= 1e-10 * np.abs(ref).max()


def test_inverse_times_matrix_is_identity():
    rng = np.random.default_rng(23)
    for n in (2, 10, 200):
        p = _random_params(rng, n)
        resid = closed_form_inverse(p) @ assemble_tridiagonal(p) - np.eye(n)
        assert np.abs(resid).max() < 1e-10


def test_geometric_partial_sums_values():
    assert np.array_equal(geometric_partial_sums(0.0, 4), np.ones(4))
    s = geometric_partial_sums(0.5, 3)
    assert np.allclose(s, [1.0, 1.5, 1.75], atol=1e-15)
    s = geometric_partial_sums(-0.5, 3)
    assert np.allclose(s, [1.0, 0.5, 0.75], atol=1e-15)
    # near the removable singularity the sums approach 1, 2, 3, ...
    s = geometric_partial_sums(1.0 - 1e-12, 5)
    assert np.allclose(s, np.arange(1.0, 6.0), rtol=1e-10)
    with pytest.raises(ValueError):
        geometric_partial_sums(0.5, 0)


def test_diag_energy_matches_direct_sum():
    rng = np.random.default_rng(24)
    for n in (1, 7, 100, 10_000):
        for _ in range(5):
            p = _random_params(rng, n)
            s = geometric_partial_sums(p.delta, n)
            direct = float(s @ s)
            assert diag_energy(p) == pytest.approx(direct, rel=1e-12)


def test_diag_energy_equals_scaled_diagonal_norm():
    p = TridiagParams(0.4, -0.7, 2.5, 40)
    diag = np.diagonal(closed_form_inverse(p))
    assert diag_energy(p) == pytest.approx(
        p.gamma**2 * float(diag @ diag), rel=1e-12
    )


def test_rate_plus_remainder_decomposition():
    rng = np.random.default_rng(25)
    for n in (1, 4, 50, 500):
        p = _random_params(rng, n)
        lhs = linear_rate(p) * n + remainder_term(p)
        rhs = diag_energy(p) / p.gamma**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_remainder_increment_telescopes():
    # direct subtraction is still accurate at small n; the analytic form
    # must agree there and keep shrinking geometrically afterwards
    p0 = TridiagParams(0.7, 0.6, 1.3, 1)
    for n in range(1, 12):
        pn = dataclasses.replace(p0, n=n)
        pn1 = dataclasses.replace(p0, n=n + 1)
        direct = remainder_term(pn1) - remainder_term(pn)
        assert remainder_increment(pn) == pytest.approx(direct, rel=1e-6, abs=1e-18)
    # the step ratio settles under |delta| + 0.01 once the early transient
    # factor (2 - delta**(n+2)) / (2 - delta**(n+1)) is close to 1
    increments = [
        abs(remainder_increment(dataclasses.replace(p0, n=n))) for n in range(5, 40)
    ]
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0]
    assert max(ratios) <= abs(p0.delta) + 0.01


def test_spectral_bound_value_and_validity():
    assert spectral_norm_bound(TridiagParams(0.5, 0.5, 1.0, 10)) == 4.0
    rng = np.random.default_rng(26)
    for _ in range(10):
        p = _random_params(rng, int(rng.integers(2, 40)))
        sigma1 = thin_svd(closed_form_inverse(p)).sigma[0]
        assert sigma1 <= spectral_norm_bound(p) * (1.0 + 1e-12)


def test_top_singular_value_nondecreasing_in_size():
    values = []
    for n in (5, 10, 20, 40):
        inv = closed_form_inverse(TridiagParams(0.5, 0.5, 1.0, n))
        values.append(thin_svd(inv).sigma[0])
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_certificate_is_clean_and_internally_consistent():
    cert = certify_rank1_gap(TridiagParams(0.5, 0.5, 1.0, 50))
    assert cert.certified
    assert cert.violations() == ()
    assert cert.plain_rank1_err_sq == pytest.approx(
        cert.frob_sq - cert.top_singular_value**2, rel=1e-9
    )
    assert cert.reorg_wins
    assert cert.rank1_gap > 0


def test_certificate_requires_n_at_least_2():
    with pytest.raises(ValueError):
        certify_rank1_gap(TridiagParams(0.5, 0.5, 1.0, 1))


def test_certificate_flags_doctored_numbers():
    cert = certify_rank1_gap(TridiagParams(0.5, 0.5, 1.0, 20))
    bad = dataclasses.replace(cert, top_singular_value=cert.spectral_bound * 2)
    assert not bad.certified
    assert any("spectral bound" in line for line in bad.violations())
    bad = dataclasses.replace(cert, reorg_rank1_err_sq=cert.frob_sq)
    assert any("ceiling" in line for line in bad.violations())
    bad = dataclasses.replace(cert, remainder=cert.remainder + 1.0)
    assert any("diag_norm_sq" in line for line in bad.violations())
