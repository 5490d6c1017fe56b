"""Rank search and the plain-versus-tiled parameter sweep."""

import math

import numpy as np
import pytest

import reorgsvd.core as core
import reorgsvd.sweep as sweep
from reorgsvd import GrayImage, relative_error, tile_sweep
from reorgsvd.sweep import crop_to_tile_multiple


def _image_from(matrix):
    return GrayImage.from_raw(np.asarray(matrix, dtype=np.float64))


def test_crop_keeps_exact_multiples_untouched():
    m = np.random.default_rng(41).uniform(0, 1, (12, 8))
    out = crop_to_tile_multiple(m, 4, 4)
    assert np.array_equal(out, m)
    assert np.shares_memory(out, m)


def test_crop_offsets_are_centered():
    base = np.arange(7 * 9, dtype=np.float64).reshape(7, 9) / 100.0
    out = crop_to_tile_multiple(base, 3, 4)
    # 7 rows -> keep 6, drop floor(1/2)=0 on top; 9 cols -> keep 8, drop
    # floor(1/2)=0 on the left
    assert np.array_equal(out, base[0:6, 0:8])
    assert np.shares_memory(out, base)
    out = crop_to_tile_multiple(base, 2, 2)
    # 7 -> keep 6 starting at row 0; 9 -> keep 8 starting at col 0
    assert out.shape == (6, 8)
    assert np.array_equal(out, base[0:6, 0:8])
    base = np.arange(10 * 11, dtype=np.float64).reshape(10, 11) / 200.0
    out = crop_to_tile_multiple(base, 4, 4)
    # 10 -> keep 8 starting at row 1; 11 -> keep 8 starting at col 1
    assert np.array_equal(out, base[1:9, 1:9])
    assert np.shares_memory(out, base)


def test_crop_rejects_images_smaller_than_a_tile():
    with pytest.raises(ValueError):
        crop_to_tile_multiple(np.ones((3, 10)), 4, 2)


def test_min_rank_on_known_spectrum():
    sigma = np.array([4.0, 2.0, 1.0, 1.0])
    # total 22; tails: after k=1 -> 6, k=2 -> 2, k=3 -> 1, k=4 -> 0
    k, err = sweep._rank_for_target(sigma, np.sqrt(6.0 / 22.0) + 1e-12)
    assert k == 1
    assert err == pytest.approx(np.sqrt(6.0 / 22.0), rel=1e-12)
    k, err = sweep._rank_for_target(sigma, np.sqrt(6.0 / 22.0) - 1e-9)
    assert k == 2
    # budget 0.25**2 * 22 = 1.375 sits between the k=3 tail (1) and the
    # k=2 tail (2)
    k, _ = sweep._rank_for_target(sigma, 0.25)
    assert k == 3
    k, _ = sweep._rank_for_target(sigma, 0.05)
    assert k == 4


def test_min_rank_boundary_target_is_accepted():
    # rank-1 truncation of diag(1, 1) leaves exactly half the energy, so a
    # target of sqrt(1/2) is met at rank 1 with equality
    k, err = sweep._rank_for_target(np.array([1.0, 1.0]), np.sqrt(0.5))
    assert k == 1
    assert err == pytest.approx(np.sqrt(0.5), rel=1e-12)


def _rank_by_scan(sigma, target):
    # Reference: the first k whose tail is within the budget, by a linear
    # scan over the same reversed-cumsum tails.
    sq = sigma * sigma
    tails = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    budget = target * target * tails[0]
    k = next(k for k in range(1, sq.size + 1) if tails[k] <= budget)
    return k, math.sqrt(tails[k] / tails[0])


def test_rank_for_target_matches_a_linear_scan():
    rng = np.random.default_rng(44)
    spectra = [
        # Squares and tails exact: target 0.5 puts the budget (4) exactly
        # on the k = 3 tail, which is accepted.
        np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        np.array([3.0, 0.0, 0.0]),
        np.array([1.0]),
    ]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        sig = np.sort(rng.exponential(size=n) ** rng.uniform(1, 8))[::-1]
        # Up to n - 1 trailing zeros.
        sig[n - int(rng.integers(0, n)):] = 0.0
        spectra.append(sig)
    assert sweep._rank_for_target(spectra[0], 0.5) == (3, 0.5)
    for sig in spectra:
        tails = np.cumsum((sig * sig)[::-1])[::-1]
        targets = [*rng.uniform(0.0, 1.0, size=5), 1e-300, 0.999999]
        # Each tail taken as the exact budget, where representable.
        targets += [math.sqrt(t / tails[0]) for t in tails[1:]]
        for target in targets:
            if 0.0 < target < 1.0:
                assert sweep._rank_for_target(sig, target) == _rank_by_scan(sig, target)


def test_zero_matrix_rule_has_one_owner(monkeypatch):
    # The rank selector and the error measure both ask core's one check.
    with pytest.raises(ValueError, match="relative error undefined for a zero matrix"):
        sweep._rank_for_target(np.zeros(3), 0.1)
    with pytest.raises(ValueError, match="relative error undefined for a zero matrix"):
        relative_error(np.zeros((2, 2)), np.ones((2, 2)))
    asked = []
    monkeypatch.setattr(core, "_denominator", lambda size: asked.append(size) or 1.0)
    monkeypatch.setattr(sweep, "_denominator", core._denominator)
    assert sweep._rank_for_target(np.zeros(3), 0.1) == (1, 0.0)
    assert relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert asked == [0.0, 0.0]


def test_min_rank_validates_inputs():
    img = _image_from(np.eye(3) * 0.5)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError, match=r"target must be in \(0, 1\)"):
            tile_sweep(img, "x", [1], [0.5, bad])
    with pytest.raises(ValueError, match="zero matrix"):
        sweep._rank_for_target(np.zeros(3), 0.5)


def test_sweep_emits_complete_records_even_for_noise():
    rng = np.random.default_rng(43)
    img = _image_from(rng.uniform(0, 1, (24, 24)))
    records = tile_sweep(img, "noise.pgm", [4, 6], [0.1, 0.4])
    assert len(records) == 2 * 3
    for target in (0.1, 0.4):
        group = [r for r in records if r.target_rel_error == target]
        assert [g.method for g in group] == ["plain", "tiled", "tiled"]
        assert sum(g.winner for g in group) == 1
        for g in group:
            assert g.achieved_rel_error <= target
            assert g.parameters == g.achieved_rank * (g.rows + g.cols)
            assert g.image == "noise.pgm"


def test_sweep_winner_has_minimal_parameters():
    rng = np.random.default_rng(44)
    tile = rng.uniform(0.2, 1.0, (4, 4))
    img = _image_from(np.kron(rng.uniform(0.2, 1.0, (6, 6)), tile) / 4.0)
    records = tile_sweep(img, "kron.pgm", [4, 3], [0.05])
    best = min(r.parameters for r in records)
    winners = [r for r in records if r.winner]
    assert len(winners) == 1
    assert winners[0].parameters == best
    # the exactly-Kronecker image must be won by its own tile size at rank 1
    assert winners[0].method == "tiled"
    assert winners[0].tile_rows == 4
    assert winners[0].achieved_rank == 1


def test_sweep_tie_goes_to_plain():
    # constant image: every method reaches the target at rank 1, and a
    # square tiling of a square image has the same parameter count as plain
    img = _image_from(np.full((16, 16), 0.5))
    records = tile_sweep(img, "flat.pgm", [4], [0.2])
    plain, tiled = records
    assert plain.method == "plain" and tiled.method == "tiled"
    assert plain.parameters == tiled.parameters == 1 * (16 + 16)
    assert plain.winner and not tiled.winner


def test_sweep_validates_arguments():
    img = _image_from(np.ones((8, 8)) * 0.3)
    with pytest.raises(ValueError):
        tile_sweep(img, "x", [], [0.1])
    with pytest.raises(ValueError):
        tile_sweep(img, "x", [2], [])
    with pytest.raises(ValueError):
        tile_sweep(img, "x", [2], [1.2])
