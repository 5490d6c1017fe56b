"""Layout pins and roundtrips for the reorganizations."""

import numpy as np
import pytest

from reorgsvd import (
    columns_to_diag,
    columns_to_tiles,
    diag_to_columns,
    kronecker_product,
    ksvd_terms,
    rank_k_approx,
    stack_column_groups,
    thin_svd,
    tile_to_columns,
    unstack_column_groups,
)
from reorgsvd.reshape import TileScheme


def test_tile_layout_pinned_on_demo_pair(demo_matrix, demo_tiled):
    x, scheme = tile_to_columns(demo_matrix, 3, 3)
    assert np.array_equal(x, demo_tiled)
    assert scheme == TileScheme(tile_rows=3, tile_cols=3, grid_rows=2, grid_cols=2)
    assert np.array_equal(columns_to_tiles(x, scheme), demo_matrix)


def test_tile_layout_pinned_small():
    # 2x2 tiles of a 2x4 matrix: tile columns are (left tile, right tile),
    # each vectorized down its own columns.
    a = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    x, scheme = tile_to_columns(a, 2, 2)
    assert np.array_equal(
        x, np.array([[1.0, 3.0], [5.0, 7.0], [2.0, 4.0], [6.0, 8.0]])
    )
    assert scheme.unfolded_shape == (4, 2)


def test_tile_roundtrip_bitwise_random_shapes():
    rng = np.random.default_rng(101)
    for _ in range(40):
        p, q, gr, gc = rng.integers(1, 6, size=4)
        a = rng.normal(size=(gr * p, gc * q))
        x, scheme = tile_to_columns(a, p, q)
        assert x.shape == (p * q, gr * gc)
        assert np.array_equal(columns_to_tiles(x, scheme), a)
        # pure entry movement: the multiset of values is untouched
        assert np.array_equal(np.sort(x.ravel()), np.sort(a.ravel()))


def test_tile_rejects_non_divisible_and_bad_schemes():
    a = np.ones((6, 6))
    with pytest.raises(ValueError):
        tile_to_columns(a, 4, 3)
    with pytest.raises(ValueError):
        tile_to_columns(a, 3, 0)
    with pytest.raises(ValueError):
        columns_to_tiles(np.ones((9, 4)), TileScheme(3, 3, 2, 3))


def test_stack_layout_pinned():
    a = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    b = stack_column_groups(a, 2)
    # group 0 (columns 0..1) on top, group 1 (columns 2..3) below
    assert np.array_equal(
        b, np.array([[1.0, 2.0], [5.0, 6.0], [3.0, 4.0], [7.0, 8.0]])
    )
    assert np.array_equal(unstack_column_groups(b, 2), a)


def test_stack_roundtrip_bitwise_random():
    rng = np.random.default_rng(102)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        g = int(rng.integers(1, 6))
        w = int(rng.integers(1, 7))
        a = rng.normal(size=(m, g * w))
        b = stack_column_groups(a, g)
        assert b.shape == (g * m, w)
        assert np.array_equal(unstack_column_groups(b, g), a)


def test_stack_rejects_non_divisible():
    with pytest.raises(ValueError):
        stack_column_groups(np.ones((2, 5)), 3)
    with pytest.raises(ValueError):
        unstack_column_groups(np.ones((5, 2)), 3)
    with pytest.raises(ValueError):
        stack_column_groups(np.ones((2, 4)), 0)


def test_diag_layout_pinned():
    a = np.array([[11.0, 12.0, 13.0], [21.0, 22.0, 23.0], [31.0, 32.0, 33.0]])
    b = diag_to_columns(a)
    # column 0 is the main diagonal, column k the k-th wrap-around
    # superdiagonal
    assert np.array_equal(
        b, np.array([[11.0, 12.0, 13.0], [22.0, 23.0, 21.0], [33.0, 31.0, 32.0]])
    )
    assert np.array_equal(columns_to_diag(b), a)


def test_diag_layout_identity_concentrates_first_column():
    b = diag_to_columns(np.eye(7))
    assert np.array_equal(b[:, 0], np.ones(7))
    assert np.all(b[:, 1:] == 0.0)


def test_diag_roundtrip_bitwise_random():
    rng = np.random.default_rng(103)
    for n in (1, 2, 3, 8, 17):
        a = rng.normal(size=(n, n))
        assert np.array_equal(columns_to_diag(diag_to_columns(a)), a)


def test_diag_rejects_non_square():
    with pytest.raises(ValueError):
        diag_to_columns(np.ones((3, 4)))
    with pytest.raises(ValueError):
        columns_to_diag(np.ones((4, 3)))


def test_kronecker_product_block_structure():
    b = np.array([[1.0, 2.0], [0.0, -1.0]])
    c = np.array([[5.0, 6.0], [7.0, 8.0]])
    k = kronecker_product(b, c)
    assert k.shape == (4, 4)
    assert np.array_equal(k[:2, :2], 1.0 * c)
    assert np.array_equal(k[:2, 2:], 2.0 * c)
    assert np.array_equal(k[2:, :2], 0.0 * c)
    assert np.array_equal(k[2:, 2:], -1.0 * c)


def test_ksvd_full_term_sum_reconstructs():
    rng = np.random.default_rng(104)
    a = rng.normal(size=(6, 8))
    terms = ksvd_terms(a, 2, 2, 4)
    recon = sum(kronecker_product(t.b, t.c) for t in terms)
    assert np.abs(recon - a).max() <= 1e-12 * np.abs(a).max()


def test_ksvd_single_term_matches_rank1_unfolding_error(demo_matrix):
    term = ksvd_terms(demo_matrix, 3, 3, 1)[0]
    assert term.b.shape == (2, 2)
    assert term.c.shape == (3, 3)
    err_sq = float(np.sum((demo_matrix - kronecker_product(term.b, term.c)) ** 2))
    x, _ = tile_to_columns(demo_matrix, 3, 3)
    f = thin_svd(x)
    unfold_err_sq = float(np.sum((x - rank_k_approx(f, 1)) ** 2))
    assert err_sq == pytest.approx(unfold_err_sq, rel=1e-12)


def test_ksvd_term_count_bounds():
    a = np.ones((4, 4))
    with pytest.raises(ValueError):
        ksvd_terms(a, 2, 2, 0)
    with pytest.raises(ValueError):
        ksvd_terms(a, 2, 2, 5)


# Entries that a layout must carry bit for bit, drawn among arbitrary finite
# floats: signed zeros, subnormals and the ends of the float64 range.
_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1.7e308, -1.7e308]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _layout_strategies():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    values = st.one_of(st.sampled_from(_SPECIAL),
                       st.floats(allow_nan=False, allow_infinity=False))

    @st.composite
    def matrix(draw, rows=st.integers(1, 16), cols=st.integers(1, 16)):
        shape = (draw(rows), draw(cols))
        return draw(hnp.arrays(np.float64, shape, elements=values))

    square = st.integers(1, 16).flatmap(lambda n: matrix(st.just(n), st.just(n)))
    settings = hyp.settings(derandomize=True, max_examples=80, deadline=None, database=None)
    return hyp, st, matrix(), square, settings


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _assert_permutes(out, a):
    # The forward map only moves entries: the same multiset of bit patterns.
    assert np.array_equal(np.sort(_bits(out), axis=None), np.sort(_bits(a), axis=None))


def test_tile_round_trip_is_bitwise_on_divisor_shapes():
    hyp, st, matrix, _, settings = _layout_strategies()

    @settings
    @hyp.given(matrix, st.data())
    def check(a, data):
        rows, cols = a.shape
        p = data.draw(st.sampled_from(_divisors(rows)))
        q = data.draw(st.sampled_from(_divisors(cols)))
        x, scheme = tile_to_columns(a, p, q)
        assert x.shape == (p * q, rows * cols // (p * q))
        _assert_permutes(x, a)
        assert columns_to_tiles(x, scheme).tobytes() == a.tobytes()

    check()


def test_stack_round_trip_is_bitwise_on_divisor_shapes():
    hyp, st, matrix, _, settings = _layout_strategies()

    @settings
    @hyp.given(matrix, st.data())
    def check(a, data):
        rows, cols = a.shape
        g = data.draw(st.sampled_from(_divisors(cols)))
        b = stack_column_groups(a, g)
        assert b.shape == (g * rows, cols // g)
        _assert_permutes(b, a)
        assert unstack_column_groups(b, g).tobytes() == a.tobytes()

    check()


def test_diag_round_trip_is_bitwise_on_square_shapes():
    hyp, _, _, square, settings = _layout_strategies()

    @settings
    @hyp.given(square)
    def check(a):
        b = diag_to_columns(a)
        assert b.shape == a.shape
        _assert_permutes(b, a)
        assert columns_to_diag(b).tobytes() == a.tobytes()

    check()
