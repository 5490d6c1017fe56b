"""Graymap reader/writer: scaling, quantization, and error offsets."""

import numpy as np
import pytest

from reorgsvd import (
    GrayImage,
    PgmError,
    PgmFormatError,
    PgmParseError,
    load_gray_image,
    write_gray_image,
)


def _write(tmp_path, payload: bytes, name="t.pgm"):
    path = tmp_path / name
    path.write_bytes(payload)
    return path


def test_write_then_load_is_exact_on_the_8bit_grid(tmp_path):
    rng = np.random.default_rng(31)
    m = rng.integers(0, 256, size=(9, 13)).astype(np.float64) / 255.0
    img = GrayImage(matrix=m)
    write_gray_image(img, tmp_path / "a.pgm")
    back = load_gray_image(tmp_path / "a.pgm")
    assert np.array_equal(back.matrix, m)
    assert back.maxval == 255


def test_roundtrip_error_bounded_by_half_step(tmp_path):
    rng = np.random.default_rng(32)
    m = rng.uniform(0.0, 1.0, size=(16, 11))
    write_gray_image(GrayImage(matrix=m), tmp_path / "a.pgm")
    back = load_gray_image(tmp_path / "a.pgm")
    assert np.abs(back.matrix - m).max() <= 1.0 / 510.0 + 1e-15


def test_quantization_rounds_halves_away_from_zero(tmp_path):
    # 0.5/255 sits exactly halfway between samples 0 and 1 and must go up
    m = np.array([[0.0, 0.5 / 255.0, 127.5 / 255.0, 1.0]])
    write_gray_image(GrayImage(matrix=m), tmp_path / "a.pgm")
    raw = (tmp_path / "a.pgm").read_bytes()
    assert raw.endswith(bytes([0, 1, 128, 255]))


def test_from_raw_clamps_instead_of_wrapping(tmp_path):
    img = GrayImage.from_raw([[-0.5, 0.25], [1.5, 2.0]])
    assert np.array_equal(img.matrix, [[0.0, 0.25], [1.0, 1.0]])
    write_gray_image(img, tmp_path / "a.pgm")
    raw = (tmp_path / "a.pgm").read_bytes()
    assert raw.endswith(bytes([0, 64, 255, 255]))


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(matrix=np.array([[1.5]]))
    with pytest.raises(ValueError):
        GrayImage(matrix=np.array([[-0.1]]))
    with pytest.raises(ValueError):
        GrayImage(matrix=np.array([[np.nan]]))
    with pytest.raises(ValueError):
        GrayImage(matrix=np.array([[0.5]]), maxval=0)


def test_ascii_parse_with_comments_and_whitespace(tmp_path):
    payload = b"P2 #magic\n # a comment line\n3\t2 #dims\n10\n0 1 2\n3 4 10 # tail\n"
    img = load_gray_image(_write(tmp_path, payload))
    assert img.maxval == 10
    assert np.array_equal(img.matrix, np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 1.0]]))


def test_binary_8bit_raster(tmp_path):
    payload = b"P5\n2 2\n255\n" + bytes([0, 51, 102, 255])
    img = load_gray_image(_write(tmp_path, payload))
    assert np.allclose(img.matrix, np.array([[0, 51], [102, 255]]) / 255.0)


def test_binary_16bit_big_endian(tmp_path):
    samples = np.array([[0, 16384], [32768, 65535]], dtype=">u2")
    payload = b"P5\n2 2\n65535\n" + samples.tobytes()
    img = load_gray_image(_write(tmp_path, payload))
    assert img.maxval == 65535
    assert np.array_equal(img.matrix, samples.astype(np.float64) / 65535.0)


def test_intermediate_maxval_scales(tmp_path):
    payload = b"P2\n2 1\n1000\n0 1000\n"
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img.matrix, np.array([[0.0, 1.0]]))
    # 16-bit binary raster because maxval exceeds 255
    payload = b"P5\n2 1\n1000\n" + np.array([500, 1000], dtype=">u2").tobytes()
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img.matrix, np.array([[0.5, 1.0]]))


def test_unsupported_magic_reports_offset_zero(tmp_path):
    with pytest.raises(PgmFormatError) as err:
        load_gray_image(_write(tmp_path, b"P3\n1 1\n255\n0 0 0\n"))
    assert err.value.offset == 0
    with pytest.raises(PgmFormatError):
        load_gray_image(_write(tmp_path, b""))


def test_truncated_binary_raster_offset(tmp_path):
    payload = b"P5\n3 2\n255\nABCDE"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert "truncated" in str(err.value)
    assert err.value.offset == len(payload)


def test_missing_ascii_sample_offset(tmp_path):
    payload = b"P2\n3 1\n9\n1 2\n"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert err.value.offset == len(payload)


def test_sample_exceeding_maxval_positions(tmp_path):
    payload = b"P2\n2 1\n9\n4 12\n"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert err.value.offset == payload.index(b"12")
    binary = b"P5\n3 1\n99\n" + bytes([5, 200, 7])
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, binary))
    assert err.value.offset == len(binary) - 2


def test_malformed_header_tokens(tmp_path):
    with pytest.raises(PgmParseError):
        load_gray_image(_write(tmp_path, b"P2\nwide 2\n255\n0\n"))
    with pytest.raises(PgmParseError):
        load_gray_image(_write(tmp_path, b"P2\n2 2\n0\n0 0 0 0\n"))
    with pytest.raises(PgmParseError):
        load_gray_image(_write(tmp_path, b"P2\n2 2\n70000\n0 0 0 0\n"))
    with pytest.raises(PgmParseError):
        load_gray_image(_write(tmp_path, b"P2\n2 2\n255"))
    # P5 header that simply ends at the maxval
    with pytest.raises(PgmParseError):
        load_gray_image(_write(tmp_path, b"P5\n2 2\n255"))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_gray_image(tmp_path / "absent.pgm")


def test_pgm_errors_are_value_errors():
    assert issubclass(PgmFormatError, PgmError)
    assert issubclass(PgmParseError, PgmError)
    assert issubclass(PgmError, ValueError)


def test_ascii_raster_too_short_for_its_header_fails_before_parsing(tmp_path):
    # The tightest raster that can hold 3 samples: a separator and a digit each.
    img = load_gray_image(_write(tmp_path, b"P2 3 1 9 1 2 3"))
    assert np.allclose(img.matrix, [[1 / 9, 2 / 9, 3 / 9]])
    payload = b"P2 3 1 9 1 2"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert "raster truncated: 3 samples need at least 5 bytes, have 4" in str(err.value)
    assert err.value.offset == len(payload)
