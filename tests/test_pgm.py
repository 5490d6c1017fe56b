"""Graymap reader/writer: scaling, quantization, and error offsets."""

import pickle
import tracemalloc

import numpy as np
import pytest

import reorgsvd.pgm as pgm
from reorgsvd import PgmError, load_gray_image, write_gray_image
from reorgsvd.pgm import PgmFormatError, PgmParseError

# Chunk sizes for the P2 raster scan: tiny ones, which cut a small raster
# at nearly every byte, and the default.
_CHUNKS = [1, 2, 7, pgm._CHUNK]


def _at_every_chunk_size(monkeypatch):
    """Yield each of ``_CHUNKS`` while it is the scan's chunk size."""
    for size in _CHUNKS:
        monkeypatch.setattr(pgm, "_CHUNK", size)
        yield size


@pytest.fixture
def regex_values(monkeypatch):
    """The values the regular expression yields while the test runs: only
    header values, unless a P2 raster has a fault."""
    values = []
    tokens = pgm._uints

    def counting(*args):
        for value, end in tokens(*args):
            values.append(value)
            yield value, end

    monkeypatch.setattr(pgm, "_uints", counting)
    return values


@pytest.fixture(params=_CHUNKS, ids=lambda size: f"chunk-{size}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(pgm, "_CHUNK", request.param)
    return request.param


def _write(tmp_path, payload: bytes, name="t.pgm"):
    path = tmp_path / name
    path.write_bytes(payload)
    return path


def test_write_then_load_is_exact_on_the_8bit_grid(tmp_path):
    rng = np.random.default_rng(31)
    m = rng.integers(0, 256, size=(9, 13)).astype(np.float64) / 255.0
    write_gray_image(m, tmp_path / "a.pgm")
    back = load_gray_image(tmp_path / "a.pgm")
    assert np.array_equal(back, m)


def test_roundtrip_error_bounded_by_half_step(tmp_path):
    rng = np.random.default_rng(32)
    m = rng.uniform(0.0, 1.0, size=(16, 11))
    write_gray_image(m, tmp_path / "a.pgm")
    back = load_gray_image(tmp_path / "a.pgm")
    assert np.abs(back - m).max() <= 1.0 / 510.0 + 1e-15


def test_quantization_rounds_halves_away_from_zero(tmp_path):
    # 0.5/255 sits exactly halfway between samples 0 and 1 and must go up
    m = np.array([[0.0, 0.5 / 255.0, 127.5 / 255.0, 1.0]])
    write_gray_image(m, tmp_path / "a.pgm")
    raw = (tmp_path / "a.pgm").read_bytes()
    assert raw.endswith(bytes([0, 1, 128, 255]))


def test_writer_clamps_instead_of_wrapping(tmp_path):
    write_gray_image([[-0.5, 0.25], [1.5, 2.0]], tmp_path / "a.pgm")
    raw = (tmp_path / "a.pgm").read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 64, 255, 255])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_rejects_non_finite_entries_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "a.pgm"
    with pytest.raises(ValueError, match="^image matrix contains non-finite entries$"):
        write_gray_image(np.array([[0.5, bad]]), path)
    assert not path.exists()


def test_ascii_parse_with_comments_and_whitespace(tmp_path):
    payload = b"P2 #magic\n # a comment line\n3\t2 #dims\n10\n0 1 2\n3 4 10 # tail\n"
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img, np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 1.0]]))


def test_binary_8bit_raster(tmp_path):
    payload = b"P5\n2 2\n255\n" + bytes([0, 51, 102, 255])
    img = load_gray_image(_write(tmp_path, payload))
    assert np.allclose(img, np.array([[0, 51], [102, 255]]) / 255.0)


def test_binary_16bit_big_endian(tmp_path):
    samples = np.array([[0, 16384], [32768, 65535]], dtype=">u2")
    payload = b"P5\n2 2\n65535\n" + samples.tobytes()
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img, samples.astype(np.float64) / 65535.0)
    assert img.dtype == np.float64 and img.flags.c_contiguous


def test_intermediate_maxval_scales(tmp_path):
    payload = b"P2\n2 1\n1000\n0 1000\n"
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img, np.array([[0.0, 1.0]]))
    # 16-bit binary raster because maxval exceeds 255
    payload = b"P5\n2 1\n1000\n" + np.array([500, 1000], dtype=">u2").tobytes()
    img = load_gray_image(_write(tmp_path, payload))
    assert np.array_equal(img, np.array([[0.5, 1.0]]))


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


def test_over_long_tokens_are_out_of_range_at_their_first_byte(tmp_path):
    # Past 4300 digits int() itself refuses a token, so the length decides.
    nines = b"9" * 5000
    payload = b"P2 " + nines + b" 1 255 0"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert str(err.value).startswith("width 999")
    assert "outside [1, 1000000000]" in str(err.value)
    assert err.value.offset == 3

    payload = b"P2 2 1 255 7 " + nines
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert str(err.value).startswith("sample 1 value 999")
    assert err.value.offset == payload.index(nines)

    # Leading zeros do not count: a 5000-character 255 still loads.
    padded = b"0" * 4997 + b"255"
    img = load_gray_image(_write(tmp_path, b"P2 2 1 255 " + padded + b" 0"))
    assert img.tolist() == [[1.0, 0.0]]


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
    assert np.allclose(img, [[1 / 9, 2 / 9, 3 / 9]])
    payload = b"P2 3 1 9 1 2"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, payload))
    assert "raster truncated: 3 samples need at least 5 bytes, have 4" in str(err.value)
    assert err.value.offset == len(payload)


def test_pgm_errors_survive_pickling():
    # A sweep's worker processes send these back to the parent by pickle.
    for cls in (PgmParseError, PgmFormatError):
        err = cls("sample 3 value is not an unsigned integer: b'x'", 15)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err) == (
            "sample 3 value is not an unsigned integer: b'x' (byte offset 15)"
        )
        assert back.offset == 15


def _load_peak(path, error=None) -> int:
    """The traced peak of loading ``path``; given ``error``, the load must
    fail with that message."""
    tracemalloc.start()
    try:
        if error is None:
            load_gray_image(path)
        else:
            with pytest.raises(PgmParseError) as err:
                load_gray_image(path)
            assert str(err.value) == error
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_reader_memory_stays_near_the_file_size(tmp_path):
    # Samples after the raster are never tokenized.
    trailing = _write(tmp_path, b"P2 1 1 9 5\n" + b"7 " * (1 << 19), "trailing.pgm")
    # Filler before the width is skipped without backtracking state.
    filler = b"P2\n" + b" \t\r\n# a comment line\n" * (1 << 16) + b"1 1 9 5\n"
    leading = _write(tmp_path, filler, "leading.pgm")
    for path in (trailing, leading):
        size = path.stat().st_size
        assert size >= 1 << 20
        assert _load_peak(path) < 1.5 * size


def test_a_long_comment_in_a_p2_raster_is_skipped_not_scanned(tmp_path):
    # A chunk cut falls in the comment, whose bytes are never scanned, so
    # the load holds little beyond the file.
    path = _write(tmp_path, b"P2 2 1 9 5 #" + b"x 1 #" * (1 << 18) + b"\n7\n")
    size = path.stat().st_size
    assert size >= 1 << 20
    assert _load_peak(path) < 1.5 * size
    assert load_gray_image(path).tolist() == [[5 / 9, 7 / 9]]


def test_a_zero_padded_token_across_a_chunk_cut_is_read_without_copies(tmp_path, chunk):
    # The token crosses every chunk size's cut and is read by byte
    # searches, so the load holds little beyond the file.
    path = _write(tmp_path, b"P2 2 1 255 " + b"0" * (1 << 20) + b"7 0")
    size = path.stat().st_size
    assert _load_peak(path) < 1.5 * size
    assert load_gray_image(path).tolist() == [[7 / 255, 0.0]]


def test_a_zero_padded_header_token_is_read_without_copies(tmp_path, chunk):
    # The width is read by byte searches, never copied.
    path = _write(tmp_path, b"P2 " + b"0" * (1 << 20) + b"2 1 255 7 9")
    assert _load_peak(path) < 1.5 * path.stat().st_size
    assert load_gray_image(path).tolist() == [[7 / 255, 9 / 255]]


def test_a_fault_after_a_zero_padded_sample_is_worded_without_copies(tmp_path, chunk):
    # The fault sends the raster back through the token generator, which
    # reads the padded sample by byte searches too.
    header = b"P2 3 1 255 "
    path = _write(tmp_path, header + b"0" * (1 << 20) + b"7 0 x")
    offset = len(header) + (1 << 20) + 4
    error = f"sample 2 value is not an unsigned integer: b'x' (byte offset {offset})"
    assert _load_peak(path, error) < 1.5 * path.stat().st_size


# Long tokens, each over three default chunks, and what loading them
# gives: the samples, or the start of the error message.
_LONG_TOKENS = {
    "zero-padded": (b"0" * 50_000 + b"255 9", [255, 9]),
    "all-zeros": (b"0" * 50_000 + b" 9", [0, 9]),
    "padded-then-a-comment": (b"0" * 50_000 + b"12#c 1\n9", [12, 9]),
    "padded-non-digit": (b"0" * 50_000 + b"7x 9", "sample 0 value is not an unsigned integer"),
    "padded-over-maxval": (b"0" * 50_000 + b"256 9", "sample 0 value 256 outside [0, 255]"),
    "long-number": (b"1" + b"0" * 50_000 + b" 9", "sample 0 value 1000"),
}


@pytest.mark.parametrize("case", _LONG_TOKENS)
def test_a_long_token_across_a_chunk_cut_keeps_its_value_or_error(tmp_path, chunk, case):
    raster, want = _LONG_TOKENS[case]
    header = b"P2 2 1 255 "
    path = _write(tmp_path, header + raster)
    if isinstance(want, list):
        assert load_gray_image(path).tolist() == [[v / 255 for v in want]]
        return
    with pytest.raises(PgmParseError) as err:
        load_gray_image(path)
    assert str(err.value).startswith(want)
    assert err.value.offset == len(header)


# Separators: runs of the six whitespace bytes, and "#" comments, which end
# at a newline and may touch the token before them.
_WHITESPACE = b" \t\n\r\x0b\x0c"


def _p2_strategies():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    spaces = st.lists(st.sampled_from(_WHITESPACE), min_size=1, max_size=3).map(bytes)
    comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
    gap = st.lists(st.one_of(spaces, comment), min_size=1, max_size=3).map(b"".join)

    @st.composite
    def raster(draw):
        width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        maxval = draw(st.one_of(st.integers(1, 65535), st.sampled_from([1, 255, 65535])))
        samples = draw(st.lists(st.integers(0, maxval), min_size=width * height,
                                max_size=width * height))
        zeros = draw(st.lists(st.integers(0, 2), min_size=len(samples), max_size=len(samples)))
        header = [b"P2", str(width).encode(), str(height).encode(), str(maxval).encode()]
        tokens = [b"0" * z + str(v).encode() for z, v in zip(zeros, samples)]
        gaps = draw(st.lists(gap, min_size=len(header) + len(tokens) - 1,
                             max_size=len(header) + len(tokens) - 1))
        return maxval, samples, header, tokens, gaps, width, height

    return hyp, st, gap, raster()


def _join(header, tokens, gaps):
    """The file bytes and the offset of each sample token."""
    out, starts = bytearray(), []
    for i, token in enumerate(header + tokens):
        if i >= len(header):
            starts.append(len(out))
        out += token
        if i < len(gaps):
            out += gaps[i]
    return bytes(out), starts


def test_p2_rasters_with_any_separators_load_exactly(tmp_path, monkeypatch, regex_values):
    hyp, st, gap, raster = _p2_strategies()

    # Content after the last sample, even a bad token, is ignored.
    @hyp.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hyp.given(raster, st.one_of(st.just(b""), gap, gap.map(lambda g: g + b"junk 1")))
    def check(case, tail):
        maxval, samples, header, tokens, gaps, width, height = case
        data, _ = _join(header, tokens, gaps)
        path = _write(tmp_path, data + tail)
        want = np.array(samples, dtype=np.float64).reshape(height, width) / maxval
        for _ in _at_every_chunk_size(monkeypatch):
            regex_values.clear()
            assert np.array_equal(load_gray_image(path), want)
            assert regex_values == [width, height, maxval]

    check()


def test_p2_raster_faults_are_reported_where_they_were_written(tmp_path, monkeypatch):
    hyp, st, _, raster = _p2_strategies()
    non_digit = st.one_of(
        st.sampled_from([b"x", b"+3", b"-1", b"1_0", b"3.0", b"1e3", b"\xb2", b"\xd9\xa3"]),
        st.binary(min_size=1, max_size=4).filter(
            lambda t: not t.isdigit() and not any(c in _WHITESPACE + b"#" for c in t)
        ),
    )

    @hyp.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hyp.given(raster, st.data())
    def check(case, draw):
        maxval, _, header, tokens, gaps, _, _ = case
        j = draw.draw(st.integers(0, len(tokens) - 1))
        fault = draw.draw(st.sampled_from(["non-digit", "over", "long", "drop"]))
        if fault == "drop":
            del tokens[j]
            del gaps[len(header) + j - 1]
            data, _ = _join(header, tokens, gaps)
            path = _write(tmp_path, data)
            for _ in _at_every_chunk_size(monkeypatch):
                with pytest.raises(PgmParseError) as err:
                    load_gray_image(path)
                assert str(err.value).startswith(("missing sample", "raster truncated"))
                assert err.value.offset == len(data)
            return
        if fault == "non-digit":
            tokens[j] = draw.draw(non_digit)
            message = f"sample {j} value is not an unsigned integer: {tokens[j]!r}"
        else:
            value = (draw.draw(st.integers(maxval + 1, 10**6)) if fault == "over"
                     else draw.draw(st.integers(10**24, 10**25 - 1)))
            tokens[j] = str(value).encode()
            message = f"sample {j} value {value} outside [0, {maxval}]"
        data, starts = _join(header, tokens, gaps)
        path = _write(tmp_path, data)
        for _ in _at_every_chunk_size(monkeypatch):
            with pytest.raises(PgmParseError) as err:
                load_gray_image(path)
            assert str(err.value) == f"{message} (byte offset {starts[j]})"
            assert err.value.offset == starts[j]

    check()


# Rasters, each with the samples it holds, that the first chunk's nominal
# end falls in: in a comment, in a token, or before the lines end.
_ACROSS_A_CUT = {
    "comment": (b"#c 6 #7\n 5 8", [5, 8]),
    "comment-touching-a-token": (b"5#c 6\n8", [5, 8]),
    "token": (b"12345 6", [12345, 6]),
    "crlf": (b"12\r\n#c 3\r\n4\r\n", [12, 4]),
    "padded-to-25-digits": (b"0" * 20 + b"65535 1", [65535, 1]),
    "no-newline": (b"17\t8\x0b9 \x0c#tail 5", [17, 8, 9]),
    # Junk and a "#" after the last sample, in the sample's chunk.
    "junk-after": (b"1 2 junk# 9x", [1, 2]),
}


@pytest.mark.parametrize("case", _ACROSS_A_CUT, ids=str)
def test_p2_scan_reads_what_straddles_a_chunk_cut(tmp_path, chunk, regex_values, case):
    raster, samples = _ACROSS_A_CUT[case]
    header = f"P2 {len(samples)} 1 65535".encode()
    # The raster starts at len(header), so the first chunk's nominal end,
    # len(header) + chunk, falls in its first or second byte.
    data = header + b" " * max(1, chunk - 1) + raster
    img = load_gray_image(_write(tmp_path, data))
    assert np.array_equal(img, np.array([samples], dtype=np.float64) / 65535)
    assert regex_values == [len(samples), 1, 65535]


@pytest.mark.parametrize(
    "fault, message",
    [
        (b"1x", "sample {} value is not an unsigned integer: b'1x'"),
        (b"256", "sample {} value 256 outside [0, 255]"),
        (b"0" * 22 + b"256", "sample {} value 256 outside [0, 255]"),
        # Its low digits alone would be in range.
        (b"1" + b"0" * 24, "sample {} value 1" + "0" * 24 + " outside [0, 255]"),
    ],
    ids=["non-digit", "over-maxval", "padded-over-maxval", "25-digits"],
)
def test_p2_scan_faults_in_a_later_chunk_keep_their_offsets(tmp_path, chunk, fault, message):
    # Two bytes a sample, so the fault lies past the first chunk.
    before = chunk // 2 + 2
    header = f"P2 {before + 2} 1 255".encode()
    data = header + b" 1" * before + b" " + fault + b" 2\n"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, data))
    offset = len(header) + 2 * before + 1
    assert str(err.value) == f"{message.format(before)} (byte offset {offset})"


def test_p2_scan_reports_a_sample_missing_from_a_later_chunk(tmp_path, chunk):
    before = chunk // 2 + 2
    # The trailing comment keeps the raster long enough for the size check.
    data = f"P2 {before + 1} 1 255".encode() + b" 1" * before + b" #pad\n"
    with pytest.raises(PgmParseError) as err:
        load_gray_image(_write(tmp_path, data))
    assert str(err.value) == f"missing sample {before} value (byte offset {len(data)})"


def test_a_valid_raster_never_goes_through_the_token_generator(tmp_path, regex_values):
    rng = np.random.default_rng(33)
    samples = rng.integers(0, 1024, size=(60, 200))
    lines = [b"P2 # a graymap\r\n200 60\n1023 #maxval\n"]
    for row in samples:
        lines.append(b" ".join(b"%d" % v for v in row) + b" # row end 12 x\n")
    data = b"".join(lines)
    assert len(data) > 2 * pgm._CHUNK
    img = load_gray_image(_write(tmp_path, data))
    assert np.array_equal(img, samples / 1023)
    assert regex_values == [200, 60, 1023]
