"""Portable graymap input and output.

The reader accepts ASCII (P2) and binary (P5) graymaps with any maxval in
[1, 65535], scaling samples to floats in [0, 1].  Parse failures carry the
byte offset of the offending content.  The writer always emits binary P5
with maxval 255, quantizing by rounding halves away from zero, so a write
followed by a read changes no entry by more than 1/510.

Tokens may be separated by any whitespace, and a ``#`` comment, which runs
to the end of its line, may appear anywhere tokens are separated: in the
header and in a P2 raster alike.  Per the format, exactly one whitespace
byte separates the maxval from a P5 raster.  Content after a complete
raster or sample list is ignored.

One regular expression finds the header's tokens, and one function,
``_token_value``, decides whether a token is an unsigned integer no larger
than its bound, by byte searches that copy nothing, so a zero-padded token
costs no memory beyond the file.  A valid P2 raster is decoded by a byte
scan with the same separator rules, one bounded chunk at a time, in which
each comment reads as one space.  On any fault the raster is read again
through the regular expression, which words the error at its offset.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = [
    "PgmError",
    "PgmFormatError",
    "PgmParseError",
    "load_gray_image",
    "write_gray_image",
]

# A comment runs to the end of its line.  _TOKEN finds a comment or a token
# (group 1), which ends at whitespace or at a "#"; bytes-mode \s is the six
# ASCII whitespace bytes.
_COMMENT = re.compile(rb"#[^\n]*")
_TOKEN = re.compile(_COMMENT.pattern + rb"|([^\s#]+)")
MAX_MAXVAL = 65535

# A P2 raster is decoded in chunks of about this many bytes, each cut at a
# whitespace byte that _SPACE finds.
_CHUNK = 16 * 1024
_SPACE = re.compile(rb"\s")
_WHITESPACE = b" \t\n\r\x0b\x0c"
_ZEROS = re.compile(rb"0*")
_DIGITS = re.compile(rb"[0-9]*")


class PgmError(ValueError):
    """Base for graymap reading problems; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        # Both arguments stay in ``args``, so the error survives pickling
        # (a sweep's worker processes send it back to the parent).
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        message, offset = self.args
        return f"{message} (byte offset {offset})"


class PgmFormatError(PgmError):
    """The file is not a graymap this reader supports."""


class PgmParseError(PgmError):
    """The file claims to be a supported graymap but its content is
    malformed or truncated."""


def _uints(data: bytes, pos: int, what: str, low: int, high: int):
    """Yield ``(value, end)`` for each token of ``data`` from ``pos`` on,
    skipping whitespace and comments, where ``value`` is the token as an
    unsigned integer in [low, high], read by :func:`_token_value`, and
    ``end`` the offset just past it.  Errors name the value
    ``what.format(i)`` for the i-th token; a bad token is reported at its
    first byte and a missing one at the end of ``data``."""
    i = 0
    for match in _TOKEN.finditer(data, pos):
        start, stop = match.span(1)
        if start < 0:
            continue  # a comment
        value = _token_value(data, start, stop, high)
        if value is None or value < low:
            # Only an error copies the token.
            token = data[start:stop]
            if not token.isdigit():
                raise PgmParseError(
                    f"{what.format(i)} is not an unsigned integer: {token!r}", start
                )
            digits = token.lstrip(b"0").decode() or "0"
            raise PgmParseError(f"{what.format(i)} {digits} outside [{low}, {high}]", start)
        yield value, stop
        i += 1
    raise PgmParseError(f"missing {what.format(i)}", len(data))


def _token_value(data: bytes, start: int, stop: int, maxval: int) -> int | None:
    """The value of the token ``data[start:stop]``, or None when it is not
    all digits or is over ``maxval``; found by byte searches (past the
    leading zeros, then past the digits), so no copy of a long token is
    made."""
    lead = _ZEROS.match(data, start, stop).end()
    if _DIGITS.match(data, lead, stop).end() < stop or stop - lead > len(str(maxval)):
        return None
    value = int(data[lead:stop] or b"0")
    return value if value <= maxval else None


def _p2_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray | None:
    """The first ``count`` sample values of the P2 raster that starts at
    ``pos``, outside any comment, or None on a fault: a token that is not
    all digits, a value over ``maxval`` or fewer than ``count`` tokens.

    The raster is scanned one chunk at a time.  A chunk ends at the first
    whitespace byte at or after ``_CHUNK`` bytes, or, when that byte is in
    a comment, at the comment's newline, so no token or comment crosses a
    cut and the next chunk starts outside a comment.  A comment that a cut
    falls in is skipped, not scanned; one inside a chunk is replaced by one
    space before the scan.  A token that crosses ``_CHUNK`` bytes is read
    apart by :func:`_token_value`, so the arrays of a chunk cover at most
    ``_CHUNK`` bytes however long that token is."""
    size = len(data)
    places = len(str(maxval))
    out = np.empty(count, dtype=np.float64)
    got = 0
    while got < count:
        if pos >= size:
            return None
        edge = pos + _CHUNK
        cut = _SPACE.search(data, edge)
        cut = cut.start() if cut else size
        # The cut is in a comment when a "#" follows the last newline
        # before it; the scan stops at that "#".
        stop = data.find(b"#", max(data.rfind(b"\n", pos, cut) + 1, pos), cut)
        if stop < 0:
            stop = cut
        else:
            cut = data.find(b"\n", cut)
            cut = size if cut < 0 else cut
        # Bytes from the edge to the stop belong to one token, which starts
        # past the last whitespace byte before the edge (the chunk starts at
        # one).
        start = stop
        if stop > edge:
            start = 1 + max(data.rfind(c, pos, edge) for c in _WHITESPACE)
        # Every comment before the start ends at a newline before it.
        piece = data[pos:start]
        if b"#" in piece:
            piece = _COMMENT.sub(b" ", piece)
        chunk = np.frombuffer(piece, dtype=np.uint8)
        # The six ASCII whitespace bytes: "\t" to "\r", and " ".
        sep = (chunk - ord("\t") <= ord("\r") - ord("\t")) | (chunk == ord(" "))
        pos = cut
        # The chunk starts at a separator, so the flips from separator to
        # token and back alternate: token starts, then token ends.
        edges = np.flatnonzero(np.diff(sep, append=True)) + 1
        starts, ends = edges[0::2][: count - got], edges[1::2][: count - got]
        if len(starts):
            tokens, in_token = chunk[: ends[-1]], ~sep[: ends[-1]]
            if ((tokens - ord("0") > 9) & in_token).any():
                return None
            # A value is read from the last ``places`` digits of its token.
            # Any other nonzero digit puts it over maxval, so every nonzero
            # digit must be counted in those places.
            nonzero = np.count_nonzero((tokens > ord("0")) & in_token)
            values = np.zeros(len(ends), dtype=np.int64)
            for place in range(places):
                # The byte before a token, at starts - 1, is a separator.
                at = np.maximum(ends - 1 - place, starts - 1)
                digits = np.where(at >= starts, tokens[at] - ord("0"), 0)
                nonzero -= np.count_nonzero(digits)
                values += digits * np.int64(10**place)
            if nonzero or (values > maxval).any():
                return None
            out[got : got + len(values)] = values
            got += len(values)
        if start < stop and got < count:
            value = _token_value(data, start, stop, maxval)
            if value is None:
                return None
            out[got] = value
            got += 1
    return out


def load_gray_image(path) -> np.ndarray:
    """Read a P2 or P5 graymap into a rows x cols float matrix with
    entries in [0, 1].  The header is read by a regular expression; a P2
    raster is decoded by a byte scan in bounded chunks, and only a faulty
    one goes through the regular expression, which words the error."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported magic {magic!r}, want P2 or P5", 0)
    width, end = next(_uints(data, 2, "width", 1, 10**9))
    height, end = next(_uints(data, end, "height", 1, 10**9))
    maxval, end = next(_uints(data, end, "maxval", 1, MAX_MAXVAL))

    count = width * height
    if magic == b"P5":
        if not data[end : end + 1].isspace():
            raise PgmParseError("expected one whitespace byte after maxval", end)
        start = end + 1
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        if len(data) - start < need:
            raise PgmParseError(
                f"raster truncated: need {need} bytes, have {len(data) - start}",
                len(data),
            )
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        over = np.flatnonzero(samples > maxval)
        if over.size:
            where = start + int(over[0]) * itemsize
            raise PgmParseError(
                f"sample value {int(samples[over[0]])} exceeds maxval {maxval}", where
            )
        values = samples.astype(np.float64)
    else:
        # Each sample needs a digit and a separator, so a header that claims
        # more samples than the file can hold fails before the allocation.
        left = len(data) - end
        if left < 2 * count - 1:
            raise PgmParseError(
                f"raster truncated: {count} samples need at least {2 * count - 1} "
                f"bytes, have {left}",
                len(data),
            )
        values = _p2_samples(data, end, count, maxval)
        if values is None:
            # On a fault the regular expression reads the raster again from
            # its start, and raises the error where it was written.
            samples = _uints(data, end, "sample {} value", 0, maxval)
            values = np.fromiter((value for value, _ in samples), np.float64, count=count)
    return values.reshape(height, width) / float(maxval)


def write_gray_image(m, path) -> None:
    """Write the finite real matrix ``m`` as binary P5 with maxval 255.
    Entries are clamped to [0, 1], not wrapped (1.3 becomes 1.0, -0.2
    becomes 0.0), and quantized by rounding halves away from zero."""
    m = np.clip(as_matrix(m, "image matrix"), 0.0, 1.0)
    quantized = np.floor(m * 255.0 + 0.5).astype(np.uint8)
    rows, cols = quantized.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())
