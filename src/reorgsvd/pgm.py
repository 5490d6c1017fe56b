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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = [
    "PgmError",
    "PgmFormatError",
    "PgmParseError",
    "GrayImage",
    "load_gray_image",
    "write_gray_image",
]

# A comment, or a token (group 1).  Bytes-mode \s is the six ASCII
# whitespace bytes, and a token ends at whitespace or at a "#".
_TOKEN = re.compile(rb"#[^\n]*|([^\s#]+)")
MAX_MAXVAL = 65535


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


@dataclass(frozen=True)
class GrayImage:
    """A grayscale image as a rows x cols float matrix with entries in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, "image matrix")
        if float(m.min()) < 0.0 or float(m.max()) > 1.0:
            raise ValueError("image entries must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_raw(cls, matrix) -> "GrayImage":
        """Wrap an arbitrary real matrix as an image, clamping entries into
        [0, 1].  Clamping, not wrapping: 1.3 becomes 1.0, -0.2 becomes 0.0."""
        m = as_matrix(matrix, "image matrix")
        return cls(matrix=np.clip(m, 0.0, 1.0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _uints(data: bytes, pos: int, what: str, low: int, high: int):
    """Yield ``(value, end)`` for each token of ``data`` from ``pos`` on,
    skipping whitespace and comments, where ``value`` is the token as an
    unsigned integer in [low, high] and ``end`` the offset just past it.
    Errors name the value ``what.format(i)`` for the i-th token; a bad token
    is reported at its first byte and a missing one at the end of ``data``."""
    places = len(str(high))
    i = 0
    for match in _TOKEN.finditer(data, pos):
        token = match[1]
        if token is None:
            continue
        if not token.isdigit():
            raise PgmParseError(
                f"{what.format(i)} is not an unsigned integer: {token!r}", match.start()
            )
        if len(token) > places:
            # Longer than high is out of range unless leading zeros pad it.
            # Such a token is never converted: int() refuses a few thousand
            # digits.
            token = token.lstrip(b"0") or b"0"
            if len(token) > places:
                raise PgmParseError(
                    f"{what.format(i)} {token.decode()} outside [{low}, {high}]",
                    match.start(),
                )
        value = int(token)
        if not low <= value <= high:
            raise PgmParseError(f"{what.format(i)} {value} outside [{low}, {high}]", match.start())
        yield value, match.end()
        i += 1
    raise PgmParseError(f"missing {what.format(i)}", len(data))


def load_gray_image(path) -> GrayImage:
    """Read a P2 or P5 graymap into a :class:`GrayImage`."""
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
        samples = _uints(data, end, "sample {} value", 0, maxval)
        values = np.fromiter((value for value, _ in samples), np.float64, count=count)
    matrix = values.reshape(height, width) / float(maxval)
    return GrayImage(matrix=matrix)


def write_gray_image(img: GrayImage, path) -> None:
    """Write as binary P5 with maxval 255.  Entries are clamped to [0, 1]
    (a no-op for a valid :class:`GrayImage`) and quantized by rounding
    halves away from zero."""
    m = np.clip(img.matrix, 0.0, 1.0)
    quantized = np.floor(m * 255.0 + 0.5).astype(np.uint8)
    rows, cols = quantized.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())
