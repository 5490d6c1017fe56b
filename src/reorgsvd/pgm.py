"""Portable graymap input and output.

The reader accepts ASCII (P2) and binary (P5) graymaps with any maxval in
[1, 65535], scaling samples to floats in [0, 1].  Parse failures carry the
byte offset of the offending content.  The writer always emits binary P5
with maxval 255, quantizing by rounding halves away from zero, so a write
followed by a read changes no entry by more than 1/510.

Header tokens may be separated by any whitespace and interleaved with
``#`` comments.  Per the format, exactly one whitespace byte separates the
maxval from a P5 raster.  Content after a complete raster or sample list
is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _count, as_matrix

__all__ = [
    "PgmError",
    "PgmFormatError",
    "PgmParseError",
    "GrayImage",
    "load_gray_image",
    "write_gray_image",
]

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = ord("#")
MAX_MAXVAL = 65535


class PgmError(ValueError):
    """Base for graymap reading problems; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PgmFormatError(PgmError):
    """The file is not a graymap this reader supports."""


class PgmParseError(PgmError):
    """The file claims to be a supported graymap but its content is
    malformed or truncated."""


@dataclass(frozen=True)
class GrayImage:
    """A grayscale image as a rows x cols float matrix with entries in
    [0, 1], plus the maxval of the file it came from (255 for images born
    in memory via :meth:`from_raw`), an integer in [1, 65535]."""

    matrix: np.ndarray
    maxval: int = 255

    def __post_init__(self):
        m = as_matrix(self.matrix, "image matrix")
        if float(m.min()) < 0.0 or float(m.max()) > 1.0:
            raise ValueError("image entries must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)
        _count(self.maxval, "maxval", 1, MAX_MAXVAL)

    @classmethod
    def from_raw(cls, matrix, maxval: int = 255) -> "GrayImage":
        """Wrap an arbitrary real matrix as an image, clamping entries into
        [0, 1].  Clamping, not wrapping: 1.3 becomes 1.0, -0.2 becomes 0.0."""
        m = as_matrix(matrix, "image matrix")
        return cls(matrix=np.clip(m, 0.0, 1.0), maxval=maxval)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


class _Scanner:
    """Byte-offset-tracking tokenizer for the ASCII parts of a graymap."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_filler(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            byte = data[self.pos]
            if byte == _COMMENT:
                eol = data.find(b"\n", self.pos)
                self.pos = n if eol < 0 else eol + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                break

    def next_uint(self, what: str, low: int, high: int) -> int:
        self._skip_filler()
        start = self.pos
        data = self.data
        n = len(data)
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != _COMMENT:
            self.pos += 1
        token = data[start : self.pos]
        if not token:
            raise PgmParseError(f"missing {what}", start)
        if not token.isdigit():
            raise PgmParseError(f"{what} is not an unsigned integer: {token!r}", start)
        value = int(token)
        if not low <= value <= high:
            raise PgmParseError(f"{what} {value} outside [{low}, {high}]", start)
        return value


def load_gray_image(path) -> GrayImage:
    """Read a P2 or P5 graymap into a :class:`GrayImage`."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported magic {magic!r}, want P2 or P5", 0)
    scan = _Scanner(data)
    scan.pos = 2
    width = scan.next_uint("width", 1, 10**9)
    height = scan.next_uint("height", 1, 10**9)
    maxval = scan.next_uint("maxval", 1, MAX_MAXVAL)

    count = width * height
    if magic == b"P5":
        if scan.pos >= len(data) or data[scan.pos] not in _WHITESPACE:
            raise PgmParseError("expected one whitespace byte after maxval", scan.pos)
        start = scan.pos + 1
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
        left = len(data) - scan.pos
        if left < 2 * count - 1:
            raise PgmParseError(
                f"raster truncated: {count} samples need at least {2 * count - 1} "
                f"bytes, have {left}",
                len(data),
            )
        values = np.empty(count)
        for i in range(count):
            values[i] = scan.next_uint(f"sample {i} value", 0, maxval)
    matrix = values.reshape(height, width) / float(maxval)
    return GrayImage(matrix=matrix, maxval=maxval)


def write_gray_image(img: GrayImage, path) -> None:
    """Write as binary P5 with maxval 255.  Entries are clamped to [0, 1]
    (a no-op for a valid :class:`GrayImage`) and quantized by rounding
    halves away from zero."""
    m = np.clip(img.matrix, 0.0, 1.0)
    quantized = np.floor(m * 255.0 + 0.5).astype(np.uint8)
    rows, cols = quantized.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())
