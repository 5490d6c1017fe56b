"""Shared fixtures: the 6x6 rank-1 demo matrix with its printed tiling, and
a session-scoped corpus of grayscale photographs rendered to 8-bit PGM."""

import numpy as np
import pytest

from reorgsvd import write_gray_image

# Rank-1 integer matrix whose 3x3-tile unfolding has full column rank; the
# pair pins the tile layout and feeds the worked-example checks.
DEMO_MATRIX = np.outer([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

# Its 3x3-tile unfolding written out entrywise: tiles taken down the grid
# columns, each tile vectorized column-major.
DEMO_TILED = np.array(
    [
        [-3.0, 1.0, -12.0, 4.0],
        [-2.0, 2.0, -8.0, 8.0],
        [-1.0, 3.0, -4.0, 12.0],
        [-6.0, 2.0, -15.0, 5.0],
        [-4.0, 4.0, -10.0, 10.0],
        [-2.0, 6.0, -5.0, 15.0],
        [-9.0, 3.0, -18.0, 6.0],
        [-6.0, 6.0, -12.0, 12.0],
        [-3.0, 9.0, -6.0, 18.0],
    ]
)


@pytest.fixture
def demo_matrix():
    return DEMO_MATRIX.copy()


@pytest.fixture
def demo_tiled():
    return DEMO_TILED.copy()


def _to_gray(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        img = img[..., :3] @ np.array([0.2126, 0.7152, 0.0722])
    mx = img.max()
    if mx > 1.0:
        img = img / 255.0 if mx <= 255 else img / 65535.0
    return np.clip(img, 0.0, 1.0)


def _halve(a):
    r, c = a.shape
    r -= r % 2
    c -= c % 2
    a = a[:r, :c]
    return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])


def _shrink(a, cap=256):
    while max(a.shape) > cap:
        a = _halve(a)
    return a


@pytest.fixture(scope="session")
def photo_corpus_dir(tmp_path_factory):
    """Directory of 22 photographic 8-bit PGMs, each at most 256 pixels on
    a side.  Sourced from the scikit-image sample collection plus a few
    crops, so the corpus is reproducible without any network access."""
    skd = pytest.importorskip("skimage.data")

    corpus = {}
    photos = [
        "astronaut", "brick", "camera", "cat", "clock", "coffee", "coins",
        "grass", "gravel", "horse", "hubble_deep_field",
        "immunohistochemistry", "moon", "page", "rocket", "text",
        "microaneurysms",
    ]
    for name in photos:
        corpus[name] = _shrink(_to_gray(getattr(skd, name)()))
    hubble = _to_gray(skd.hubble_deep_field())
    h, w = hubble.shape
    corpus["hubble_q1"] = _shrink(hubble[: h // 2, : w // 2])
    corpus["hubble_q2"] = _shrink(hubble[: h // 2, w // 2 :])
    astronaut = _to_gray(skd.astronaut())
    corpus["astronaut_face"] = _shrink(astronaut[0:256, 100:356])
    coffee = _to_gray(skd.coffee())
    corpus["coffee_left"] = _shrink(coffee[:, :300])
    corpus["coffee_right"] = _shrink(coffee[:, 300:])

    out = tmp_path_factory.mktemp("corpus")
    for name, matrix in sorted(corpus.items()):
        write_gray_image(matrix, out / f"{name}.pgm")
    return out
