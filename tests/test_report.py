"""The deterministic JSON emitter, byte for byte."""

import math

import numpy as np
import pytest

from reorgsvd.report import dumps


def test_dumps_bytes():
    obj = {
        "z": 1,
        "a": [0.1, -0.0, 5e-324, 1 / 3],
        "nested": {"b": [True, False, None], "a": {}, "e": []},
        "numpy": [np.int64(7), np.float64(2.5), np.bool_(True)],
        "text": "tab\there \"q\" é",
    }
    assert dumps(obj) == (
        "{\n"
        '  "z": 1,\n'
        '  "a": [\n'
        "    0.10000000000000001,\n"
        "    -0,\n"
        "    4.9406564584124654e-324,\n"
        "    0.33333333333333331\n"
        "  ],\n"
        '  "nested": {\n'
        '    "b": [\n'
        "      true,\n"
        "      false,\n"
        "      null\n"
        "    ],\n"
        '    "a": {},\n'
        '    "e": []\n'
        "  },\n"
        '  "numpy": [\n'
        "    7,\n"
        "    2.5,\n"
        "    true\n"
        "  ],\n"
        '  "text": "tab\\there \\"q\\" \\u00e9"\n'
        "}\n"
    )
    # Every float text parses back to the same double.
    for x in (0.1, 5e-324, 1 / 3):
        assert float(dumps(x)) == x
    assert math.copysign(1.0, float(dumps(-0.0))) == -1.0
    assert dumps({}) == "{}\n" and dumps([]) == "[]\n" and dumps(()) == "[]\n"


def test_dumps_refuses_what_json_cannot_hold():
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite float"):
            dumps({"x": [bad]})
    with pytest.raises(TypeError, match="keys must be strings, got 1"):
        dumps({1: "a"})
    for bad in ({1, 2}, b"bytes", object()):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps([bad])
