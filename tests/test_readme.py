"""README's Python examples run against the library as it is."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # The examples build on one another (the later ones use the earlier
    # ``a``), so they run in order in one namespace.  A renamed function or
    # parameter fails here, and so does any warning.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 4
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
