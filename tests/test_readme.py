"""The python examples in README.md run, in order, in one namespace, with
warnings raised as errors, so they stay in step with the library."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```\n",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for number, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {number}", "exec"),
                 namespace)
