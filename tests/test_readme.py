"""The README's library sketch must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README.md has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
