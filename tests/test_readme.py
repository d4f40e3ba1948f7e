"""The README's Library example runs against the exported API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
