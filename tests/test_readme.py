"""The README's Library example and CLI block run against the exported API."""

import re
import shlex
from pathlib import Path

from spirality import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "spirality"
        assert cli.main(argv) == 0, (line, capsys.readouterr())
