"""The README's library sketch runs as written against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {"__name__": "sketch"})
    lines = capsys.readouterr().out.splitlines()
    # one line per hbar of the grid, each ending in the fitted slope ~2
    assert len(lines) == 2
    for line in lines:
        assert abs(float(line.split()[-1]) - 2.0) < 0.1, line
