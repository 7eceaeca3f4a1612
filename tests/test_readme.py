"""README's library example runs as written, against the installed API."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = _README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's 'Library entry points' section has no python block"
    return match.group(1)


def test_library_entry_points_example_runs(capsys):
    exec(compile(_library_example(), str(_README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One defect/residual line, then one verdict per block after the first.
    assert len(lines) == 1 + 7
    defect, resid = map(float, lines[0].split())
    assert 0.0 <= defect < 1e-12 and 0.0 <= resid < 1e-12
    assert [line.split()[0] for line in lines[1:]] == [str(k) for k in range(2, 9)]
