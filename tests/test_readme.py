"""The README's library quick tour runs and prints what its comments say.

Every ``print(...)`` line of the tour ends in ``# <the printed line>``.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    source = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", source, re.M)
    assert len(expected) == source.count("print(")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected
