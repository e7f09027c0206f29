"""The code-line counter of ``tools/code_lines.py`` on a synthetic source."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
two lines."""
# a comment

import os   # code with a comment


class K:
    """Class docstring."""

    x = """a string
that is data"""

    def f(self):
        """Method docstring."""
        "an expression string after the first statement"
        return (1 +
                2)


def g():
    pass
'''
# counted: import, class, x = (2 lines), def f, the later string, return (2
# lines), def g, pass
_COUNT = 10


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    assert code_lines.code_lines(_SOURCE) == _COUNT
    assert code_lines.docstring_lines(_SOURCE) == {1, 2, 9, 15}
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        f"{_COUNT:6d}  a.py", "     2  b.py", f"{_COUNT + 2:6d}  total", "",
    ]
