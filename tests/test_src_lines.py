"""``tools/src_lines.py``: the code-only line count each change reports."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code: the line counts

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return "a one-line string"


async def fetch():
    """Async function docstring."""
    value = 1
    """a string after code is no docstring"""
    return max(
        value,
        2,
    )


TEXT = """a multi-line string
that is no docstring"""
'''

#: the lines of SOURCE that count
COUNTED = [
    "import os  # a comment after code: the line counts",
    "class Thing:",
    "    def method(self):",
    '        return "a one-line string"',
    "async def fetch():",
    "    value = 1",
    '    """a string after code is no docstring"""',
    "    return max(",
    "        value,",
    "        2,",
    "    )",
    'TEXT = """a multi-line string',
    'that is no docstring"""',
]


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert all(SOURCE.splitlines().count(line) == 1 for line in COUNTED)
    assert src_lines.code_lines(SOURCE) == len(COUNTED)


def test_main_prints_each_file_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{1:6,d}  b.py", f"{len(COUNTED):6,d}  {Path('pkg', 'a.py')}",
        f"{len(COUNTED) + 1:6,d}  total"]
