"""``tools/code_lines.py`` counts code lines: comment, blank and docstring
lines drop out, every line of any other string stays."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from code_lines import code_lines  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string,
        not a docstring"""
        return text


def g():
    return os.sep
'''


def test_counts_code_lines_only():
    # import, class, def f, the two lines of text, return, def g, return
    assert code_lines(SOURCE) == 8


def test_a_file_of_docstring_and_comments_has_no_code():
    assert code_lines('"""Only this."""\n\n# and this\n') == 0
