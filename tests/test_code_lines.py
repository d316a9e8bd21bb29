import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


class TestCodeLines:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ('def f(): """doc"""\n', 1),  # the header shares the docstring's line
            ('class A: "doc"; x = 1\n', 1),  # so does a statement after it
            ('def f():\n    """doc\n    more"""\n    return 1\n', 2),
            ('"""module\ndoc"""\n\nx = 1  # note\n', 1),
            ('def f(x="a"):\n    "doc"\n', 1),
            ('x = """not\na docstring"""\n', 2),
            ('def f():\n    x = 1\n    "not a docstring"\n', 3),
        ],
    )
    def test_only_the_docstrings_own_tokens_are_skipped(self, source, expected):
        assert code_lines(source) == expected
