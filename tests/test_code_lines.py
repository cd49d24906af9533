"""tools/code_lines.py counts statement lines: no blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
on two lines."""

import os   # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment-only line
    def f(self):
        """Function
        docstring."""
        text = """a string that
spans two lines"""
        return (text,
                os.sep)
'''


def test_counts_statement_lines_only():
    # import, class, def, the two-line string, the two-line return
    assert code_lines.code_lines(SAMPLE) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "1", "8"]
