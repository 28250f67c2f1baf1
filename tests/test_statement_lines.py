"""The statement-line counter that measures the package's size (tools/statement_lines.py)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "statement_lines.py"
_spec = importlib.util.spec_from_file_location("statement_lines", TOOL)
statement_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(statement_lines)


def test_docstring_only_body_counts_as_one_pass_line():
    assert statement_lines.statement_lines('def f():\n    """Only a docstring."""\n') == 2
    assert statement_lines.statement_lines('class C:\n    """Only a docstring."""\n') == 2


def test_each_later_definition_costs_the_empty_line_unparse_writes_before_it():
    # ast.unparse separates a def or class from what precedes it by one empty line
    source = "def f():\n    pass\ndef g():\n    pass\n"
    assert statement_lines.statement_lines(source) == 5


def test_comments_blank_lines_and_wrapping_do_not_count():
    source = "# a comment\n\nx = (1 +\n     2)   # trailing comment\n\n\ny = [\n    3,\n    4,\n]\n"
    assert statement_lines.statement_lines(source) == 2


def test_docstrings_do_not_count():
    source = '"""Module docstring,\nover two lines."""\n\ndef f(a):\n    """Docstring."""\n    return a\n'
    assert statement_lines.statement_lines(source) == 2


def test_main_prints_each_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "big.py").write_text("a = 1\nb = 2\nc = 3\n")
    (tmp_path / "small.py").write_text('"""Doc."""\nd = 4\n')
    assert statement_lines.main(["statement_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["big", "3"], ["small", "1"], ["total", "4"]]
