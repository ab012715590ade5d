"""scripts/src_lines.py: the line and code-line counts of a module."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""
import math  # a comment after code is code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
    no docstring"""

    def f(self):
        """Function docstring."""
        return math.pi


def g(): return 1
'''


def load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_fixture_module():
    # code: import, class, x (two lines), def f, return, def g
    assert load().count(FIXTURE) == (19, 7)


def test_prints_rows_and_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert load().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module            lines   code",
        "a.py                 19      7",
        "b.py                  2      1",
        "total                21      8",
    ]
