#!/usr/bin/env python3
"""Count the lines and the code lines of each module of greensign.

    python scripts/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/greensign of this tree.  A code line is one
that holds a token other than a comment and is not only part of a
docstring (of the module, a class or a function): blank lines, comment
lines and docstring lines are not code.  Prints the lines and the code
lines of each module, then their totals.
"""
import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "greensign"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list:
    """((line, col), (end line, end col)) of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple:
    """(lines, code lines) of a module's source."""
    spans = docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
