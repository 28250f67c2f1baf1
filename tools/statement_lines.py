"""Count the statement lines of each ncprecode module.

A module's statement lines are the lines of ``ast.unparse`` of its syntax
tree after the module, class and function docstrings are removed: comments,
blank lines, docstrings and the way an expression is wrapped over lines do
not count; a body that was only a docstring counts as one ``pass`` line.
``ast.unparse`` writes one empty line before every function or class
definition that does not open the module, and that line counts.
Prints one line per module, largest first, then the total.

Usage: python3 tools/statement_lines.py [PACKAGE_DIR]   (default: src/ncprecode)
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_lines(source: str) -> int:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "ncprecode")
    counts = {path.stem: statement_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12s} {n:5d}")
    print(f"{'total':12s} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
