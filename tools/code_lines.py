"""Count the code lines of Python files: lines that are not blank, not
comment-only and not part of a module, class or function docstring.

Usage: python tools/code_lines.py src/exactlex/*.py

Prints one count per file and a total, the figures the CI job summary
reports for `src/exactlex`.
"""

import ast
import sys


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path) as file:
            count = code_lines(file.read())
        total += count
        print(f"{count:6} {path}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
