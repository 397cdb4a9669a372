"""Count the code lines of each module under ``src/knappflow/``.

A code line is a line that holds some token of code: blank lines,
comment lines and docstrings do not count.  A docstring is a string
that is the first statement of a module, class or function, however
many lines it spans.  The script prints one line per module and the
total, and always exits 0.  Run it from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "knappflow"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main() -> None:
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")


if __name__ == "__main__":
    main()
