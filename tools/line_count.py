"""Count the lines of Python files as code, docstring, comment and blank.

    python3 tools/line_count.py [FILE ...]     # default: src/ght/*.py

Each line is counted once: a line inside a docstring (the string that is
the first statement of a module, a class or a function) is docstring, or
blank when it holds only whitespace; else a line that holds any other
token, or lies inside a string that spans lines, is code; else a line with
a comment is comment; else it is blank.
Prints one row per file and a total row. Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one file's source."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else None for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        if tok.type == tokenize.COMMENT:
            if kind[tok.start[0] - 1] is None:
                kind[tok.start[0] - 1] = "comment"
            continue
        for n in range(tok.start[0], tok.end[0] + 1):
            kind[n - 1] = "code"
    for node in ast.walk(ast.parse(source)):
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            for n in range(first.lineno, first.end_lineno + 1):
                kind[n - 1] = "docstring" if lines[n - 1].strip() else "blank"
    return {k: kind.count(k) for k in KINDS}


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "ght").glob("*.py"))
    print(f"{'file':<28}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<28}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<28}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
