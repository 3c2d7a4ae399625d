"""Print the size of the package source: lines as `wc -l` counts them and
code-only lines, per file and in total.

A code-only line holds a token that is not a comment and is not part of a
docstring (a string that is the first statement of a module, class or
function); blank lines, comment lines and docstring lines do not count.
A token that spans lines, such as a multi-line string that is not a
docstring, counts on each of them. Stdlib only.

    python tools/src_lines.py [directory]      # default: src/gccodes
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(wc -l lines, code-only lines) of one Python file."""
    data = path.read_bytes()
    with path.open("rb") as f:
        code = {line for tok in tokenize.tokenize(f.readline) if tok.type not in NOT_CODE
                for line in range(tok.start[0], tok.end[0] + 1)}
    return data.count(b"\n"), len(code - docstring_lines(ast.parse(data)))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/gccodes")
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{lines:6} {code:6}  {path.name}")
    print(f"{total[0]:6} {total[1]:6}  total (wc -l, code-only) of {root.name}")


if __name__ == "__main__":
    main(sys.argv)
