"""Count the package's source lines, all of them and those that carry code, and its public names.

    python3 tools/loc.py [ROOT ...]

For each checkout ROOT (default: this checkout) it prints, for every file in
``src/ssnpath/``, the line count ``wc -l`` reports and the number of code
lines, then the totals, and then how many names ``ssnpath.__all__`` lists,
read from ``__init__.py`` with ``ast`` and not imported (no line when the
root has none). A code line is one that a token touches, other than a
comment, a bare string statement (which covers docstrings), NL, NEWLINE,
INDENT or DEDENT; a string spread over several lines touches each of them.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of lines of ``source`` that a code token touches."""
    bare = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(lo <= tok.start < hi for lo, hi in bare):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def count(root):
    """``[(name, wc -l, code lines)]`` for every file in ``root/src/ssnpath``, sorted by name."""
    rows = []
    for path in sorted((Path(root) / "src" / "ssnpath").glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source)))
    return rows


def public_names(root):
    """The number of names ``__all__`` lists in ``root/src/ssnpath/__init__.py``, or None."""
    init = Path(root) / "src" / "ssnpath" / "__init__.py"
    if init.exists():
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                return len(node.value.elts)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=[str(Path(__file__).resolve().parent.parent)],
                        metavar="ROOT", help="checkout roots (default: this checkout)")
    args = parser.parse_args(argv)
    for root in args.roots:
        rows = count(root)
        print(f"{root}\n{'lines':>7} {'code':>6}  file")
        for name, lines, code in rows:
            print(f"{lines:7d} {code:6d}  src/ssnpath/{name}")
        print(f"{sum(r[1] for r in rows):7d} {sum(r[2] for r in rows):6d}  total")
        names = public_names(root)
        if names is not None:
            print(f"{names:7d} {'names':>6}  ssnpath.__all__")


if __name__ == "__main__":
    main()
