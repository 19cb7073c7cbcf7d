"""Size of the package: lines and AST nodes of each module of src/chaplygin.

    python tools/size.py [--rev REV]

A module's nodes are the count of ``ast.walk`` over its parsed text.  With
--rev, REV's modules (read with ``git show``) are counted too, and each row
gives REV's figures, the working tree's and the change.  The last row is the
total.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/chaplygin"


def size(text: str) -> tuple[int, int]:
    """(lines, AST nodes) of a module's text."""
    return len(text.splitlines()), sum(1 for _ in ast.walk(ast.parse(text)))


def tree_sizes() -> dict:
    """{module: (lines, nodes)} of the working tree."""
    return {p.name: size(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def rev_sizes(rev: str) -> dict:
    """{module: (lines, nodes)} of the package at a git revision."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, check=True, text=True).stdout

    names = [Path(p).name for p in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split() if p.endswith(".py")]
    return {name: size(git("show", f"{rev}:{PACKAGE}/{name}")) for name in sorted(names)}


def _total(sizes: dict) -> tuple[int, int]:
    return sum(v[0] for v in sizes.values()), sum(v[1] for v in sizes.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="a git revision to compare the working tree with")
    args = parser.parse_args(argv)
    tree = tree_sizes()
    if args.rev is None:
        for name, (lines, nodes) in [*tree.items(), (PACKAGE, _total(tree))]:
            print(f"{name:16} {lines:6} {nodes:7}")
        return 0
    rev = rev_sizes(args.rev)
    print(f"{'module':16} {'lines':^19} {'nodes':^23}  ({args.rev} -> working tree, change)")
    rows = [(name, rev.get(name, (0, 0)), tree.get(name, (0, 0))) for name in sorted(rev.keys() | tree.keys())]
    for name, (l0, n0), (l1, n1) in [*rows, (PACKAGE, _total(rev), _total(tree))]:
        print(f"{name:16} {l0:5} -> {l1:5} {l1 - l0:+5} {n0:6} -> {n1:6} {n1 - n0:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
