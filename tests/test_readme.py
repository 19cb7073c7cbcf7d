"""README's "Library tour" runs as written and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The Python block of README's "Library tour" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _holds(comment: str, printed: str) -> bool:
    """Whether the printed line is what the comment on its print call says."""
    if comment.startswith("nonzero"):
        return abs(float(printed)) > 1e-3
    if re.match(r"~1e-1\d\b", comment):  # rounding noise of a vanishing identity
        return abs(float(printed)) <= 1e-14
    if comment.startswith("~4e-3"):
        return 1e-3 <= float(printed) <= 1e-2
    if shape := re.match(r"\([\d, ]*\)", comment):
        return printed == shape[0]
    if comment.startswith("all four monitors conserved"):
        drifts = ast.literal_eval(printed)
        return sorted(drifts) == ["C1", "C2", "F", "H"] and all(0.0 <= d <= 1e-12 for d in drifts.values())
    raise AssertionError(f"no rule reads the comment {comment!r}")


def test_the_library_tour_prints_what_its_comments_say():
    source = _tour()
    lines = source.splitlines()
    comments = [lines[node.lineno - 1].split("#", 1)[1].strip() for node in ast.parse(source).body
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "print"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 11
    assert [(c, p) for c, p in zip(comments, printed) if not _holds(c, p)] == []
