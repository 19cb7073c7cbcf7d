"""The size gate tools/size.py: the line and AST node count of a module, and the
modules a scenario load imports."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("size", Path(__file__).resolve().parent.parent / "tools" / "size.py")
size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(size)


def test_the_load_scenario_row_counts_the_body_side_modules():
    """The modules that tests/test_imports.py pins for a scenario load and integrate."""
    assert size.scenario_modules() == ["__init__.py", "body.py", "dynamics.py", "errors.py", "geometry.py",
                                       "scenario.py"]


def test_size_counts_lines_and_ast_nodes():
    # Module, FunctionDef, arguments, Return and Constant
    assert size.size("def f():\n    return 1\n") == (2, 5)
