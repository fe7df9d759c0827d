"""Package-wide structure: every top-level name and class member has a caller in the package."""

import ast
from pathlib import Path

import lfisensor

#: Top-level names and class members (``Class.member``) that no module of the
#: package refers to, each with the reason it stays.
UNREFERENCED = {
    "process_cycle": "the per-cycle API for live callers; the benchmark drives it",
    "baseline_measurement": "the paper's triangle baseline, compared in the acceptance tests",
    "pair_solution": "the paper's two-ramp equation: the reference the solver's inlined "
    "pair solves are tested against",
    "save_working_point": "writes the flat config file that read_config_file reads",
}


def _defined(node) -> list:
    """Names a top-level statement defines: a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _members(node) -> list:
    """Methods and properties a class statement defines, special methods aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]


def test_every_top_level_name_is_referenced_by_the_package():
    # A name that only tests call is a second code path kept in step by
    # hand: delete it, or list it above with its reason.  Re-exports in
    # __init__ and mentions in docstrings do not count as references; a
    # definition does not count as a reference to itself.  A class member
    # counts as referenced by any other statement or any other member of
    # its class that names it, whatever the object it is taken from.
    root = Path(lfisensor.__file__).parent
    statements = [
        node
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    references = [_referenced(node) for node in statements]
    unreferenced = {
        name
        for i, node in enumerate(statements)
        for name in _defined(node)
        if not any(name in refs for j, refs in enumerate(references) if j != i)
    }
    for i, node in enumerate(statements):
        for member in _members(node):
            others = [refs for j, refs in enumerate(references) if j != i]
            others += [_referenced(m) for m in node.body if m is not member]
            if not any(member.name in refs for refs in others):
                unreferenced.add(f"{node.name}.{member.name}")
    assert unreferenced == set(UNREFERENCED)
