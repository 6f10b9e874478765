"""No module of the package keeps mutable state at top level.

A list, dict or set bound at module level is shared by every caller in the
process: two fits running at once in two threads would read and write the same
one. Values a computation shares belong to an object that the computation owns
(`solver.fit` keeps its point and posterior records on its own copy of the
label matrix).
`__all__` is the one exception; `from mmce import *` reads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CALLS = {"list", "dict", "set"}


def is_mutable_container(value) -> bool:
    """Whether an expression builds a list, dict or set: a display, a
    comprehension or a call of the builtin by name, or a tuple holding one."""
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Tuple):
        return any(is_mutable_container(element) for element in value.elts)
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CALLS)


def top_level_bindings(tree):
    """(names bound, value) of each top-level assignment of a module."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [name.id for target in targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)]
        yield names, node.value


def mutable_module_state(source: str) -> list:
    """The names a module binds to a list, dict or set at top level, but `__all__`."""
    return [name for names, value in top_level_bindings(ast.parse(source))
            if is_mutable_container(value) for name in names if name != "__all__"]


def test_no_module_binds_a_mutable_container_at_top_level():
    found = {path.name: names for path in sorted((ROOT / "src" / "mmce").glob("*.py"))
             if (names := mutable_module_state(path.read_text(encoding="utf-8")))}
    assert found == {}, f"module-level mutable state: {found}"


def test_the_check_sees_every_form():
    source = "\n".join([
        "__all__ = ['a']",
        "a = [None]",
        "b: dict = {}",
        "c = set()",
        "d = {k: 0 for k in 'xy'}",
        "e, f = list(), 0",
        "g = (1, 2)",
        "j = ((1, []),)",
        "h = frozenset([1])",
        "i = None",
    ])
    assert mutable_module_state(source) == ["a", "b", "c", "d", "e", "f", "j"]
