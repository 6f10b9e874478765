"""Every top-level function, class and constant of the package is used by
the program.

A function or class counts as used when `src/`, `scripts/` or `perfbench/`
refers to it outside its own definition: as a name, an attribute, an imported
name or a string (the benchmark's tracer looks functions up by name). A
module-level constant counts as used only where one of those directories
reads it, as a name or an attribute: its own assignment and imports of it do
not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names that only the tests use, each kept for a reason.
TEST_ONLY = {
    "polish_stationary_point": "acceptance test 5 imports it from mmce.solver",
    "kl_identity_check": "acceptance test 5 imports it from mmce.solver",
    "random_instance": "the acceptance tests draw their small random inputs from it",
    "ds_marginal_loglik": "the independent reference for the Dawid-Skene trace values",
    "read_params": "reads the --params-out sidecar back; it stays until a command "
                   "reads the sidecar",
}


def definitions():
    """(module file name, name) of each top-level function and class."""
    for path in sorted((ROOT / "src" / "mmce").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name


def constants():
    """(module file name, name) of each name bound by a top-level assignment."""
    for path in sorted((ROOT / "src" / "mmce").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield path.name, name.id


def program_trees():
    for top_dir in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top_dir).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def loaded_names() -> set:
    """The names and attributes that the program reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in program_trees() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def referenced_names() -> set:
    names = set()
    for tree in program_trees():
        for top in tree.body:
            own = getattr(top, "name", None)  # a definition's own body does not count
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    found = node.id
                elif isinstance(node, ast.Attribute):
                    found = node.attr
                elif isinstance(node, ast.alias):
                    found = node.name
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found = node.value
                else:
                    continue
                if found != own:
                    names.add(found)
    return names


def test_every_definition_is_used_outside_the_tests():
    used = referenced_names()
    unused = {name: module for module, name in definitions() if name not in used}
    assert set(unused) - set(TEST_ONLY) == set(), f"unused: {unused}"


def test_each_test_only_name_is_still_defined_and_unused():
    # a name that the program starts to use, or that goes, leaves the list
    used = referenced_names()
    defined = {name for _, name in definitions()}
    assert all(name in defined and name not in used for name in TEST_ONLY)


def test_every_constant_is_read_by_the_program():
    # __all__ is read by `from mmce import *`, which no program line spells out
    loaded = loaded_names()
    unread = {name: module for module, name in constants()
              if name not in loaded and name != "__all__"}
    assert unread == {}, f"never read: {unread}"
