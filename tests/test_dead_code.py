"""Every top-level function, class and constant of the package, and every
non-dunder method of its classes, is used by the program, and every parameter
default is overridden by some call.

The exceptions, names that only the tests use, are listed in `TEST_ONLY`; each
one must be imported or read as an attribute by the acceptance gate
(`tests/test_acceptance.py`).

A function, class or method counts as used when `src/`, `scripts/` or
`perfbench/` refers to it outside its own definition: as a name, an attribute,
an imported name or a string (the benchmark's tracer looks functions up by
name). The package's `__init__.py` does not count: exporting a name is not
using it. A module-level constant counts as used only where one of those
directories reads it, as a name or an attribute: its own assignment and
imports of it do not count. A parameter with a default counts as passed when a call to a
function of its name, in those directories or `tests/`, passes it by keyword
or position, or passes *args or **kwargs.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names that only the tests use, each kept for a reason.
TEST_ONLY = {
    "polish_stationary_point": "acceptance test 5 imports it from mmce.solver",
    "kl_identity_check": "acceptance test 5 imports it from mmce.solver",
    "calibration_bins": "acceptance 7 imports it",
    "random_instance": "the acceptance tests draw their small random inputs from it",
}


def definitions():
    """(module file name, name) of each top-level function and class."""
    for path in sorted((ROOT / "src" / "mmce").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name


def methods():
    """(module file name, class name, name) of each non-dunder method of each
    top-level class."""
    for path in sorted((ROOT / "src" / "mmce").glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                            not node.name.startswith("__"):
                        yield path.name, cls.name, node.name


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
            if path != ROOT / "src" / "mmce" / "__init__.py":
                yield ast.parse(path.read_text(encoding="utf-8"))


def loaded_names() -> set:
    """The names and attributes that the program reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in program_trees() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def referenced_names() -> set:
    names = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}  # a definition's own body does not count
        if isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.alias):
            found = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = node.value
        else:
            found = None
        if found is not None and found not in own:
            names.add(found)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for tree in program_trees():
        visit(tree, frozenset())
    return names


def test_every_definition_is_used_outside_the_tests():
    used = referenced_names()
    unused = {name: module for module, name in definitions() if name not in used}
    assert set(unused) - set(TEST_ONLY) == set(), f"unused: {unused}"


def test_every_method_is_used_outside_the_tests():
    used = referenced_names()
    unused = [f"{module}: {cls}.{name}" for module, cls, name in methods() if name not in used]
    assert unused == [], f"unused: {unused}"


def test_each_test_only_name_is_still_defined_and_unused():
    # a name that the program starts to use, or that goes, leaves the list
    used = referenced_names()
    defined = {name for _, name in definitions()}
    assert all(name in defined and name not in used for name in TEST_ONLY)


def test_each_test_only_name_is_pinned_by_the_acceptance_gate():
    # a helper that only the tests use stays in src only while the acceptance
    # gate, which holds as it is, imports it or reads it as an attribute
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    pinned = {node.name if isinstance(node, ast.alias) else node.attr
              for node in ast.walk(tree) if isinstance(node, (ast.alias, ast.Attribute))}
    assert set(TEST_ONLY) - pinned == set()


def test_every_constant_is_read_by_the_program():
    # __all__ is read by `from mmce import *`, which no program line spells out
    loaded = loaded_names()
    unread = {name: module for module, name in constants()
              if name not in loaded and name != "__all__"}
    assert unread == {}, f"never read: {unread}"


def defaulted_parameters():
    """(function name, parameter name, position or None if keyword-only) of
    each parameter with a default of each non-dunder function or method of
    the package. A method's position counts `self` or `cls`, which a call on
    an instance or class does not pass."""
    for path in sorted((ROOT / "src" / "mmce").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                    node.name.startswith("__"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = id(node) in methods and not static
            for k in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[k].arg, k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passed_arguments():
    """(keywords, positional): per name called in src/, scripts/, perfbench/
    or tests/, the keywords its calls pass, with "*" where a call passes
    *args or **kwargs, and the most positional arguments one call passes."""
    keywords, positional = defaultdict(set), defaultdict(int)
    for top_dir in ("src", "scripts", "perfbench", "tests"):
        for path in sorted((ROOT / top_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    keywords[name].update("*" if kw.arg is None else kw.arg
                                          for kw in node.keywords)
                    if any(isinstance(arg, ast.Starred) for arg in node.args):
                        keywords[name].add("*")
                    positional[name] = max(positional[name], len(node.args))
    return keywords, positional


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant, not an option
    keywords, positional = passed_arguments()
    unpassed = [f"{function}({parameter})"
                for function, parameter, position in defaulted_parameters()
                if not (keywords[function] & {"*", parameter} or
                        position is not None and positional[function] > position)]
    assert unpassed == [], f"never passed: {unpassed}"
