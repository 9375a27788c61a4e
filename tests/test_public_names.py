"""Every public function and class of qnetid has a caller in the package,
and the package has the count of settable values recorded here.

A public function or class defined at module level in ``src/qnetid``,
exported in ``qnetid.__all__`` or not, that no module of the package uses,
other than its own definition and ``__init__``'s export, serves only its
tests: it is either deleted, named below as a test oracle, or named as
pending with the roadmap item that gives it its caller.
"""

import argparse
import ast
import inspect
from dataclasses import fields
from pathlib import Path

import qnetid
from qnetid import cli

#: public names kept as independent oracles of the tests, with no caller
TEST_ORACLES = {"exact_gram", "commutant_dimension"}
#: public names whose caller is still to come: ``read_output_batch`` is to
#: be read by a populations-route CLI verb (ROADMAP item 20)
PENDING = {"read_output_batch"}
#: the package's count of settable values (``settable_values``), pinned so
#: that a change that adds or removes one states the new count here
SETTABLE_VALUES = 120


def referenced_names(source: str, names: set) -> set:
    """The names of ``names`` that ``source`` reads as a name or an
    attribute outside the definition of the function or class of that name."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            owner = node.name
        ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if ident in names and ident != owner:
            found.add(ident)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def public_definitions(source: str) -> set:
    """The names of the functions and classes that ``source`` defines at
    module level without a leading underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_function_and_class_has_a_caller():
    sources = {path.name: path.read_text() for path in Path(qnetid.__file__).parent.glob("*.py")}
    public = set().union(*map(public_definitions, sources.values()))
    # the exported functions and classes are among them
    exported = {name: inspect.unwrap(getattr(qnetid, name)) for name in qnetid.__all__}
    assert {name for name, obj in exported.items()
            if inspect.isfunction(obj) or inspect.isclass(obj)} <= public
    used = set()
    for name, source in sources.items():
        if name != "__init__.py":
            used |= referenced_names(source, public)
    assert sorted(public - used - TEST_ORACLES - PENDING) == []
    # an oracle or a pending name that gains a caller leaves its list
    assert TEST_ORACLES | PENDING <= public - used


def test_a_name_read_only_by_its_own_definition_has_no_caller():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n\n"
              "class C:\n    def m(self):\n        return C\n\n"
              "def g():\n    return qnetid.h()\n")
    assert referenced_names(source, {"f", "C", "h", "k"}) == {"h"}


def settable_values() -> int:
    """The arguments of every CLI verb but help, plus the ``SweepConfig``
    fields, plus the parameters of the functions in ``qnetid.__all__``."""
    verbs = cli._build_parser()._subparsers._group_actions[0].choices.values()
    flags = sum(not isinstance(action, argparse._HelpAction)
                for verb in verbs for action in verb._actions)
    public = [inspect.unwrap(getattr(qnetid, name)) for name in qnetid.__all__]  # past caches
    params = sum(len(inspect.signature(f).parameters) for f in public if inspect.isfunction(f))
    return flags + len(fields(qnetid.SweepConfig)) + params


def test_settable_values_are_recorded():
    assert settable_values() == SETTABLE_VALUES
