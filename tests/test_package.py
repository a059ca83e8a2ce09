"""The package namespace: every name it lists can be read from it, and every
public name in the library is reached from outside the unit tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import swapkit

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "swapkit"

#: Public names that no command, suite, criterion or workload reads, each
#: kept for its own reason.
KEPT_UNREACHED = {
    "multialg.is_submultialgebra":
        "the paper's notion of submultialgebra, and the tests' oracle for it",
    "swap.KalmanAlgebra.arrow":
        "the Nelson arrow of the twist algebra, behind the J3 implication test",
    "formula.disj":
        "one of the five connective constructors, with neg, circ, conj, imp",
}


def test_every_listed_name_resolves():
    names = dir(swapkit)
    assert set(swapkit._LAZY) <= set(names)
    for name in names:
        getattr(swapkit, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'unheard_of'"):
        getattr(swapkit, "unheard_of")


def _reads(tree: ast.AST) -> Counter:
    """How often a tree reads each name: as a loaded name or attribute, or
    as a name imported from a module."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_name_is_reached_from_outside_the_unit_tests():
    """A public function, class or method is read somewhere in its own
    module outside its definition, in another library module (the package's
    re-exports do not count), in the acceptance criteria, or in the
    benchmark (its own tests do not count)."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(LIBRARY.glob("*.py"))}
    library = {module: _reads(tree) for module, tree in trees.items()}
    benchmark = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    roots: Counter = Counter()
    for path in [ROOT / "tests" / "test_acceptance.py", *benchmark]:
        roots.update(_reads(ast.parse(path.read_text())))
    unreached = []
    for module, tree in trees.items():
        others = [reads for other, reads in library.items()
                  if other not in (module, "__init__")]
        for qualified, node in _public_definitions(tree):
            name = node.name
            own = library[module][name] - _reads(node)[name]
            if own <= 0 and not roots[name] and not any(
                    reads[name] for reads in others):
                unreached.append(f"{module}.{qualified}")
    orphans = sorted(set(unreached) - set(KEPT_UNREACHED))
    assert not orphans, f"reached only from unit tests: {orphans}"
    stale = sorted(set(KEPT_UNREACHED) - set(unreached))
    assert not stale, f"reached now, or gone; drop from KEPT_UNREACHED: {stale}"
