"""The oracles stay apart from the library code they check."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
ORACLES = TESTS / "oracles.py"

# what an oracle may take from the library: the record its input comes in,
# the errors and the command line's subcommand names
ALLOWED = {
    ("cellres", "LabeledCellComplex"),
    ("cellres", "CellresError"),
    ("cellres", "InputError"),
    ("cellres", "PreconditionError"),
    ("cellres.cli", "SUBCOMMANDS"),
}


def library_imports(source):
    """(module, name) for every name the source imports from ``cellres``,
    at any depth; a plain ``import cellres...`` gives (module, None)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "cellres" or node.module.startswith("cellres.")):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name == "cellres" or alias.name.startswith("cellres.")]
    return found


def test_oracles_import_only_records_and_errors_from_the_library():
    imports = library_imports(ORACLES.read_text())
    assert imports, "the oracles import nothing from cellres at all"
    assert [entry for entry in imports if entry not in ALLOWED] == []


def test_the_guard_sees_a_library_import_inside_a_function():
    source = ORACLES.read_text() + "\n\ndef f():\n    from cellres import linalg\n"
    assert ("cellres", "linalg") in library_imports(source)
    assert ("cellres.simplex", None) in library_imports("import cellres.simplex\n")


def _names(tree):
    """Every name the tree reads, as a plain name, an attribute or an
    imported name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unused_oracles(source, test_sources):
    """The top-level functions and classes of the oracles' source that no
    test source and no other top-level statement of the oracles reads."""
    body = ast.parse(source).body
    used = set().union(*map(_names, map(ast.parse, test_sources)))
    names = [_names(node) for node in body]
    return [node.name for i, node in enumerate(body)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
            and not any(node.name in found for j, found in enumerate(names) if j != i)]


def _test_sources():
    return [path.read_text() for path in sorted(TESTS.glob("*.py")) if path != ORACLES]


def test_every_oracle_is_used():
    assert unused_oracles(ORACLES.read_text(), _test_sources()) == []


def test_the_guard_sees_a_leftover_scan():
    leftover = "\n\ndef graded_strand_inexact_degree(F, box):\n    return None\n"
    assert unused_oracles(ORACLES.read_text() + leftover, _test_sources()) == [
        "graded_strand_inexact_degree"]
