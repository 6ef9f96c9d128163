"""The oracles stay apart from the library code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"

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
