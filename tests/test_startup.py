"""What a CLI job loads, and the public names and records it relies on.

Each subcommand runs in a fresh interpreter, which reports the modules the
run added to ``sys.modules``.  Nothing here times anything.
"""

import importlib
import json
import subprocess
import sys

import pytest

import cellres
from cellres import InputError, PreconditionError
from cellres.cellcomplex import Face
from cellres.cycle import FormMatrix, FormMonomial
from cellres.monomial import MonomialIdeal, Rectangle2D
from cellres.residue import ChainMap, CHProduct, ResidueCurrent
from cellres.resolution import FreeComplex, SignedMonomial

EX61 = {
    "n": 3,
    "generators": [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]],
}
STAIRCASE = {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]]}

SUBCOMMANDS = {
    "generators": EX61,
    "multiplicity": EX61,
    "partition": STAIRCASE,
    "hull": EX61,
    "scarf": EX61,
    "resolve": EX61,
    "check-exact": EX61,
    "check-minimal": EX61,
    "residue": EX61,
    "compare": EX61,
    "annihilator": EX61,
    "duality-check": EX61,
    "fundamental-cycle": EX61,
}

_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from cellres.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


# fractions brings decimal and numbers; argparse brings gettext and locale
HEAVY = {"fractions", "decimal", "numbers", "argparse", "gettext", "locale"}


def _loaded(argv, tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv, "--input", str(path)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(result.stdout)
    assert report["code"] in (0, 1), result.stdout
    return set(report["loaded"])


def _cellres(loaded):
    return {m for m in loaded if m == "cellres" or m.startswith("cellres.")}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_dataclasses(sub, tmp_path):
    assert "dataclasses" not in _loaded([sub], tmp_path, SUBCOMMANDS[sub])


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_fractions_or_argparse(sub, tmp_path):
    assert not _loaded([sub], tmp_path, SUBCOMMANDS[sub]) & HEAVY


@pytest.mark.parametrize("sub", ["check-exact", "residue", "fundamental-cycle"])
def test_file_complex_job_may_load_fractions_only(sub, tmp_path, ex61_minimal_fixture):
    # the loader parses rational coordinate strings with Fraction
    path = tmp_path / "ex61.complex.json"
    path.write_text(json.dumps(ex61_minimal_fixture))
    loaded = _loaded([sub, "--complex", f"file:{path}"], tmp_path, EX61)
    assert "fractions" in loaded
    assert not loaded & HEAVY - {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("sub", ["generators", "multiplicity", "partition"])
def test_monomial_subcommands_load_monomial_only(sub, tmp_path):
    assert _cellres(_loaded([sub], tmp_path, SUBCOMMANDS[sub])) == {
        "cellres", "cellres.cli", "cellres.errors", "cellres.monomial",
    }


def test_hull_loads_no_later_layer(tmp_path):
    loaded = _cellres(_loaded(["hull"], tmp_path, EX61))
    assert "cellres.hull" in loaded
    assert not loaded & {"cellres.residue", "cellres.resolution", "cellres.cycle"}


def test_package_import_loads_errors_only():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, cellres; print(sorted(m for m in sys.modules if 'cellres' in m))"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "['cellres', 'cellres.errors']"


def test_every_export_is_its_defining_object():
    assert len(set(cellres.__all__)) == len(cellres.__all__)
    for name in cellres.__all__:
        obj = getattr(cellres, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        namespace = {}
        exec(f"from cellres import {name}", namespace)
        assert namespace[name] is obj, name
    assert set(cellres.__all__) <= set(dir(cellres))
    assert cellres.__version__ == "0.1.0"


@pytest.mark.parametrize("name", ["no_such_name", "cofaces", "ch_action"])
def test_unknown_export_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cellres, name)


RECORDS = [
    (MonomialIdeal, (2, ((2, 0), (0, 2))), "MonomialIdeal(n=2, generators=((2, 0), (0, 2)))"),
    (Rectangle2D, (0, 2, 1, 3), "Rectangle2D(x_lo=0, x_hi=2, y_lo=1, y_hi=3)"),
    (Face, ((0, 1), 1, (2, 1), ((1, -1),)), "Face(vertices=(0, 1), dim=1, label=(2, 1), basis=((1, -1),))"),
    (SignedMonomial, (-1, (1, 0)), "SignedMonomial(sign=-1, exp=(1, 0))"),
    (FreeComplex, (1, {}, {}, {}), "FreeComplex(n=1, levels={}, labels={}, matrices={})"),
    (CHProduct, (1, (2, 1)), "CHProduct(sign=1, alpha=(2, 1))"),
    (ResidueCurrent, (2, {}), "ResidueCurrent(n=2, entries={})"),
    (ChainMap, ({}, {}, {}), "ChainMap(levels={}, row_bases={}, col_bases={})"),
    (FormMonomial, (3, (0, 1), (0,)), "FormMonomial(coeff=3, exp=(0, 1), dz=(0,))"),
    (FormMatrix, (1, 1, ((),)), "FormMatrix(rows=1, cols=1, entries=((),))"),
]


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_repr_and_immutability(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b
    assert repr(a) == text
    assert tuple(getattr(a, f) for f in cls._fields) == args
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], args[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    hashable = not any(isinstance(x, dict) for x in args)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_records_differ_by_fields():
    assert SignedMonomial(1, (0, 1)) != SignedMonomial(-1, (0, 1))
    assert CHProduct(1, (2, 1)) != CHProduct(1, (1, 2))
    assert Rectangle2D(0, 1, 0, 2) != Rectangle2D(0, 2, 0, 1)
    assert MonomialIdeal(1, ((2,),)) != MonomialIdeal(1, ((3,),))
    assert len({FormMonomial(1, (0,), ()), FormMonomial(1, (0,), ()),
                FormMonomial(2, (0,), ())}) == 2


def test_record_validation_messages():
    with pytest.raises(InputError, match="ambient dimension must be >= 1"):
        MonomialIdeal(0, ((1,),))
    with pytest.raises(InputError, match="a monomial ideal needs at least one generator"):
        MonomialIdeal(2, ())
    for bounds in ((1, 1, 0, 1), (0, 1, 2, 1), (-1, 1, 0, 1)):
        with pytest.raises(PreconditionError,
                           match="rectangle bounds must be nonnegative and ordered"):
            Rectangle2D(*bounds)
    assert Rectangle2D(0, 2, 1, 3).area == 4
    assert Rectangle2D(0, 2, 1, 3).contains(1, 1)


def test_replace_goes_through_the_constructor():
    with pytest.raises(InputError, match="ambient dimension must be >= 1"):
        MonomialIdeal(1, ((2,),))._replace(n=0)
    replaced = MonomialIdeal(1, ((2,),))._replace(generators=((3,),))
    assert replaced == MonomialIdeal(1, ((3,),))


def test_make_goes_through_the_constructor():
    with pytest.raises(PreconditionError, match="rectangle bounds must be nonnegative"):
        Rectangle2D._make((3, 1, 0, 1))
    assert Rectangle2D._make((0, 2, 1, 3)) == Rectangle2D(0, 2, 1, 3)
    assert Rectangle2D(0, 2, 1, 3)._replace(x_hi=4).area == 8
