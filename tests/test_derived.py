"""Objects derived from a complex are built once per complex and shared.

The free complex, the corner simplex, the refinement and exactness
verdicts, the chain maps, the current and the multiplicity are stored on
the complex X under their function's name (``cellcomplex.derived``).
These tests count the builds one command makes and the orientation reads
of the sign rules: one per face that is no simplex, none for a simplex's
incidence signs, the chain maps or the top flip; the pivot bases built,
only for a face that is no simplex and its candidate facets; and the
eliminations that find a face's pivots, only for a face inside no listed
simplex, once per complex.  They check that a new complex gets its own
objects and that a caller's changed copy leaves the stored ones alone.
"""

import importlib
import io
import json
import sys
from itertools import product

import pytest

from cellres import (
    PreconditionError,
    cellular_complex,
    chain_maps,
    corner_simplex_complex,
    duality_counterexample,
    exactness_witness,
    linalg,
    minimize,
    reoriented,
    residue_current,
    scarf_complex,
    taylor_complex,
    verify_chain_maps,
    vertex_ideal,
)
from cellres.cellcomplex import LabeledCellComplex
from cellres.cli import _HANDLERS, run
from cellres.residue import ResidueCurrent, _verify_square
from conftest import EX61_GENERATORS, embedded_hull, flip_sign
from oracles import dense_matrix, subcomplex_leq

EX61 = {"n": 3, "generators": [list(g) for g in EX61_GENERATORS]}
M2_IN_4 = {
    "n": 4,
    "generators": [list(e) for e in product(range(3), repeat=4) if sum(e) == 2],
}

COUNTED = (
    "cellcomplex.make_complex",  # one call per complex realized
    # one call per face that is no simplex and per candidate facet of one
    "cellcomplex._pivot_basis",
    # one call per face realized that lies in no listed simplex; a face's
    # pivots are read from the complex after that
    "linalg.affine_basis_indices",
    "resolution._compose",  # one product of sign columns per level checked
    "linalg.orientations",  # one call per face that is no simplex
    "linalg.rank",  # none: the chain maps and the top flip read no span
    "monomial.lcm_lattice",  # one call per exactness scan
    "monomial.multiplicity",
)


class _StoredObjects(dict):
    """The ``_derived`` store of one complex, recording every object stored
    in it by the name it is stored under."""

    def __init__(self, stores):
        super().__init__()
        self.stored = []
        stores.append(self)

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def _builds(stores) -> dict:
    """How many complexes built each derived object."""
    names = [key for store in stores for key in store.stored]
    return {name: names.count(name) for name in sorted(set(names))}


def _recording(monkeypatch) -> list:
    """Give every complex built from now on a recording store; returns the
    list of those stores."""
    stores = []
    init = LabeledCellComplex.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._derived = _StoredObjects(stores)

    monkeypatch.setattr(LabeledCellComplex, "__init__", recorded_init)
    return stores


def _counting(monkeypatch):
    """Count calls of the COUNTED functions in every module that binds them."""
    counts = dict.fromkeys(COUNTED, 0)
    # a layer first imported while the patches are in place would keep a
    # counting wrapper after they are undone, and the next test would miss it
    for layer in ("hull", "simplex", "complexfile", "resolution", "residue", "cycle"):
        importlib.import_module(f"cellres.{layer}")
    modules =[m for name, m in sys.modules.items() if name.startswith("cellres")]
    for name in COUNTED:
        layer, attr = name.split(".")
        original = getattr(importlib.import_module(f"cellres.{layer}"), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    return counts


def _run(monkeypatch, args, job):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    return run(args)


@pytest.mark.parametrize(
    "job, dim, faces, non_simplices, eliminated",
    [(EX61, 2, 13, 0, 4), (M2_IN_4, 3, 49, 1, 9)], ids=["n3", "n4"],
)
def test_fundamental_cycle_builds_each_object_once(
        monkeypatch, job, dim, faces, non_simplices, eliminated):
    X = embedded_hull(minimize([tuple(g) for g in job["generators"]]))
    assert sum(f.dim >= 1 for f in X.faces.values()) == faces
    assert sum(len(f.vertices) > f.dim + 1 for f in X.faces.values()) == non_simplices
    candidates = [t for sigma, f in X.faces.items() if len(sigma) > f.dim + 1
                  for t in X.faces_of_dim(f.dim - 1) if set(t) < set(sigma)]
    # the top faces of X on Example 6.1; on m^2 in 4 variables its four
    # corner tetrahedra, the octahedron and the octahedron's four triangles
    # that lie in no tetrahedron
    outside_simplices = [fid for fid in X.faces if fid and not any(
        set(fid) < set(s) and len(s) == X.face(s).dim + 1 for s in X.faces)]
    assert len(outside_simplices) == eliminated
    counts = _counting(monkeypatch)
    stores = _recording(monkeypatch)
    assert _run(monkeypatch, ["fundamental-cycle"], job) == 0
    assert counts == {
        "cellcomplex.make_complex": 2,  # the embedded hull X and its simplex Y
        # the facet test of each non-simplex of X and its candidate facets:
        # 1 + 8 on m^2 in 4 variables, whose octahedron has 8 triangles
        "cellcomplex._pivot_basis": non_simplices + len(candidates),
        # the faces of X inside no simplex of X, and Y's top face; the top
        # flip and the refinement pass read the stored pivots (eliminating
        # every face of X and Y, and each non-simplex twice more, took 26
        # calls on Example 6.1 and 76 on m^2 in 4 variables)
        "linalg.affine_basis_indices": len(outside_simplices) + 1,
        # d^2 = 0 at levels 1..dim of F of X and of F of Y, then the two
        # sides of the comparison square at levels 0..dim
        "resolution._compose": dim + dim + 2 * (dim + 1),
        # the facet test of each non-simplex of X; the flip of its top
        # faces and the chain maps read the barycentric coordinates, and F
        # of X and of Y the signs make_complex filed
        "linalg.orientations": non_simplices,
        "linalg.rank": 0,
        "monomial.lcm_lattice": 1,
        "monomial.multiplicity": 1,
    }
    assert _builds(stores) == {
        "_covering": 1,  # the volumes and orientations, on the flipped copy
        "_prepare": 1,
        # solved for the top flip, before the flipped copy, which takes them
        "_vertex_barycentrics": 1,
        "carried_faces": 1,
        "cellular_complex": 2,  # F of X and F of the simplex Y
        "chain_maps": 1,
        "corner_simplex_complex": 1,  # shared by refinement, containment and the maps
        "exactness_witness": 1,
        "refinement_failure": 1,
        "residue_current": 1,
        # a copy with flipped tops takes both the ideal and the corner
        # simplex from the embedded hull it copies
        "vertex_ideal": 1,
    }


def test_free_complex_reads_no_orientation(monkeypatch):
    # the Taylor complex of a 10-corner plane staircase has 2^10 faces, 1013
    # of dimension >= 1, all simplices: their signs are the vertex-order
    # signs make_complex files, where reading them off the geometry took
    # one orientations call per face
    counts = _counting(monkeypatch)
    X = taylor_complex(minimize([(i, 9 - i) for i in range(10)]))
    assert sum(f.dim >= 1 for f in X.faces.values()) == 1013
    cellular_complex(X)
    assert counts["linalg.orientations"] == 0
    # the corner simplex of a complex, which every current resolves
    Y = corner_simplex_complex(embedded_hull(minimize(EX61_GENERATORS)))
    counts["linalg.orientations"] = 0
    cellular_complex(Y)
    assert counts["linalg.orientations"] == 0


def test_taylor_check_exact_builds_no_basis(monkeypatch):
    # the 63 nonempty faces of the Taylor complex of Example 6.1 are
    # simplices: one elimination of the top face shows it independent, so
    # every other face is a simplex with no elimination (one per face, 63,
    # before), and no pivot basis is built
    counts = _counting(monkeypatch)
    assert _run(monkeypatch, ["check-exact", "--complex", "taylor"], EX61) == 0
    assert counts["cellcomplex.make_complex"] == 1
    assert counts["linalg.affine_basis_indices"] == 1
    assert counts["cellcomplex._pivot_basis"] == 0


@pytest.mark.parametrize("generators", [
    EX61_GENERATORS,
    [e for e in product(range(5), repeat=3) if sum(e) == 4],  # m^4 in 3 variables
], ids=["ex61", "m4-n3"])
def test_exactness_scan_ranks_no_degree_of_an_embedded_hull(monkeypatch, generators):
    # every degree's subcomplex collapses to one vertex, so no boundary is
    # ranked; ranking every degree, one call per level, took 69 calls on
    # Example 6.1 and 315 on m^4 (counted the same way before the collapse)
    X = embedded_hull(minimize(generators))
    cellular_complex(X)
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda matrix: calls.append(1) or rank(matrix))
    assert exactness_witness(X) is None
    assert calls == []


def test_compare_builds_each_object_once(monkeypatch):
    counts = _counting(monkeypatch)
    stores = _recording(monkeypatch)
    assert _run(monkeypatch, ["compare"], EX61) == 0
    assert counts == {
        "cellcomplex.make_complex": 2,  # the embedded hull X and its simplex Y
        "cellcomplex._pivot_basis": 0,  # every face is a simplex
        # X's four triangles and Y's top face, each inside no other listed
        # simplex (19 + 7 before, every nonempty face of X and Y)
        "linalg.affine_basis_indices": 4 + 1,
        # d^2 = 0 at levels 1..2 of F of X and of F of Y, then the two sides
        # a_{k-1} psi_k and phi_k a_k of the square at levels 0..2
        "resolution._compose": 2 + 2 + 2 * 3,
        # the flip of X's top faces and the carried faces of the 7 faces of
        # Y in the chain maps read the barycentric coordinates instead
        "linalg.orientations": 0,
        "linalg.rank": 0,
        "monomial.lcm_lattice": 0,
        "monomial.multiplicity": 0,
    }
    assert _builds(stores) == {
        "_covering": 1,
        "_vertex_barycentrics": 1,
        "carried_faces": 1,
        "cellular_complex": 2,  # F of X and F of the simplex Y
        "chain_maps": 1,
        "corner_simplex_complex": 1,  # shared by refinement, containment and the maps
        "refinement_failure": 1,
        "vertex_ideal": 1,
    }


@pytest.mark.parametrize("args, builds", [
    (["hull"], 1),  # the lifted hull
    (["scarf"], 1),
    (["residue"], 2),  # the embedded hull and its corner simplex
    (["residue", "--complex", "file:{path}"], 2),  # the file complex and its simplex
], ids=["hull", "scarf", "residue", "residue-file"])
def test_each_job_realizes_each_complex_once(
        monkeypatch, tmp_path, ex61_minimal_fixture, args, builds):
    path = tmp_path / "ex61.complex.json"
    path.write_text(json.dumps(ex61_minimal_fixture))
    counts = _counting(monkeypatch)
    assert _run(monkeypatch, [a.format(path=path) for a in args], EX61) == 0
    assert counts["cellcomplex.make_complex"] == builds


@pytest.mark.parametrize("subcommand", sorted(_HANDLERS))
def test_every_object_is_stored_under_its_function_name(monkeypatch, subcommand):
    stores = _recording(monkeypatch)
    _run(monkeypatch, [subcommand], EX61)
    functions = {
        attr for name, module in list(sys.modules.items()) if name.startswith("cellres.")
        for attr, value in vars(module).items() if callable(value)
    }
    for store in stores:
        assert set(store) <= functions, subcommand
        assert len(store.stored) == len(set(store.stored)), subcommand


def test_repeated_calls_share_one_object():
    X = embedded_hull(minimize(EX61_GENERATORS))
    assert chain_maps(X) is chain_maps(X)
    assert residue_current(X) is residue_current(X)
    assert vertex_ideal(X) is vertex_ideal(X)
    # the complex determines every object, so its name is the whole key
    assert {"chain_maps", "residue_current", "vertex_ideal"} <= set(X._derived)


def test_reoriented_complex_has_its_own_free_complex():
    X = embedded_hull(minimize(EX61_GENERATORS))
    F = cellular_complex(X)
    edge = X.faces_of_dim(1)[0]
    Xr = reoriented(X, {edge})
    Fr = cellular_complex(Xr)
    assert Fr is not F
    j = F.basis(1).index(edge)
    for row, row_r in zip(dense_matrix(F, 1), dense_matrix(Fr, 1)):
        assert row_r[j].sign == -row[j].sign
    assert cellular_complex(X) is F
    assert residue_current(Xr).entries == residue_current(X).entries


def test_flipped_copy_starts_with_the_vertex_only_objects():
    X = embedded_hull(minimize(EX61_GENERATORS))
    residue_current(X)
    Xr = reoriented(X, {X.faces_of_dim(X.dim)[0]})
    assert set(Xr._derived) == {"_vertex_barycentrics", "corner_simplex_complex",
                                "vertex_ideal"}
    for name, value in Xr._derived.items():
        assert value is X._derived[name]
    assert residue_current(Xr) is not residue_current(X)


@pytest.mark.parametrize("job", [EX61, M2_IN_4], ids=["n3", "n4"])
def test_reoriented_chain_maps_differ_exactly_on_the_flipped_faces(job):
    # the copy reads its own orientations: each entry of a flipped face of
    # X that a face of the simplex carries, the non-simplex of m^2 in 4
    # variables among them, changes sign, and every other entry stays
    X = embedded_hull(minimize([tuple(g) for g in job["generators"]]))
    maps = chain_maps(X)
    flips = set(sorted(X.faces)[::2])
    Xr = reoriented(X, flips)
    maps_r = chain_maps(Xr)
    assert maps_r is not maps and verify_chain_maps(Xr) is None
    carried, changed = set(), set()
    for k in range(X.n):
        rows = maps.target.basis(k)
        assert maps_r.target.basis(k) == rows
        for column, column_r in zip(maps.columns[k], maps_r.columns[k], strict=True):
            assert column.keys() == column_r.keys()
            carried |= {rows[i] for i in column}
            changed |= {rows[i] for i, sign in column.items() if column_r[i] == -sign}
    assert changed == {fid for fid in flips & carried if X.face(fid).dim >= 1} != set()
    assert any(len(fid) > X.face(fid).dim + 1 for fid in changed) == (job is M2_IN_4)


def test_subcomplex_has_its_own_free_complex():
    X = embedded_hull(minimize(EX61_GENERATORS))
    F = cellular_complex(X)
    sub = subcomplex_leq(X, (1, 1, 1))  # the rebuilt subcomplex of the oracles
    F_sub = cellular_complex(sub)
    assert F_sub is not F
    assert len(F_sub.basis(0)) == 3 < len(F.basis(0)) == 6
    assert cellular_complex(X).basis(0) == F.basis(0)


def test_non_refining_complex_raises_the_same_message_again():
    M = minimize(EX61_GENERATORS)
    X = scarf_complex(M)
    messages = []
    for _ in range(2):
        with pytest.raises(PreconditionError) as err:
            residue_current(X)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == (
        "complex does not refine the corner simplex: "
        "face (0, 1, 2) is covered with volume 0"
    )


def test_changed_copies_leave_the_stored_objects_alone():
    M = minimize(EX61_GENERATORS)
    X = embedded_hull(M)
    R = residue_current(X)
    entries = dict(R.entries)
    dropped = dict(R.entries)
    del dropped[next(iter(dropped))]
    assert duality_counterexample(ResidueCurrent(R.n, dropped), M) is not None
    assert residue_current(X).entries == entries
    assert duality_counterexample(residue_current(X), M) is None

    maps = chain_maps(X)
    stored = [dict(column) for column in maps.columns[1]]
    corrupted = flip_sign(maps, 1)
    assert _verify_square(corrupted) is not None
    assert verify_chain_maps(X) is None
    assert list(chain_maps(X).columns[1]) == stored != list(corrupted.columns[1])
