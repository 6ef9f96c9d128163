"""Byte-identity of the command line against recorded outputs.

``tests/data/cli_golden.json`` holds, for each case, the argument list, the
JSON job read from stdin, the exact stdout and the exit code.  A complex file
named ``file:@<name>`` in the arguments is written from the recorded
``files`` entry first.  Regenerate the record only when an output change is
intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest

from cellres.cli import SUBCOMMANDS, run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

EX61 = {
    "n": 3,
    "generators": [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]],
}
M2_IN_4 = {
    "n": 4,
    "generators": [list(e) for e in product(range(3), repeat=4) if sum(e) == 2],
}
STAIRCASE = {"n": 2, "generators": [[4, 0], [3, 1], [1, 2], [0, 4]]}
# Scarf tops keep their own orientation, so the current's signs show the
# same-span rule: residue --complex scarf prints sign -1 on face [1, 2, 4]
GENERIC = {
    "n": 3,
    "generators": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [2, 1, 0], [0, 2, 1], [1, 0, 2]],
}
M3_IN_2 = {"n": 2, "generators": [[3, 0], [2, 1], [1, 2], [0, 3]]}
# a tree on the generators of M3_IN_2 that refines its corner segment but
# is no resolution: z1z2^2 (vertex 2) and z2^3 (vertex 3) share no edge
# whose label divides z1z2^3, so exactness fails at degree (1, 3)
TREE = {
    "vertices": [{"id": i, "coords": [x, 0], "label": g}
                 for i, (x, g) in enumerate(zip((0, 2, 1, 3), M3_IN_2["generators"]))],
    "faces": [{"vertices": [0, 2]}, {"vertices": [1, 2]}, {"vertices": [1, 3]}],
}
# one variable: the hull of the one lifted point z1^3 is a single vertex
CUBE_IN_1 = {"n": 1, "generators": [[3]]}


def _cases():
    cases = [([sub], EX61) for sub in SUBCOMMANDS]
    for source in ("scarf", "taylor", "file:@minimal"):
        for sub in ("residue", "compare", "check-exact", "fundamental-cycle",
                    "resolve", "check-minimal"):
            cases.append(([sub, "--complex", source], EX61))
    cases += [([sub, "--complex", "file:@bases"], EX61)
              for sub in ("resolve", "compare", "residue", "check-exact",
                          "check-minimal", "fundamental-cycle", "duality-check")]
    cases += [([sub, "--complex", "file:@minimal-bases"], EX61)
              for sub in ("resolve", "compare", "residue")]
    cases += [([sub, "--complex", "file:@tree"], M3_IN_2)
              for sub in ("residue", "check-exact")]
    cases.append((["fundamental-cycle"], M2_IN_4))
    cases += [([sub, "--complex", "scarf"], GENERIC)
              for sub in ("residue", "compare", "fundamental-cycle")]
    cases += [(["partition", "--order", order], STAIRCASE) for order in ("P", "Q")]
    cases += [([sub], CUBE_IN_1)
              for sub in ("hull", "scarf", "check-exact", "resolve", "compare", "residue",
                          "fundamental-cycle")]
    return cases


def _invoke(args, job, files, directory):
    argv = []
    for arg in args:
        if arg.startswith("file:@"):
            path = Path(directory) / f"{arg[len('file:@'):]}.json"
            path.write_text(json.dumps(files[arg[len("file:@"):]]))
            arg = f"file:{path}"
        argv.append(arg)
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(job))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return out.getvalue(), code


def _bases_json(X):
    """The Example 6.1 embedded hull's file with two orientation bases
    given: the inner edge (1, 2) negated and the top face (0, 1, 2) with
    its two vectors swapped, so that the signs a given basis sets show in
    the output."""
    from cellres import complex_to_json
    from oracles import sign_oracle

    obj = complex_to_json(X)
    basis = sign_oracle(X).oriented_tops().bases
    given = {(1, 2): [[-x for x in basis[1, 2][0]]],
             (0, 1, 2): [list(b) for b in reversed(basis[0, 1, 2])]}
    for face in obj["faces"]:
        if tuple(face["vertices"]) in given:
            face["orientation_basis"] = given[tuple(face["vertices"])]
    return obj


def _minimal_bases_json(minimal):
    """The minimal-resolution file with two orientation bases given: the
    square (0, 1, 2, 4) with its two default vectors swapped and its edge
    (0, 1) negated, so that the sides of a face that is no simplex are read
    against given bases."""
    from cellres.complexfile import complex_from_json
    from oracles import sign_oracle

    basis = sign_oracle(complex_from_json(minimal)).oriented_tops().bases
    given = {(0, 1): [[-x for x in basis[0, 1][0]]],
             (0, 1, 2, 4): [list(b) for b in reversed(basis[0, 1, 2, 4])]}
    faces = [dict(face, orientation_basis=given[tuple(face["vertices"])])
             if tuple(face["vertices"]) in given else face for face in minimal["faces"]]
    return dict(minimal, faces=faces)


def _record():
    from cellres import minimize
    from conftest import embedded_hull, minimal_ex61_json

    X = embedded_hull(minimize([tuple(g) for g in EX61["generators"]]))
    minimal = minimal_ex61_json(X)
    files = {"minimal": minimal, "bases": _bases_json(X),
             "minimal-bases": _minimal_bases_json(minimal), "tree": TREE}
    cases = []
    with tempfile.TemporaryDirectory() as directory:
        for args, job in _cases():
            stdout, code = _invoke(args, job, files, directory)
            cases.append({"args": args, "stdin": job, "stdout": stdout, "code": code})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")


_RECORD = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"files": {}, "cases": []}


def _case_id(case):
    name = " ".join(case["args"]).replace("file:@", "file:")
    # the cases on GENERIC and CUBE_IN_1 repeat arguments of cases on Example 6.1
    suffix = {"generic": GENERIC, "n1": CUBE_IN_1}
    return next((f"{name} {key}" for key, job in suffix.items() if case["stdin"] == job), name)


@pytest.mark.parametrize("case", _RECORD["cases"], ids=_case_id)
def test_cli_output_matches_record(case, tmp_path):
    stdout, code = _invoke(case["args"], case["stdin"], _RECORD["files"], tmp_path)
    assert code == case["code"]
    assert stdout == case["stdout"]


def _keys(value):
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from _keys(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _keys(v)


def test_payload_keys_are_strings(monkeypatch, tmp_path):
    # json.dumps turns int keys into strings itself; the handlers must not
    # lean on it, so the payload handed to _emit has str keys throughout
    from cellres import cli

    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: (payloads.append(payload),
                                                       emit(payload)))
    for case in _RECORD["cases"]:
        _invoke(case["args"], case["stdin"], _RECORD["files"], tmp_path)
    assert len(payloads) == len(_RECORD["cases"])
    assert all(isinstance(k, str) for payload in payloads for k in _keys(payload))


def test_record_covers_every_case():
    assert [(c["args"], c["stdin"]) for c in _RECORD["cases"]] == [
        (args, job) for args, job in _cases()
    ]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    _record()
