import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cellres import (
    PreconditionError,
    cellular_complex,
    chain_maps,
    complex_from_json,
    scarf_complex,
    taylor_complex,
)
from cellres.cli import run
from conftest import (
    DUPLICATE_CORNER_JSON,
    artinian_ideals_2_to_4,
    drawn_bases_file,
    embedded_hull,
)
from oracles import (
    comparison_square_failure,
    dense_map,
    dense_matrix,
    multiplicity_by_inclusion_exclusion,
)

EX61 = {
    "n": 3,
    "generators": [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]],
}
STAIRCASE = {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]]}


def invoke(capsys, monkeypatch, args, payload=None, text=None):
    import io
    import sys

    if text is None:
        text = json.dumps(payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = run(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_generators(capsys, monkeypatch):
    code, out = invoke(
        capsys, monkeypatch, ["generators"],
        {"n": 2, "generators": [[2, 0], [1, 1], [0, 2], [2, 1]]},
    )
    assert code == 0
    assert out["schema"] == "cellres/1"
    assert out["generators"] == [[2, 0], [1, 1], [0, 2]]


def test_multiplicity(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["multiplicity"], EX61)
    assert code == 0 and out["multiplicity"] == 4


def test_residue_ex61(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["residue"], EX61)
    assert code == 0
    assert len(out["entries"]) == 4
    assert {"face": [1, 2, 4], "sign": 1, "alpha": [1, 1, 1]} in out["entries"]


def test_check_exact_taylor(capsys, monkeypatch):
    code, out = invoke(
        capsys, monkeypatch, ["check-exact", "--complex", "taylor"], EX61
    )
    assert code == 0 and out == {"ok": True, "witness": None, "schema": "cellres/1"}


def test_check_minimal_verdict_exit_code(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["check-minimal"], EX61)
    assert code == 1
    assert not out["ok"]
    assert out["witness"] == [[1, 2], [1, 2, 4]]


def test_resolve_matrices(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["resolve"], STAIRCASE)
    assert code == 0
    assert out["levels"]["-1"] == [[]]
    phi0 = out["matrices"]["0"]
    assert phi0[0][0] == {"sign": 1, "exp": [2, 0]}
    phi1 = out["matrices"]["1"]
    signs = {(i, j): cell["sign"] for i, row in enumerate(phi1) for j, cell in enumerate(row)}
    assert signs[(0, 0)] == -1 and signs[(1, 0)] == 1


def test_compare(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["compare"], EX61)
    assert code == 0 and out["ok"] and out["witness"] is None
    assert out["maps"]["-1"] == [[{"sign": 1, "exp": [0, 0, 0]}]]


def test_duality_check(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["duality-check"], EX61)
    assert code == 0 and out["ok"] and out["counterexample"] is None


def test_annihilator(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["annihilator", "--beta", "1,1,0"], EX61)
    assert code == 0 and out["annihilates"]
    code, out = invoke(capsys, monkeypatch, ["annihilator", "--beta", "1,0,0"], EX61)
    assert not out["annihilates"]
    assert sorted(c["alpha"] for c in out["components"]) == [
        [1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1],
    ]
    for beta in ("1,1", "-1,5,5"):
        code, out = invoke(capsys, monkeypatch, ["annihilator", f"--beta={beta}"], EX61)
        assert code == 2 and "--beta" in out["error"]


def test_fundamental_cycle(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["fundamental-cycle"], STAIRCASE)
    assert code == 0 and out["ok"]
    assert out["lhs"] == out["n_factorial_times_m"] == 6
    assert out["per_permutation"]["1,2"] == {
        "lhs": -3, "expected": -3, "ok": True, "asserted": True,
    }
    assert out["per_permutation"]["2,1"]["ok"]


def test_permutation_parse_errors_exit_2(capsys, monkeypatch):
    for text in ("a,b", "1,2;x", "1,,2"):
        code, out = invoke(
            capsys, monkeypatch, ["fundamental-cycle", "--permutations", text], EX61
        )
        assert code == 2 and "permutations" in out["error"]


def test_malformed_flags_exit_2_before_the_complex_is_built(capsys, monkeypatch):
    # a hull of many generators takes long to build, so a flag's fault is
    # named first; that a list is a permutation is checked on the complex
    from cellres import cli

    built = []
    monkeypatch.setattr(cli, "_build_complex", lambda M, args: built.append(args))
    for args, flag in ((["annihilator", "--beta", "1,1"], "--beta"),
                       (["annihilator", "--beta", "a"], "integer vector"),
                       (["fundamental-cycle", "--permutations", "a"], "permutations")):
        code, out = invoke(capsys, monkeypatch, args, EX61)
        assert code == 2 and flag in out["error"]
    assert built == []


def test_large_exponents(capsys, monkeypatch):
    big = {
        "n": 3,
        "generators": [
            [1000, 0, 0], [0, 1000, 0], [0, 0, 1000], [400, 300, 200], [100, 600, 500],
        ],
    }
    m = multiplicity_by_inclusion_exclusion(big["generators"], (1000, 1000, 1000))
    code, out = invoke(capsys, monkeypatch, ["multiplicity"], big)
    assert code == 0 and out["multiplicity"] == m
    code, out = invoke(capsys, monkeypatch, ["duality-check"], big)
    assert code == 0 and out["ok"] is True and out["counterexample"] is None
    code, out = invoke(capsys, monkeypatch, ["fundamental-cycle"], big)
    assert code == 0 and out["ok"] is True
    assert out["lhs"] == out["n_factorial_times_m"] == 6 * m


def test_huge_lift_is_refused_before_it_is_computed(capsys, monkeypatch):
    # 8^100000000 has more than 10^8 bits; computing it does not end
    huge = {"n": 2, "generators": [[100000000, 0], [0, 1]]}
    for command in ("hull", "scarf", "check-exact"):
        start = time.perf_counter()
        code, out = invoke(capsys, monkeypatch, [command], huge)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out["error"].startswith("lifted coordinate ")


def test_fundamental_cycle_nongeneric_reported(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["fundamental-cycle"], EX61)
    assert code == 0 and out["ok"]
    assert all(not p["asserted"] for p in out["per_permutation"].values())


def test_partition(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["partition", "--order", "P"], STAIRCASE)
    assert code == 0 and out["ok"]
    assert out["rectangles"] == [
        {"x": [0, 2], "y": [0, 1], "area": 2},
        {"x": [0, 1], "y": [1, 2], "area": 1},
    ]
    assert out["total_area"] == out["multiplicity"] == 3


def test_hull_output_rational_strings(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["hull"], STAIRCASE)
    assert code == 0
    assert len(out["vertices"]) == 3
    for v in out["vertices"]:
        for c in v["coords"]:
            num, den = c.split("/")
            int(num), int(den)
    assert [f["vertices"] for f in out["faces"]] == [[0, 1], [1, 2]]


def test_scarf_subcommand(capsys, monkeypatch):
    code, out = invoke(capsys, monkeypatch, ["scarf"], EX61)
    assert code == 0
    assert [1, 2, 4] not in [f["vertices"] for f in out["faces"]]


def test_residue_through_scarf_source(capsys, monkeypatch):
    # a generic ideal: the unique-lcm complex is a minimal resolution, so
    # the scarf route agrees with the hull route
    job = {"n": 2, "generators": [[3, 0], [1, 2], [0, 4]]}
    code_h, out_h = invoke(capsys, monkeypatch, ["residue"], job)
    code_s, out_s = invoke(capsys, monkeypatch, ["residue", "--complex", "scarf"], job)
    assert code_h == code_s == 0
    assert out_h["entries"] == out_s["entries"]


def test_non_refining_scarf_source_names_the_failure(capsys, monkeypatch):
    # Example 6.1 is not generic: its Scarf complex has no triangle at all
    code, out = invoke(capsys, monkeypatch, ["residue", "--complex", "scarf"], EX61)
    assert code == 2
    assert out["error"] == (
        "complex does not refine the corner simplex: "
        "face (0, 1, 2) is covered with volume 0"
    )


def test_file_complex_source(tmp_path, capsys, monkeypatch, ex61_minimal_fixture):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(ex61_minimal_fixture))
    code, out = invoke(
        capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], EX61
    )
    assert code == 0
    assert len(out["entries"]) == 3
    assert all(e["sign"] == 1 for e in out["entries"])


def test_settings_come_from_flags(capsys, monkeypatch):
    code, out = invoke(
        capsys, monkeypatch, ["duality-check", "--complex", "hull", "--t", "10"],
        STAIRCASE,
    )
    assert code == 0 and out["ok"]
    code, out = invoke(
        capsys, monkeypatch, ["fundamental-cycle", "--permutations", "2,1"], STAIRCASE
    )
    assert code == 0 and list(out["per_permutation"]) == ["2,1"]


def test_input_errors_exit_2(tmp_path, capsys, monkeypatch, ex61_minimal_fixture):
    code, out = invoke(capsys, monkeypatch, ["residue"], text="{oops")
    assert code == 2 and "position" in out["error"]
    with pytest.raises(SystemExit) as exc:
        run(["residue", "--seed", "1"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    code, out = invoke(capsys, monkeypatch, ["residue", "--t", "3"], STAIRCASE)
    assert code == 2 and "lift base" in out["error"]
    code, out = invoke(
        capsys, monkeypatch, ["residue"], {"n": 2, "generators": [[1, 1]]}
    )
    assert code == 2  # not Artinian: precondition violation
    code, out = invoke(
        capsys, monkeypatch, ["multiplicity"], {"n": True, "generators": [[3]]}
    )
    assert code == 2 and "n must be a positive integer" in out["error"]
    truncated = json.loads(json.dumps(ex61_minimal_fixture))
    truncated["vertices"][0]["label"] = [2.7, 0, 0]
    path = tmp_path / "bad-label.json"
    path.write_text(json.dumps(truncated))
    code, out = invoke(capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], EX61)
    assert code == 2 and "label" in out["error"]
    # a listed diagonal of the unit square is not one of its faces
    square = {
        "vertices": [{"id": v, "coords": list(p), "label": [1, 1]}
                     for v, p in enumerate([(0, 0), (1, 0), (1, 1), (0, 1)])],
        "faces": [{"vertices": f} for f in
                  ([0, 1, 2, 3], [0, 1], [1, 2], [2, 3], [0, 3], [0, 2])],
    }
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(square))
    code, out = invoke(capsys, monkeypatch, ["check-exact", "--complex", f"file:{path}"],
                       {"n": 2, "generators": [[1, 1]]})
    assert code == 2 and out["error"] == (
        "face (0, 2) lies in face (0, 1, 2, 3) but is not one of its faces"
    )
    # a face that lists a vertex twice is no face
    path = tmp_path / "repeated-vertex.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v, "coords": list(p), "label": list(g)} for v, p, g in
                     zip(range(3), [(5, 1), (3, 3), (1, 5)], STAIRCASE["generators"])],
        "faces": [{"vertices": f} for f in ([0, 1], [0, 1, 1], [1, 2])],
    }))
    code, out = invoke(capsys, monkeypatch, ["resolve", "--complex", f"file:{path}"],
                       STAIRCASE)
    assert code == 2 and out["error"] == "face (0, 1, 1) lists a vertex twice"
    # past the interpreter's int-string limit, json raises a plain ValueError
    huge = "9" * 5000
    code, out = invoke(
        capsys, monkeypatch, ["generators"], text=f'{{"n":1,"generators":[[{huge}]]}}'
    )
    assert code == 2 and out["error"].startswith("JSON has an integer literal longer")
    path = tmp_path / "huge-label.json"
    path.write_text(json.dumps(ex61_minimal_fixture).replace("[2, 0, 0]", f"[{huge}, 0, 0]", 1))
    code, out = invoke(capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], EX61)
    assert code == 2 and out["error"].startswith("complex JSON has an integer literal longer")
    code, out = invoke(capsys, monkeypatch, ["generators"], text="[" * 100000)
    assert code == 2 and out["error"] == "JSON nests too deeply"
    # the multiplicity a^2 of (z1^a, z2^a) has 6000 digits: too long to print
    a = "9" * 3000
    code, out = invoke(
        capsys, monkeypatch, ["multiplicity"], text=f'{{"n":2,"generators":[[{a},0],[0,{a}]]}}'
    )
    assert code == 2 and out["error"] == (
        f"result has an integer longer than {sys.get_int_max_str_digits()} digits"
    )
    # the lift base is 7, so the vertex coordinate 7^6000 has 5071 digits,
    # and the hull's recheck at 8 lifts to 8^6000, 5419 digits: both are
    # refused before the power is taken, with a lower bound on the digits
    wide = {"n": 2, "generators": [[6000, 0], [0, 6000], [1, 1]]}
    for command, lift, digits in (("hull", "8^6000", 5419), ("scarf", "7^6000", 4967)):
        code, out = invoke(capsys, monkeypatch, [command], wide)
        assert code == 2 and out["error"] == (
            f"lifted coordinate {lift} has at least {digits} digits, "
            f"more than {sys.get_int_max_str_digits()}"
        )
    # a file that is not UTF-8, as the job and as the complex
    path = tmp_path / "latin-1.json"
    path.write_bytes(b'{"n":1,"generators":[[4]]}\xff')
    code, out = invoke(capsys, monkeypatch, ["generators", "--input", str(path)])
    assert code == 2 and out["error"] == "malformed JSON at byte 26: not UTF-8"
    code, out = invoke(capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], EX61)
    assert code == 2 and out["error"] == "malformed complex JSON at byte 26: not UTF-8"


def test_stdin_that_is_not_utf8_exits_2(capsys, monkeypatch):
    # a job on stdin is refused as the same bytes are with --input, however
    # strictly the stream decodes
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code = run(["generators"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "malformed JSON at byte 0: not UTF-8"


def test_stdin_that_is_not_utf8_exits_2_in_a_subprocess():
    import os
    import subprocess

    result = subprocess.run(
        [sys.executable, "-m", "cellres.cli", "generators"], input=b"\xff\xfe{",
        capture_output=True, env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["error"] == "malformed JSON at byte 0: not UTF-8"


def test_coordinate_past_the_digit_limit_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # Fraction("1e10000000") alone takes seconds; the exact value of either
    # exponent sign needs more digits than the int-string limit allows
    import time

    job = {"n": 2, "generators": [[2, 0], [0, 2]]}
    path = tmp_path / "segment.json"
    for coordinate, code in (("1e10000000", 2), ("1e-10000000", 2),
                             ("1/3", 0), ("0.5", 0), ("1e3", 0)):
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "coords": ["0"], "label": [2, 0]},
                         {"id": 1, "coords": [coordinate], "label": [0, 2]}],
            "faces": [{"vertices": [0, 1]}],
        }))
        start = time.perf_counter()
        got, out = invoke(capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], job)
        assert time.perf_counter() - start < 0.5, coordinate
        assert got == code, coordinate
        if code == 2:
            assert out["error"] == (f"coordinate {coordinate!r} needs more than "
                                    f"{sys.get_int_max_str_digits()} digits")
        else:
            assert len(out["entries"]) == 1


def test_non_artinian_multiplicity_precondition(capsys, monkeypatch):
    code, out = invoke(
        capsys, monkeypatch, ["multiplicity"], {"n": 2, "generators": [[1, 1]]}
    )
    assert code == 2 and "Artinian" in out["error"]


def test_deterministic_output(capsys, monkeypatch):
    import io
    import sys

    outputs = []
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(EX61)))
        run(["residue"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_entry_point_subprocess(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "job.json"
    path.write_text(json.dumps(STAIRCASE))
    result = subprocess.run(
        [sys.executable, "-m", "cellres.cli", "multiplicity", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["multiplicity"] == 3


def test_file_complex_for_another_ideal_exits_2(tmp_path, capsys, monkeypatch):
    # the simplex on z1^2, z2^2, z3^2 resolves (z1^2, z2^2, z3^2), not the
    # ideal of Example 6.1; every subcommand that reads a complex refuses it
    from cellres import complex_to_json
    from conftest import complete_intersection, embedded_hull

    path = tmp_path / "simplex.json"
    simplex = embedded_hull(complete_intersection((2, 2, 2)))
    path.write_text(json.dumps(complex_to_json(simplex)))
    for sub in (
        "resolve", "check-exact", "check-minimal", "residue", "compare",
        "annihilator", "duality-check", "fundamental-cycle",
    ):
        code, out = invoke(capsys, monkeypatch, [sub, "--complex", f"file:{path}"], EX61)
        assert code == 2, sub
        assert out["error"] == "vertex labels do not generate the given ideal", sub
    job = {"n": 3, "generators": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}
    code, out = invoke(capsys, monkeypatch, ["residue", "--complex", f"file:{path}"], job)
    assert code == 0 and len(out["entries"]) == 1


def test_a_face_with_an_open_boundary_exits_2(tmp_path, capsys, monkeypatch,
                                             ex61_minimal_fixture):
    # the square of Example 6.1's minimal resolution without its edge
    # (0, 2): the reader refuses it, where d^2 = 0 or the containment
    # check failed later
    faces = [f for f in ex61_minimal_fixture["faces"] if f["vertices"] != [0, 2]]
    path = tmp_path / "open-square.json"
    path.write_text(json.dumps({**ex61_minimal_fixture, "faces": faces}))
    for sub in ("check-exact", "resolve", "residue", "compare"):
        code, out = invoke(capsys, monkeypatch, [sub, "--complex", f"file:{path}"], EX61)
        assert code == 2, sub
        assert out["error"] == (
            "face (0, 1, 2, 4): boundary is not covered by listed faces"), sub


def test_support_and_geometry_disagreement_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "duplicate-corner.json"
    path.write_text(json.dumps(DUPLICATE_CORNER_JSON))
    job = {"n": 2, "generators": [[2, 0], [0, 2]]}
    for sub in ("compare", "residue"):
        code, out = invoke(capsys, monkeypatch, [sub, "--complex", f"file:{path}"], job)
        assert code == 2, sub
        assert out["error"] == (
            "support and geometry disagree on (1,): X does not refine the simplex"
        ), sub


def test_job_object_exits_2(capsys, monkeypatch):
    # a job is the ideal alone; its settings are flags
    for job in ({"ideal": EX61}, {"ideal": EX61, "complex_source": "taylor"},
                {"ideal": STAIRCASE, "options": {"t": 10}}):
        for sub in ("residue", "duality-check", "fundamental-cycle", "generators"):
            code, out = invoke(capsys, monkeypatch, [sub], job)
            assert code == 2, (sub, job)
            assert out["error"] == 'ideal JSON must be {"n": ..., "generators": [...]}'


def test_check_exact_scans_non_minimal_vertex_labels(tmp_path, capsys, monkeypatch):
    # the path z1^2 - z2^2 - z1^2 z2 on a line: its vertex labels generate
    # (z1^2, z2^2), but under (2, 1) it is the two points z1^2 and z1^2 z2,
    # a degree outside the lcm lattice {(2,0), (0,2), (2,2)} of the ideal
    path = tmp_path / "path.json"
    path.write_text(json.dumps({
        "n": 2,
        "vertices": [
            {"id": 0, "coords": [0], "label": [2, 0]},
            {"id": 1, "coords": [1], "label": [0, 2]},
            {"id": 2, "coords": [2], "label": [2, 1]},
        ],
        "faces": [{"vertices": [0, 1]}, {"vertices": [1, 2]}],
    }))
    job = {"n": 2, "generators": [[2, 0], [0, 2]]}
    code, out = invoke(capsys, monkeypatch, ["check-exact", "--complex", f"file:{path}"], job)
    assert code == 1
    assert out == {"ok": False, "witness": [2, 1], "schema": "cellres/1"}


def _dense_json(dense):
    return [[{"sign": e.sign, "exp": e.exp} for e in row] for row in dense]


def _dense_payload(subcommand, X):
    """The payload and exit code of resolve or compare on X, each map
    written from the oracle's dense view and compare's verdict from the
    oracle's polynomial products."""
    if subcommand == "resolve":
        F = cellular_complex(X)
        return {
            "levels": {str(k): F.basis(k) for k in F.levels},
            "matrices": {str(k): _dense_json(dense_matrix(F, k)) for k in F.columns},
        }, 0
    try:
        maps = chain_maps(X)
    except PreconditionError as exc:
        return {"error": str(exc)}, 2
    Y, F = maps.source, maps.target
    witness = comparison_square_failure(F, Y, maps, X.n)
    return {
        "maps": {str(k): _dense_json(dense_map(maps, k)) for k in maps.columns},
        "row_bases": {str(k): F.basis(k) for k in maps.columns},
        "col_bases": {str(k): Y.basis(k) for k in maps.columns},
        "ok": witness is None,
        "witness": witness,
    }, 0 if witness is None else 1


def _stdout_and_code(args, M):
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps({"n": M.n, "generators": M.generators}))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(args)
    finally:
        sys.stdin = stdin
    return out.getvalue(), code


@settings(max_examples=30)
@given(artinian_ideals_2_to_4(), st.data())
def test_resolve_and_compare_print_the_dense_payloads(M, data):
    """resolve and compare print json.dumps of the payload built from the
    oracle's dense views, byte for byte: on the embedded hull, the Scarf
    complex, the Taylor complex and the embedded hull's file with drawn
    faces given other bases, flips among them, each complex drawn once
    for both subcommands."""
    hull = embedded_hull(M)
    complexes = [("hull", hull), ("scarf", scarf_complex(M))]
    if len(M.generators) <= 8:  # the Taylor complex has 2^r faces
        complexes.append(("taylor", taylor_complex(M)))
    obj = drawn_bases_file(hull, data.draw)[0]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "bases.json"
        path.write_text(json.dumps(obj))
        complexes.append((f"file:{path}", complex_from_json(obj)))
        for source, X in complexes:
            for subcommand in ("resolve", "compare"):
                payload, code = _dense_payload(subcommand, X)
                expected = json.dumps({**payload, "schema": "cellres/1"}, sort_keys=True)
                assert _stdout_and_code([subcommand, "--complex", source], M) == (
                    expected + "\n", code), (subcommand, source)
