import json

import pytest

from cellres.cli import run
from oracles import multiplicity_by_inclusion_exclusion

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
    code, out = invoke(capsys, monkeypatch, ["duality-check", "--box", "2,2"], EX61)
    assert code == 2 and "--box" in out["error"]


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


def test_jobspec_options(tmp_path, capsys, monkeypatch):
    job = {
        "ideal": STAIRCASE,
        "complex_source": "hull",
        "options": {"t": 10, "box": [2, 2]},
    }
    code, out = invoke(capsys, monkeypatch, ["duality-check"], job)
    assert code == 0 and out["ok"]


def test_input_errors_exit_2(tmp_path, capsys, monkeypatch, ex61_minimal_fixture):
    code, out = invoke(capsys, monkeypatch, ["residue"], text="{oops")
    assert code == 2 and "position" in out["error"]
    code, out = invoke(capsys, monkeypatch, ["residue"], {"ideal": STAIRCASE, "x": 1})
    assert code == 2 and "unknown job keys" in out["error"]
    code, out = invoke(
        capsys, monkeypatch, ["residue"],
        {"ideal": STAIRCASE, "options": {"tt": 1}},
    )
    assert code == 2 and "unknown option keys" in out["error"]
    code, out = invoke(
        capsys, monkeypatch, ["residue"],
        {"ideal": STAIRCASE, "options": {"seed": 1}},
    )
    assert code == 2 and "unknown option keys: ['seed']" in out["error"]
    with pytest.raises(SystemExit) as exc:
        run(["residue", "--seed", "1"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    for options, message in (
        ({"t": "x"}, "option t must be an integer"),
        ({"t": 30.0}, "option t must be an integer"),
        ({"box": 5}, "option box must be 2 nonnegative integers"),
    ):
        code, out = invoke(
            capsys, monkeypatch, ["duality-check"],
            {"ideal": STAIRCASE, "options": options},
        )
        assert code == 2 and message in out["error"]
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
    from cellres import complex_to_json, delta_complex

    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(complex_to_json(delta_complex((2, 2, 2)))))
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


def test_non_string_complex_source_exits_2(capsys, monkeypatch):
    # a number, list or boolean used to reach str.startswith and crash
    for source in (5, ["hull"], False):
        for sub in ("residue", "duality-check", "fundamental-cycle", "generators"):
            code, out = invoke(
                capsys, monkeypatch, [sub], {"ideal": EX61, "complex_source": source}
            )
            assert code == 2, (sub, source)
            assert out["error"] == f"complex_source must be a string, got {source!r}"
    code, out = invoke(
        capsys, monkeypatch, ["residue"], {"ideal": EX61, "complex_source": None}
    )
    assert code == 0 and len(out["entries"]) == 4


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
