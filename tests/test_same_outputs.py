import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_outputs  # noqa: E402


def test_differences_names_changed_and_missing_jobs():
    base = {"a": (0, "x\n"), "b": (1, "y\n"), "c": (0, "z\n"), "e": (0, "w\n")}
    head = {"a": (0, "x\n"), "b": (0, "y\n"), "d": (0, "z\n"), "e": (0, "w \n")}
    # b changes its exit code, e its stdout, and c and d are each on one side
    assert same_outputs.differences(base, head) == ["b", "c", "d", "e"]
    assert same_outputs.differences(base, dict(base)) == []


def test_resolve_compare_and_check_minimal_run_also_on_scarf_and_taylor():
    def job(i, command, *complex_file, ideal="ideal"):
        argv = [command, "--input", f"{ideal}.json"]
        if complex_file:
            argv += ["--complex", "file:" + complex_file[0]]
        return {"id": f"{i:02d} {command} {ideal}", "command": command, "argv": argv,
                "ideal": ideal}

    manifest = {
        "ideals": {"ideal": [[9 - i, i] for i in range(10)],
                   "wide": [[10 - i, i] for i in range(11)]},
        "jobs": [job(0, "compare"), job(1, "residue"), job(2, "resolve", "x.json"),
                 job(3, "check-minimal"), job(5, "fundamental-cycle"),
                 job(6, "multiplicity"), job(7, "check-exact"),
                 job(8, "check-exact", ideal="wide"), job(9, "annihilator"),
                 job(10, "duality-check")],
        "setup": job(4, "generators"),
    }
    argvs = same_outputs.job_argvs(manifest)
    # residue, annihilator, duality-check and fundamental-cycle too, so that
    # the current's signs are compared, and check-exact, so that the
    # witnesses of inexact complexes are
    assert list(argvs) == [
        "00 compare ideal", "00 compare ideal --complex scarf",
        "00 compare ideal --complex taylor", "01 residue ideal",
        "01 residue ideal --complex scarf", "01 residue ideal --complex taylor",
        "02 resolve ideal", "03 check-minimal ideal",
        "03 check-minimal ideal --complex scarf", "03 check-minimal ideal --complex taylor",
        "05 fundamental-cycle ideal", "05 fundamental-cycle ideal --complex scarf",
        "05 fundamental-cycle ideal --complex taylor", "06 multiplicity ideal",
        "07 check-exact ideal", "07 check-exact ideal --complex scarf",
        "07 check-exact ideal --complex taylor",
        # 11 generators: a Taylor complex of 2^11 faces is left out
        "08 check-exact wide", "08 check-exact wide --complex scarf",
        "09 annihilator ideal", "09 annihilator ideal --complex scarf",
        "09 annihilator ideal --complex taylor", "10 duality-check ideal",
        "10 duality-check ideal --complex scarf", "10 duality-check ideal --complex taylor",
        "04 generators ideal",
    ]
    assert argvs["03 check-minimal ideal --complex taylor"] == [
        "check-minimal", "--input", "ideal.json", "--complex", "taylor"]
    assert argvs["02 resolve ideal"] == manifest["jobs"][2]["argv"]
