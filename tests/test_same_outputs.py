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
