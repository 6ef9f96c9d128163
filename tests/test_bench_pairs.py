import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_summarize_counts_wins_by_direction():
    runs = [{"base": 1.0, "head": 2.0}, {"base": 2.0, "head": 1.5},
            {"base": 3.0, "head": 3.0}, {"base": 4.0, "head": 5.0},
            {"base": 5.0, "head": 6.0}]
    higher = bench_pairs.summarize(runs, "higher")
    assert (higher["pairs"], higher["pairs_better"], higher["pairs_worse"]) == (5, 3, 1)
    assert higher["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert higher["head"]["median"] == 3.0
    lower = bench_pairs.summarize(runs, "lower")
    assert (lower["pairs_better"], lower["pairs_worse"]) == (1, 3)


def test_tree_with_package_bytecode_is_refused(tmp_path):
    (tmp_path / "src" / "cellres").mkdir(parents=True)
    bench_pairs.check_tree(tmp_path)
    (tmp_path / "src" / "cellres" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="__pycache__"):
        bench_pairs.check_tree(tmp_path)


def test_untracked_code_is_refused(monkeypatch):
    status = " M src/cellres/hull.py\n?? src/cellres/new.py"
    monkeypatch.setattr(bench_pairs, "git", lambda *args: status)
    with pytest.raises(SystemExit, match="src/cellres/new.py"):
        bench_pairs.check_tracked()
    status = " M src/cellres/hull.py"
    bench_pairs.check_tracked()
