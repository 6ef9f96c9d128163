import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_summarize_counts_wins_by_direction():
    runs = [{"base": 1.0, "head": 2.0}, {"base": 2.0, "head": 1.5},
            {"base": 3.0, "head": 3.0}, {"base": 4.0, "head": 5.0},
            {"base": 5.0, "head": 6.0}]
    higher = bench_pairs.summarize(runs, "higher", 0.25)
    assert (higher["pairs"], higher["pairs_better"], higher["pairs_worse"]) == (5, 3, 1)
    assert higher["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert higher["head"]["median"] == 3.0
    lower = bench_pairs.summarize(runs, "lower", 0.25)
    assert (lower["pairs_better"], lower["pairs_worse"]) == (1, 3)


def _pairs(base, head):
    return [{"base": b, "head": h} for b, h in zip(base, head)]


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_median_worse_than_the_bound_regresses():
    # lower is better: the change's median 13.0 is 30% above the parent's 10.0
    summary = bench_pairs.summarize(_pairs(TIGHT, [x + 3.0 for x in TIGHT]), "lower", 0.25)
    assert summary["worse_by"] == pytest.approx(0.3)
    assert summary["verdict"] == "regressed"


def test_wide_parent_runs_without_separation_are_unresolved():
    # the parent's quartiles lie 10.0 apart around a median of 10.0, and
    # the change, better in every pair, still has runs below the parent's
    # best
    base = [5.0, 15.0] * 5
    summary = bench_pairs.summarize(_pairs(base, [x + 0.5 for x in base]), "higher", 0.25)
    assert summary["pairs_better"] == 10
    assert summary["worse_by"] == pytest.approx(-0.05)
    assert summary["verdict"] == "unresolved"
    separated = bench_pairs.summarize(_pairs(base, [21.0] * 10), "higher", 0.25)
    assert separated["verdict"] == "gain"


def test_nine_wins_beyond_the_parent_spread_gain():
    head = [x + 1.0 for x in TIGHT[:-1]] + [TIGHT[-1]]
    summary = bench_pairs.summarize(_pairs(TIGHT, head), "higher", 0.25)
    assert summary["pairs_better"] == 9
    assert summary["worse_by"] < 0
    assert summary["verdict"] == "gain"


def test_small_moves_are_no_regression():
    # eight wins, or a gain inside the parent's q3 - q1, is no gain
    head = [x + 1.0 for x in TIGHT[:-2]] + TIGHT[-2:]
    assert bench_pairs.summarize(_pairs(TIGHT, head), "higher", 0.25)["verdict"] == (
        "no_regression")
    head = [x + 0.05 for x in TIGHT]
    summary = bench_pairs.summarize(_pairs(TIGHT, head), "higher", 0.25)
    assert summary["pairs_better"] == 10
    assert summary["verdict"] == "no_regression"


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
