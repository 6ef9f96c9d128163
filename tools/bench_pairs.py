"""Alternating parent/change runs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --out BENCH.json

Both revisions are exported with ``git archive`` into fresh sibling
directories of one work directory, so neither run sees the other's files or
the checkout's ignored ones.  Without ``--head`` the change is the working
tree, tracked and staged files, as ``git stash create`` records it; an
untracked file under ``src/`` or ``benchmark/`` would be left out of that
tree, so the tool refuses to run while one exists.  Every workload of
BENCHMARK.json gets ten pairs.  Pair p runs ``python3 benchmark/run.py
--workload W --seed S --seconds 27 --trace 0`` in both trees, the parent
first in even pairs and the change first in odd ones, with the seeds 13 and
17 taken in turn.

Every run gets ``PYTHONDONTWRITEBYTECODE=1``, and a tree holding
``src/cellres/__pycache__`` is refused before each run: a tree with stale
bytecode skips compiling ``src/`` in every job and reads about 20% faster on
hull-dense than the same code without it.

The output holds, per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles, how many pairs the change won (ties count for
neither side), how much worse the change's median is and the verdict of the
benchmark's rule against the metric's bound (see ``summarize``), plus the
line counts of ``src/`` and of ``tests/oracles.py`` in both trees, the
Python version, ``nproc``, both revisions and the git tree ids of both
``src/`` directories, which identify the measured code even when the change
was an uncommitted working tree.

The ``peak_rss_mb`` verdicts say nothing about ``src/``: ``benchmark/run.py``
reads each job's ``ru_maxrss`` from ``os.wait4``, and a child process
inherits the high-water RSS of the process that forked it, across exec.
So the metric reads the benchmark process's own peak whenever that is above
the job's (a ``python3 -c pass`` child of a process that once held 60 MB
more reports about 74 MB).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
PAIRS = 10
SEEDS = (13, 17)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, target: Path) -> None:
    """Write the tree of ``rev`` into the new directory ``target``."""
    target.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def check_tree(tree: Path) -> None:
    """Refuse a tree whose package holds compiled bytecode."""
    if (tree / "src" / "cellres" / "__pycache__").exists():
        raise SystemExit(f"{tree} holds src/cellres/__pycache__; "
                         "stale bytecode would skip compilation in its jobs")


def check_tracked() -> None:
    """Refuse a working tree with untracked files under the measured code,
    which ``git stash create`` would leave out of the change."""
    untracked = [line[3:] for line in
                 git("status", "--porcelain", "--", "src", "benchmark").splitlines()
                 if line.startswith("??")]
    if untracked:
        raise SystemExit("untracked files would be left out of the change: "
                         + ", ".join(untracked))


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def oracle_lines(tree: Path) -> int:
    return len((tree / "tests" / "oracles.py").read_text(encoding="utf-8").splitlines())


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its final JSON line."""
    check_tree(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better: str, bound: float) -> dict:
    """Per-side median and quartiles of one metric over the pairs, how many
    pairs the change won, and the verdict of the benchmark's rule;
    ``runs`` is a list of {"base": v, "head": v}.

    ``worse_by`` is the relative change of the median in the metric's bad
    direction.  The verdict is the first that holds of: "regressed" when
    worse_by exceeds ``bound``; "unresolved" when the parent's
    (q3 - q1) / median exceeds ``bound`` and not every change run beats
    every parent run; "gain" when the change wins at least 9 pairs in 10
    and its median is better by more than the parent's q3 - q1;
    "no_regression" otherwise.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(1 for r in runs if sign * (r["head"] - r["base"]) > 0)
    losses = sum(1 for r in runs if sign * (r["head"] - r["base"]) < 0)
    stats = {side: quartiles([r[side] for r in runs]) for side in SIDES}
    base, head = stats["base"], stats["head"]
    gained = sign * (head["median"] - base["median"])
    worse_by = -gained / base["median"]
    spread = base["q3"] - base["q1"]
    separated = (min(sign * r["head"] for r in runs)
                 > max(sign * r["base"] for r in runs))
    if worse_by > bound:
        verdict = "regressed"
    elif spread / base["median"] > bound and not separated:
        verdict = "unresolved"
    elif 10 * wins >= 9 * len(runs) and gained > spread:
        verdict = "gain"
    else:
        verdict = "no_regression"
    return {
        "better": better,
        **stats,
        "pairs": len(runs),
        "pairs_better": wins,
        "pairs_worse": losses,
        "worse_by": worse_by,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent")
    parser.add_argument("--head", help="revision of the change (default: the working tree)")
    parser.add_argument("--workdir", help="new directory for the two trees (default: a temporary one)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not args.head:
        check_tracked()
    revs = {"base": git("rev-parse", args.base),
            "head": git("rev-parse", args.head) if args.head
            else git("stash", "create") or git("rev-parse", "HEAD")}
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="pairs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trees = {side: workdir / side for side in SIDES}
    for side in SIDES:
        export(revs[side], trees[side])

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        raw = []
        for p in range(PAIRS):
            seed = SEEDS[p % len(SEEDS)]
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, spec["run_seconds"])
            raw.append(pair)
            print(f"{workload} pair {p + 1}/{PAIRS} seed {seed}: " + ", ".join(
                f"{side} jobs_per_s {pair[side]['metrics']['jobs_per_s']['value']:.3f}"
                for side in SIDES), file=sys.stderr)
        metrics = {
            m["name"]: summarize(
                [{side: r[side]["metrics"][m["name"]]["value"] for side in SIDES} for r in raw],
                m["better"], m["bound"])
            for m in spec["end_to_end"]
        }
        failures = {side: sum(r[side]["failed"] for r in raw) for side in SIDES}
        attempted = {side: sum(r[side]["attempted"] for r in raw) for side in SIDES}
        correct = {side: all(r[side]["correct"] for r in raw) for side in SIDES}
        results[workload] = {"metrics": metrics, "attempted": attempted,
                             "failed": failures, "correct": correct, "runs": raw}

    report = {
        "revisions": revs,
        "src_trees": {side: git("rev-parse", f"{revs[side]}:src") for side in SIDES},
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "oracle_lines": {side: oracle_lines(trees[side]) for side in SIDES},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": PAIRS,
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
