"""Byte-identity of CLI stdout and exit codes between two revisions.

    python3 tools/same_outputs.py --base HEAD~1 [--head HEAD] --seeds 47 53

Both revisions are exported as ``tools/bench_pairs.py`` exports them: with
``git archive`` into fresh directories, and without ``--head`` the change is
the working tree as ``git stash create`` records it.  The job files of every
workload of BENCHMARK.json are written at each seed by ``write_jobs`` of this
checkout's ``benchmark/jobs.py``, and every job, the setup job included,
runs as one ``python -m cellres.cli`` process under
``PYTHONDONTWRITEBYTECODE=1`` against the ``src/`` of each revision in turn.
Each ``resolve``, ``compare``, ``check-exact``, ``check-minimal``,
``residue``, ``annihilator``, ``duality-check`` or ``fundamental-cycle`` job
that passes no ``--complex`` runs also with ``--complex scarf`` and with
``--complex taylor``, so that the incidence signs of those complexes are
compared too, and the exactness witnesses and refinement refusals of the
Scarf complexes that are not resolutions.  The Taylor
variant runs only on ideals of at most ``TAYLOR_MAX_GENERATORS``
generators: the Taylor complex of r generators has 2^r faces, and the
hull-dense ``check-exact`` jobs have 12 and 15.  The embedded hull has its top
faces flipped to the corner simplex's orientation, so each sign of its
current is +1; a Scarf complex keeps its own, so on the generic
verify-pipeline ideals the ``residue`` and ``fundamental-cycle`` variants
also compare the chain maps' orientation signs that no flip fixed.
The tool prints the number of jobs compared and exits 1, naming each job
whose stdout or exit code differs between the two, or 0 when none does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

REPO = bench_pairs.REPO


def differences(base: dict, head: dict) -> list:
    """The sorted ids of the jobs whose (exit code, stdout) differ between two
    maps of job id to result; a job in only one map differs."""
    return sorted(job for job in base.keys() | head.keys()
                  if base.get(job) != head.get(job))


VARIANT_COMMANDS = ("resolve", "compare", "check-exact", "check-minimal", "residue",
                    "annihilator", "duality-check", "fundamental-cycle")
TAYLOR_MAX_GENERATORS = 10


def job_argvs(manifest: dict) -> dict:
    """{job id: argv} of every job of a manifest, the setup job included,
    and of each job of ``VARIANT_COMMANDS`` without ``--complex`` run also
    on the Scarf complex and, when its ideal has at most
    ``TAYLOR_MAX_GENERATORS`` generators, on the Taylor complex, under its
    id with the option appended."""
    argvs = {}
    for job in manifest["jobs"] + [manifest["setup"]]:
        argvs[job["id"]] = job["argv"]
        if job["command"] in VARIANT_COMMANDS and "--complex" not in job["argv"]:
            sources = ["scarf"]
            if len(manifest["ideals"][job["ideal"]]) <= TAYLOR_MAX_GENERATORS:
                sources.append("taylor")
            for source in sources:
                argvs[f"{job['id']} --complex {source}"] = job["argv"] + ["--complex", source]
    return argvs


def write_all(root: Path, workloads, seeds) -> dict:
    """{job id: argv} for every job of every workload at every seed, with
    the variants of ``job_argvs``, and the job files written under
    ``root``."""
    sys.path.insert(0, str(REPO / "benchmark"))
    from jobs import write_jobs

    argvs = {}
    for workload in workloads:
        for seed in seeds:
            for job, argv in job_argvs(write_jobs(root, workload, seed)).items():
                argvs[f"{workload} seed {seed}: {job}"] = argv
    return argvs


def run_all(src: Path, root: Path, argvs: dict) -> dict:
    """{job id: (exit code, stdout)} of each job run against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for job, argv in argvs.items():
        proc = subprocess.run([sys.executable, "-m", "cellres.cli", *argv], cwd=root,
                              env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
        results[job] = (proc.returncode, proc.stdout)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent")
    parser.add_argument("--head", help="revision of the change (default: the working tree)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workdir", help="new directory for the trees and jobs "
                                          "(default: a temporary one)")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not args.head:
        bench_pairs.check_tracked()
    revs = {"base": bench_pairs.git("rev-parse", args.base),
            "head": bench_pairs.git("rev-parse", args.head) if args.head
            else bench_pairs.git("stash", "create") or bench_pairs.git("rev-parse", "HEAD")}
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="same-"))
    workdir.mkdir(parents=True, exist_ok=True)
    for side, rev in revs.items():
        bench_pairs.export(rev, workdir / side)
    jobs_root = workdir / "jobs"
    jobs_root.mkdir()
    argvs = write_all(jobs_root, [w["name"] for w in spec["workloads"]], args.seeds)
    results = {side: run_all(workdir / side / "src", jobs_root, argvs) for side in revs}
    differ = differences(results["base"], results["head"])
    print(f"{len(argvs)} jobs compared between {revs['base']} and {revs['head']}; "
          f"{len(differ)} differ")
    for job in differ:
        print(f"differs: {job}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
