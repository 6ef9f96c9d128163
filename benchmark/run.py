"""Benchmark of the ``cellres`` command line, end to end and per layer.

    python3 benchmark/run.py --workload hull-dense --seed 1 --seconds 27 --trace 0

Run it from the root of a checkout; it builds nothing and imports ``cellres``
from ``src/``.  With ``--trace 0`` it is a closed loop with one client: each
job of the workload's seeded job list (see jobs.py) runs as its own
``python -m cellres.cli`` process, one at a time, interpreter start-up
included.  Two untimed ``generators`` runs warm the bytecode and file cache,
then a fixed number of timed passes go over the same list in the same order,
so every run does the same work.  With ``--trace 1`` the same jobs run
in-process through ``cellres.cli.run``, in two rounds of one untraced and one
traced pass (see tracer.py), and the per-layer metrics come from the traced
passes.

Every output is checked by checks.py.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import jobs
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# setup_s samples interpreter start-up, import and JSON handling with one
# `generators` run after every SETUP_EVERY-th job of a timed pass, so the
# samples spread over the whole run; setup_s is their median.
SETUP_EVERY = 3

# Untimed `generators` runs before the first timed pass: `cellres.cli`
# imports every module, so they write the bytecode and warm the file cache.
WARMUP_RUNS = 2

# A traced run makes this many rounds of one untraced and one traced
# in-process pass: two, so that call counts can be compared between them.
TRACED_ROUNDS = 2

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit): "<layer>.self_s", "<layer>.<function>.s" (inclusive
# seconds of the outermost calls) and "<layer>.<function>.calls".
PER_LAYER = [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
PER_LAYER += [(name, "count" if name.endswith(".calls") else "s") for name in (
    "hull.hull_complex.s",
    "hull.embed_in_simplex.s",
    "linalg.convex_position_facets.s",
    "linalg.convex_position_facets.calls",
    "linalg.fm_feasible.s",
    "linalg.fm_feasible.calls",
    "linalg.solve.s",
    "linalg.solve.calls",
    "cellcomplex.make_complex.calls",
    "cellcomplex.is_refinement.s",
    "cellcomplex.is_refinement.calls",
    "cellcomplex.contained_faces.s",
    "resolution.cellular_complex.s",
    "resolution.cellular_complex.calls",
    "resolution.exactness_witness.s",
    "resolution.reduced_homology_ranks.calls",
    "residue.residue_current.s",
    "residue.chain_maps.s",
    "residue.chain_maps.calls",
    "residue.verify_chain_maps.s",
    "cycle.fundamental_cycle_check.s",
    "cycle.permutation_cycle_check.s",
    "monomial.multiplicity.s",
    "monomial.multiplicity.calls",
    "monomial.contains.calls",
    "residue.duality_counterexample.s",
)]
PER_LAYER += [("trace.spans", "count"), ("trace.untraced_pass_s", "s"),
              ("trace.overhead_s", "s")]


class Outcome:
    """Counts and check results over the passes of one run."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, job, code, text, counted=True, error=None):
        """Check one job's output.  A job fails when it crashes, exits with
        2, or prints no JSON object or one with an "error" key; an output
        that fails its check is a wrong answer."""
        self.attempted += counted
        if error is None and code in (0, 1):
            try:
                reply = json.loads(text)
            except ValueError:
                reply = None
            if not isinstance(reply, dict) or "error" in reply:
                error = "no result on stdout"
        if error is not None or code not in (0, 1):
            self.failed += counted
            self.note(f"FAILED {job['id']}: exit {code} {error or ''} {text.strip()[:200]}")
            return
        try:
            self.checker.check(job, code, text)
        except checks.CheckError as exc:
            self.note(f"WRONG {exc}")

    def note(self, line):
        if line not in self.errors:
            self.errors.append(line)


def run_process(argv, env, stderr):
    """Run one CLI job; return (wall seconds, exit code, stdout, max RSS KiB)."""
    stderr.seek(0)
    stderr.truncate()
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "cellres.cli", *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out.decode(), usage.ru_maxrss


def timed_run(manifest, passes, outcome, workdir):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    job_walls, setup_walls, rss_kib = [], [], []
    with open(workdir / "stderr.txt", "w+", encoding="utf-8") as stderr:
        def run_pass(timed):
            for i, job in enumerate(manifest["jobs"]):
                seconds, code, text, rss = run_process(job["argv"], env, stderr)
                error = None
                if code not in (0, 1):
                    stderr.seek(0)
                    error = stderr.read()[-300:]
                outcome.record(job, code, text, counted=timed, error=error)
                if timed:
                    job_walls.append((job["id"], seconds))
                    rss_kib.append(rss)
                    if (i + 1) % SETUP_EVERY == 0:
                        setup = manifest["setup"]
                        seconds, code, text, _ = run_process(setup["argv"], env, stderr)
                        outcome.record(setup, code, text, counted=False)
                        setup_walls.append(seconds)

        setup = manifest["setup"]
        for _ in range(WARMUP_RUNS):
            _, code, text, _ = run_process(setup["argv"], env, stderr)
            outcome.record(setup, code, text, counted=False)
        for _ in range(passes):
            run_pass(timed=True)
    completed = outcome.attempted - outcome.failed
    metrics = {
        # The run's wall time is the sum of its job walls: the one client
        # sends the next job when the last exits, and the setup samples
        # between jobs are left out.
        "jobs_per_s": completed / sum(s for _, s in job_walls),
        "job_s.p50": statistics.median(s for _, s in job_walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(rss_kib) / 1024,
    }
    print(f"{len(manifest['jobs'])} jobs x {passes} timed passes, "
          f"{sum(s for _, s in job_walls):.2f} s of job walls")
    print(f"job_s.p50 is the median of {len(job_walls)} job walls; "
          f"setup_s the median of {len(setup_walls)} `generators` runs")
    by_job = {}
    for job_id, seconds in job_walls:
        by_job.setdefault(job_id, []).append(seconds)
    for job_id, walls in by_job.items():
        print(f"  {statistics.median(walls):8.4f} s  {job_id}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(manifest, outcome, workdir):
    sys.path.insert(0, str(SRC))
    import cellres.cli

    def run_pass(job_list, counted):
        t0 = perf_counter()
        results = []
        for job in job_list:
            buffer, error = io.StringIO(), None
            try:
                with contextlib.redirect_stdout(buffer):
                    code = cellres.cli.run(job["argv"])
            except SystemExit as exc:
                code, error = exc.code, "SystemExit"
            except Exception as exc:  # a crash is counted as a failed job
                code, error = None, repr(exc)
            results.append((job, code, buffer.getvalue(), error))
        wall = perf_counter() - t0
        for job, code, text, error in results:
            outcome.record(job, code, text, counted=counted, error=error)
        return wall

    tracer = tracing.Tracer()
    run_pass([manifest["setup"]], counted=False)  # warm-up
    untraced, traced, per_pass, spans = [], [], [], []
    for _ in range(TRACED_ROUNDS):
        untraced.append(run_pass(manifest["jobs"], counted=True))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(manifest["jobs"], counted=True))
        finally:
            tracer.uninstall()
        functions, layer_self = tracer.totals()
        spans.append(tracer.spans())
        values = {"trace.spans": len(spans[-1][0])}
        for name, _ in PER_LAYER:
            head, _, last = name.rpartition(".")
            if last == "self_s":
                values[name] = layer_self[head]
            elif last in ("calls", "s"):
                # A function the program no longer has reads 0.
                values[name] = functions.get(head, {}).get(last, 0)
        per_pass.append(values)
    counts = [{k: v for k, v in p.items() if k.endswith(".calls") or k == "trace.spans"}
              for p in per_pass]
    if any(c != counts[0] for c in counts):
        outcome.note("WRONG call counts differ between identical traced passes")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(counts[0])  # equal in every pass, and whole numbers
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"{len(manifest['jobs'])} jobs x {TRACED_ROUNDS} rounds of one untraced and one traced "
          f"in-process pass; traced " + " ".join(f"{w:.2f}" for w in traced)
          + " s, untraced " + " ".join(f"{w:.2f}" for w in untraced) + " s")
    out = workdir / "spans.jsonl"
    tracer.write_spans(out, spans)
    print(f"{sum(len(s[0]) for s in spans)} spans written to {out.relative_to(ROOT)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cellres" / "cli.py").is_file():
        print(f"cellres sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    manifest = jobs.write_jobs(ROOT, args.workload, args.seed)
    workdir = ROOT / manifest["dir"]
    outcome = Outcome(checks.Checker(manifest))
    if args.trace:
        metrics = traced_run(manifest, outcome, workdir)
    else:
        passes = max(1, round(args.seconds / jobs.NOMINAL_PASS_S))
        metrics = timed_run(manifest, passes, outcome, workdir)
    for line in outcome.errors[:20]:
        print(line)
    correct = not any(line.startswith("WRONG") for line in outcome.errors)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
