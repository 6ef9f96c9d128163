"""The three workloads as fixed, seeded job lists.

A job is one ``cellres`` invocation: a subcommand, an ideal written to its
own JSON file, and any extra arguments.  ``write_jobs`` turns a workload and
a seed into job files under ``benchmark/_jobs/`` and returns the manifest;
the same workload and seed always give byte-identical files.

The make-up of every workload is fixed: the seed moves the exponents, never
the number of generators, the box of a staircase, the share of the box under
the staircase (to within 1-2%) or the list of subcommands, so that every
seed asks for about the same work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import ideals

# Wall time of one timed pass on the reference machine (see README.md).
# A run makes round(--seconds / NOMINAL_PASS_S) passes, at least one, so
# the amount of work depends on --seconds only, never on the clock.
NOMINAL_PASS_S = 9.0

# The minimal resolution of Example 6.1 (m^2 in 3 variables): its hull
# complex with the inner edge {z1z2, z1z3} removed and the two triangles on
# it merged into one square.  Vertex ids follow the descending lex order of
# the generators: 0 z1^2, 1 z1z2, 2 z1z3, 3 z2^2, 4 z2z3, 5 z3^2.
EX61_MINIMAL_FACES = (
    (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5),
    (0, 1, 2, 4), (1, 3, 4), (2, 4, 5),
)


def _job(ideal, command, *extra, complex_file=None, minimal=None):
    job = {"ideal": ideal, "command": command, "extra": list(extra)}
    if complex_file is not None:
        job["complex_file"] = complex_file
    if minimal is not None:
        # A verdict the benchmark knows from the literature rather than
        # recomputes: only used where no face list is available to check.
        job["minimal"] = minimal
    return job


def _hull_dense(rng):
    found = {
        "m4-n3": ideals.power_of_maximal_ideal(3, 4),
        "m5-n3": ideals.power_of_maximal_ideal(3, 5),
        "m2-n4": ideals.power_of_maximal_ideal(4, 2),
    }
    jobs = [
        _job("m4-n3", "hull"),
        _job("m4-n3", "multiplicity"),
        _job("m4-n3", "check-exact"),
        _job("m5-n3", "hull"),
        _job("m2-n4", "hull"),
        _job("m2-n4", "multiplicity"),
        _job("m2-n4", "check-exact"),
    ]
    # 21 jobs: 8 short ones (multiplicity, scarf), the 5 hull jobs of the
    # 12-generator ideals, and 8 longer ones.  The median job wall is the
    # third of those 5 like hull jobs, never a step between two groups.
    for i in range(5):
        key = f"generic-n3-r12-{i}"
        found[key] = ideals.generic_ideal(rng, 3, 12)
        jobs.append(_job(key, "hull"))
        if i < 3:
            jobs.append(_job(key, "scarf"))
        if i < 2:
            jobs.append(_job(key, "check-exact"))
        if i == 0:
            jobs.append(_job(key, "multiplicity"))
    found["generic-n3-r16"] = ideals.generic_ideal(rng, 3, 16)
    jobs += [_job("generic-n3-r16", command) for command in ("hull", "scarf", "multiplicity")]
    return found, jobs


def _verify_jobs(key, gens, rng):
    # A generator raised by 0 or 1 in each variable: z^beta lies in the
    # ideal, so the current is annihilated.
    g = gens[rng.randrange(len(gens))]
    inside = ",".join(str(e + rng.randint(0, 1)) for e in g)
    return [
        _job(key, "compare"),
        _job(key, "residue"),
        _job(key, "fundamental-cycle"),
        _job(key, "duality-check"),
        _job(key, "annihilator", "--beta", inside),
        _job(key, "resolve"),
        _job(key, "check-minimal"),
    ]


def _verify_pipeline(rng):
    found = {"ex61": ideals.EXAMPLE_61}
    jobs = [
        _job("ex61", "compare"),
        _job("ex61", "residue"),
        _job("ex61", "fundamental-cycle"),
        _job("ex61", "duality-check"),
        _job("ex61", "annihilator", "--beta", "1,1,0"),
        _job("ex61", "annihilator", "--beta", "0,1,0"),
        _job("ex61", "resolve"),
        # The hull resolution of Example 6.1 is not minimal: exit 1 expected.
        _job("ex61", "check-minimal", minimal=False),
    ]
    for command in ("residue", "compare", "fundamental-cycle", "resolve",
                    "check-minimal", "duality-check"):
        jobs.append(_job("ex61", command, complex_file="ex61-minimal"))
    for key, n, r in (("generic-n3-r8", 3, 8), ("generic-n4-r6", 4, 6)):
        found[key] = ideals.generic_ideal(rng, n, r)
        jobs += _verify_jobs(key, found[key], rng)
    found["stair-c10"] = ideals.with_colength(
        lambda: ideals.staircase_2d(rng, 10, 20, 20), 0.55, tolerance=0.02)
    jobs += _verify_jobs("stair-c10", found["stair-c10"], rng)
    return found, jobs


def _deep_staircase(rng):
    found = {}
    jobs = []
    # Ten of the seventeen jobs are short scans of about the same cost, so
    # job_s.p50 falls inside that group rather than between two jobs.
    for i in range(3):
        key = f"stair-c8-{i}"
        found[key] = ideals.with_colength(lambda: ideals.staircase_2d(rng, 8, 150, 150), 0.5)
        jobs += [
            _job(key, "multiplicity"),
            _job(key, "partition"),
            _job(key, "partition", "--order", "Q"),
        ]
        if i < 2:
            jobs.append(_job(key, "duality-check"))
        if i == 0:
            jobs.append(_job(key, "fundamental-cycle"))
    found["deep-n3-r6-b30"] = ideals.with_colength(
        lambda: ideals.scaled_generic_ideal(rng, 3, 6, 30), 0.8)
    jobs += [
        _job("deep-n3-r6-b30", "multiplicity"),
        _job("deep-n3-r6-b30", "duality-check"),
        _job("deep-n3-r6-b30", "fundamental-cycle"),
    ]
    found["deep-n3-r8-b40"] = ideals.with_colength(
        lambda: ideals.scaled_generic_ideal(rng, 3, 8, 40), 0.7)
    jobs += [
        _job("deep-n3-r8-b40", "multiplicity"),
        _job("deep-n3-r8-b40", "duality-check"),
    ]
    return found, jobs


_JOB_LISTS = {
    "hull-dense": _hull_dense,
    "verify-pipeline": _verify_pipeline,
    "deep-staircase": _deep_staircase,
}
WORKLOADS = tuple(_JOB_LISTS)


def _projected(generator, b, t):
    """Where the line through (1,...,1) and t^generator meets the hyperplane
    through the corner points (1,..,t^b_i,..,1): the coordinates of the
    embedded hull vertex."""
    point = [Fraction(t) ** a for a in generator]
    denom = sum(Fraction(1, t**bi - 1) * (p - 1) for bi, p in zip(b, point))
    return [1 + (p - 1) / denom for p in point]


def ex61_minimal_complex():
    """The minimal resolution of Example 6.1 as a complex JSON object."""
    gens = ideals.EXAMPLE_61
    b, t = (2, 2, 2), 25  # pure powers z_i^2; lift base (n+1)! + 1
    vertices = [
        {"id": i, "label": list(g),
         "coords": [f"{c.numerator}/{c.denominator}" for c in _projected(g, b, t)]}
        for i, g in enumerate(gens)
    ]
    faces = [{"vertices": list(f)} for f in EX61_MINIMAL_FACES]
    return {"n": 3, "vertices": vertices, "faces": faces}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_jobs(root: Path, workload: str, seed: int) -> dict:
    """Write the job files of one workload and seed; return the manifest.

    Paths in the manifest are relative to ``root``, the checkout the
    benchmark runs in, which is also the working directory of every job.
    """
    rng = random.Random(f"{workload}/{seed}")
    found, jobs = _JOB_LISTS[workload](rng)
    # setup_s: `generators` on a one-line ideal, no mathematics to speak of.
    found["setup"] = ideals.EXAMPLE_61
    setup = _job("setup", "generators")
    rel = Path("benchmark", "_jobs", f"{workload}-{seed}")
    (root / rel).mkdir(parents=True, exist_ok=True)
    files = {}

    def put(name, obj):
        path = rel / name
        text = _dump(obj)
        target = root / path
        if not target.exists() or target.read_text() != text:
            target.write_text(text)
        return str(path)

    for key, gens in found.items():
        files[key] = put(f"{key}.json", {"n": len(gens[0]), "generators": [list(g) for g in gens]})
    complexes = {}
    if any("complex_file" in job for job in jobs):
        complexes["ex61-minimal"] = ex61_minimal_complex()
        files["ex61-minimal"] = put("ex61-minimal.complex.json", complexes["ex61-minimal"])
    for i, job in enumerate(jobs + [setup]):
        job["id"] = f"{i:02d} {job['command']} {job['ideal']}" + (
            f" {' '.join(job['extra'])}" if job["extra"] else ""
        ) + (" --complex " + job["complex_file"] if "complex_file" in job else "")
        argv = [job["command"], "--input", files[job["ideal"]]] + job["extra"]
        if "complex_file" in job:
            argv += ["--complex", "file:" + files[job["complex_file"]]]
        job["argv"] = argv
    manifest = {
        "workload": workload,
        "seed": seed,
        "dir": str(rel),
        "ideals": {key: [list(g) for g in gens] for key, gens in found.items()},
        "complexes": complexes,
        "setup": setup,
        "jobs": jobs,
    }
    put("jobs.json", manifest)
    return manifest
