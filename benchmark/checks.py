"""Independent checks of ``cellres`` outputs.

Nothing here imports ``cellres``.  Every check recomputes what it needs from
the generators with the benchmark's own few lines of arithmetic (divisibility,
lcm, a column count of the staircase, brute-force unique-lcm subsets, a
product of monomial matrices) or tests an identity the output must satisfy:

* generators: the minimal generators;
* multiplicity: the number of lattice points under the staircase;
* fundamental-cycle: lhs = n! m and, for generic ideals, every
  per-permutation lhs = (-1)^(n^2 + n(n-1)/2) m;
* hull and scarf faces: the vertices are the minimal generators, each label
  is the lcm of its vertices, the faces have Euler characteristic 1, the
  alternating sum over all faces (the empty one included) of
  (-1)^(dim+1) prod_i max(b_i - m_i, 0) equals m, and for generic ideals the
  faces are exactly the brute-force unique-lcm subsets (Bayer-Sturmfels);
* residue and annihilator: the alphas of the current give an irreducible
  decomposition of the ideal (ann R = the ideal), checked point by point on
  the box, and the annihilator answer equals membership of z^beta;
* resolve: consecutive matrices compose to zero as polynomial matrices;
* check-minimal: the verdict equals whether some face and one of its facets
  carry the same label;
* check-exact, compare, duality-check: the verdict the paper proves;
* partition: disjoint rectangles under the staircase whose areas sum to m.

Outputs that are byte-identical to one already checked for the same job get
the same verdict without being checked again.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

from ideals import colength


class CheckError(Exception):
    """An output that contradicts an independent computation."""


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lcm(vectors):
    return tuple(max(col) for col in zip(*vectors))


def minimal_generators(gens):
    gens = sorted({tuple(g) for g in gens})
    return sorted(
        (g for g in gens if not any(h != g and divides(h, g) for h in gens)),
        reverse=True,
    )


def in_ideal(gens, beta):
    return any(divides(g, beta) for g in gens)


def pure_powers(gens):
    n = len(gens[0])
    b = [0] * n
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) == 1:
            b[support[0]] = g[support[0]]
    if not all(b):
        raise CheckError("ideal is not Artinian")
    return tuple(b)


def strongly_generic(gens):
    """No two generators share a positive exponent in any variable."""
    for i in range(len(gens[0])):
        positive = [g[i] for g in gens if g[i] > 0]
        if len(positive) != len(set(positive)):
            return False
    return True


def unique_lcm_subsets(gens):
    """All nonempty generator index sets whose lcm no other subset has."""
    r = len(gens)
    lcms = [None] * (1 << r)
    seen = {}
    for mask in range(1, 1 << r):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        g = gens[low]
        lcms[mask] = g if rest == 0 else tuple(map(max, lcms[rest], g))
        seen[lcms[mask]] = seen.get(lcms[mask], 0) + 1
    return {
        tuple(i for i in range(r) if mask >> i & 1)
        for mask in range(1, 1 << r)
        if seen[lcms[mask]] == 1
    }


def affine_dim(points):
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(p, points[0])] for p in points[1:]]
    rank = 0
    ncols = len(points[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def has_unit_facet_pair(faces, label):
    """Whether some face and a facet of it (one dimension lower, contained
    in it) have the same label.  ``faces`` maps vertex tuples to dims."""
    by_dim = {}
    for f, d in faces.items():
        by_dim.setdefault(d, []).append(f)
    for f, d in faces.items():
        for g in by_dim.get(d - 1, ()):
            if set(g) < set(f) and label(g) == label(f):
                return True
    return False


class IdealFacts:
    """What the checks know about one ideal, computed once."""

    def __init__(self, gens):
        self.minimal = minimal_generators(gens)
        self.n = len(self.minimal[0])
        self.b = pure_powers(self.minimal)
        self.m = colength(self.minimal)
        self.generic = strongly_generic(self.minimal)
        self._scarf = None
        self._decompositions = {}

    @property
    def scarf(self):
        if self._scarf is None:
            self._scarf = unique_lcm_subsets(self.minimal)
        return self._scarf

    def is_decomposition(self, alphas):
        """Whether the ideal is the intersection of the (z_i^alpha_i),
        tested at every point of the box [0, b]."""
        key = tuple(sorted(set(map(tuple, alphas))))
        if key not in self._decompositions:
            self._decompositions[key] = all(
                in_ideal(self.minimal, beta)
                == all(any(x >= a for x, a in zip(beta, alpha)) for alpha in key)
                for beta in product(*(range(x + 1) for x in self.b))
            )
        return self._decompositions[key]

    def vertex_label(self, ids):
        return lcm([self.minimal[i] for i in ids])


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _verdict(out, code, expected):
    _require(out.get("ok") is expected, f"verdict ok={out.get('ok')}, expected {expected}")
    _require(code == (0 if expected else 1), f"exit code {code} for verdict {expected}")


def _check_faces(facts, out):
    labels = {v["id"]: tuple(v["label"]) for v in out["vertices"]}
    _require(sorted(labels.values(), reverse=True) == facts.minimal,
             "vertices are not the minimal generators")
    ids = sorted(labels)
    faces = {(v,): 0 for v in ids}
    for face in out["faces"]:
        verts = tuple(sorted(face["vertices"]))
        _require(tuple(face["label"]) == lcm([labels[v] for v in verts]),
                 f"face {verts}: label is not the lcm of its vertices")
        faces[verts] = face["dim"]
    euler = sum((-1) ** d for d in faces.values())
    _require(euler == 1, f"Euler characteristic {euler}, expected 1")
    total = prod(facts.b)  # the empty face
    for verts, d in faces.items():
        label = lcm([labels[v] for v in verts])
        total += (-1) ** (d + 1) * prod(max(b - e, 0) for b, e in zip(facts.b, label))
    _require(total == facts.m, f"face sum {total}, expected multiplicity {facts.m}")
    if facts.generic:
        index = {v: facts.minimal.index(labels[v]) for v in ids}
        got = {tuple(sorted(index[v] for v in f)) for f in faces}
        _require(got == facts.scarf, "faces differ from the unique-lcm subsets")


def _check_decomposition(facts, alphas):
    _require(facts.is_decomposition(alphas),
             "the alphas of the current do not decompose the ideal")


def _check_resolve(facts, out):
    matrices = {int(k): v for k, v in out["matrices"].items()}
    levels = {int(k): v for k, v in out["levels"].items()}
    for k, mat in matrices.items():
        _require(len(mat) == len(levels[k - 1]) and all(len(row) == len(levels[k]) for row in mat),
                 f"matrix {k} has the wrong shape")
    for k in sorted(matrices):
        if k + 1 not in matrices:
            continue
        a, b = matrices[k], matrices[k + 1]
        for i in range(len(a)):
            for j in range(len(b[0])):
                poly = {}
                for l in range(len(b)):
                    x, y = a[i][l], b[l][j]
                    if x["sign"] and y["sign"]:
                        e = tuple(p + q for p, q in zip(x["exp"], y["exp"]))
                        poly[e] = poly.get(e, 0) + x["sign"] * y["sign"]
                _require(not any(poly.values()), f"d{k} d{k + 1} is not zero at ({i}, {j})")


class Checker:
    """Checks job outputs of one manifest."""

    def __init__(self, manifest):
        self.manifest = manifest
        self.facts = {}
        self.verdicts = {}

    def _facts(self, key):
        if key not in self.facts:
            self.facts[key] = IdealFacts(self.manifest["ideals"][key])
        return self.facts[key]

    def check(self, job, code, text):
        """Raise CheckError unless ``text`` is a right answer for ``job``."""
        key = (job["id"], code, text)
        if key not in self.verdicts:
            try:
                self._check(job, code, json.loads(text))
                self.verdicts[key] = None
            except CheckError as exc:
                self.verdicts[key] = str(exc)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = f"malformed output: {exc!r}"
        if self.verdicts[key] is not None:
            raise CheckError(f"{job['id']}: {self.verdicts[key]}")

    def _check(self, job, code, out):
        facts = self._facts(job["ideal"])
        command = job["command"]
        n, m = facts.n, facts.m
        if command == "generators":
            _require(code == 0 and [tuple(g) for g in out["generators"]] == facts.minimal,
                     "generators are not the minimal generators")
        elif command == "multiplicity":
            _require(code == 0 and out["multiplicity"] == m,
                     f"multiplicity {out['multiplicity']}, expected {m}")
        elif command in ("hull", "scarf"):
            _require(code == 0, f"exit code {code}")
            _check_faces(facts, out)
        elif command == "check-exact":
            _verdict(out, code, True)
        elif command == "compare":
            _verdict(out, code, True)
            for k, basis in out["col_bases"].items():
                want = [list(c) for c in combinations(range(n), int(k) + 1)]
                _require(basis == want, f"corner simplex basis {k} is wrong")
        elif command == "duality-check":
            _verdict(out, code, True)
        elif command == "residue":
            _require(code == 0, f"exit code {code}")
            _require(all(e["sign"] in (1, -1) for e in out["entries"]), "a sign is not +-1")
            _check_decomposition(facts, [e["alpha"] for e in out["entries"]])
        elif command == "annihilator":
            _require(code == 0, f"exit code {code}")
            _check_decomposition(facts, [c["alpha"] for c in out["components"]])
            beta = tuple(int(x) for x in job["extra"][job["extra"].index("--beta") + 1].split(","))
            _require(out["annihilates"] is in_ideal(facts.minimal, beta),
                     f"annihilates={out['annihilates']} for beta={beta}")
        elif command == "resolve":
            _require(code == 0, f"exit code {code}")
            _check_resolve(facts, out)
        elif command == "check-minimal":
            self._check_minimal(job, facts, code, out)
        elif command == "fundamental-cycle":
            _require(code == 0 and out["ok"] is True, "fundamental cycle not ok")
            _require(out["lhs"] == factorial(n) * m == out["n_factorial_times_m"],
                     f"lhs {out['lhs']}, expected n! m = {factorial(n) * m}")
            perms = {",".join(map(str, p)) for p in permutations(range(1, n + 1))}
            _require(set(out["per_permutation"]) == perms, "permutation list is incomplete")
            if facts.generic:
                sign = (-1) ** (n * n + n * (n - 1) // 2)
                for p, entry in out["per_permutation"].items():
                    _require(entry["lhs"] == sign * m,
                             f"permutation {p}: lhs {entry['lhs']}, expected {sign * m}")
        elif command == "partition":
            self._check_partition(facts, code, out)
        else:
            raise CheckError(f"no check for {command}")

    def _check_minimal(self, job, facts, code, out):
        if "complex_file" in job:
            obj = self.manifest["complexes"][job["complex_file"]]
            coords = {v["id"]: v["coords"] for v in obj["vertices"]}
            faces = {(v,): 0 for v in coords}
            for f in obj["faces"]:
                verts = tuple(sorted(f["vertices"]))
                faces[verts] = affine_dim([coords[v] for v in verts])
            minimal = not has_unit_facet_pair(faces, facts.vertex_label)
        elif facts.generic:
            # The hull of a generic ideal is its Scarf complex.
            faces = {f: len(f) - 1 for f in facts.scarf}
            minimal = not has_unit_facet_pair(faces, facts.vertex_label)
        else:
            minimal = job["minimal"]
        _verdict(out, code, minimal)
        if not minimal:
            tau, sigma = (tuple(sorted(w)) for w in out["witness"])
            _require(set(tau) < set(sigma) and len(sigma) == len(tau) + 1
                     and facts.vertex_label(tau) == facts.vertex_label(sigma),
                     f"witness {tau} < {sigma} is not an equal-label facet pair")

    def _check_partition(self, facts, code, out):
        _require(code == 0 and out["ok"] is True, "partition not ok")
        rects = [(r["x"][0], r["x"][1], r["y"][0], r["y"][1], r["area"]) for r in out["rectangles"]]
        for x0, x1, y0, y1, area in rects:
            _require(0 <= x0 < x1 and 0 <= y0 < y1 and area == (x1 - x0) * (y1 - y0),
                     f"bad rectangle {x0, x1, y0, y1, area}")
            _require(not in_ideal(facts.minimal, (x1 - 1, y1 - 1)),
                     "a rectangle leaves the staircase")
        for p, q in combinations(rects, 2):
            _require(p[1] <= q[0] or q[1] <= p[0] or p[3] <= q[2] or q[3] <= p[2],
                     "rectangles overlap")
        total = sum(r[4] for r in rects)
        _require(total == facts.m == out["multiplicity"] == out["total_area"],
                 f"areas sum to {total}, expected {facts.m}")
