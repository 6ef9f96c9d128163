"""Batch command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for
bad input or violated preconditions.

Each subcommand imports the layers it uses when it runs, so ``generators``,
``multiplicity`` and ``partition`` load ``monomial`` only.  The command
line is read by ``_parse_args``, written for its one positional argument and
seven options; it accepts what an ``argparse`` parser of the same arguments
does (see its docstring), without loading ``argparse``, ``gettext`` and
``locale``.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import permutations as iter_permutations
from types import SimpleNamespace

from .errors import CellresError, InputError, PreconditionError
from .monomial import (
    MonomialIdeal,
    ideal_from_json,
    is_generic,
    is_int,
    minimize,
    multiplicity,
    pure_power_exponents,
    staircase_partition_2d,
)

SCHEMA = "cellres/1"

SUBCOMMANDS = (
    "generators",
    "hull",
    "scarf",
    "resolve",
    "check-exact",
    "check-minimal",
    "residue",
    "compare",
    "annihilator",
    "duality-check",
    "multiplicity",
    "fundamental-cycle",
    "partition",
)

_JOB_KEYS = {"ideal", "complex_source", "options"}
_OPTION_KEYS = {"t", "box", "permutations"}


def _json_ready(value):
    if isinstance(value, dict):
        return {str(_key(k)): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return k


def _parse_vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer vector: {text}") from exc


def _parse_permutations(text):
    try:
        return [
            [int(x) for x in block.split(",")] for block in text.split(";") if block
        ]
    except ValueError as exc:
        raise InputError(
            f"expected semicolon-separated integer permutations: {text}"
        ) from exc


def _check_exponents(name, vector, n):
    if not (isinstance(vector, (list, tuple)) and len(vector) == n
            and all(is_int(x) and x >= 0 for x in vector)):
        raise InputError(f"{name} must be {n} nonnegative integers, got {vector!r}")
    return tuple(vector)


def _check_options(options, n):
    if "t" in options and not is_int(options["t"]):
        raise InputError("option t must be an integer")
    if "box" in options:
        _check_exponents("option box", options["box"], n)
    perms = options.get("permutations", [])
    if not (isinstance(perms, list) and all(
        isinstance(p, list) and all(is_int(x) for x in p) for p in perms
    )):
        raise InputError("option permutations must be a list of integer lists")


def _load_job(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InputError("top-level JSON must be an object")
    if "ideal" in obj:
        unknown = set(obj) - _JOB_KEYS
        if unknown:
            raise InputError(f"unknown job keys: {sorted(unknown)}")
        options = obj.get("options", {})
        if not isinstance(options, dict):
            raise InputError("options must be an object")
        unknown = set(options) - _OPTION_KEYS
        if unknown:
            raise InputError(f"unknown option keys: {sorted(unknown)}")
        ideal = ideal_from_json(obj["ideal"])
        _check_options(options, ideal.n)
        source = obj.get("complex_source")
        if source is not None and not isinstance(source, str):
            raise InputError(f"complex_source must be a string, got {source!r}")
        return ideal, source, options
    return ideal_from_json(obj), None, {}


def _build_complex(source, M: MonomialIdeal, t):
    if source == "hull":
        from .hull import embed_in_simplex, hull_complex
        return embed_in_simplex(hull_complex(M, t), pure_power_exponents(M))
    if source == "scarf":
        from .hull import scarf_complex
        return scarf_complex(M, t)
    if source == "taylor":
        from .hull import taylor_complex
        return taylor_complex(M)
    if source and source.startswith("file:"):
        from .cellcomplex import complex_from_json
        path = source[len("file:"):]
        with open(path, "r", encoding="utf-8") as handle:
            try:
                obj = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InputError(
                    f"malformed complex JSON at position {exc.pos}: {exc.msg}"
                ) from exc
        X = complex_from_json(obj)
        if minimize([X.vertex_label(v) for v in X.vertices]) != M:
            raise PreconditionError("vertex labels do not generate the given ideal")
        return X
    raise InputError(f"unknown complex source: {source}")


def _signed_matrix_json(matrix):
    return [
        [{"sign": cell.sign, "exp": list(cell.exp)} for cell in row]
        for row in matrix
    ]


def _cmd_generators(M, X, args, options):
    return {"n": M.n, "generators": [list(g) for g in M.generators]}, 0


def _cmd_multiplicity(M, X, args, options):
    return {"multiplicity": multiplicity(M)}, 0


def _cmd_hull(M, X, args, options):
    from .cellcomplex import complex_to_json
    from .hull import hull_complex
    return complex_to_json(hull_complex(M, args.t)), 0


def _cmd_scarf(M, X, args, options):
    from .cellcomplex import complex_to_json
    from .hull import scarf_complex
    return complex_to_json(scarf_complex(M, args.t)), 0


def _cmd_resolve(M, X, args, options):
    from .resolution import cellular_complex
    F = cellular_complex(X)
    levels = {k: [list(fid) for fid in F.basis(k)] for k in sorted(F.levels)}
    matrices = {k: _signed_matrix_json(F.matrix(k)) for k in sorted(F.matrices)}
    return {"levels": levels, "matrices": matrices}, 0


def _cmd_check_exact(M, X, args, options):
    from .resolution import exactness_witness
    witness = exactness_witness(X, M)
    ok = witness is None
    return {"ok": ok, "witness": list(witness) if witness else None}, 0 if ok else 1


def _cmd_check_minimal(M, X, args, options):
    from .resolution import cellular_complex, minimality_witness
    F = cellular_complex(X)
    witness = minimality_witness(F)
    ok = witness is None
    payload = {
        "ok": ok,
        "witness": [list(witness[0]), list(witness[1])] if witness else None,
    }
    return payload, 0 if ok else 1


def _cmd_residue(M, X, args, options):
    from .residue import residue_current
    R = residue_current(X, pure_power_exponents(M))
    entries = [
        {"face": list(fid), "sign": c.sign, "alpha": list(c.alpha)}
        for fid, c in sorted(R.entries.items())
    ]
    return {"entries": entries}, 0


def _cmd_compare(M, X, args, options):
    from .residue import chain_maps, verify_chain_maps
    b = pure_power_exponents(M)
    maps = chain_maps(X, b)
    ok, witness = verify_chain_maps(X, b)
    payload = {
        "maps": {k: _signed_matrix_json(maps.levels[k]) for k in sorted(maps.levels)},
        "row_bases": {k: [list(f) for f in maps.row_bases[k]] for k in maps.row_bases},
        "col_bases": {k: [list(f) for f in maps.col_bases[k]] for k in maps.col_bases},
        "ok": ok,
        "witness": _json_ready(list(witness)) if witness else None,
    }
    return payload, 0 if ok else 1


def _cmd_annihilator(M, X, args, options):
    from .residue import annihilator_contains, residue_current
    beta = None
    if args.beta is not None:
        beta = _check_exponents("--beta", _parse_vector(args.beta), M.n)
    R = residue_current(X, pure_power_exponents(M))
    components = [
        {"face": list(fid), "alpha": list(c.alpha)}
        for fid, c in sorted(R.entries.items())
    ]
    payload = {"components": components}
    if beta is not None:
        payload["beta"] = list(beta)
        payload["annihilates"] = annihilator_contains(R, beta)
    return payload, 0


def _cmd_duality_check(M, X, args, options):
    from .residue import duality_counterexample, residue_current
    box = None
    if args.box is not None:
        box = _check_exponents("--box", _parse_vector(args.box), M.n)
    elif "box" in options:
        box = tuple(options["box"])
    R = residue_current(X, pure_power_exponents(M))
    counterexample = duality_counterexample(R, M, box)
    ok = counterexample is None
    payload = {
        "ok": ok,
        "counterexample": list(counterexample) if counterexample else None,
    }
    return payload, 0 if ok else 1


def _cmd_fundamental_cycle(M, X, args, options):
    from .cycle import fundamental_cycle_check, permutation_cycle_check
    n = M.n
    result = fundamental_cycle_check(X, M)
    if args.permutations is not None:
        perms = _parse_permutations(args.permutations)
    elif "permutations" in options:
        perms = [list(p) for p in options["permutations"]]
    elif n <= 4:
        perms = [list(p) for p in iter_permutations(range(1, n + 1))]
    else:
        perms = []
    asserted = is_generic(M)
    per_permutation = {}
    for p in perms:
        sub = permutation_cycle_check(X, M, p, allow_nongeneric=True)
        per_permutation[",".join(str(x) for x in p)] = {
            "lhs": sub["lhs"],
            "expected": sub["expected"],
            "ok": sub["ok"],
            "asserted": asserted,
        }
    payload = {
        "lhs": result["lhs"],
        "n_factorial_times_m": result["rhs"],
        "ok": result["ok"],
        "per_permutation": per_permutation,
    }
    return payload, 0 if result["ok"] else 1


def _cmd_partition(M, X, args, options):
    order = args.order or "P"
    rectangles = staircase_partition_2d(M, order)
    m = multiplicity(M)
    total = sum(r.area for r in rectangles)
    payload = {
        "order": order,
        "rectangles": [
            {"x": [r.x_lo, r.x_hi], "y": [r.y_lo, r.y_hi], "area": r.area}
            for r in rectangles
        ],
        "total_area": total,
        "multiplicity": m,
        "ok": total == m,
    }
    return payload, 0 if total == m else 1


_NEEDS_COMPLEX = {
    "resolve",
    "check-exact",
    "check-minimal",
    "residue",
    "compare",
    "annihilator",
    "duality-check",
    "fundamental-cycle",
}

_HANDLERS = {
    "generators": _cmd_generators,
    "hull": _cmd_hull,
    "scarf": _cmd_scarf,
    "resolve": _cmd_resolve,
    "check-exact": _cmd_check_exact,
    "check-minimal": _cmd_check_minimal,
    "residue": _cmd_residue,
    "compare": _cmd_compare,
    "annihilator": _cmd_annihilator,
    "duality-check": _cmd_duality_check,
    "multiplicity": _cmd_multiplicity,
    "fundamental-cycle": _cmd_fundamental_cycle,
    "partition": _cmd_partition,
}


_OPTIONS = ("--help", "--input", "--complex", "--t", "--beta", "--box", "--order",
            "--permutations")

USAGE = """\
usage: cellres [-h] [--input PATH] [--complex SOURCE] [--t T] [--beta BETA]
               [--box BOX] [--order {P,Q}] [--permutations PERMS] SUBCOMMAND
"""

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message):
    sys.stderr.write(f"{USAGE}cellres: error: {message}\n")
    sys.exit(2)


def _option(token):
    """(option, its value or None) for an option token, (None, None) for an
    unknown one, or None for an argument."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    head, eq, value = token.partition("=")
    if head in _OPTIONS or head == "-h":
        return head, value if eq else None
    if token[1] == "-":
        matches = [o for o in _OPTIONS if o.startswith(head)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _parse_args(argv):
    """The namespace of subcommand and options, as ``argparse`` gives it.

    Options come before or after the subcommand, as ``--name value``,
    ``--name=value`` or a unique prefix of the name; the last value wins.
    A value may look like an option only when it is a negative number or
    holds a space, and after ``--`` every token is an argument.  The tokens
    are read in order: ``-h`` prints the usage and exits 0, and the first
    usage error prints the usage and exits 2; an ambiguous prefix anywhere
    is an error before anything else.
    """
    tokens = list(argv)
    kinds = []  # per token: None for an argument, "--" for the marker
    for i, token in enumerate(tokens):
        if token == "--":
            kinds += ["--"] + [None] * (len(tokens) - i - 1)
            break
        kinds.append(_option(token))
    args = SimpleNamespace(subcommand=None, **{o[2:]: None for o in _OPTIONS[1:]})
    extras = []
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None or kind == "--":
            # the subcommand, with a "--" on either side of it
            j = i + (kind == "--")
            if args.subcommand is None and j < len(tokens) and kinds[j] is None:
                if tokens[j] not in SUBCOMMANDS:
                    _usage_error(f"argument subcommand: invalid choice: {tokens[j]!r}")
                args.subcommand = tokens[j]
                i = j + 1 + (i == j and kinds[j + 1:j + 2] == ["--"])
            else:
                extras.append(tokens[i])
                i += 1
            continue
        option, value = kind
        if option is None:
            extras.append(tokens[i])
        elif option in ("-h", "--help"):
            if value is not None and (option == "--help" or set(value) != {"h"}):
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(USAGE)
            sys.exit(0)
        else:
            if value is None:
                if i + 1 == len(tokens) or kinds[i + 1] is not None:
                    _usage_error(f"argument {option}: expected one argument")
                i += 1
                value = tokens[i]
            if option == "--t":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"argument --t: invalid int value: {value!r}")
            if option == "--order" and value not in ("P", "Q"):
                _usage_error(f"argument --order: invalid choice: {value!r}")
            setattr(args, option[2:], value)
        i += 1
    if args.subcommand is None:
        _usage_error("the following arguments are required: subcommand")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        M, job_source, options = _load_job(args)
        t = args.t if args.t is not None else options.get("t")
        args.t = t
        source = args.complex or job_source or "hull"
        X = None
        if args.subcommand in _NEEDS_COMPLEX:
            X = _build_complex(source, M, t)
        payload, code = _HANDLERS[args.subcommand](M, X, args, options)
    except (InputError, PreconditionError, CellresError, OSError) as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(payload)
    return code


def _emit(payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    sys.stdout.write(json.dumps(_json_ready(payload), sort_keys=True) + "\n")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
