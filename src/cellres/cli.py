"""Batch command-line front end: JSON in, deterministic JSON out.

A job is an ideal ``{"n": ..., "generators": [...]}``; the complex, the
lift base, beta, the order and the permutations come from their flags.  Exit
codes: 0 for success or a true verdict, 1 for a false verdict, 2 for bad
input or violated preconditions.

Each subcommand imports the layers it uses when it runs, so ``generators``,
``multiplicity`` and ``partition`` load ``monomial`` only.  The command
line is read by ``_parse_args``, written for its one positional argument and
six flags; it accepts what an ``argparse`` parser of the same arguments
does (see its docstring), without loading ``argparse``, ``gettext`` and
``locale``.
"""

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
    multiplicity,
    staircase_partition_2d,
)

SCHEMA = "cellres/1"


def _parse_beta(text, n):
    try:
        vector = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer vector: {text}") from exc
    if len(vector) != n or min(vector) < 0:
        raise InputError(f"--beta must be {n} nonnegative integers, got {vector!r}")
    return vector


def _parse_permutations(text):
    try:
        return [
            [int(x) for x in block.split(",")] for block in text.split(";") if block
        ]
    except ValueError as exc:
        raise InputError(
            f"expected semicolon-separated integer permutations: {text}"
        ) from exc


def _parse_json(text, what):
    """The JSON value of text; every way it can fail is an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what} at position {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # past the interpreter's int-string limit
        raise InputError(
            f"{what} has an integer literal longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{what} nests too deeply") from exc


def _decode(data, what) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"malformed {what} at byte {exc.start}: not UTF-8") from exc


def _read_json(path, what):
    """The JSON value of a UTF-8 file; see _parse_json."""
    with open(path, "rb") as handle:
        return _parse_json(_decode(handle.read(), what), what)


def _load_job(args):
    if args.input:
        return ideal_from_json(_read_json(args.input, "JSON"))
    # stdin's bytes are UTF-8 whatever the locale, as a file's are; a text
    # stream without bytes beneath it is read as it is
    stdin = getattr(sys.stdin, "buffer", None)
    text = _decode(stdin.read(), "JSON") if stdin else sys.stdin.read()
    return ideal_from_json(_parse_json(text, "JSON"))


def _build_complex(M: MonomialIdeal, args):
    source = args.complex or "hull"
    if source == "hull":
        from .hull import embedded_hull
        return embedded_hull(M, args.t)
    if source == "scarf":
        from .hull import scarf_complex
        return scarf_complex(M, args.t)
    if source == "taylor":
        from .hull import taylor_complex
        return taylor_complex(M)
    if source.startswith("file:"):
        from .cellcomplex import vertex_ideal
        from .complexfile import complex_from_json
        X = complex_from_json(_read_json(source[len("file:"):], "complex JSON"))
        if vertex_ideal(X) != M:
            raise PreconditionError("vertex labels do not generate the given ideal")
        return X
    raise InputError(f"unknown complex source: {source}")


def _matrix_json(columns, row_basis, col_basis, row_labels, col_labels, n):
    """The rows of a map given as sign columns: entry (tau, sigma) is
    {"sign": s, "exp": m_sigma - m_tau}, and every zero entry is one shared
    object."""
    zero = {"sign": 0, "exp": [0] * n}
    matrix = [[zero] * len(col_basis) for _ in row_basis]
    for j, column in enumerate(columns):
        top = col_labels[col_basis[j]]
        for i, sign in column.items():
            exp = [a - b for a, b in zip(top, row_labels[row_basis[i]])]
            matrix[i][j] = {"sign": sign, "exp": exp}
    return matrix


def _cmd_generators(M, args):
    return {"n": M.n, "generators": M.generators}, 0


def _cmd_multiplicity(M, args):
    return {"multiplicity": multiplicity(M)}, 0


def _cmd_hull(M, args):
    from .cellcomplex import complex_to_json
    from .hull import hull_complex
    return complex_to_json(hull_complex(M, args.t)), 0


def _cmd_scarf(M, args):
    from .cellcomplex import complex_to_json
    from .hull import scarf_complex
    return complex_to_json(scarf_complex(M, args.t)), 0


def _cmd_resolve(M, args):
    X = _build_complex(M, args)
    from .resolution import cellular_complex
    F = cellular_complex(X)
    levels = {str(k): F.basis(k) for k in F.levels}
    matrices = {
        str(k): _matrix_json(F.columns[k], F.basis(k - 1), F.basis(k),
                             F.labels, F.labels, F.n)
        for k in F.columns
    }
    return {"levels": levels, "matrices": matrices}, 0


def _cmd_check_exact(M, args):
    X = _build_complex(M, args)
    from .resolution import exactness_witness
    witness = exactness_witness(X)
    return {"ok": witness is None, "witness": witness}, 0 if witness is None else 1


def _cmd_check_minimal(M, args):
    X = _build_complex(M, args)
    from .resolution import cellular_complex, minimality_witness
    witness = minimality_witness(cellular_complex(X))
    return {"ok": witness is None, "witness": witness}, 0 if witness is None else 1


def _cmd_residue(M, args):
    X = _build_complex(M, args)
    from .residue import residue_current
    R = residue_current(X)
    entries = [
        {"face": fid, "sign": c.sign, "alpha": c.alpha}
        for fid, c in sorted(R.entries.items())
    ]
    return {"entries": entries}, 0


def _cmd_compare(M, args):
    X = _build_complex(M, args)
    from .residue import chain_maps, verify_chain_maps
    maps = chain_maps(X)
    witness = verify_chain_maps(X)
    Y, F = maps.source, maps.target
    payload = {
        "maps": {
            str(k): _matrix_json(maps.columns[k], F.basis(k), Y.basis(k),
                                 F.labels, Y.labels, F.n)
            for k in maps.columns
        },
        "row_bases": {str(k): F.basis(k) for k in maps.columns},
        "col_bases": {str(k): Y.basis(k) for k in maps.columns},
        "ok": witness is None,
        "witness": witness,
    }
    return payload, 0 if witness is None else 1


def _cmd_annihilator(M, args):
    X = _build_complex(M, args)
    from .residue import annihilator_contains, residue_current
    beta = None
    if args.beta is not None:
        beta = _parse_beta(args.beta, M.n)
    R = residue_current(X)
    components = [
        {"face": fid, "alpha": c.alpha}
        for fid, c in sorted(R.entries.items())
    ]
    payload = {"components": components}
    if beta is not None:
        payload["beta"] = beta
        payload["annihilates"] = annihilator_contains(R, beta)
    return payload, 0


def _cmd_duality_check(M, args):
    X = _build_complex(M, args)
    from .residue import duality_counterexample, residue_current
    counterexample = duality_counterexample(residue_current(X), M)
    ok = counterexample is None
    return {"ok": ok, "counterexample": counterexample}, 0 if ok else 1


def _cmd_fundamental_cycle(M, args):
    X = _build_complex(M, args)
    from .cycle import fundamental_cycle_check, permutation_cycle_check
    result = fundamental_cycle_check(X)
    if args.permutations is not None:
        perms = _parse_permutations(args.permutations)
    elif M.n <= 4:
        perms = list(iter_permutations(range(1, M.n + 1)))
    else:
        perms = []
    asserted = is_generic(M)
    per_permutation = {}
    for p in perms:
        sub = permutation_cycle_check(X, p)
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


def _cmd_partition(M, args):
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

SUBCOMMANDS = tuple(_HANDLERS)


_OPTIONS = ("--help", "--input", "--complex", "--t", "--beta", "--order",
            "--permutations")

USAGE = """\
usage: cellres [-h] [--input PATH] [--complex SOURCE] [--t T] [--beta BETA]
               [--order {P,Q}] [--permutations PERMS] SUBCOMMAND
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
    """The namespace of subcommand and flags, as ``argparse`` gives it.

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
        payload, code = _HANDLERS[args.subcommand](_load_job(args), args)
    except (InputError, PreconditionError, CellresError, OSError) as exc:
        _emit({"error": str(exc)})
        return 2
    try:
        _emit(payload)
    except ValueError:  # past the interpreter's int-string limit
        _emit({"error": "result has an integer longer than "
                        f"{sys.get_int_max_str_digits()} digits"})
        return 2
    return code


def _emit(payload):
    sys.stdout.write(json.dumps({**payload, "schema": SCHEMA}, sort_keys=True) + "\n")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
