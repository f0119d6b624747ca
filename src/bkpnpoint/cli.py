"""Command line interface.

Three subcommands: ``npoint`` writes connected n-point tables computed
from a coordinate file, ``verify`` runs the identity checks on seeded
random instances (or on a supplied instance), ``convert`` rewrites BKP
coordinates as the KP coordinates of the squared tau-function.

Exit codes: 0 success, 1 mathematical disagreement, 2 input error.
Output is deterministic: identical arguments produce byte-identical
files (JSON with sorted keys, rationals rendered as "p/q" strings).

Each command or check imports the layers it calls when it runs, so a
process loads only what its subcommand needs (``convert`` never loads the
cycle sums, the Fock space or the lemma), and every call reads the
defining module's binding, which is what a patched or traced binding
replaces.
"""

import argparse
import json
import sys
from functools import partial
from importlib import import_module

SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkpnpoint",
        description="Connected n-point functions of BKP tau-functions "
                    "from affine coordinates, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    np_ = sub.add_parser(
        "npoint", help="write a connected n-point table from a coordinate file"
    )
    np_.add_argument("--coords", required=True,
                     help='coordinate file: JSON list of [n, m, "p/q"] records')
    np_.add_argument("--n", type=int, required=True, help="number of points")
    np_.add_argument("--max-weight", type=int, required=True,
                     help="largest index sum reported")
    np_.add_argument("--formula",
                     choices=("wangyang", "embedded", "oracle", "all"),
                     default="all", help="route(s) to compute (default all)")
    np_.add_argument("--format", choices=("json", "csv"), default="json")
    np_.add_argument("--out", help="output path (default stdout)")
    np_.set_defaults(func=cmd_npoint)

    ver = sub.add_parser(
        "verify", help="run identity checks on seeded random instances"
    )
    pick = ver.add_mutually_exclusive_group(required=True)
    pick.add_argument("--check",
                      choices=("gs", "square", "state", "formulas", "lemma"))
    pick.add_argument("--suite", choices=("full",),
                      help="run every check")
    ver.add_argument("--coords",
                     help="check this instance instead of seeded random ones")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int,
                     help="number of seeded instances per check")
    ver.add_argument("--max-weight", "--weight", dest="max_weight", type=int,
                     help="weight / depth / cutoff of the check")
    ver.add_argument("--n", type=int, help="restrict formulas check to one n")
    ver.add_argument("--k", type=int, help="restrict lemma check to one k")
    ver.add_argument("--window", "--window-cap", dest="window", type=int,
                     help="box half-width of the lemma check (default 6; "
                          "--window-cap is the old name)")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", help="output path (default stdout)")
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser(
        "convert",
        help="write the KP coordinates of the squared tau-function",
    )
    conv.add_argument("--coords", required=True)
    conv.add_argument("--out", help="output path (default stdout)")
    conv.set_defaults(func=cmd_convert)
    return parser


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        _write(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        _write(_to_csv(doc), args.out)


def _to_csv(doc: dict) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if doc["command"] == "npoint":
        writer.writerow(("formula", "indices", "value"))
        for route in sorted(doc["tables"]):
            for record in doc["tables"][route]:
                indices = ":".join(str(i) for i in record["indices"])
                writer.writerow((route, indices, record["value"]))
    else:
        writer.writerow(("check", "passed", "detail"))
        for check in doc["checks"]:
            # a missing detail (None) is written as an empty field
            writer.writerow((check["name"], str(check["passed"]).lower(),
                             check["detail"]))
    return out.getvalue()


def _table_records(table: dict) -> list:
    return [
        {"indices": list(key), "value": str(table[key])}
        for key in sorted(table)
    ]


def cmd_npoint(args) -> int:
    from .affine import load_affine_b
    from .fock import oracle_npoint_table
    from .npoint import (embedded_npoint_series, first_difference,
                         npoint_table, wangyang_npoint_series)

    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.max_weight < args.n:
        raise ValueError("max weight must be at least n (indices are odd >= 1)")
    b = load_affine_b(args.coords)
    n, weight = args.n, args.max_weight
    tables = {}
    if args.formula in ("wangyang", "all"):
        series = wangyang_npoint_series(b, n, weight)
        tables["wangyang"] = npoint_table(series, n, weight, index_shift=0)
    if args.formula in ("embedded", "all"):
        series = embedded_npoint_series(b, n, weight)
        tables["embedded"] = npoint_table(series, n, weight, index_shift=1)
    if args.formula in ("oracle", "all"):
        tables["oracle"] = oracle_npoint_table(b, n, weight)
    first = first_difference(tables)
    if first is not None:
        key, *values = first
        first = {"indices": list(key),
                 "values": dict(zip(sorted(tables), map(str, values)))}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "npoint",
        "coords": args.coords,
        "n": n,
        "max_weight": weight,
        "formula": args.formula,
        "tables": {route: _table_records(t) for route, t in tables.items()},
        "agree": first is None,
        "first_difference": first,
    }
    _emit(doc, args)
    return 0 if first is None else 1


def _seeded_coords(args, count: int):
    if args.coords:
        from .affine import load_affine_b

        return [("file", load_affine_b(args.coords))]
    from .sampling import random_affine_b

    return [
        (args.seed + i, random_affine_b(args.seed + i)) for i in range(count)
    ]


def _default(value, default):
    return default if value is None else value


def _check_instances(name, args):
    """A boolean check of one size on each instance: gs, square or state."""
    # imported per call, so that only the check's layer loads and patched or
    # traced bindings are used
    module, function, label, size, count = {
        "gs": ("affine", "check_gs_relation", "depth", 8, 20),
        "square": ("fock", "check_square_relation", "max_weight", 8, 5),
        "state": ("fock", "check_state_equality", "cutoff", 8, 5),
    }[name]
    check = getattr(import_module(f".{module}", __package__), function)
    size = _default(args.max_weight, size)
    instances = _seeded_coords(args, _default(args.count, count))
    params = {label: size, "instances": len(instances)}
    for where, b in instances:
        if not check(b, size):
            return params, False, f"failed for instance {where}"
    return params, True, None


def _formula_sizes(args):
    ns = (1, 2, 3) if args.n is None else (args.n,)
    return _default(args.max_weight, 9), ns


def _check_formulas(args):
    from .npoint import compare_formulas

    weight, ns = _formula_sizes(args)
    instances = _seeded_coords(args, _default(args.count, 10))
    params = {"max_weight": weight, "n": list(ns),
              "instances": len(instances)}
    for label, b in instances:
        for n in ns:
            result = compare_formulas(b, n, weight)
            if not result.tables_agree:
                key, emb, wy = result.first_difference
                return params, False, (
                    f"instance {label} n {n}: tables differ at {list(key)} "
                    f"(embedded {emb}, wangyang {wy})"
                )
            if not result.raw_relation_holds:
                return params, False, (
                    f"instance {label} n {n}: raw series relation broken"
                )
    return params, True, None


def _check_lemma(args):
    from .affine import load_affine_b
    from .lemma import first_lemma_difference, instantiate_from_affine

    window = _default(args.window, 6)
    ks = (1, 2, 3) if args.k is None else (args.k,)
    if args.coords:
        specs = [("file", instantiate_from_affine(load_affine_b(args.coords)))]
    else:
        from .sampling import random_series_pair_spec

        specs = [
            (args.seed + i, random_series_pair_spec(args.seed + i))
            for i in range(_default(args.count, 20))
        ]
    params = {"window": window, "k": list(ks), "instances": len(specs)}
    for label, spec in specs:
        for k in ks:
            diff = first_lemma_difference(k, spec, window)
            if diff is not None:
                exps, lhs, rhs = diff
                return params, False, (
                    f"instance {label} k {k}: sides differ at {list(exps)} "
                    f"({lhs} vs {rhs})"
                )
    return params, True, None


_CHECKS = {
    "gs": partial(_check_instances, "gs"),
    "square": partial(_check_instances, "square"),
    "state": partial(_check_instances, "state"),
    "formulas": _check_formulas,
    "lemma": _check_lemma,
}


def _refuse_sizes(args, names) -> None:
    """Raise ``ValueError`` on a size no check can run with."""
    for flag, value, least in (
        ("--count", args.count, 1), ("--n", args.n, 1), ("--k", args.k, 1),
        ("--weight", args.max_weight, 1), ("--window", args.window, 0),
    ):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    weight, ns = _formula_sizes(args)
    if "formulas" in names and weight < max(ns):
        raise ValueError(f"max weight {weight} must be at least n = {max(ns)} "
                         "for the formulas check (indices are odd >= 1)")


def cmd_verify(args) -> int:
    names = list(_CHECKS) if args.suite else [args.check]
    _refuse_sizes(args, names)
    checks = []
    all_passed = True
    for name in names:
        params, passed, detail = _CHECKS[name](args)
        checks.append({
            "name": name,
            "params": params,
            "passed": passed,
            "detail": detail,
        })
        all_passed = all_passed and passed
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": args.seed,
        "checks": checks,
        "passed": all_passed,
    }
    _emit(doc, args)
    return 0 if all_passed else 1


def cmd_convert(args) -> int:
    from .affine import bkp_to_kp, dump_affine_kp, load_affine_b

    kp = bkp_to_kp(load_affine_b(args.coords))
    _write(dump_affine_kp(kp), args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a TableCheckError comes from npoint, so none is raised before it
        # loads
        npoint = sys.modules.get(f"{__package__}.npoint")
        if npoint is None or not isinstance(exc, npoint.TableCheckError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
