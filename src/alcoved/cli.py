"""Command-line front end.

Exit codes: 0 success, 1 user error, 2 violated mathematical identity,
3 enumeration budget exhausted.
"""

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from . import geometry, groebner, polytope, rootsys, statistics, weyl
from .errors import BudgetExceededError, DefectError, UserInputError

DEFAULT_SELFCHECK_SEED = 20240521


def _jsonable(value):
    """The JSON form of a value json cannot encode: an int or "p/q" for a
    Fraction, "(x,...)" for a CosetClass, a dict for a GroupAlgebraElement
    and ``str(value)`` for anything else."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, statistics.CosetClass):
        return "(" + ",".join(str(_jsonable(x)) for x in value.frac) + ")"
    if isinstance(value, statistics.GroupAlgebraElement):
        return {_jsonable(cls): list(poly) for cls, poly in value.coeffs.items()}
    return str(value)


def _str_keys(value):
    """``value`` with each dict, and each dict among its values, rebuilt
    with keys ``str(_jsonable(key))``; lists and tuples are not walked."""
    if isinstance(value, dict):
        return {str(_jsonable(k)): _str_keys(v) for k, v in value.items()}
    return value


_SLOT = "\x00"  # json writes it as "\u0000": the place of an int, a row or a table


class _Table(NamedTuple):
    """A list of rows of one shape: ``form`` is a row's JSON structure with
    ``_SLOT`` for each int, and a row of ``rows`` holds its ints in the order
    in which ``json.dumps(form, sort_keys=True)`` writes the slots."""

    form: object
    rows: list


def _table_text(table: _Table, as_json: bool) -> str:
    """What ``json.dumps`` writes for the table's list of rows, as a report
    value with ``indent=2`` (``as_json``) or alone without indent.  json
    writes the row form, and a two-slot list for the frame, at the table's
    depth, so separators, key order and indentation are json's own; like
    json, ``%d`` writes an int as ``int.__repr__`` does, past int64 too."""
    if not table.rows:
        return "[]"
    indent = 2 if as_json else None
    frame = json.dumps([_SLOT, _SLOT], indent=indent)
    row = json.dumps(table.form, indent=indent, sort_keys=True)
    if as_json:  # the list is a report value at depth 1, its rows at depth 2
        frame, row = frame.replace("\n", "\n  "), row.replace("\n", "\n    ")
    head, sep, tail = frame.split(json.dumps(_SLOT))
    template = row.replace("%", "%%").replace(json.dumps(_SLOT), "%d")
    return head + sep.join([template % tuple(r) for r in table.rows]) + tail


def _emit(report: dict, as_json: bool) -> None:
    """Print a report as indented JSON or one ``key: value`` line per key.

    Keys are made str first, so that ``sort_keys`` orders them as strings
    ("10" before "2"); no report nests an int-keyed dict in a list.  json
    encodes ints, strs, bools, None, lists and tuples itself and hands the
    other leaves (Fraction, CosetClass, ...) to ``_jsonable``.  A ``_Table``
    value is written by ``_table_text``, not by json's per-element encoder.
    """
    report = _str_keys(report)
    if as_json:
        slots = {k: _SLOT + k for k, v in report.items() if isinstance(v, _Table)}
        text = json.dumps({**report, **slots}, indent=2, sort_keys=True, default=_jsonable)
        for key, slot in slots.items():  # a slot's string gives way to its table's text
            text = text.replace(json.dumps(slot), _table_text(report[key], True), 1)
        print(text)
        return
    for key, value in report.items():
        if isinstance(value, _Table):
            value = _table_text(value, False)
        elif not isinstance(value, (dict, list, tuple)):
            value = _jsonable(value)
        if isinstance(value, (dict, list, tuple)):
            value = json.dumps(value, sort_keys=True, default=_jsonable)
        print(f"{key}: {value}")


def _build(args) -> rootsys.RootSystemData:
    if args.type is None or args.rank is None:
        raise UserInputError("this subcommand needs --type and --rank")
    return rootsys.build(args.type, args.rank)


def _load_polytope(args):
    if args.spec is None:
        raise UserInputError("this subcommand needs --spec file.json")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UserInputError(f"cannot read {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UserInputError(f"{args.spec} is not valid JSON: {exc}") from exc
    return polytope.spec_to_polytope(data)


def _require(report: dict, keys) -> None:
    """Raise DefectError when any named flag in the report is false."""
    failed = [k for k in keys if not report.get(k)]
    if failed:
        raise DefectError("identity check failed: " + ", ".join(failed))


# -- subcommands ---------------------------------------------------------
def _cmd_info(args) -> dict:
    return rootsys.info_dict(_build(args))


def _cmd_enumerate(args) -> dict:
    rs = _build(args)
    elements = weyl.enumerate_weyl(rs, budget=args.budget)
    expected = rootsys.weyl_order(rs)
    report = {
        "type": rs.type_label,
        "rank": rs.rank,
        "count": len(elements),
        "order_formula": expected,
        "formula_holds": len(elements) == expected,
        "length_histogram": _length_histogram(elements),
    }
    _require(report, ["formula_holds"])
    return report


def _length_histogram(W) -> dict:
    return dict(enumerate(np.bincount(W.length).tolist()))


def _cmd_stats(args) -> dict:
    rs = _build(args)
    W = weyl.enumerate_weyl(rs, budget=args.budget)
    report = {
        "type": rs.type_label,
        "rank": rs.rank,
        "hypersimplex": statistics.hypersimplex_statistic_check(W, args.budget),
        "double_coset": statistics.double_coset_check(W),
        "cmaj_twist": statistics.cmaj_twist_check(W),
    }
    _require(report["hypersimplex"], [
        "coset_identity_holds",
        "element_identity_holds",
        "cdes_constant_on_cosets",
        "generating_function_holds",
    ])
    _require(report["double_coset"], ["holds"])
    _require(report["cmaj_twist"], ["holds", "inverse_symmetry_holds"])
    return report


def _cmd_qweyl(args) -> dict:
    rs = _build(args)
    report = statistics.qweyl_check(weyl.enumerate_weyl(rs, budget=args.budget))
    _require(report, ["identity_holds", "scalar_holds"])
    return report


def _cmd_volume(args) -> dict:
    P = _load_polytope(args)
    return {
        "type": P.rs.type_label,
        "rank": P.rs.rank,
        "is_empty": P.is_empty,
        "bounds": [list(b) for b in P.bounds],
        "volume": polytope.volume(P, budget=args.budget),
        "lattice_points": polytope.lattice_point_count(P, budget=args.budget),
    }


def _cmd_vol_identity(args) -> dict:
    P = _load_polytope(args)
    W = weyl.enumerate_weyl(P.rs, budget=args.budget)
    report = polytope.volume_identity_check(P, W, args.budget)
    _require(report, ["identity_holds"])
    return report


def _cmd_hypersimplex(args) -> dict:
    rs = _build(args)
    if args.k is not None:
        volume = polytope.volume(polytope.hypersimplex(rs, args.k), budget=args.budget)
        volumes = {args.k: volume}
    else:
        volumes = dict(enumerate(polytope.hypersimplex_volumes(rs, args.budget), 1))
    return {"type": rs.type_label, "rank": rs.rank, "volumes": volumes}


def _cmd_thick_check(args) -> dict:
    rs = _build(args)
    layer_volumes = polytope.hypersimplex_volumes(rs, args.budget)
    cases = 0
    for b in product((1, 2), repeat=rs.rank):
        check = polytope._thick_identities(rs, b, layer_volumes, args.budget)
        top = sum(a * bi for a, bi in zip(rs.marks, b))
        for k in range(0, top + 1):
            for K in range(k, top + 1):
                _require(check(k, K), ["identity_holds"])
                cases += 1
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "cases": cases,
        "identity_holds": True,
    }


def _cmd_groebner(args) -> dict:
    P = _load_polytope(args)
    r, pair = P.rs.rank, [[_SLOT] * P.rs.rank] * 2
    binomials = groebner.groebner_basis(P, args.budget, flat=True)
    return {
        "type": P.rs.type_label,
        "rank": r,
        "vertices": _Table([_SLOT] * r, groebner._rewriter(P, args.budget).vertices),
        "binomials": _Table({"lead": pair, "trail": pair}, binomials),
    }


def _cmd_triangulate(args) -> dict:
    P = _load_polytope(args)
    simplices = groebner.triangulate(P, args.budget, flat=True)
    return {
        "type": P.rs.type_label,
        "rank": P.rs.rank,
        "volume": len(simplices),  # the triangulation check scanned the volume
        "simplices": _Table([[_SLOT] * P.rs.rank] * (P.rs.rank + 1), simplices),
    }


def _cmd_cross_table(args) -> dict:
    rs = _build(args)
    return statistics.cmaj_cross_table(weyl.enumerate_weyl(rs, budget=args.budget))


def _random_polytope(rs, rng, budget):
    """A nonempty random polytope with simple-root bounds in [-2, 2]."""
    for _ in range(200):
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        P = polytope.make_polytope(rs, cons)
        if P.is_empty:
            continue
        try:
            if 0 < polytope.volume(P, budget=budget) <= 10**4:
                return P
        except BudgetExceededError:
            continue
    raise DefectError("could not draw a nonempty random polytope")


def _selfcheck_polytope(rs):
    """A small supported-type polytope for the triangulation check."""
    if rs.type_label == "D":
        cons = [(root, 0, 1) for root in rs.positive_roots]
        cons[rs.root_index(rs.simple_roots[0])] = (rs.simple_roots[0], -1, 1)
        return polytope.make_polytope(rs, cons)
    if rootsys.weyl_order(rs) <= 60:
        return polytope.adjacent_star(rs)
    return polytope.hypersimplex(rs, 1)


def _cmd_selfcheck(args) -> dict:
    rs = _build(args)
    rng = random.Random(args.seed)
    W = weyl.enumerate_weyl(rs, budget=args.budget)
    results = {}
    results["weyl_order_formula"] = len(W) == rootsys.weyl_order(rs)
    # the first read of W.C builds the C tables, and raises DefectError
    # unless the cdes = 1 elements permute the affine simple roots by
    # marks, are closed and take each delta class once
    W.C
    results["group_C_descriptions"] = True
    results["double_coset"] = statistics.double_coset_check(W)["holds"]
    twist = statistics.cmaj_twist_check(W)
    results["cmaj_twist"] = twist["holds"] and twist["inverse_symmetry_holds"]
    qw = statistics.qweyl_check(W)
    results["q_weyl"] = qw["identity_holds"] and qw["scalar_holds"]
    hs = statistics.hypersimplex_statistic_check(W, args.budget)
    results["hypersimplex_statistics"] = all(
        hs[k]
        for k in (
            "coset_identity_holds",
            "element_identity_holds",
            "cdes_constant_on_cosets",
            "generating_function_holds",
        )
    )
    vol_ok = True
    for _ in range(3):
        P = _random_polytope(rs, rng, args.budget)
        vol_ok = vol_ok and polytope.volume_identity_check(
            P, W, args.budget
        )["identity_holds"]
    results["volume_lattice_identity"] = vol_ok
    if groebner.supported(rs):
        # triangulate raises DefectError unless the simplices number Vol(P)
        groebner.triangulate(_selfcheck_polytope(rs), args.budget)
        results["groebner_triangulation"] = True
    else:
        results["groebner_triangulation"] = "skipped (unsupported type)"
    report = {
        "type": rs.type_label,
        "rank": rs.rank,
        "seed": args.seed,
        "checks": results,
    }
    failed = [k for k, v in results.items() if v is False]
    if failed:
        raise DefectError("selfcheck failed: " + ", ".join(failed))
    return report


_COMMANDS = {
    "info": _cmd_info,
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "qweyl": _cmd_qweyl,
    "volume": _cmd_volume,
    "vol-identity": _cmd_vol_identity,
    "hypersimplex": _cmd_hypersimplex,
    "thick-check": _cmd_thick_check,
    "groebner": _cmd_groebner,
    "triangulate": _cmd_triangulate,
    "cross-table": _cmd_cross_table,
    "selfcheck": _cmd_selfcheck,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserInputError(message)


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alcoved", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--type", choices=list("ABCDEFG"), help="root system type")
    parser.add_argument("--rank", type=int, help="root system rank")
    parser.add_argument("--spec", help="polytope spec JSON file")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--seed", type=int, default=DEFAULT_SELFCHECK_SEED)
    parser.add_argument("--budget", type=int, default=10**8)
    parser.add_argument("--k", type=int, help="hypersimplex index")
    return parser


def run(argv) -> int:
    try:
        args = _make_parser().parse_args(argv)
        if args.k is not None and args.command != "hypersimplex":
            raise UserInputError("--k applies only to hypersimplex")
        if args.budget <= 0:
            raise UserInputError("--budget must be positive")
        report = _COMMANDS[args.command](args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DefectError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.json)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
