"""Command-line front end.

Exit codes: 0 success, 1 user error, 2 violated mathematical identity,
3 budget exhausted: --budget bounds the Weyl group enumeration, the box
and vertex scans and the table of vertex pairs, and selfcheck also exits
3 when its random polytope draws run out.
"""

import argparse
import functools
import json
import math
import random
import sys
from itertools import product
from typing import NamedTuple

import numpy as np

from . import groebner, polytope, rootsys, statistics, weyl
from .errors import DEFAULT_BUDGET, BudgetExceededError, DefectError, UserInputError

DEFAULT_SELFCHECK_SEED = 20240521
_DRAWS = 200
_MAX_DRAWN_VOLUME = 10**4


def _str_keys(value):
    """``value`` with each dict, and each dict among its values, rebuilt
    with keys ``str(key)``; lists and tuples are not walked."""
    if isinstance(value, dict):
        return {str(k): _str_keys(v) for k, v in value.items()}
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
    encodes ints, strs, bools, None, lists and tuples itself and writes
    ``str`` of the other leaves (a CosetClass, a WeylElement).  A ``_Table``
    value is written by ``_table_text``, not by json's per-element encoder.
    """
    report = _str_keys(report)
    if as_json:
        slots = {k: _SLOT + k for k, v in report.items() if isinstance(v, _Table)}
        text = json.dumps({**report, **slots}, indent=2, sort_keys=True, default=str)
        for key, slot in slots.items():  # a slot's string gives way to its table's text
            text = text.replace(json.dumps(slot), _table_text(report[key], True), 1)
        print(text)
        return
    for key, value in report.items():
        if isinstance(value, _Table):
            value = _table_text(value, False)
        elif isinstance(value, (dict, list, tuple)):
            value = json.dumps(value, sort_keys=True, default=str)
        print(f"{key}: {value}")


def _build(args) -> rootsys.RootSystemData:
    if args.type is None or args.rank is None:
        raise UserInputError("this subcommand needs --type and --rank")
    return rootsys.build(args.type, args.rank)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key: plain
    ``json.load`` keeps its last value silently."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise UserInputError(f"the spec repeats the key {key!r}")
        data[key] = value
    return data


def _load_polytope(args):
    if args.spec is None:
        raise UserInputError("this subcommand needs --spec file.json")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UserInputError(f"cannot read {args.spec}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UserInputError(f"{args.spec} is not valid JSON: {exc}") from exc
    return polytope.spec_to_polytope(data)


def _false_flags(report: dict) -> list:
    return [k for k, v in report.items() if v is False]


def _holds(report: dict) -> bool:
    return not _false_flags(report)


def _require(report: dict) -> None:
    """Raise DefectError naming each false flag of the report, in report
    order.  Every bool at the top level of a check's report is a flag, a
    theorem that must hold; nested reports are required one by one."""
    failed = _false_flags(report)
    if failed:
        raise DefectError("identity check failed: " + ", ".join(failed))


# -- subcommands ---------------------------------------------------------
def _cmd_info(args) -> dict:
    rs = _build(args)
    roots = _Table([_SLOT] * rs.rank, rs.positive_roots)
    return {**rootsys.info_dict(rs), "positive_roots": roots}


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
    _require(report)
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
    for check in ("hypersimplex", "double_coset", "cmaj_twist"):
        _require(report[check])
    return report


def _cmd_qweyl(args) -> dict:
    rs = _build(args)
    report = statistics.qweyl_check(weyl.enumerate_weyl(rs, budget=args.budget))
    _require(report)
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
    _require(report)
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
    boxes = product((1, 2), repeat=rs.rank)
    reports = polytope.thick_identity_check(rs, boxes, args.budget)
    for report in reports.values():
        _require(report)
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "cases": len(reports),
        "identity_holds": True,
    }


def _cmd_groebner(args) -> dict:
    P = _load_polytope(args)
    r, pair = P.rs.rank, [[_SLOT] * P.rs.rank] * 2
    rewriter = groebner.Rewriter(P, args.budget)
    binomials = rewriter.coordinates(rewriter.rules)
    return {
        "type": P.rs.type_label,
        "rank": r,
        "vertices": _Table([_SLOT] * r, rewriter.vertices),
        "binomials": _Table({"lead": pair, "trail": pair}, binomials),
    }


def _cmd_triangulate(args) -> dict:
    P = _load_polytope(args)
    simplices = groebner.triangulate(P, args.budget)
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
    """A random box with simple-root bounds in [-2, 2] and volume at most
    _MAX_DRAWN_VOLUME, whose volume scan fits ``budget``.  Raises
    BudgetExceededError when no draw of _DRAWS does.

    A draw is judged without a scan: a box of widths ``K_i - k_i >= 1``
    holds ``prod(K_i - k_i)`` copies of the parallelepiped, of volume
    ``|W| / f``, and its volume scan at scale h has
    ``prod((K_i - k_i) * h + 1)`` points."""
    cell = rootsys.weyl_order(rs) // rs.index_of_connection
    for _ in range(_DRAWS):
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        widths = [hi - lo for _, lo, hi in cons]
        points = math.prod(w * rs.h_star + 1 for w in widths)
        if cell * math.prod(widths) <= _MAX_DRAWN_VOLUME and points <= budget:
            return polytope.make_polytope(rs, cons)
    raise BudgetExceededError(
        f"none of {_DRAWS} random polytopes of {rs.type_label}{rs.rank} has volume "
        f"1..{_MAX_DRAWN_VOLUME} with a scan within budget {budget}"
    )


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
    # group_C raises DefectError unless the cdes = 1 elements permute the
    # affine simple roots by marks, are closed and take each delta class once
    statistics.group_C(W)
    results["group_C_descriptions"] = True
    results["double_coset"] = _holds(statistics.double_coset_check(W))
    results["cmaj_twist"] = _holds(statistics.cmaj_twist_check(W))
    results["q_weyl"] = _holds(statistics.qweyl_check(W))
    hs = statistics.hypersimplex_statistic_check(W, args.budget)
    results["hypersimplex_statistics"] = _holds(hs)
    vol_ok = True
    for _ in range(3):
        P = _random_polytope(rs, rng, args.budget)
        vol_ok = vol_ok and _holds(polytope.volume_identity_check(P, W, args.budget))
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
    _require(results)
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
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
