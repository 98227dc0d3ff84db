"""Command-line interface: subcommands, JSON output and exit codes."""

import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import alcoved
from alcoved import cli, geometry, groebner, polytope, rootsys, statistics, weyl
from alcoved.errors import DEFAULT_BUDGET, BudgetExceededError, DefectError


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info(capsys):
    code, report = run_json(capsys, ["info", "--type", "A", "--rank", "2"])
    assert code == 0
    assert report["weyl_order"] == 6
    assert report["marks"] == [1, 1]


def test_enumerate(capsys):
    code, report = run_json(capsys, ["enumerate", "--type", "C", "--rank", "2"])
    assert code == 0
    assert report["count"] == 8
    assert report["formula_holds"] is True


def test_qweyl(capsys):
    code, report = run_json(capsys, ["qweyl", "--type", "C", "--rank", "2"])
    assert code == 0
    assert report["identity_holds"] is True
    assert report["component_poly"] == [0, 1, 2, 1]


def test_hypersimplex_volumes(capsys):
    code, report = run_json(capsys, ["hypersimplex", "--type", "A", "--rank", "3"])
    assert code == 0
    assert report["volumes"] == {"1": 1, "2": 4, "3": 1}


def test_hypersimplex_single_index(capsys):
    code, report = run_json(
        capsys, ["hypersimplex", "--type", "A", "--rank", "3", "--k", "2"]
    )
    assert code == 0
    assert report["volumes"] == {"2": 4}


def test_parser_is_reused_without_stale_options(capsys):
    # the parser is built once per process; an option given to one run
    # must not leak into the next
    assert cli._make_parser() is cli._make_parser()
    argv = ["hypersimplex", "--type", "A", "--rank", "3"]
    code, report = run_json(capsys, argv + ["--k", "2"])
    assert code == 0
    assert report["volumes"] == {"2": 4}
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["volumes"] == {"1": 1, "2": 4, "3": 1}


def test_volume_and_identity_from_spec(tmp_path, capsys):
    spec = {
        "type": "A",
        "rank": 2,
        "constraints": [
            {"root": [1, 0], "min": 0, "max": 1},
            {"root": [0, 1], "min": 0, "max": 1},
        ],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, ["volume", "--spec", str(path)])
    assert code == 0
    assert report["volume"] == 2
    assert report["lattice_points"] == 4
    code, report = run_json(capsys, ["vol-identity", "--spec", str(path)])
    assert code == 0
    assert report["identity_holds"] is True


def test_volume_reports_empty_only_where_no_point_is(tmp_path, capsys, monkeypatch):
    scan, scales = polytope._scan, []

    def recorded(P, scale, *args, **kwargs):
        scales.append(scale)
        return scan(P, scale, *args, **kwargs)

    monkeypatch.setattr(polytope, "_scan", recorded)

    def volume_report(rs, cons):
        scales.clear()
        code, report = run_json(capsys, ["volume", "--spec", _write_spec(tmp_path, rs, cons)])
        assert code == 0
        return report["is_empty"], report["volume"], report["lattice_points"]

    # A3: alpha1 + alpha2 = alpha2 + alpha3 = 2 with every simple root in
    # 0..1 forces lambda = (1, 1, 1), where theta pairs to 3 > 1: each
    # root's bounds hold, but no point does
    rs = rootsys.build("A", 3)
    cons = [(a, 0, 1) for a in rs.simple_roots]
    cons += [((1, 1, 0), 2, 2), ((0, 1, 1), 2, 2), (rs.theta, 0, 1)]
    assert volume_report(rs, cons) == (True, 0, 0)
    assert scales == [4, 1]  # every mark is 1: the lattice count decides
    # C2: the one point omega_1 / 2 has no alcove and no lattice point, and
    # the scan at its mark 2 finds it
    rs = rootsys.build("C", 2)
    assert volume_report(rs, [((1, 0), 0, 1), ((0, 1), 0, 0), (rs.theta, 1, 1)]) == (False, 0, 0)
    assert scales == [4, 1, 2]
    # bounds that cross, and a box of alcoves, which pays for no third scan
    assert volume_report(rs, [((1, 0), 0, 1), ((0, 1), 0, 1), (rs.theta, 4, 4)]) == (True, 0, 0)
    assert volume_report(rs, [((1, 0), 0, 1), ((0, 1), 0, 1)]) == (False, 4, 4)
    assert scales == [4, 1]
    # E8: as in A3, alpha1 = alpha3 = alpha4 = 1 is forced and then cut off.
    # lcm(marks) = 60 is twice h = 30, and a scan at 60 would charge 61^5
    # points, past the budget that the volume scan's 31^5 fits in
    rs = rootsys.build("E", 8)
    cons = [(a, 0, int(i in (0, 2, 3, 4, 5))) for i, a in enumerate(rs.simple_roots)]
    cons += [((1, 0, 1, 0, 0, 0, 0, 0), 2, 2), ((0, 0, 1, 1, 0, 0, 0, 0), 2, 2)]
    assert volume_report(rs, cons + [((1, 0, 1, 1, 0, 0, 0, 0), 0, 1)]) == (True, 0, 0)
    assert scales == [30, 1, 2, 3, 4, 5, 6]
    # E8: the one point omega_5 / 5, found by the scan at its mark only
    j = rs.marks.index(5)
    cons = [(a, a[j] // 5, -(-a[j] // 5)) for a in rs.positive_roots]
    assert volume_report(rs, cons) == (False, 0, 0)
    assert scales == [30, 1, 2, 3, 4, 5]


def test_non_integer_spec_bound_is_a_user_error(tmp_path, capsys):
    spec = {
        "type": "A",
        "rank": 2,
        "constraints": [
            {"root": [1, 0], "min": 0.9, "max": 1.7},
            {"root": [0, 1], "min": 0, "max": 1},
        ],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(spec))
    assert cli.run(["volume", "--spec", str(path)]) == 1
    assert "must be an integer" in capsys.readouterr().err


def test_unknown_spec_key_is_a_user_error(tmp_path, capsys):
    box = {"root": [1], "min": 0, "max": 2}
    spec = {"type": "A", "rank": 1, "constraints": [box]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.run(["volume", "--spec", str(path)]) == 0
    capsys.readouterr()
    # a stray key would otherwise leave the polytope uncut
    for bad, key in (({**spec, "constraint": []}, "'constraint'"),
                     ({**spec, "constraints": [{**box, "maxx": 1}]}, "'maxx'")):
        path.write_text(json.dumps(bad))
        assert cli.run(["volume", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err


def test_repeated_spec_key_is_a_user_error(tmp_path, capsys):
    # json keeps the last copy of a key, so each spec below would
    # otherwise be cut by its wider box only: volume 5, not 1
    narrow = '{"root": [1], "min": 0, "max": 1}'
    wide = '{"root": [1], "min": 0, "max": 5}'
    path = tmp_path / "spec.json"
    for text, key in (
        (f'{{"type": "A", "rank": 1, "constraints": [{narrow}], "constraints": [{wide}]}}',
         "'constraints'"),
        (f'{{"type": "A", "rank": 1, "constraints": [{narrow[:-1]}, "max": 5}}]}}', "'max'"),
    ):
        path.write_text(text)
        assert cli.run(["volume", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err
    path.write_text(f'{{"type": "A", "rank": 1, "constraints": [{narrow}]}}')
    assert cli.run(["volume", "--spec", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["volume"] == 1


def test_spec_that_is_not_utf8_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.run(["volume", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")


def test_groebner_and_triangulate_from_spec(tmp_path, capsys):
    spec = {
        "type": "A",
        "rank": 2,
        "constraints": [
            {"root": [1, 0], "min": 0, "max": 1},
            {"root": [0, 1], "min": 0, "max": 1},
        ],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, ["groebner", "--spec", str(path)])
    assert code == 0
    assert len(report["binomials"]) == 1
    assert sorted(report["vertices"]) == [[0, 0], [0, 1], [1, 0], [1, 1]]
    code, report = run_json(capsys, ["triangulate", "--spec", str(path)])
    assert code == 0
    assert report["volume"] == 2
    assert len(report["simplices"]) == 2


def test_thick_check(capsys):
    code, report = run_json(capsys, ["thick-check", "--type", "A", "--rank", "2"])
    assert code == 0
    assert report["cases"] == 41
    assert report["identity_holds"] is True


def test_thick_check_scans_each_layer_once(monkeypatch, capsys):
    # the same cases and verdict as one thick_identity_check per case,
    # from three scans per command: the central points of the bounding
    # box of the boxes b, the lattice points of that of the boxes b - 1,
    # and the central points of the parallelepiped
    calls = []
    scan = polytope._scan

    def counted(P, *args, **kwargs):
        calls.append(P)
        return scan(P, *args, **kwargs)

    monkeypatch.setattr(polytope, "_scan", counted)
    for t, r, cases in (("B", 2, 74), ("C", 2, 74), ("G", 2, 168)):
        calls.clear()
        code, report = run_json(capsys, ["thick-check", "--type", t, "--rank", str(r)])
        assert code == 0
        assert report == {"type": t, "rank": r, "cases": cases, "identity_holds": True}
        assert len(calls) == 3


def test_thick_check_calls_the_identity_check_once(monkeypatch, capsys):
    calls = []
    check = polytope.thick_identity_check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(polytope, "thick_identity_check", counted)
    for t, r in (("B", 2), ("A", 3)):
        calls.clear()
        assert cli.run(["thick-check", "--type", t, "--rank", str(r)]) == 0
        assert len(calls) == 1


def test_wrong_layer_volume_fails_the_thick_identity(monkeypatch, capsys):
    # one layer volume off by one breaks the slice sums that use it
    volumes = polytope.hypersimplex_volumes

    def wrong(*args, **kwargs):
        out = volumes(*args, **kwargs)
        out[0] += 1
        return out

    monkeypatch.setattr(polytope, "hypersimplex_volumes", wrong)
    rs = rootsys.build("C", 2)
    reports = polytope.thick_identity_check(rs, [(1, 1), (2, 2)])
    assert not all(report["identity_holds"] for report in reports.values())
    assert cli.run(["thick-check", "--type", "C", "--rank", "2"]) == 2
    assert "identity check failed: identity_holds" in capsys.readouterr().err


def test_wrong_eulerian_polynomial_fails_the_q_weyl_identity(monkeypatch, capsys):
    monkeypatch.setattr(statistics, "eulerian_polynomial", lambda n: (0, 1, 2))
    report = statistics.qweyl_check(weyl.enumerate_weyl(rootsys.build("B", 3)))
    assert report["identity_holds"] is False
    assert report["scalar_holds"] is False
    assert cli.run(["qweyl", "--type", "B", "--rank", "3"]) == 2
    err = capsys.readouterr().err
    assert "identity check failed: identity_holds, scalar_holds" in err


def test_every_false_flag_of_a_report_fails_its_command(monkeypatch, capsys):
    # a flag that no list in the CLI names is required all the same
    def with_extra_flag(check):
        return lambda *args, **kwargs: {**check(*args, **kwargs), "extra_holds": False}

    for name in ("qweyl_check", "double_coset_check"):
        monkeypatch.setattr(statistics, name, with_extra_flag(getattr(statistics, name)))
    typed = ["--type", "A", "--rank", "2"]
    for cmd, failed in (("qweyl", "extra_holds"), ("stats", "extra_holds"),
                        ("selfcheck", "double_coset, q_weyl")):
        assert cli.run([cmd, *typed]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"defect: identity check failed: {failed}\n"


def test_cross_table_symmetry_is_not_required(monkeypatch, capsys):
    # the cross table is an exploration: its one bool is data, not a theorem
    table = statistics.cmaj_cross_table
    monkeypatch.setattr(statistics, "cmaj_cross_table",
                        lambda W: {**table(W), "symmetric_under_transpose": False})
    assert cli.run(["cross-table", "--type", "A", "--rank", "2"]) == 0
    assert "symmetric_under_transpose: False" in capsys.readouterr().out


def test_selfcheck_validates_c_through_group_C(monkeypatch, capsys):
    calls = []
    group_C = statistics.group_C
    monkeypatch.setattr(statistics, "group_C", lambda W: calls.append(W) or group_C(W))
    assert cli.run(["selfcheck", "--type", "C", "--rank", "2"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_python_m_alcoved_runs_the_cli(capsys):
    argv = ["info", "--type", "A", "--rank", "1"]
    src = os.path.dirname(os.path.dirname(alcoved.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "alcoved", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert cli.run(argv) == 0
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == capsys.readouterr().out


def test_selfcheck_reports_skip_for_unsupported_type(capsys):
    code, report = run_json(capsys, ["selfcheck", "--type", "G", "--rank", "2"])
    assert code == 0
    assert report["checks"]["groebner_triangulation"] == "skipped (unsupported type)"
    assert report["checks"]["q_weyl"] is True
    assert report["seed"] == cli.DEFAULT_SELFCHECK_SEED


@pytest.mark.parametrize("t", ("A", "C"))
def test_selfcheck_triangulates_the_first_hypersimplex_past_60_elements(t, capsys):
    # |W| = 120 in A4 and 384 in C4: too many alcoves in the adjacent star,
    # so the triangulation check runs on Delta_1
    assert rootsys.weyl_order(rootsys.build(t, 4)) > 60
    code, report = run_json(capsys, ["selfcheck", "--type", t, "--rank", "4"])
    assert code == 0
    assert report["checks"]["groebner_triangulation"] is True


def _flat_box(tmp_path, t):
    """The rank-3 (rank 4 in D) box with alpha_1 in 0..0 and the other
    simple roots in 0..1: a polytope of volume 0."""
    rs = rootsys.build(t, 4 if t == "D" else 3)
    bounds = [(s, 0, int(i > 0)) for i, s in enumerate(rs.simple_roots)]
    return _write_spec(tmp_path, rs, bounds)


@pytest.mark.parametrize("t", ("A", "C"))
def test_triangulating_a_flat_box_gives_no_simplices(t, tmp_path, capsys):
    assert cli.run(["triangulate", "--spec", _flat_box(tmp_path, t)]) == 0
    out = capsys.readouterr().out
    assert "volume: 0\n" in out and "simplices: []\n" in out


@pytest.mark.xfail(strict=True, reason="the flat D4 box exits 2 with 6 simplices (ROADMAP item 3)")
def test_triangulating_the_flat_d4_box_gives_no_simplices(tmp_path, capsys):
    code, report = run_json(capsys, ["triangulate", "--spec", _flat_box(tmp_path, "D")])
    assert (code, report["volume"], report["simplices"]) == (0, 0, [])


def test_seed_is_echoed(capsys):
    code, report = run_json(
        capsys, ["selfcheck", "--type", "A", "--rank", "2", "--seed", "7"]
    )
    assert code == 0
    assert report["seed"] == 7


def test_missing_spec_file_is_a_user_error(capsys):
    assert cli.run(["volume", "--spec", "missing.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert cli.run([]) == 1
    assert cli.run(["nonsense"]) == 1
    assert cli.run(["info"]) == 1
    assert cli.run(["info", "--type", "Z", "--rank", "2"]) == 1
    assert cli.run(["hypersimplex", "--type", "A", "--rank", "2", "--k", "9"]) == 1
    assert cli.run(["info", "--type", "A", "--rank", "2", "--budget", "0"]) == 1
    capsys.readouterr()


def test_rank_past_the_pairing_table_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert cli.run(["info", "--type", "A", "--rank", "200"]) == 1
    assert time.perf_counter() - start < 1
    assert "A200 has 20100 positive roots" in capsys.readouterr().err


def test_k_is_only_for_hypersimplex(capsys):
    assert cli.run(["info", "--type", "A", "--rank", "2", "--k", "1"]) == 1
    assert cli.run(["selfcheck", "--type", "G", "--rank", "2", "--k", "1"]) == 1
    assert "--k" in capsys.readouterr().err
    assert cli.run([]) == 1
    assert cli.run(["nonsense"]) == 1
    capsys.readouterr()


def test_vol_identity_budget_is_the_volume_box(tmp_path, capsys):
    # the volume scan covers (2h + 1)^2 = 49 points of the box 0..2 in A2;
    # the lattice side scans only its 9 lattice points
    spec = {"type": "A", "rank": 2, "constraints": [
        {"root": [1, 0], "min": 0, "max": 2}, {"root": [0, 1], "min": 0, "max": 2}]}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(spec))
    argv = ["vol-identity", "--spec", str(path), "--budget"]
    code, report = run_json(capsys, argv + ["49"])
    assert code == 0
    assert report["volume"] == report["coset_lattice_sum"] == 8
    assert cli.run(argv + ["48"]) == 3
    assert "budget" in capsys.readouterr().err


def test_vol_identity_budget_bounds_the_weyl_group(tmp_path, capsys):
    # a single point of D4: both scans see one point, W has 192 elements
    spec = {"type": "D", "rank": 4, "constraints": [
        {"root": [int(i == j) for j in range(4)], "min": 0, "max": 0} for i in range(4)]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(spec))
    argv = ["vol-identity", "--spec", str(path), "--budget"]
    assert cli.run(argv + ["191"]) == 3
    assert "Weyl group" in capsys.readouterr().err
    assert cli.run(argv + ["192"]) == 0
    capsys.readouterr()


def test_stats_and_selfcheck_budget_bounds_the_hypersimplex_scan(capsys):
    # the hypersimplex volumes scan the box (1, .., 1) at scale h:
    # 13^6 points in E6 (W has 51,840 elements) and 7^3 = 343 in B3
    assert cli.run(["stats", "--type", "E", "--rank", "6", "--budget", "100000"]) == 3
    assert "E6 box scan at scale 12: 4826809 points exceed budget 100000" in capsys.readouterr().err
    argv = ["selfcheck", "--type", "B", "--rank", "3", "--budget"]
    assert cli.run(argv + ["342"]) == 3
    assert "B3 box scan at scale 6: 343 points exceed budget 342" in capsys.readouterr().err
    assert cli.run(argv + ["343"]) == 0
    capsys.readouterr()


def test_running_out_of_random_polytope_draws_is_a_budget_error():
    # no draw's scan fits budget 1: a sampler limit (exit 3), not a defect
    with pytest.raises(BudgetExceededError, match="none of 200 random polytopes of A2"):
        cli._random_polytope(rootsys.build("A", 2), random.Random(0), 1)


def _scanned_draw(rs, rng, budget):
    """The sampler's rule by scans: a box is kept when its volume scan fits
    the budget and counts at most 10^4 alcoves."""
    for _ in range(cli._DRAWS):
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        P = polytope.make_polytope(rs, cons)
        try:
            if polytope.volume(P, budget=budget) <= cli._MAX_DRAWN_VOLUME:
                return P
        except BudgetExceededError:
            continue
    return None


_DRAW_SYSTEMS = (("A", 2), ("A", 3), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("G", 2))


def test_random_polytope_draws_match_the_scanned_rule():
    for t, r in _DRAW_SYSTEMS:
        rs = rootsys.build(t, r)
        for seed in range(4):
            for budget in (10**8, 3000):
                rng, want = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    expected = _scanned_draw(rs, want, budget)
                    if expected is None:
                        with pytest.raises(BudgetExceededError):
                            cli._random_polytope(rs, rng, budget)
                        break
                    assert cli._random_polytope(rs, rng, budget) == expected


def test_random_polytope_runs_no_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler scanned a draw")

    monkeypatch.setattr(polytope, "_scan", refuse)
    for t, r in _DRAW_SYSTEMS + (("B", 5), ("D", 6)):
        cli._random_polytope(rootsys.build(t, r), random.Random(0), 10**8)
    # every E6 box holds 17,280 alcoves or more: all 200 draws are refused
    with pytest.raises(BudgetExceededError, match="none of 200"):
        cli._random_polytope(rootsys.build("E", 6), random.Random(0), 10**8)


@pytest.mark.parametrize("command", ("enumerate", "qweyl", "stats", "cross-table", "selfcheck"))
def test_e8_weyl_group_exits_3_before_enumerating(command, capsys):
    # |W(E8)| = 696,729,600 passes the default budget of 10^8
    start = time.perf_counter()
    assert cli.run([command, "--type", "E", "--rank", "8"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "E8 Weyl group: 696729600 elements exceed budget 100000000" in err


def test_every_budget_error_names_its_phase_size_and_budget(tmp_path, capsys):
    # one format, from errors.charge: "<phase>: <size> <unit> exceed budget <budget>"
    spec = _write_spec(tmp_path, rootsys.build("A", 1), [((1,), 0, 20000)])
    cases = (
        (["stats", "--type", "E", "--rank", "6", "--budget", "100000"],
         "E6 box scan at scale 12: 4826809 points exceed budget 100000"),
        (["enumerate", "--type", "E", "--rank", "8"],
         "E8 Weyl group: 696729600 elements exceed budget 100000000"),
        (["triangulate", "--spec", spec],
         "A1 rewrite rules: 200030001 vertex pairs exceed budget 100000000"),
    )
    for argv, message in cases:
        assert cli.run(argv) == 3
        assert capsys.readouterr() == ("", f"budget exceeded: {message}\n")


def test_every_budget_defaults_to_the_cli_budget():
    # one constant: a library call refuses or admits what the command does
    assert cli._make_parser().get_default("budget") == DEFAULT_BUDGET
    defaults = {}
    for module in (geometry, groebner, polytope, rootsys, statistics, weyl):
        for name, member in vars(module).items():
            if inspect.isclass(member) and member.__module__ == module.__name__:
                candidates = [(f"{name}.{k}", v) for k, v in vars(member).items()]
            else:
                candidates = [(name, member)]
            for key, fn in candidates:
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    budget = inspect.signature(fn).parameters.get("budget")
                    if budget is not None and budget.default is not budget.empty:
                        defaults[f"{module.__name__}.{key}"] = budget.default
    assert "alcoved.weyl.enumerate_weyl" in defaults
    assert "alcoved.groebner.Rewriter.__init__" in defaults
    assert {k: v for k, v in defaults.items() if v is not DEFAULT_BUDGET} == {}


def test_budget_exhaustion_exit_code(capsys):
    assert cli.run(["enumerate", "--type", "A", "--rank", "4", "--budget", "5"]) == 3
    assert "budget" in capsys.readouterr().err


def test_defect_exit_code(monkeypatch, capsys):
    def broken(args):
        raise DefectError("planted failure")

    monkeypatch.setitem(cli._COMMANDS, "info", broken)
    assert cli.run(["info", "--type", "A", "--rank", "2"]) == 2
    assert "defect" in capsys.readouterr().err


def test_json_output_is_deterministic(capsys):
    cli.run(["cross-table", "--type", "A", "--rank", "2", "--json"])
    first = capsys.readouterr().out
    cli.run(["cross-table", "--type", "A", "--rank", "2", "--json"])
    assert capsys.readouterr().out == first


def test_triangulate_and_groebner_obey_budget(tmp_path, capsys):
    # A3 0..2: 27 vertex-box points and 729 volume-box points
    rs = rootsys.build("A", 3)
    path = _write_spec(tmp_path, rs, [(s, 0, 2) for s in rs.simple_roots])
    for cmd in ("triangulate", "groebner"):
        assert cli.run([cmd, "--spec", path]) == 0  # cached under the default budget
        assert cli.run([cmd, "--spec", path, "--budget", "10"]) == 3
        assert "budget" in capsys.readouterr().err
    assert cli.run(["triangulate", "--spec", path, "--budget", "728"]) == 3
    assert "729" in capsys.readouterr().err


def test_vertex_pairs_past_the_budget_exit_3_at_once(tmp_path, capsys):
    # A1 0..20000: the 20,001 vertices fit the default budget of 10^8, their
    # 200,030,001 pairs do not, and the pair table is refused before it is built
    rs = rootsys.build("A", 1)
    path = _write_spec(tmp_path, rs, [((1,), 0, 20000)])
    for cmd in ("triangulate", "groebner"):
        start = time.perf_counter()
        assert cli.run([cmd, "--spec", path]) == 3
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "A1 rewrite rules: 200030001 vertex pairs exceed budget 100000000" in err
    # the bench triangulate specs stay within the default budget
    for t, r, hi in (("A", 2, 4), ("A", 2, 6), ("C", 2, 3), ("C", 2, 4),
                     ("A", 3, 2), ("A", 4, 1), ("C", 3, 1)):
        rs = rootsys.build(t, r)
        path = _write_spec(tmp_path, rs, [(s, 0, hi) for s in rs.simple_roots])
        assert cli.run(["triangulate", "--spec", path]) == 0
        assert cli.run(["groebner", "--spec", path]) == 0
    capsys.readouterr()


# -- the emit oracle ---------------------------------------------------------
def _oracle_rows(table):
    """A table's rows as nested lists: its form with the values of each row
    filled in, dict values in sorted-key order; an item table's values are
    indices, each filled in as the list of that item's coordinates."""
    def fill(form, values):
        if isinstance(form, dict):
            return {k: fill(form[k], values) for k in sorted(form)}
        if isinstance(form, (list, tuple)):
            return [fill(x, values) for x in form]
        value = next(values)
        return value if table.items is None else list(table.items[value])

    return [fill(table.form, iter(list(row))) for row in table.rows]


def _oracle_jsonable(value):
    """The recursive conversion that _emit ran over every report value
    before json-native emitting, kept as its oracle; tables are expanded
    into lists first."""
    if type(value) in (int, str):
        return value
    if isinstance(value, cli._Table):
        return _oracle_jsonable(_oracle_rows(value))
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, statistics.CosetClass):
        return "(" + ",".join(str(_oracle_jsonable(x)) for x in value.frac) + ")"
    if isinstance(value, dict):
        return {str(_oracle_jsonable(k)): _oracle_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _oracle_emit(report: dict, as_json: bool) -> None:
    report = _oracle_jsonable(report)
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}")


def _write_spec(tmp_path, rs, constraints) -> str:
    path = tmp_path / f"{rs.type_label}{rs.rank}.json"
    path.write_text(json.dumps({
        "type": rs.type_label,
        "rank": rs.rank,
        "constraints": [{"root": list(a), "min": k, "max": K} for a, k, K in constraints],
    }))
    return str(path)


def _dicts_in_lists(value, in_list=False):
    """Every dict that sits inside a list or tuple, at any depth."""
    if isinstance(value, dict):
        found = [value] if in_list else []
        return found + [d for v in value.values() for d in _dicts_in_lists(v, in_list)]
    if isinstance(value, (list, tuple)):
        return [d for v in value for d in _dicts_in_lists(v, True)]
    return []


def test_emit_matches_oracle_byte_for_byte(tmp_path, monkeypatch, capsys):
    runs = []  # (argv, exit code)
    for t, r in (("A", 2), ("B", 3), ("C", 2), ("D", 4), ("G", 2), ("F", 4)):
        rs = rootsys.build(t, r)
        typed = ["--type", t, "--rank", str(r)]
        for cmd in ("info", "enumerate", "stats", "qweyl", "hypersimplex",
                    "thick-check", "cross-table", "selfcheck"):
            runs.append(([cmd, *typed], 0))
        runs.append((["hypersimplex", *typed, "--k", "2"], 0))
        if t == "D":  # the two-alcove slab: the unit box fails its check
            cons = [(a, 0, 1) for a in rs.positive_roots]
            cons[rs.root_index(rs.simple_roots[0])] = (rs.simple_roots[0], -1, 1)
        else:
            cons = [(a, 0, 2) for a in rs.simple_roots]
        spec = _write_spec(tmp_path, rs, cons)
        runs += [([cmd, "--spec", spec], 0) for cmd in ("volume", "vol-identity")]
        # the vertex lattice exists in types A, C and D4 only
        runs += [([cmd, "--spec", spec], 0 if t in "ACD" else 1)
                 for cmd in ("groebner", "triangulate")]
    for t, r, hi in (("A", 4, 2), ("C", 3, 1)):  # tables of thousands of rows
        rs = rootsys.build(t, r)
        spec = _write_spec(tmp_path, rs, [(a, 0, hi) for a in rs.simple_roots])
        runs += [([cmd, "--spec", spec], 0) for cmd in ("groebner", "triangulate")]
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, as_json: reports.append(report))
    for argv, code in runs:
        assert cli.run(argv) == code, argv
    monkeypatch.undo()
    capsys.readouterr()
    assert len(reports) == 6 * 11 + 3 * 2 + 4
    for report in reports:
        assert all(isinstance(k, str) for d in _dicts_in_lists(report) for k in d)
        for as_json in (False, True):
            cli._emit(report, as_json)
            out = capsys.readouterr().out
            _oracle_emit(report, as_json)
            assert out == capsys.readouterr().out
    # an int-keyed dict with ten or more keys sorts its keys as strings
    cli.run(["hypersimplex", "--type", "F", "--rank", "4", "--json"])
    volumes = json.loads(capsys.readouterr().out)["volumes"]
    assert list(volumes) == sorted(str(k) for k in range(1, 12))
    assert list(volumes)[:3] == ["1", "10", "11"]


# -- tables --------------------------------------------------------------------
# row forms nest lists, tuples and dicts whose keys sort otherwise as ints
_FORMS = st.recursive(
    st.just(cli._SLOT),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.sampled_from(["2", "10", "a", "B", "%d", "lead"]), inner, max_size=3)
    ),
    max_leaves=8,
)
_INTS = st.integers(-(2**70), 2**70) | st.sampled_from([2**63, -(2**63) - 1, 10**20])


def _leaves(form) -> int:
    if isinstance(form, dict):
        return sum(map(_leaves, form.values()))
    if isinstance(form, (list, tuple)):
        return sum(map(_leaves, form))
    return 1


def _printed(report, as_json) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, as_json)
    return out.getvalue()


def _assert_prints_as_json(table) -> None:
    expanded = _oracle_rows(table)
    report = {"rank": 3, "rows": table, "also": table, "z": [1, 2]}
    assert _printed(report, True) == json.dumps(
        {**report, "rows": expanded, "also": expanded}, indent=2, sort_keys=True
    ) + "\n"
    text = json.dumps(expanded, sort_keys=True)
    assert _printed(report, False) == f"rank: 3\nrows: {text}\nalso: {text}\nz: [1, 2]\n"


def _slot_depths(form, depth=0) -> set:
    if isinstance(form, dict):
        form = list(form.values())
    if isinstance(form, (list, tuple)):
        return {d for x in form for d in _slot_depths(x, depth + 1)}
    return {depth}


# item forms: a simplex would write its vertices at depth 3, and the
# groebner command's binomial writes them at depth 4 (the report, the
# table, the row, the lead or trail)
_ITEM_FORMS = (
    [cli._SLOT] * 3,
    {"lead": [cli._SLOT] * 2, "trail": [cli._SLOT] * 2},
)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_table_prints_as_json_prints_its_rows(data):
    form = data.draw(_FORMS)
    n = _leaves(form)
    rows = data.draw(st.lists(st.lists(_INTS, min_size=n, max_size=n), max_size=4))
    for some in (rows[:0], rows[:1], rows):  # empty and one-row tables too
        _assert_prints_as_json(cli._Table(form, some))
    # item tables: rows of indices, as an int array, into a list of int
    # vectors, one of them past int64, under every form with all its
    # slots at one depth
    size = data.draw(st.integers(1, 3))
    items = data.draw(st.lists(st.tuples(*[_INTS] * size), min_size=1, max_size=5))
    items.append((10**20,) * size)
    index = st.integers(0, len(items) - 1)
    for form in (form, *_ITEM_FORMS):
        n = _leaves(form)
        if len(_slot_depths(form)) != 1:
            continue
        rows = data.draw(st.lists(st.lists(index, min_size=n, max_size=n), max_size=4))
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        for some in (rows[:0], rows[:1], rows):
            _assert_prints_as_json(cli._Table(form, some, items))


@pytest.mark.parametrize("t", ("A", "C"))
def test_far_tables_print_as_json_prints_library_results(t, tmp_path, capsys):
    rs = rootsys.build(t, 2)
    far = 10**20
    cons = [(a, far, far + 2) for a in rs.simple_roots]
    spec = _write_spec(tmp_path, rs, cons)
    P = polytope.make_polytope(rs, cons)
    simplices = [[row[k : k + 2] for k in (0, 2, 4)] for row in groebner.triangulate(P)]
    expected = {
        "groebner": {
            "type": t,
            "rank": 2,
            "vertices": groebner.Rewriter(P).vertices,
            "binomials": [
                {"lead": [row[0:2], row[2:4]], "trail": [row[4:6], row[6:8]]}
                for row in groebner.groebner_basis(P)
            ],
        },
        "triangulate": {"type": t, "rank": 2, "volume": len(simplices), "simplices": simplices},
    }
    assert max(x for v in expected["groebner"]["vertices"] for x in v) > 2**64
    for cmd, report in expected.items():
        assert cli.run([cmd, "--spec", spec, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert cli.run([cmd, "--spec", spec]) == 0
        assert capsys.readouterr().out == "".join(
            f"{k}: {json.dumps(v, sort_keys=True) if isinstance(v, list) else v}\n"
            for k, v in report.items()
        )
