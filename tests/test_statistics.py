"""Circular descent statistics, the group C and the q-Weyl identity."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_oracles as oracle
from alcoved import cli, statistics, weyl
from alcoved.errors import DefectError, UserInputError
from alcoved.rootsys import build
from alcoved.statistics import (
    CosetClass,
    cmaj_cross_table,
    cmaj_twist_check,
    coset_representatives,
    double_coset_check,
    eulerian_polynomial,
    group_C,
    hypersimplex_statistic_check,
    poly_add,
    poly_eval,
    poly_mul,
    q_integer,
    qweyl_check,
)
from alcoved.weyl import enumerate_weyl, from_permutation


def test_eulerian_polynomial_against_brute_force():
    for n in range(1, 7):
        assert eulerian_polynomial(n) == oracle.brute_force_eulerian(n)


def test_eulerian_polynomial_total_mass():
    import math

    for n in range(1, 8):
        assert sum(eulerian_polynomial(n)) == math.factorial(n)


coeffs = st.lists(st.integers(-9, 9), max_size=6).map(tuple)


@given(coeffs, coeffs, st.integers(-3, 3))
def test_poly_mul_matches_evaluation(p, q, x):
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


@given(coeffs, coeffs, st.integers(-3, 3))
def test_poly_add_matches_evaluation(p, q, x):
    assert poly_eval(poly_add(p, q), x) == poly_eval(p, x) + poly_eval(q, x)


def test_q_integer_value():
    assert q_integer(3) == (1, 1, 1)
    assert poly_eval(q_integer(5), 1) == 5
    with pytest.raises(UserInputError):
        q_integer(-1)


def test_cdes_of_identity_is_one():
    for t, r in (("A", 3), ("C", 2), ("D", 4), ("G", 2)):
        assert enumerate_weyl(build(t, r)).cdes[0] == 1


def test_coset_class_prints_its_fractions():
    assert str(CosetClass((Fraction(1, 2), Fraction(0)))) == "(1/2,0)"


def test_group_C_order_is_index_of_connection():
    for t, r, f in (("A", 3, 4), ("C", 2, 2), ("D", 4, 4), ("G", 2, 1)):
        rs = build(t, r)
        assert len(group_C(enumerate_weyl(rs))) == f


def test_group_C_is_cyclic_in_type_A():
    rs = build("A", 3)
    W = enumerate_weyl(rs)
    g = group_C(W)
    assert isinstance(g, tuple) and g == tuple(W[k] for k in W.C.tolist())
    c = from_permutation(rs, (2, 3, 4, 1))  # the long cycle
    assert c in g
    powers = [W[0]]
    for _ in range(3):
        powers.append(powers[-1] * c)
    assert set(powers) == set(g)


def test_cmaj_lands_in_C_and_is_constant_on_left_cosets():
    W = enumerate_weyl(build("C", 2))
    assert set(W.cmaj.tolist()) <= set(W.C.tolist())


def test_coset_representative_count():
    for t, r in (("A", 2), ("A", 3), ("C", 2), ("D", 4)):
        rs = build(t, r)
        reps = coset_representatives(enumerate_weyl(rs))
        assert len(reps) == len(enumerate_weyl(rs)) // rs.index_of_connection


def test_double_coset_and_twist_checks():
    for t, r in (("A", 2), ("A", 3), ("C", 2)):
        rs = build(t, r)
        W = enumerate_weyl(rs)
        assert double_coset_check(W)["holds"]
        twist = cmaj_twist_check(W)
        assert twist["holds"]
        assert twist["inverse_symmetry_holds"]


@pytest.mark.parametrize("table, check", (("cdes", double_coset_check), ("cmaj", cmaj_twist_check)))
def test_a_corrupt_table_fails_its_check_with_a_witness(table, check, monkeypatch, capsys):
    # one entry of cdes, or of cmaj (moved to the next element of C), is off
    W = enumerate_weyl(build("A", 3))
    values = getattr(W, table).copy()
    C = W.C.tolist()
    values[5] = values[5] + 1 if table == "cdes" else C[(C.index(values[5]) + 1) % len(C)]
    setattr(W, table, values)
    report = check(W)
    assert report["holds"] is False
    assert len(report["witness"]) == 3
    for w in report["witness"]:
        assert w in W and repr(w) == f"WeylElement(A3, z={w.z})"
    # the hypersimplex check reads cdes too and would fail first
    monkeypatch.setattr(statistics, "hypersimplex_statistic_check", lambda W, budget: {})
    monkeypatch.setattr(weyl, "enumerate_weyl", lambda rs, budget: W)
    assert cli.run(["stats", "--type", "A", "--rank", "3"]) == 2
    assert capsys.readouterr() == ("", "defect: identity check failed: holds\n")


def test_qweyl_identity_small_types():
    for t, r in (("A", 1), ("A", 2), ("A", 3), ("C", 2), ("B", 3), ("G", 2)):
        rs = build(t, r)
        report = qweyl_check(enumerate_weyl(rs))
        assert report["identity_holds"]
        assert report["scalar_holds"]


def test_qweyl_type_C_closed_form():
    # in type C_n every class carries A_n(q) (1+q)^(n-1)
    for n in (2, 3):
        rs = build("C", n)
        expected = eulerian_polynomial(n)
        for _ in range(n - 1):
            expected = poly_mul(expected, (1, 1))
        report = qweyl_check(enumerate_weyl(rs))
        for poly in report["lhs"].values():
            assert poly == expected


def test_hypersimplex_statistic_check_A3():
    report = hypersimplex_statistic_check(enumerate_weyl(build("A", 3)))
    assert report["volumes"] == {1: 1, 2: 4, 3: 1}
    assert report["coset_identity_holds"]
    assert report["element_identity_holds"]
    assert report["cdes_constant_on_cosets"]
    assert report["generating_function_holds"]


def test_cmaj_cross_table_symmetry():
    for t, r in (("A", 2), ("C", 2)):
        report = cmaj_cross_table(enumerate_weyl(build(t, r)))
        assert report["symmetric_under_transpose"]


TABLE_SYSTEMS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6),
)


@pytest.mark.parametrize("t, r", TABLE_SYSTEMS)
def test_c_tables_match_fraction_oracle(t, r):
    """C, the delta class ids and cmaj of W against per-element cdes and
    coroot coordinates ``mat_inv(cartan) . delta mod 1``, for delta the
    descent bits d_1..d_r."""
    rs = build(t, r)
    W = enumerate_weyl(rs)
    inverse = oracle.mat_inv(rs.cartan)
    of_delta = {}  # delta -> its fractional coroot coordinates

    def oracle_class(z):
        d = oracle.descent_bits(rs, z)[1:]
        if d not in of_delta:
            of_delta[d] = tuple(x % 1 for x in oracle.mat_vec(inverse, d))
        return of_delta[d]

    zs = W.z.tolist()
    classes = [oracle_class(z) for z in zs]
    ids = {}
    for cls in classes:
        ids.setdefault(cls, len(ids))
    assert W.descents.tolist() == [list(oracle.descent_bits(rs, z)) for z in zs]
    assert W.cdes.tolist() == [oracle.cdes(rs, z) for z in zs]
    C = [k for k, z in enumerate(zs) if oracle.cdes(rs, z) == 1]
    in_C = {classes[k]: k for k in C}
    f = rs.index_of_connection
    assert W.C.tolist() == C and len(in_C) == f
    assert W.delta_class.tolist() == [ids[cls] for cls in classes]
    residues = [tuple(x * f for x in cls) for cls in ids]
    assert W.class_residues.tolist() == [list(row) for row in residues]
    assert W.cmaj.tolist() == [in_C[cls] for cls in classes]


@pytest.mark.parametrize("argv", (
    ["selfcheck", "--type", "A", "--rank", "2"],
    ["stats", "--type", "B", "--rank", "3"],
))
def test_c_tables_are_built_once_per_command(argv, monkeypatch, capsys):
    builds = []
    build_tables = weyl.WeylGroup._build_c_tables

    def counted(W):
        builds.append(W)
        build_tables(W)

    monkeypatch.setattr(weyl.WeylGroup, "_build_c_tables", counted)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_c_actions_are_built_once_per_command(monkeypatch, capsys):
    # stats D4 reads the left and right actions of its f = 4 elements of C
    # in three checks; they are walked once each, 2f right_action calls
    calls = []
    right_action = weyl.WeylGroup.right_action

    def counted(W, k):
        calls.append(k)
        return right_action(W, k)

    monkeypatch.setattr(weyl.WeylGroup, "right_action", counted)
    assert cli.run(["stats", "--type", "D", "--rank", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 8


@pytest.mark.parametrize("command", ("qweyl", "cross-table"))
def test_c_actions_are_not_built_where_unread(command, monkeypatch, capsys):
    # both read cmaj and cdes, neither reads C_left or C_right
    calls = []
    for name in ("left_action", "right_action"):
        action = getattr(weyl.WeylGroup, name)

        def counted(W, k, action=action):
            calls.append(k)
            return action(W, k)

        monkeypatch.setattr(weyl.WeylGroup, name, counted)
    assert cli.run([command, "--type", "E", "--rank", "6"]) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("t, r", TABLE_SYSTEMS)
def test_c_action_tables_match_element_products(t, r):
    rs = build(t, r)
    W = enumerate_weyl(rs)
    index = {tuple(z): k for k, z in enumerate(W.z.tolist())}
    columns = random.Random(59).sample(range(len(W)), min(len(W), 100))
    assert W.C_left.shape == W.C_right.shape == (len(W.C), len(W))
    for i, c in enumerate(W.C.tolist()):
        for j in columns:
            assert W.C_left[i, j] == index[(W[c] * W[j]).z]
            assert W.C_right[i, j] == index[(W[j] * W[c]).z]


@pytest.mark.parametrize("t, r", (("A", 3), ("B", 3), ("D", 4)))
@pytest.mark.parametrize("corrupt, message", (
    (lambda adj: ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:], "holds no element of C"),
    (lambda adj: tuple((0,) * len(row) for row in adj), "not distinct"),
))
def test_corrupted_adjugate_fails_the_c_tables(t, r, corrupt, message):
    rs = build(t, r)
    bad = dataclasses.replace(rs, cartan_adjugate=corrupt(rs.cartan_adjugate))
    W = enumerate_weyl(bad)
    with pytest.raises(DefectError, match=message):
        group_C(W)
    with pytest.raises(DefectError, match=message):
        W.cmaj  # a failed build is not kept
