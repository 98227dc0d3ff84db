"""Alcoved polytopes: volumes, lattice points and the slice identities."""

import math
import random

import pytest

from alcoved import polytope
from alcoved.errors import BudgetExceededError, UserInputError
from alcoved.polytope import (
    adjacent_star,
    alcove_count_bfs,
    hypersimplex,
    lattice_point_count,
    make_polytope,
    parallelepiped,
    spec_to_polytope,
    thick_identity_check,
    volume,
    volume_identity_check,
)
from alcoved.rootsys import build, weyl_order
from alcoved.statistics import brute_force_eulerian


def test_parallelepiped_volume_formula():
    for t, r in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        rs = build(t, r)
        expected = math.factorial(r) * math.prod(rs.marks)
        assert volume(parallelepiped(rs)) == expected


def test_adjacent_star_volume_is_group_order():
    for t, r in (("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)):
        rs = build(t, r)
        assert volume(adjacent_star(rs)) == weyl_order(rs)


def test_hypersimplex_volumes_match_eulerian_numbers():
    for n in (3, 4, 5):
        rs = build("A", n - 1)
        vols = tuple(volume(hypersimplex(rs, k)) for k in range(1, n))
        oracle = brute_force_eulerian(n - 1)
        assert vols == oracle[1:]


def test_hypersimplex_volumes_sum_to_parallelepiped():
    for t, r in (("C", 2), ("D", 4), ("G", 2)):
        rs = build(t, r)
        total = sum(volume(hypersimplex(rs, k)) for k in range(1, rs.h_star))
        assert total == volume(parallelepiped(rs))


def test_hypersimplex_index_bounds():
    rs = build("A", 2)
    with pytest.raises(UserInputError):
        hypersimplex(rs, 0)
    with pytest.raises(UserInputError):
        hypersimplex(rs, rs.h_star)


def test_derived_bounds_are_completed():
    rs = build("A", 2)
    P = make_polytope(rs, [(root, 0, 1) for root in rs.simple_roots])
    lo, hi = P.bound(rs.theta)
    assert (lo, hi) == (0, 2)


def test_parallelepiped_lattice_points():
    rs = build("A", 2)
    assert lattice_point_count(parallelepiped(rs)) == 4


def test_empty_polytope():
    rs = build("A", 2)
    P = make_polytope(
        rs,
        [(rs.simple_roots[0], 0, 1), (rs.simple_roots[1], 0, 1), (rs.theta, 3, 4)],
    )
    assert P.is_empty
    assert volume(P) == 0
    assert lattice_point_count(P) == 0


def _random_polytope(rs, rng):
    while True:
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        P = make_polytope(rs, cons)
        if not P.is_empty and 0 < volume(P) <= 10**4:
            return P


def test_volume_agrees_with_alcove_walk():
    # numpy box filtering against an independent breadth-first walk
    rng = random.Random(11)
    for t, r in (("A", 2), ("C", 2), ("G", 2)):
        rs = build(t, r)
        for _ in range(5):
            P = _random_polytope(rs, rng)
            assert volume(P) == alcove_count_bfs(P)


def test_volume_lattice_identity_random():
    rng = random.Random(23)
    for t, r in (("A", 2), ("C", 2)):
        rs = build(t, r)
        for _ in range(5):
            report = volume_identity_check(_random_polytope(rs, rng))
            assert report["identity_holds"]
            assert report["volume"] == report["coset_lattice_sum"]


def test_thick_hypersimplex_identity_samples():
    rs = build("C", 2)
    for b, k, K in (((1, 1), 0, 3), ((2, 1), 1, 3), ((2, 2), 2, 5)):
        report = thick_identity_check(rs, b, k, K)
        assert report["identity_holds"]
    with pytest.raises(UserInputError):
        thick_identity_check(rs, (0, 1), 0, 1)


def test_spec_roundtrip_and_errors():
    spec = {
        "type": "A",
        "rank": 2,
        "constraints": [
            {"root": [1, 0], "min": 0, "max": 1},
            {"root": [0, 1], "min": 0, "max": 1},
        ],
    }
    P = spec_to_polytope(spec)
    assert volume(P) == 2
    with pytest.raises(UserInputError):
        spec_to_polytope({"type": "A"})
    with pytest.raises(UserInputError):
        spec_to_polytope({"type": "A", "rank": 2, "constraints": [{"root": [9, 9], "min": 0, "max": 1}]})


def test_volume_budget():
    rs = build("C", 3)
    with pytest.raises(BudgetExceededError):
        volume(adjacent_star(rs), budget=10)


def _a2_spec(lo, hi):
    return {
        "type": "A",
        "rank": 2,
        "constraints": [
            {"root": [1, 0], "min": lo, "max": hi},
            {"root": [0, 1], "min": 0, "max": 1},
        ],
    }


@pytest.mark.parametrize(
    "lo, hi",
    [(0.9, 1.7), (0, 1.5), (True, 1), (0, False), ("0", 1), (0, "1"), (None, 1)],
)
def test_spec_rejects_non_integer_bounds(lo, hi):
    with pytest.raises(UserInputError):
        spec_to_polytope(_a2_spec(lo, hi))
    rs = build("A", 2)
    with pytest.raises(UserInputError):
        make_polytope(rs, [((1, 0), lo, hi), ((0, 1), 0, 1)])


def test_spec_rejects_non_integer_rank_and_roots():
    for rank in (2.5, True, "2"):
        spec = _a2_spec(0, 1)
        spec["rank"] = rank
        with pytest.raises(UserInputError):
            spec_to_polytope(spec)
    spec = _a2_spec(0, 1)
    spec["constraints"][0]["root"] = [True, False]
    with pytest.raises(UserInputError):
        spec_to_polytope(spec)


def test_spec_accepts_integral_floats():
    assert spec_to_polytope(_a2_spec(0.0, 1.0)) == spec_to_polytope(_a2_spec(0, 1))


def test_huge_bounds_raise_instead_of_overflowing():
    # the scan pairs h_star * 3e18 with roots of height 2, past int64;
    # a wrapped pairing would give a wrong count (0 instead of 2)
    base = 3 * 10**18
    rs = build("A", 2)
    P = make_polytope(rs, [((1, 0), base, base + 1), ((0, 1), base, base + 1)])
    with pytest.raises(UserInputError):
        volume(P)
    with pytest.raises(UserInputError):
        lattice_point_count(P)
    with pytest.raises(UserInputError):
        next(polytope.central_points(P))
