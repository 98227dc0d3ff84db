"""Quadratic binomial rewriting and the induced alcove triangulation."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from alcoved import groebner
from alcoved.errors import UserInputError
from alcoved.groebner import (
    groebner_basis,
    is_standard,
    midpoint_closure_check,
    midpoint_pair,
    normal_form,
    omega_to_vertex,
    polytope_vertices,
    triangulate,
    vertex_to_omega,
)
from alcoved.polytope import adjacent_star, hypersimplex, make_polytope, parallelepiped, volume
from alcoved.rootsys import build, pairing


def d4_two_alcove_slab():
    """Two adjacent alcoves across the wall of the first simple root."""
    rs = build("D", 4)
    cons = [(root, 0, 1) for root in rs.positive_roots]
    cons[rs.root_index(rs.simple_roots[0])] = (rs.simple_roots[0], -1, 1)
    return make_polytope(rs, cons)


def test_vertex_coordinate_roundtrip():
    for t, r in (("A", 3), ("C", 3), ("D", 4)):
        rs = build(t, r)
        rng = random.Random(5)
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(r))
            assert omega_to_vertex(rs, vertex_to_omega(rs, v)) == v
    with pytest.raises(UserInputError):
        omega_to_vertex(build("A", 2), (Fraction(1, 3), Fraction(0)))


def test_unsupported_type_rejected():
    for t, r in (("G", 2), ("B", 3), ("F", 4), ("D", 5)):
        rs = build(t, r)
        with pytest.raises(UserInputError):
            triangulate(parallelepiped(rs))


def test_parallelepiped_A2():
    P = parallelepiped(build("A", 2))
    assert len(polytope_vertices(P)) == 4
    basis = groebner_basis(P)
    assert len(basis) == 1
    assert len(triangulate(P)) == 2 == volume(P)


def test_single_alcove_has_no_relations():
    P = hypersimplex(build("A", 2), 1)
    assert groebner_basis(P) == []
    assert len(triangulate(P)) == 1


def test_triangulation_counts_match_volume():
    cases = [
        adjacent_star(build("A", 2)),
        adjacent_star(build("C", 2)),
        hypersimplex(build("A", 3), 1),
        hypersimplex(build("A", 3), 2),
        hypersimplex(build("A", 3), 3),
        d4_two_alcove_slab(),
    ]
    for P in cases:
        assert len(triangulate(P)) == volume(P)


def test_octahedron_relations():
    # the middle hypersimplex of A3 is the regular octahedron
    P = hypersimplex(build("A", 3), 2)
    assert len(polytope_vertices(P)) == 6
    assert len(groebner_basis(P)) == 2
    assert len(triangulate(P)) == 4


def test_d4_slab():
    P = d4_two_alcove_slab()
    assert len(polytope_vertices(P)) == 6
    assert len(groebner_basis(P)) == 1
    assert len(triangulate(P)) == 2


def test_rewrites_agree_with_midpoint_rule():
    for P in (
        adjacent_star(build("A", 2)),
        adjacent_star(build("C", 2)),
        hypersimplex(build("A", 3), 2),
    ):
        rs = P.rs
        for binomial in groebner_basis(P):
            expected = frozenset(midpoint_pair(rs, *binomial.lead))
            assert frozenset(binomial.trail) == expected


def test_midpoint_pair_invariants():
    rs = build("C", 2)
    rng = random.Random(17)
    for _ in range(100):
        a = tuple(rng.randint(-5, 5) for _ in range(2))
        b = tuple(rng.randint(-5, 5) for _ in range(2))
        if a == b:
            continue
        u, v = midpoint_pair(rs, a, b)
        assert tuple(x + y for x, y in zip(u, v)) == tuple(
            x + y for x, y in zip(a, b)
        )
        if all((x + y) % 2 == 0 for x, y in zip(a, b)):
            assert u == v


def test_midpoint_closure_of_fundamental_vertices():
    for t, r in (("A", 3), ("C", 2)):
        rs = build(t, r)
        vertices = [(0,) * r] + [
            tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
        ]
        assert midpoint_closure_check(rs, vertices)


def test_d4_fundamental_simplex_is_not_midpoint_closed():
    # the midpoint of two outer vertices of the fundamental alcove lies
    # on an arrangement edge through the origin, so the nearest-vertex
    # pair {0, c_i + c_j} escapes the simplex
    rs = build("D", 4)
    vertices = [(0,) * 4] + [
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    ]
    assert not midpoint_closure_check(rs, vertices)
    u, v = midpoint_pair(rs, (1, 0, 0, 0), (0, 1, 0, 0))
    assert {u, v} == {(0, 0, 0, 0), (1, 1, 0, 0)}


def test_normal_forms_are_standard_and_confluent():
    P = adjacent_star(build("A", 2))
    vertices = polytope_vertices(P)
    rng = random.Random(3)
    for _ in range(50):
        monomial = tuple(
            vertices[rng.randrange(len(vertices))]
            for _ in range(rng.randint(2, 4))
        )
        nf1 = normal_form(P, monomial)
        nf2 = groebner._rewriter(P).normal_form(monomial, rng=random.Random(99))
        assert nf1 == nf2
        assert is_standard(P, nf1)
        assert sorted(nf1) == list(nf1)


def test_standard_pairs_fit_in_one_alcove():
    # the support of a standard quadratic monomial spans an alcove face,
    # so every root pairing varies by at most one across the pair
    from alcoved.rootsys import pairing

    P = adjacent_star(build("C", 2))
    rs = P.rs
    rewriter = groebner._rewriter(P)
    for u in rewriter.vertices:
        for v in rewriter.vertices:
            if not is_standard(P, tuple(sorted((u, v)))):
                continue
            pu = vertex_to_omega(rs, u)
            pv = vertex_to_omega(rs, v)
            for root in rs.positive_roots:
                lo = min(pairing(pu, root), pairing(pv, root))
                hi = max(pairing(pu, root), pairing(pv, root))
                import math

                assert hi <= math.floor(lo) + 1


def test_rewrite_step_strictly_decreases_weight():
    P = adjacent_star(build("C", 2))
    rewriter = groebner._rewriter(P)
    for binomial in rewriter.basis():
        lead_w = rewriter.monomial_weight(binomial.lead)
        trail_w = rewriter.monomial_weight(binomial.trail)
        assert trail_w < lead_w


def test_simplices_are_alcove_vertex_sets():
    P = hypersimplex(build("A", 3), 2)
    rs = P.rs
    for simplex in triangulate(P):
        assert len(simplex) == rs.rank + 1
        assert len(set(simplex)) == rs.rank + 1
        for u in simplex:
            for v in simplex:
                assert is_standard(P, tuple(sorted((u, v))))


def _fraction_grid_vertices(P):
    """The candidate grid of exact rationals that polytope_vertices used
    before it shared the numpy box scan."""
    rs = P.rs
    if P.is_empty:
        return []
    denom = 1
    for row in groebner._lattice_basis(rs):
        for entry in row:
            denom = math.lcm(denom, entry.denominator)
    ranges = [range(k * denom, K * denom + 1) for k, K in P.simple_bounds()]
    out = []
    for scaled in itertools.product(*ranges):
        omega = tuple(Fraction(v, denom) for v in scaled)
        if not all(
            k <= pairing(omega, root) <= K
            for root, (k, K) in zip(rs.positive_roots, P.bounds)
        ):
            continue
        try:
            out.append(omega_to_vertex(rs, omega))
        except UserInputError:
            continue
    return sorted(out)


def test_vertices_agree_with_fraction_grid():
    for t, r in (("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 4)):
        rs = build(t, r)
        for lo, hi in ((-2, 0), (5, 7), (10**12, 10**12 + 1)):
            P = make_polytope(rs, [(s, lo, hi) for s in rs.simple_roots])
            assert polytope_vertices(P) == _fraction_grid_vertices(P)
        # a theta slice, so that a non-simple bound cuts the box
        cons = [(s, -2, 0) for s in rs.simple_roots] + [(rs.theta, -5, -4)]
        P = make_polytope(rs, cons)
        assert polytope_vertices(P) == _fraction_grid_vertices(P)
    P = d4_two_alcove_slab()
    assert polytope_vertices(P) == _fraction_grid_vertices(P)
