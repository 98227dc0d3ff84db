"""Acceptance gate: the nine headline identities, all exact.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s``
or in the captured output of a failing run).
"""

import math
import random
from contextlib import contextmanager
from itertools import permutations, product

import fraction_oracles as oracle
from alcoved import groebner, polytope, statistics, weyl
from alcoved.polytope import (
    adjacent_star,
    hypersimplex,
    make_polytope,
    parallelepiped,
    thick_identity_check,
    volume,
    volume_identity_check,
)
from alcoved.rootsys import build, weyl_order
from alcoved.statistics import (
    cmaj_twist_check,
    double_coset_check,
    eulerian_polynomial,
    poly_mul,
    qweyl_check,
)
from alcoved.weyl import (
    enumerate_weyl,
    from_permutation,
    permutation_descents,
    signed_permutation_descents,
    to_permutation,
    to_signed_permutation,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


RANK4_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
]


def test_criterion_1_weyl_order_formula():
    cases = [("A", n) for n in range(1, 6)] + [
        ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("C", 4),
        ("D", 4), ("G", 2), ("F", 4),
    ]
    with criterion(1, "Weyl group order equals f * r! * a_1...a_r"):
        for t, r in cases:
            rs = build(t, r)
            formula = (
                rs.index_of_connection * math.factorial(r) * math.prod(rs.marks)
            )
            assert len(enumerate_weyl(rs)) == formula
            assert weyl_order(rs) == formula


def test_criterion_2_volumes_of_box_and_star():
    with criterion(2, "Vol(Pi) = r! a_1...a_r and Vol(H) = |W|, rank <= 4"):
        for t, r in RANK4_TYPES:
            rs = build(t, r)
            assert volume(parallelepiped(rs)) == math.factorial(r) * math.prod(
                rs.marks
            )
            assert volume(adjacent_star(rs)) == weyl_order(rs)


def test_criterion_3_hypersimplex_volumes_type_A():
    with criterion(3, "type-A hypersimplex volumes are the Eulerian numbers"):
        for n in range(2, 7):
            rs = build("A", n - 1)
            vols = tuple(volume(hypersimplex(rs, k)) for k in range(1, n))
            # Vol(Delta_k) counts permutations of n-1 letters with k-1
            # descents; an independent brute-force count
            counts = [0] * (n - 1)
            for p in permutations(range(1, n)):
                counts[sum(1 for i in range(n - 2) if p[i] > p[i + 1])] += 1
            assert vols == tuple(counts)


def test_criterion_4_q_weyl_identity():
    cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("C", 2), ("C", 3), ("B", 3), ("D", 4), ("G", 2)]
    with criterion(4, "q-analogue of the Weyl order formula"):
        for t, r in cases:
            report = qweyl_check(enumerate_weyl(build(t, r)))
            assert report["identity_holds"]
            assert report["scalar_holds"]
        # closed form in type C_n: every class carries A_n(q) (1+q)^(n-1)
        for n in (2, 3):
            closed = eulerian_polynomial(n)
            for _ in range(n - 1):
                closed = poly_mul(closed, (1, 1))
            report = qweyl_check(enumerate_weyl(build("C", n)))
            components = report["lhs"]
            assert len(components) == 2
            assert all(p == closed for p in components.values())


def _random_polytope(rs, rng):
    while True:
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        P = make_polytope(rs, cons)
        if not P.is_empty and 0 < volume(P) <= 10**4:
            return P


def test_criterion_5_volume_equals_lattice_point_sum():
    with criterion(5, "volume equals the coset lattice-point sum"):
        for t, r in (("A", 2), ("C", 2), ("A", 3)):
            rs = build(t, r)
            W = enumerate_weyl(rs)
            rng = random.Random(20240521 + r)
            for _ in range(20):
                P = _random_polytope(rs, rng)
                assert volume_identity_check(P, W)["identity_holds"]


def test_criterion_6_thick_hypersimplex_identity():
    with criterion(6, "thick hypersimplex slice identity, A2 and C2"):
        for t, r in (("A", 2), ("C", 2)):
            rs = build(t, r)
            reports = thick_identity_check(rs, product((1, 2), repeat=r))
            for b in product((1, 2), repeat=r):
                top = sum(a * bi for a, bi in zip(rs.marks, b))
                for k in range(0, top + 1):
                    for K in range(k, top + 1):
                        assert reports[b, k, K]["identity_holds"]


def test_criterion_7_statistics_theorems():
    with criterion(7, "cdes/cmaj theorems, exhaustive over W"):
        for t, r in (("C", 2), ("A", 3), ("C", 3), ("D", 4)):
            rs = build(t, r)
            W = enumerate_weyl(rs)
            assert double_coset_check(W)["holds"]
            twist = cmaj_twist_check(W)
            assert twist["holds"]
            assert twist["inverse_symmetry_holds"]


def _confluence_cases():
    rng = random.Random(8128)
    rs = build("A", 2)
    cases = []
    while len(cases) < 5:
        P = _random_polytope(rs, rng)
        if volume(P) <= 50:
            cases.append(P)
    rs3 = build("A", 3)
    cases += [hypersimplex(rs3, k) for k in (1, 2, 3)]
    cases.append(adjacent_star(build("C", 2)))
    rs4 = build("D", 4)
    cons = [(root, 0, 1) for root in rs4.positive_roots]
    cons[rs4.root_index(rs4.simple_roots[0])] = (rs4.simple_roots[0], -1, 1)
    cases.append(make_polytope(rs4, cons))
    return cases


def test_criterion_8_groebner_triangulation():
    with criterion(8, "triangulation size, confluence, weight decrease"):
        for P in _confluence_cases():
            assert len(groebner.triangulate(P)) == volume(P)
            rewriter = groebner._rewriter(P)
            w, (lead_a, lead_b, trail_u, trail_v) = rewriter.weights, rewriter.rules.T
            assert (w[trail_u] + w[trail_v] < w[lead_a] + w[lead_b]).all()
            vertices = rewriter.vertices
            draw = random.Random(4181)
            order_a = random.Random(1)
            order_b = random.Random(2)
            for _ in range(1000):
                monomial = tuple(
                    vertices[draw.randrange(len(vertices))]
                    for _ in range(draw.randint(2, 4))
                )
                nf = rewriter.normal_form(monomial, rng=order_a)
                assert nf == rewriter.normal_form(monomial, rng=order_b)
                assert rewriter.is_standard(nf)


def test_criterion_9_model_cross_checks():
    # the descent, cdes and cmaj tables of W, which every command reads
    with criterion(9, "permutation and signed-permutation model agreement"):
        for n in range(2, 6):
            rs = build("A", n - 1)
            W = enumerate_weyl(rs)
            cycle = from_permutation(rs, (*range(2, n + 1), 1))  # 1 -> 2 -> ... -> n -> 1
            times_c = W.right_action(W.z.tolist().index(list(cycle.z)))
            powers = [0]  # powers[m] is the index of c^m
            for _ in range(n - 1):
                powers.append(times_c[powers[-1]])
            for k, w in enumerate(W):
                window = to_permutation(w)
                bits = permutation_descents(window)
                assert tuple(W.descents[k].tolist()) == bits
                assert W.cdes[k] == sum(bits)
                assert W.cmaj[k] == powers[(-oracle.major_index(window)) % n]
        for n in (2, 3):
            rs = build("C", n)
            W = enumerate_weyl(rs)
            marks = (1,) + rs.marks
            for k, w in enumerate(W):
                bits = signed_permutation_descents(to_signed_permutation(w))
                assert tuple(W.descents[k].tolist()) == bits
                assert W.cdes[k] == sum(a * d for a, d in zip(marks, bits))
