"""Quadratic binomial rewriting and the induced alcove triangulation."""

import copy
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import fraction_oracles as oracle
from alcoved import geometry, groebner, polytope
from alcoved.errors import DEFAULT_BUDGET, BudgetExceededError, DefectError, UserInputError
from alcoved.groebner import groebner_basis, polytope_vertices, triangulate
from alcoved.polytope import (
    AlcovedPolytope,
    adjacent_star,
    hypersimplex,
    make_polytope,
    parallelepiped,
    volume,
)
from alcoved.rootsys import build, pairing


def d4_two_alcove_slab():
    """Two adjacent alcoves across the wall of the first simple root."""
    rs = build("D", 4)
    cons = [(root, 0, 1) for root in rs.positive_roots]
    cons[rs.root_index(rs.simple_roots[0])] = (rs.simple_roots[0], -1, 1)
    return make_polytope(rs, cons)


def _simplices(P) -> list:
    """The coordinate rows of ``triangulate(P)`` as tuples of vertices."""
    r = P.rs.rank
    return [tuple(tuple(row[k : k + r]) for k in range(0, len(row), r)) for row in triangulate(P)]


def _rule_map(rewriter) -> dict:
    """The rows of ``rewriter.rules`` as a lead index pair -> trail index pair dict."""
    return {(a, b): (u, v) for a, b, u, v in rewriter.rules.tolist()}


def test_unsupported_type_rejected():
    for t, r in (("G", 2), ("B", 3), ("F", 4), ("D", 5)):
        rs = build(t, r)
        with pytest.raises(UserInputError):
            triangulate(parallelepiped(rs))
        # the vertex scan refuses too, before it scans
        with pytest.raises(UserInputError, match="only available in types A, C and D4"):
            polytope_vertices(parallelepiped(rs))


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
    # in types A and C the weight-minimal pair of each sum class is the
    # paper's midpoint pair, for every pair of vertices of P
    cases = [
        (adjacent_star(build("A", 2)), None),
        (adjacent_star(build("C", 2)), None),
        (hypersimplex(build("A", 3), 2), 2),
        # the A and C specs of the bench triangulate workload
        (_box("A", 2, 0, 4), 244),
        (_box("A", 2, 0, 6), 1056),
        (_box("C", 2, 0, 3), 315),
        (_box("C", 2, 0, 4), 882),
        (_box("A", 3, 0, 2), 253),
        (_box("A", 4, 0, 1), 55),
        (_box("C", 3, 0, 1), 96),
    ]
    for P, count in cases:
        rewriter = groebner.Rewriter(P)
        assert rewriter.rules.shape == (len(rewriter.rules), 4)
        assert count is None or len(rewriter.rules) == count
        rules, V = _rule_map(rewriter), rewriter.vertices
        for lead in itertools.combinations(range(len(V)), 2):
            expected = oracle.midpoint_pair(P.rs, *(V[k] for k in lead))
            assert {V[k] for k in rules.get(lead, lead)} == set(expected), lead


def test_midpoint_pair_invariants():
    # every midpoint in types A and C has a carrier edge (the oracle
    # raises otherwise), and its ends sum to a + b
    rng = random.Random(17)
    for t, r in [("A", r) for r in range(1, 5)] + [("C", r) for r in range(2, 5)]:
        rs = build(t, r)
        for _ in range(100):
            a = tuple(rng.randint(-5, 5) for _ in range(r))
            b = tuple(rng.randint(-5, 5) for _ in range(r))
            if a == b:
                continue
            u, v = oracle.midpoint_pair(rs, a, b)
            assert tuple(x + y for x, y in zip(u, v)) == tuple(
                x + y for x, y in zip(a, b)
            )
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                assert u == v


def _fundamental_vertices(rs):
    """Vertices of the closed fundamental alcove, 0 and omega_i / a_i, in
    omega coordinates."""
    r = rs.rank
    return [(Fraction(0),) * r] + [
        tuple(Fraction(int(i == j), a) for j in range(r)) for i, a in enumerate(rs.marks)
    ]


def test_vertex_lattice_points_are_arrangement_vertices():
    # the span of the library's vertex-lattice basis is taken to be the set
    # of arrangement vertices: sampled points of it must reduce onto a
    # fundamental-alcove vertex
    systems = [("A", r) for r in range(1, 9)] + [("C", r) for r in range(2, 7)]
    for t, r in systems + [("D", 4)]:
        rs = build(t, r)
        d, B, _, _, _ = groebner._vertex_lattice(rs)
        rng = random.Random(20240 + r)
        fundamental = {_fraction_omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)}
        for _ in range(20):
            vertex = tuple(rng.randint(-3, 3) for _ in range(r))
            omega = tuple(Fraction(int(x), d) for x in B @ vertex)
            _, image = geometry.reduce_to_fundamental(rs, omega)
            assert _fraction_omega_to_vertex(rs, image) in fundamental, (rs, vertex)


def test_normal_forms_are_standard_and_confluent():
    rewriter = groebner.Rewriter(adjacent_star(build("A", 2)))
    vertices = rewriter.vertices
    rng = random.Random(3)
    for _ in range(50):
        monomial = tuple(
            vertices[rng.randrange(len(vertices))]
            for _ in range(rng.randint(2, 4))
        )
        nf1 = rewriter.normal_form(monomial)
        nf2 = rewriter.normal_form(monomial, rng=random.Random(99))
        assert nf1 == nf2
        assert rewriter.is_standard(nf1)
        assert sorted(nf1) == list(nf1)


def test_standard_pairs_fit_in_one_alcove():
    # the support of a standard quadratic monomial spans an alcove face,
    # so every root pairing varies by at most one across the pair
    from alcoved.rootsys import pairing

    P = adjacent_star(build("C", 2))
    rs = P.rs
    rewriter = groebner.Rewriter(P)
    for u in rewriter.vertices:
        for v in rewriter.vertices:
            if not rewriter.is_standard(tuple(sorted((u, v)))):
                continue
            pu = _fraction_vertex_to_omega(rs, u)
            pv = _fraction_vertex_to_omega(rs, v)
            for root in rs.positive_roots:
                lo = min(pairing(pu, root), pairing(pv, root))
                hi = max(pairing(pu, root), pairing(pv, root))
                import math

                assert hi <= math.floor(lo) + 1


def test_rewrite_step_strictly_decreases_weight():
    rewriter = groebner.Rewriter(adjacent_star(build("C", 2)))
    w, (a, b, u, v) = rewriter.weights, rewriter.rules.T
    assert w.dtype == np.int64 and len(rewriter.rules)
    assert (w[u] + w[v] < w[a] + w[b]).all()


def test_points_outside_P_are_not_monomials():
    # (50, 50) is an arrangement vertex far outside the A2 adjacent star
    rewriter = groebner.Rewriter(adjacent_star(build("A", 2)))
    v = rewriter.vertices[0]
    for monomial in [((50, 50), v), ((50, 50), (50, 50), v), (v, (1, 2, 3)), (v, (0,))]:
        with pytest.raises(UserInputError, match="is not a vertex of"):
            rewriter.is_standard(monomial)
        with pytest.raises(UserInputError, match="is not a vertex of"):
            rewriter.normal_form(monomial)
    assert rewriter.normal_form([list(v), v]) == (v, v)


def test_normal_form_guards_raise_on_corrupted_rules(monkeypatch):
    P = adjacent_star(build("C", 2))
    rewriter = groebner.Rewriter(P)
    V, w, top = rewriter.vertices, rewriter.weights, int(rewriter.weights.argmax())
    # a row whose lead is lighter than the heaviest vertex taken twice
    k = next(k for k, (a, b, _, _) in enumerate(rewriter.rules) if w[a] + w[b] < 2 * w[top])
    a, b, u, v = rewriter.rules[k].tolist()
    lead = (V[a], V[b])
    assert rewriter.normal_form(lead) == (V[u], V[v])
    for trail in ((a, b), (top, top)):  # as heavy as the lead, and heavier
        probe = copy.copy(rewriter)
        probe.rules = rewriter.rules.copy()
        probe.rules[k, 2:] = trail
        with pytest.raises(DefectError, match="did not decrease the coherent weight"):
            probe.normal_form(lead)
    # a lead pair takes one rewrite: a guard of one step stops it before the
    # check that would find its trail irreducible
    monkeypatch.setattr(groebner, "REWRITE_STEP_GUARD", 1)
    with pytest.raises(DefectError, match="rewriting did not terminate"):
        rewriter.normal_form(lead)
    monkeypatch.setattr(groebner, "REWRITE_STEP_GUARD", 2)
    assert rewriter.normal_form(lead) == (V[u], V[v])


def test_simplices_are_alcove_vertex_sets():
    P = hypersimplex(build("A", 3), 2)
    rs, rewriter = P.rs, groebner.Rewriter(P)
    for simplex in _simplices(P):
        assert len(simplex) == rs.rank + 1
        assert len(set(simplex)) == rs.rank + 1
        for u in simplex:
            for v in simplex:
                assert rewriter.is_standard(tuple(sorted((u, v))))


def _fraction_basis(rs):
    """The vertex-lattice basis as Fraction rows (omega = B n), the form
    the integer tables replaced, kept as their oracle."""
    r = rs.rank
    if rs.type_label == "D":
        return tuple(
            tuple(Fraction(rs.cartan[i][j], 2) for j in range(r)) for i in range(r)
        )
    return tuple(
        tuple(Fraction(1, rs.marks[i]) if i == j else Fraction(0) for j in range(r))
        for i in range(r)
    )


def _fraction_vertex_to_omega(rs, vertex):
    return oracle.mat_vec(_fraction_basis(rs), tuple(vertex))


def _fraction_omega_to_vertex(rs, point):
    coords = oracle.mat_vec(
        oracle.mat_inv(_fraction_basis(rs)), tuple(Fraction(y) for y in point)
    )
    if any(v.denominator != 1 for v in coords):
        raise UserInputError(f"{tuple(point)} is not an arrangement vertex")
    return tuple(int(v) for v in coords)


def _fraction_pairing_matrix(rs):
    basis = np.array(_fraction_basis(rs), dtype=object)
    denom = math.lcm(*(x.denominator for x in basis.flat))
    G = (denom * basis).T @ np.array(rs.positive_roots, dtype=np.int64).T
    return denom, G.astype(np.int64)


def _fraction_alcove_index(rs):
    corners = [_fraction_omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)]
    edges = [tuple(x - y for x, y in zip(c, corners[0])) for c in corners[1:]]
    return abs(oracle.det(edges))


_TABLE_SYSTEMS = [("A", r) for r in range(1, 6)] + [("C", 2), ("C", 3), ("C", 4), ("D", 4)]


def test_vertex_lattice_tables_agree_with_fraction_oracle():
    for t, r in _TABLE_SYSTEMS:
        rs = build(t, r)
        d, B, q, M, index = groebner._vertex_lattice(rs)
        basis = _fraction_basis(rs)
        inverse = oracle.mat_inv(basis)
        assert B.dtype == M.dtype == np.int64
        assert [[Fraction(x, d) for x in row] for row in B.tolist()] == [
            list(row) for row in basis
        ]
        assert d == math.lcm(*(x.denominator for row in basis for x in row))
        assert [[Fraction(x, q) for x in row] for row in M.tolist()] == [
            list(row) for row in inverse
        ]
        assert q == math.lcm(*(x.denominator for row in inverse for x in row))
        rewriter = groebner.Rewriter(_box(t, r, 0, 1))
        old_denom, old_G = _fraction_pairing_matrix(rs)
        assert rewriter._denom == old_denom and rewriter._G.dtype == np.int64
        assert np.array_equal(rewriter._G, old_G)
        assert index == _fraction_alcove_index(rs)
        # the vertex of the lower simple corner, exact at any offset: the
        # polytope is that one point
        rng = random.Random(31 + r)
        for top in (4, 10**15, 10**30):
            for _ in range(10):
                low = [rng.randint(-top, top) for _ in range(r)]
                point = groebner.Rewriter(make_polytope(rs, zip(rs.simple_roots, low, low)))
                assert point._origin == _fraction_omega_to_vertex(rs, low)
                assert point._X.tolist() == [[0] * r] and point.vertices == [point._origin]


def test_corner_off_the_vertex_lattice_is_a_defect(monkeypatch):
    d, B, q, M, index = groebner._vertex_lattice(build("A", 2))
    monkeypatch.setattr(groebner, "_vertex_lattice", lambda rs: (d, B, 2 * q, M, index))
    with pytest.raises(DefectError, match=r"coweight \(1, 0\) is not an arrangement vertex"):
        groebner.Rewriter(make_polytope(build("A", 2), [((1, 0), 1, 2), ((0, 1), 0, 1)]))


def _fraction_grid_vertices(P):
    """The candidate grid of exact rationals that polytope_vertices used
    before it shared the numpy box scan."""
    rs = P.rs
    if P.is_empty:
        return []
    denom = 1
    for row in _fraction_basis(rs):
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
            out.append(_fraction_omega_to_vertex(rs, omega))
        except UserInputError:
            continue
    return sorted(out)


def _absolute_vertices(P):
    """The int64 rows of ``polytope_vertices(P)``, checked to be in
    lexicographic order, plus the vertex of P's lower simple corner."""
    X = polytope_vertices(P)
    assert X.dtype == np.int64 and X.shape[1:] == (P.rs.rank,)
    assert X.tolist() == sorted(X.tolist())
    corner = _fraction_omega_to_vertex(P.rs, [k for k, _ in P.simple_bounds()])
    return [tuple(x + c for x, c in zip(row, corner)) for row in X.tolist()]


def test_vertices_agree_with_fraction_grid():
    for t, r in (("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 4)):
        rs = build(t, r)
        for lo, hi in ((0, 2), (5, 7), (10**12, 10**12 + 1)):
            P = make_polytope(rs, [(s, lo, hi) for s in rs.simple_roots])
            assert _absolute_vertices(P) == _fraction_grid_vertices(P)
        # a theta slice, so that a non-simple bound cuts the box
        cons = [(s, -2, 0) for s in rs.simple_roots] + [(rs.theta, -5, -4)]
        P = make_polytope(rs, cons)
        assert _absolute_vertices(P) == _fraction_grid_vertices(P)
    P = d4_two_alcove_slab()
    assert _absolute_vertices(P) == _fraction_grid_vertices(P)


class _FractionRewriter(groebner.Rewriter):
    """The Fraction weights, rewrite rules and triangulation check that
    the scaled-integer ones replaced, kept as their oracle: ``weight`` and
    ``fraction_rules`` weigh and rewrite vertices, and the check overrides
    the integer one."""

    def weight(self, vertex) -> Fraction:
        cache = self.__dict__.setdefault("_fraction_weights", {})
        if vertex not in cache:
            omega = _fraction_vertex_to_omega(self.rs, vertex)
            total = Fraction(0)
            for root, (k, K) in zip(self.rs.positive_roots, self.P.bounds):
                value = pairing(omega, root)
                for level in range(k, K + 1):
                    total += abs(value - level)
            cache[vertex] = total
        return cache[vertex]

    def fraction_rules(self) -> dict:
        """Lead vertex pair -> trail vertex pair."""
        by_sum = {}
        for u, v in itertools.combinations(self.vertices, 2):
            total = tuple(x + y for x, y in zip(u, v))
            by_sum.setdefault(total, []).append((u, v))
        for u in self.vertices:
            total = tuple(2 * x for x in u)
            by_sum.setdefault(total, []).append((u, u))
        rules = {}
        for group in by_sum.values():
            if len(group) == 1:
                continue
            weighted = sorted(
                (self.weight(u) + self.weight(v), (u, v)) for u, v in group
            )
            best_weight, best = weighted[0]
            for w, pair in weighted[1:]:
                if w > best_weight and pair[0] != pair[1]:
                    rules[pair] = best
        return rules

    def _validate_triangulation(self, rows) -> None:
        simplices = [tuple(self.vertices[j] for j in row) for row in rows.tolist()]
        vol = volume(self.P)
        if len(simplices) != vol:
            raise DefectError(
                f"triangulation produced {len(simplices)} simplices for a "
                f"polytope of volume {vol}"
            )
        seen_alcoves = set()
        for simplex in simplices:
            base = simplex[0]
            edges = tuple(
                tuple(x - y for x, y in zip(v, base)) for v in simplex[1:]
            )
            if abs(oracle.det(edges)) != _fraction_alcove_index(self.rs):
                raise DefectError(
                    f"simplex {simplex} does not have the normalized "
                    "volume of an alcove"
                )
            corners = [_fraction_vertex_to_omega(self.rs, v) for v in simplex]
            barycenter = tuple(
                sum(c[i] for c in corners) / (self.rs.rank + 1)
                for i in range(self.rs.rank)
            )
            m = []
            for root, (k, K) in zip(self.rs.positive_roots, self.P.bounds):
                value = pairing(barycenter, root)
                if value.denominator == 1:
                    raise DefectError(
                        f"simplex {simplex} barycenter lies on a hyperplane"
                    )
                floor = value.numerator // value.denominator
                if not k <= floor <= K - 1:
                    raise DefectError(f"simplex {simplex} leaves the polytope")
                if any(
                    not floor <= pairing(c, root) <= floor + 1 for c in corners
                ):
                    raise DefectError(
                        f"simplex {simplex} is not contained in the closed "
                        "alcove of its barycenter"
                    )
                m.append(floor)
            m = tuple(m)
            if m in seen_alcoves:
                raise DefectError("two simplices occupy the same alcove")
            seen_alcoves.add(m)


def _box(t, r, lo, hi):
    rs = build(t, r)
    return make_polytope(rs, [(s, lo, hi) for s in rs.simple_roots])


def _translate(P, coweight):
    """P moved by an integral coweight, built directly from its bounds."""
    return AlcovedPolytope(P.rs, tuple(
        (k + pairing(coweight, root), K + pairing(coweight, root))
        for root, (k, K) in zip(P.rs.positive_roots, P.bounds)
    ))


def _probe(rewriter, vertices):
    """A rewriter of the same class and polytope whose vertices are the
    given ones, in P or not, in their order: its vertex scan returns
    their rows less the rewriter's ``_origin``."""
    rows = [[x - o for x, o in zip(v, rewriter._origin)] for v in vertices]
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), rewriter.rs.rank)
    with mock.patch.object(groebner, "polytope_vertices", lambda P, budget: rows):
        return type(rewriter)(rewriter.P, rewriter.budget)


def _check_vertex_sets(rewriter, simplices) -> None:
    """The rewriter's triangulation check on simplices given as vertex
    tuples, some maybe outside P: index rows into the vertex list of a
    probe rewriter that holds just their vertices."""
    index = {}
    rows = [[index.setdefault(v, len(index)) for v in s] for s in simplices]
    probe = _probe(rewriter, list(index))
    size = rewriter.rs.rank + 1
    probe._validate_triangulation(np.array(rows, dtype=np.intp).reshape(len(rows), size))


def _outcome(rewriter, simplices):
    try:
        _check_vertex_sets(rewriter, simplices)
    except DefectError as exc:
        return str(exc)
    return None


def test_weights_and_rules_agree_with_fraction_oracle():
    cases = [
        _box(t, r, lo, lo + width)
        for t, r, width in (
            ("A", 2, 2), ("A", 3, 2), ("C", 2, 2), ("C", 3, 1), ("D", 4, 1)
        )
        for lo in (0, 5, 10**12)
    ]
    slab = d4_two_alcove_slab()
    cases += [slab, _translate(slab, (10**12, 0, 3, -7))]
    for P in cases:
        new, old = groebner.Rewriter(P), _FractionRewriter(P)
        index = {v: k for k, v in enumerate(new.vertices)}
        expected = sorted(
            [index[a], index[b], index[u], index[v]]
            for (a, b), (u, v) in old.fraction_rules().items()
        )
        assert new.rules.dtype == np.int64 and new.rules.tolist() == expected
        assert new.weights.dtype == np.int64
        assert new.weights.tolist() == [old.weight(v) * new._denom for v in new.vertices]
        # a vertex outside P takes the same linear continuation of the weight
        outside = tuple(x + 3 for x in new.vertices[-1])
        assert _scaled_weight(new, outside) == old.weight(outside) * new._denom
    # an empty polytope: a root whose bounds are crossed has no levels at all
    P = _box("A", 2, 0, 2)
    P = AlcovedPolytope(P.rs, P.bounds[:-1] + ((4, 1),))
    new, old = groebner.Rewriter(P), _FractionRewriter(P)
    assert new.vertices == [] and new.rules.shape == (0, 4) and len(new.weights) == 0
    assert _scaled_weight(new, (1, 1)) == old.weight((1, 1)) * new._denom


# the boxes of the bench triangulate workload, the D4 unit box last
_BENCH_SPECS = (
    ("A", 2, 0, 4), ("A", 2, 0, 6), ("C", 2, 0, 3), ("C", 2, 0, 4),
    ("A", 3, 0, 2), ("A", 4, 0, 1), ("C", 3, 0, 1), ("D", 4, 0, 1),
)


def _grouped_rules(rewriter) -> list:
    """The rewrite rules from a dict keyed by the tuple of each pair sum:
    every pair of a sum whose weight passes the sum's least rewrites to
    the first pair, in pair order, of that least weight."""
    X, w = rewriter._X.tolist(), rewriter.weights.tolist()
    groups = {}
    for a, b in itertools.combinations_with_replacement(range(len(X)), 2):
        groups.setdefault(tuple(x + y for x, y in zip(X[a], X[b])), []).append((a, b))
    rules = []
    for pairs in groups.values():
        u, v = min(pairs, key=lambda pair: w[pair[0]] + w[pair[1]])
        rules += [[a, b, u, v] for a, b in pairs if w[a] + w[b] > w[u] + w[v]]
    return sorted(rules)


def test_packed_sum_keys_group_pairs_as_sum_tuples_do():
    cases = [_box(*spec) for spec in _BENCH_SPECS]
    cases += [_box(t, 2, far, far + 3) for t in ("A", "C") for far in (10**12, 10**20)]
    for P in cases:
        rewriter = groebner.Rewriter(P)
        assert rewriter.rules.dtype == np.int64
        assert rewriter.rules.tolist() == _grouped_rules(rewriter)


def test_pair_sum_keys_that_could_pass_int64_are_refused():
    P = _box("A", 2, 0, 1)
    rewriter = groebner.Rewriter(P)
    # the radix product (2 * top + 1)^2 is just under 2^62, then past it
    top = 2**30 - 1
    probe = _probe(rewriter, [(0, 0), (top, top)])
    assert probe.rules.shape == (0, 4)  # three pairs with three sums
    with pytest.raises(UserInputError, match="overflow an int64 key"):
        _probe(rewriter, [(0, 0), (top + 1, top + 1)])


def _scaled_weight(rewriter, vertex) -> int:
    """``denom`` times the coherent weight of any vertex, in P or not."""
    return int(_probe(rewriter, [vertex]).weights[0])


_CHECK_KINDS = {
    "produced": "count",
    "normalized volume": "volume",
    "on a hyperplane": "wall",
    "leaves the polytope": "range",
    "closed alcove": "corners",
    "same alcove": "repeat",
}


def test_triangulation_check_agrees_with_fraction_oracle():
    """Both checks accept the triangulations and raise the same message
    on corrupted lists that reach every branch of the check."""
    cases = [
        _box("A", 2, 0, 3), _box("A", 2, 5, 7), _box("A", 2, 10**12, 10**12 + 1),
        _box("A", 3, 0, 1), _box("A", 3, 5, 7),
        _box("C", 2, 0, 2), _box("C", 2, 10**12, 10**12 + 2), _box("C", 3, 0, 1),
        d4_two_alcove_slab(), _translate(d4_two_alcove_slab(), (5, 0, 0, 0)),
    ]
    kinds = set()
    for P in cases:
        new, old = groebner.Rewriter(P), _FractionRewriter(P)
        rows = new.simplex_rows()
        assert old.simplex_rows().tolist() == rows.tolist()
        simplices = [tuple(new.vertices[j] for j in row) for row in rows.tolist()]
        rs = P.rs
        base, *rest = simplices[-1]
        stretched = tuple(b + 2 * (x - b) for x, b in zip(rest[-1], base))
        width = max(K - k for k, K in P.simple_bounds())

        def moved(simplex, steps):  # by steps times the first fundamental coweight
            shift = _fraction_omega_to_vertex(rs, (steps,) + (0,) * (rs.rank - 1))
            return tuple(tuple(x + t for x, t in zip(v, shift)) for v in simplex)

        corrupted = [
            simplices[:-1],
            simplices[:-1] + [simplices[0]],
            simplices[:-1] + [(base, *rest[:-1], stretched)],
            simplices[:-1] + [moved(simplices[-1], width + 1)],
        ]
        if len(new.vertices) <= 16:
            # one step out of P on the upper side, and every other vertex set
            corrupted += [[moved(simplex, 1)] + simplices[1:] for simplex in simplices]
            corrupted += [
                [candidate] + simplices[1:]
                for candidate in itertools.combinations(new.vertices, rs.rank + 1)
            ]
        for bad in corrupted:
            expected = _outcome(old, bad)
            assert _outcome(new, bad) == expected
            if expected is not None:
                kinds.add(next(k for s, k in _CHECK_KINDS.items() if s in expected))
    assert kinds == set(_CHECK_KINDS.values())


def test_far_translation_is_exact():
    for t in ("A", "C"):
        rs = build(t, 2)
        near, far = _box(t, 2, 0, 2), _box(t, 2, 10**12, 10**12 + 2)
        offset = _fraction_omega_to_vertex(rs, (10**12, 10**12))
        moved = [
            tuple(tuple(x + o for x, o in zip(v, offset)) for v in simplex)
            for simplex in _simplices(near)
        ]
        simplices = _simplices(far)
        assert simplices == moved
        _check_vertex_sets(groebner.Rewriter(far), simplices)
    # simple bounds whose scaled width overflows the box scan
    with pytest.raises(UserInputError):
        triangulate(_box("A", 2, 0, 2**61))
    # a far non-simple bound, which the scan clips, overflows the weights
    P = _box("A", 2, 0, 1)
    bounds = P.bounds[:-1] + ((P.bounds[-1][0], 2**62),)
    with pytest.raises(UserInputError):
        groebner.Rewriter(AlcovedPolytope(P.rs, bounds))
    # so do the weight of a far vertex and the check of a far simplex
    rewriter = groebner.Rewriter(P)
    with pytest.raises(UserInputError):
        _scaled_weight(rewriter, (2**62, 0))
    simplices = _simplices(P)
    far = [tuple((x + 2**62, y) for x, y in simplices[0])] + simplices[1:]
    with pytest.raises(UserInputError):
        _check_vertex_sets(rewriter, far)


def test_exact_dets_match_fraction_det():
    rng = random.Random(11)
    for r in (1, 2, 3, 4):
        for top in (2, 10**6):
            stack = [
                [[rng.randint(-top, top) for _ in range(r)] for _ in range(r)]
                for _ in range(30)
            ]
            stack.append([[0] * r for _ in range(r)])  # singular at the first pivot
            stack.append([[1] * r for _ in range(r)])  # singular later, for r > 1
            dets = groebner._exact_dets(np.array(stack, dtype=np.int64))
            assert [int(x) for x in dets] == [oracle.det(m) for m in stack]


def _set_cliques(rewriter):
    """The dict-of-sets clique search that the bitsets replaced, kept as
    their oracle, on the leads of the rule rows."""
    r = rewriter.rs.rank
    n = len(rewriter.vertices)
    leads = set(_rule_map(rewriter))
    compatible = {
        i: {j for j in range(n) if j != i and (min(i, j), max(i, j)) not in leads}
        for i in range(n)
    }
    simplices = []

    def extend(clique, candidates):
        if len(clique) == r + 1:
            simplices.append(clique)
            return
        for j in sorted(candidates):
            extend(clique + [j], {x for x in candidates if x > j} & compatible[j])

    extend([], set(range(n)))
    return simplices


def test_bitset_cliques_agree_with_set_oracle():
    from test_acceptance import _confluence_cases

    bench_specs = [_box(*spec) for spec in _BENCH_SPECS]
    for P in _confluence_cases() + bench_specs:
        rewriter = groebner.Rewriter(P)
        rewriter._validate_triangulation = lambda simplices: None
        simplices = rewriter.simplex_rows().tolist()
        assert simplices == _set_cliques(rewriter)
    assert len(simplices) == 414  # the D4 unit box, whose check fails
    with pytest.raises(DefectError, match="414 simplices"):
        triangulate(bench_specs[-1])


def test_triangulate_reads_only_the_int64_rows(monkeypatch):
    # the vertex tuples and the lead keys are built on first read, and
    # triangulate reads neither
    built = []

    class Recorded(groebner.Rewriter):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(groebner, "Rewriter", Recorded)
    P = _box("C", 2, 0, 3)  # a spec of the bench triangulate workload
    assert len(triangulate(P)) == volume(P)
    (rewriter,) = built
    assert "vertices" not in rewriter.__dict__ and "_leads" not in rewriter.__dict__
    V = rewriter.vertices
    assert V == sorted(V) and len(V) == len(rewriter._X)
    assert rewriter.normal_form([V[0], V[-1]]) and "_leads" in rewriter.__dict__


def test_calls_leave_no_module_state_behind():
    # each call builds its own rewriter: after the root system's tables
    # are cached, no module-level container of groebner grows
    def sizes():
        return {
            name: value.cache_info().currsize if hasattr(value, "cache_info") else len(value)
            for name, value in vars(groebner).items()
            if not name.startswith("__")
            and (hasattr(value, "cache_info") or isinstance(value, (dict, list, set)))
        }

    rs = build("A", 2)
    triangulate(hypersimplex(rs, 1))
    before = sizes()
    for P in (_box("A", 2, 0, 2), adjacent_star(rs)):
        assert len(triangulate(P)) == volume(P)
    assert sizes() == before


def test_budget_bounds_vertex_scan_and_check():
    P = _box("A", 3, 0, 2)  # 27 vertex-box points, 9^3 volume-box points
    simplices = triangulate(P)
    for budget in (10, 26):
        with pytest.raises(BudgetExceededError):
            triangulate(P, budget)
        with pytest.raises(BudgetExceededError):
            groebner_basis(P, budget)
    # the vertex scan fits, the volume scan of the check does not
    with pytest.raises(BudgetExceededError, match="729"):
        triangulate(P, 728)
    assert triangulate(P, 729) == simplices


def test_budget_bounds_the_vertex_pair_table(monkeypatch):
    # A1 0..3: 4 vertices and 10 pairs; the scans need 4 and 7 points
    P = make_polytope(build("A", 1), [((1,), 0, 3)])
    assert len(triangulate(P, 10)) == 3
    monkeypatch.setattr(np, "triu_indices", None)  # refused before the table
    message = "^A1 rewrite rules: 10 vertex pairs exceed budget 9$"
    for build_rules in (triangulate, groebner_basis):
        with pytest.raises(BudgetExceededError, match=message):
            build_rules(P, 9)


def test_vertex_scan_defaults_to_the_point_budget(monkeypatch):
    scan, budgets = polytope._scan, []

    def recorded(P, scale, budget, *args, **kwargs):
        budgets.append(budget)
        return scan(P, scale, budget, *args, **kwargs)

    monkeypatch.setattr(polytope, "_scan", recorded)
    polytope_vertices(_box("A", 2, 0, 1))
    assert budgets == [DEFAULT_BUDGET]
