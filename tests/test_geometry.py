"""Alcoves, central points and reduction to the fundamental alcove.

A central point ``y / h_star`` is the tuple of its pairings ``(y, a)``
with the positive roots, as ``geometry.neighbors`` takes and returns it.
"""

import dataclasses
import functools
import random
import re
import time
from fractions import Fraction

import pytest

import fraction_oracles as oracle
from alcoved import geometry, polytope
from alcoved.geometry import AffineMap, neighbors, reduce_to_fundamental
from alcoved.errors import DEFAULT_BUDGET, BudgetExceededError, DefectError, UserInputError
from alcoved.polytope import parallelepiped, volume
from alcoved.rootsys import build, pairing, rho
from alcoved.weyl import enumerate_weyl


def _central(rs, y):
    """The pairings of ``y`` with the positive roots, in their order."""
    return tuple(pairing(y, root) for root in rs.positive_roots)


def _y(rs, p):
    """``y``, the simple pairings of a central point."""
    return tuple(p[i] for i in rs.simple_index)


def _m(rs, p):
    """The m-vector of the alcove around a central point."""
    return tuple(v // rs.h_star for v in p)


def _fundamental(rs):
    """rho / h_star, the central point of the fundamental alcove."""
    return _central(rs, rho(rs))


def _omega(rs, p):
    """Exact rational omega-coordinates of a central point."""
    return tuple(Fraction(v, rs.h_star) for v in _y(rs, p))


def test_fundamental_central_point_lies_in_the_open_alcove():
    for t, r in (("A", 3), ("C", 2), ("D", 4), ("G", 2)):
        rs = build(t, r)
        p = _omega(rs, _fundamental(rs))
        for root in rs.positive_roots:
            assert 0 < pairing(p, root) < 1
        # central points live in (1/h) times the coweight lattice
        h = rs.h_star
        assert all((h * c).denominator == 1 for c in map(Fraction, p))


def test_fundamental_alcove_has_zero_floor_vector():
    rs = build("C", 2)
    assert all(m == 0 for m in _m(rs, _fundamental(rs)))


def test_alcove_floors_bound_the_central_point():
    rs = build("A", 3)
    point = _fundamental(rs)
    for q in neighbors(rs, point):
        y = _omega(rs, q)
        for root, m in zip(rs.positive_roots, _m(rs, q)):
            assert m < pairing(y, root) < m + 1


def test_neighbors_count_and_distinctness():
    for t, r in (("A", 2), ("C", 3), ("D", 4)):
        rs = build(t, r)
        ns = neighbors(rs, _fundamental(rs))
        assert len(ns) == r + 1
        assert len({_m(rs, q) for q in ns}) == r + 1


def test_weyl_alcoves_are_distinct():
    rs = build("C", 2)
    W = enumerate_weyl(rs)
    alcoves = {_m(rs, _central(rs, w.inverse().z)) for w in W}
    assert len(alcoves) == len(W)


def test_reduce_to_fundamental_roundtrip():
    rs = build("A", 2)
    W = enumerate_weyl(rs)
    base = _fundamental(rs)
    target = _omega(rs, base)
    for w in W:
        coords = _omega(rs, _central(rs, w.inverse().z))  # w(A_o)
        sigma, image = reduce_to_fundamental(rs, coords)
        assert image == target
        assert oracle.apply(sigma, coords) == image


def test_reduce_to_fundamental_reaches_far_alcoves():
    rs = build("C", 2)
    point = _fundamental(rs)
    # walk a deterministic zig-zag path away from the origin
    for step in range(12):
        point = neighbors(rs, point)[step % (rs.rank + 1)]
    coords = _omega(rs, point)
    sigma, image = reduce_to_fundamental(rs, coords)
    assert image == _omega(rs, _fundamental(rs))
    assert oracle.apply(sigma, coords) == image


def test_affine_map_compose_and_inverse():
    rs = build("A", 3)
    p = _fundamental(rs)
    q = neighbors(rs, neighbors(rs, p)[0])[2]
    sigma, _ = reduce_to_fundamental(rs, _omega(rs, q))
    rt = oracle.compose(sigma, oracle.inverse(sigma))
    ident = oracle.identity_map(rs.rank)
    assert rt.linear == ident.linear
    assert rt.translation == ident.translation


# -- the Fraction reflections and reduction that neighbors and
# -- reduce_to_fundamental ran before they moved to integers, kept as oracles

TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
)


@functools.cache
def _fraction_covector(rs, root):
    """omega-coordinates of the coroot of ``root``, from the symmetrized form."""
    return oracle.coroot_covector(rs.cartan, root)


def _oracle_m(rs, y):
    return tuple(pairing(y, root) // rs.h_star for root in rs.positive_roots)


def _oracle_reflect(rs, y, root, k):
    covector = _fraction_covector(rs, root)
    excess = pairing(y, root) - k * rs.h_star
    y = tuple(v - excess * c for v, c in zip(y, covector))
    assert all(v.denominator == 1 for v in y)
    return tuple(int(v) for v in y)


def _oracle_neighbors(rs, y):
    """The neighbors of ``y / h`` as pairing tuples, each on no wall."""
    base = _oracle_m(rs, y)
    found = []
    for idx, root in enumerate(rs.positive_roots):
        for k in (base[idx], base[idx] + 1):
            candidate = _oracle_reflect(rs, y, root, k)
            m = _oracle_m(rs, candidate)
            diffs = [i for i in range(len(m)) if m[i] != base[i]]
            if diffs == [idx] and abs(m[idx] - base[idx]) == 1:
                p = _central(rs, candidate)
                assert all(v % rs.h_star for v in p)
                if p not in found:
                    found.append(p)
    assert len(found) == rs.rank + 1
    return found


def _oracle_reduce(rs, point):
    rank = rs.rank
    p = tuple(Fraction(x) for x in point)
    sigma = oracle.identity_map(rank)
    theta_cov = _fraction_covector(rs, rs.theta)
    zero = (Fraction(0),) * rank
    while True:
        i = next((i for i in range(rank) if p[i] < 0), None)
        if i is not None:
            covector = tuple(rs.cartan[j][i] for j in range(rank))
            linear = tuple(
                tuple(
                    (1 if a == b else 0) - (covector[a] if b == i else 0)
                    for b in range(rank)
                )
                for a in range(rank)
            )
            step = AffineMap(linear, zero)
        else:
            if pairing(p, rs.theta) <= 1:
                return sigma, p
            linear = tuple(
                tuple(
                    Fraction(1 if a == b else 0) - theta_cov[a] * rs.theta[b]
                    for b in range(rank)
                )
                for a in range(rank)
            )
            step = AffineMap(linear, theta_cov)
        p = oracle.apply(step, p)
        sigma = oracle.compose(step, sigma)


def _assert_same_reduction(rs, point):
    sigma, image = reduce_to_fundamental(rs, point)
    want_sigma, want_image = _oracle_reduce(rs, point)
    assert sigma.linear == want_sigma.linear
    assert sigma.translation == want_sigma.translation
    assert image == want_image
    # the printed form, which the CLI and the benchmark digests use
    assert [[str(x) for x in row] for row in sigma.linear] == [
        [str(x) for x in row] for row in want_sigma.linear
    ]
    assert [str(x) for x in sigma.translation + image] == [
        str(x) for x in want_sigma.translation + want_image
    ]


def _walk(rs, rng, steps):
    point = _fundamental(rs)
    for _ in range(steps):
        point = rng.choice(neighbors(rs, point))
    return point


def test_neighbors_agree_with_fraction_oracle():
    # a seeded walk of 20 steps, continued until every positive root has
    # been a wall of a compared alcove, so that every row of coroot_array
    # has made a neighbor; later points that add no wall are not compared
    rng = random.Random(41)
    for t, r in TYPES:
        rs = build(t, r)
        point = _fundamental(rs)
        walls = set()
        for step in range(2000):
            if step >= 20 and len(walls) == len(rs.positive_roots):
                break
            found = neighbors(rs, point)
            base = _oracle_m(rs, _y(rs, point))
            crossed = set()
            for q in found:
                m = _oracle_m(rs, _y(rs, q))
                crossed.update(i for i in range(len(m)) if m[i] != base[i])
            if step < 20 or not crossed <= walls:
                walls |= crossed
                assert found == _oracle_neighbors(rs, _y(rs, point))
                for q in found:
                    assert q == _central(rs, _y(rs, q))
                    assert _m(rs, q) == _oracle_m(rs, _y(rs, q))
            point = rng.choice(found)
        else:
            raise AssertionError(f"{rs}: the walk met only {len(walls)} root directions")


def test_neighbors_check_every_candidate():
    # a corrupt coroot row, (1, 0) for theta^vee = (1, 1), puts the
    # reflection in the theta facet of rho/h on a wall
    rs = build("A", 2)
    table = rs.coroot_array.copy()
    table[rs.root_index(rs.theta)] = (1, 0)
    bad = dataclasses.replace(rs, coroot_array=table)
    with pytest.raises(DefectError, match="reflects it onto a wall"):
        neighbors(bad, _fundamental(bad))
    # a point that is not central is refused before any walk
    with pytest.raises(UserInputError):
        neighbors(rs, _central(rs, (1, 2)))


def test_neighbors_refuse_a_pairing_tuple_on_a_wall():
    # y = rho + (h - 1) e_i pairs to h with alpha_i and to 1 with the other
    # simple roots, which come first in root order: y / h is on alpha_i's wall
    for t, r in TYPES:
        rs = build(t, r)
        h = rs.h_star
        for i, root in enumerate(rs.simple_roots):
            y = tuple(1 + (h - 1) * (j == i) for j in range(r))
            wall = re.escape(f"{y}/{h} lies on the hyperplane of root {root}")
            with pytest.raises(UserInputError, match=wall):
                neighbors(rs, _central(rs, y))
    # and a tuple that leaves out a root is no central point either
    rs = build("A", 2)
    with pytest.raises(UserInputError, match="need 3 pairings, got 2"):
        neighbors(rs, (1, 1))


def test_neighbors_refuse_a_pairing_that_is_not_an_integer():
    # (1.5, 1, 2) is malformed input (exit 1), not a facet count gone wrong
    # (exit 2); an integral float is read as its int
    rs = build("A", 2)
    for bad in ((1.5, 1, 2), ("1", 1, 2), (True, 1, 2)):
        with pytest.raises(UserInputError, match="each pairing must be an integer"):
            neighbors(rs, bad)
    p = _fundamental(rs)
    assert neighbors(rs, tuple(map(float, p))) == neighbors(rs, p)


def test_neighbors_report_a_reflection_across_another_wall_as_a_defect():
    # a corrupt coroot row, (2, 2) for alpha_1^vee = (2, -1), moves the
    # reflection in the alpha_1 facet of rho/h across the walls of alpha_2
    # and theta too: a broken root-system table, not bad input
    rs = build("A", 2)
    table = rs.coroot_array.copy()
    table[rs.simple_index[0]] = (2, 2)
    bad = dataclasses.replace(rs, coroot_array=table)
    with pytest.raises(DefectError, match=r"alcove \(1, 1\): .* across another wall"):
        neighbors(bad, _fundamental(bad))


def test_neighbors_agree_with_the_search_on_unit_boxes():
    # every central point of the unit box, read off the rows of the volume
    # scan, against the search over both bounding hyperplanes of every
    # positive root, as sets of pairing tuples
    for t, r in TYPES:
        rs = build(t, r)
        box = parallelepiped(rs)
        offset, chunks = polytope._scan(box, rs.h_star, DEFAULT_BUDGET, walls=True)
        points = [
            _central(rs, [v + o for v, o in zip(y, offset)])
            for ys in chunks for y in ys.tolist()
        ]
        assert len(points) == volume(box)
        for point in points:
            found = neighbors(rs, point)
            assert len(found) == r + 1
            assert set(found) == set(oracle.neighbors_by_search(rs, point))
            for q in found:
                assert q == _central(rs, _y(rs, q))


def test_reduce_agrees_with_fraction_oracle_on_random_points():
    # the oracle takes one step per hyperplane between the point and A_o,
    # so its cost sets the coordinates, which shrink with the rank; the
    # far A1, A2 and C2 points take it about 10^3 steps
    rng = random.Random(43)
    size = {1: 40, 2: 12, 3: 4, 4: 2, 5: 1}
    for t, r in TYPES:
        rs = build(t, r)
        for _ in range(4):
            point = []
            for _ in range(r):
                q = rng.randint(1, 12)
                point.append(Fraction(rng.randint(-size[r] * q, size[r] * q), q))
            _assert_same_reduction(rs, point)
    for t, r, point in (
        ("A", 1, [Fraction(-12_345, 11)]),
        ("A", 2, [Fraction(-1_201, 12), Fraction(2_399, 11)]),
        ("C", 2, [Fraction(601, 5), Fraction(-301, 9)]),
    ):
        _assert_same_reduction(build(t, r), point)


def test_reduce_past_the_step_guard_is_a_budget_error(monkeypatch):
    # a long walk is a resource limit, not a failed theorem; the same point
    # reduces under the default guard
    rs = build("A", 2)
    point = [Fraction(-1_201, 12), Fraction(2_399, 11)]
    _assert_same_reduction(rs, point)
    # after the coroot translation the walk takes three steps and returns
    # on the fourth, so a guard of 3 stops it
    monkeypatch.setattr(geometry, "REDUCTION_STEP_GUARD", 3)
    with pytest.raises(BudgetExceededError, match="did not finish in 3 steps"):
        reduce_to_fundamental(rs, point)
    # a point already in A_o takes no step, so it passes under any guard
    monkeypatch.setattr(geometry, "REDUCTION_STEP_GUARD", 1)
    assert reduce_to_fundamental(rs, [Fraction(1, 3), Fraction(1, 3)])[1] == (
        Fraction(1, 3),
        Fraction(1, 3),
    )


def test_reduce_agrees_with_fraction_oracle_on_walls():
    # points of the closed fundamental alcove: its vertices 0 and
    # omega_i / a_i and rational points on its faces, then the same points
    # moved onto the walls of a walked-to alcove by the inverse reduction
    rng = random.Random(47)
    for t, r in TYPES:
        rs = build(t, r)
        vertices = [(Fraction(0),) * r] + [
            tuple(Fraction(int(i == j), a) for j in range(r))
            for i, a in enumerate(rs.marks)
        ]
        points = list(vertices)
        for _ in range(4):
            weights = [Fraction(rng.randint(0, 3), 1) for _ in vertices]
            weights[rng.randrange(len(weights))] = Fraction(0)
            if not any(weights):
                weights[0] = Fraction(1)
            total = sum(weights)
            points.append(
                tuple(sum(w * v[j] for w, v in zip(weights, vertices)) / total for j in range(r))
            )
        far = _omega(rs, _walk(rs, rng, 12 if r <= 3 else 6))
        back = oracle.inverse(_oracle_reduce(rs, far)[0])
        for p in list(points):
            points.append(oracle.apply(back, p))
        for p in points:
            _assert_same_reduction(rs, p)


def _scan_workload_points():
    """The 32 points that the benchmark's ``scan`` workload reduces."""
    rng = random.Random(1202_4015)
    for t, r in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                 ("G", 2), ("D", 4)):
        for _ in range(4):
            yield t, r, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]


def test_reduce_agrees_with_fraction_oracle_on_scan_workload_points():
    points = list(_scan_workload_points())
    assert len(points) == 32
    for t, r, point in points:
        _assert_same_reduction(build(t, r), point)


@pytest.mark.parametrize("size", (10**3, 10**18))
def test_reduce_far_points_in_closed_form(size):
    # sigma for the A1 points +-N, N + 1 and N + 1/3, N even: the walk of
    # the oracle at N = 10^3, and the same closed form at 10^18, which the
    # coroot translation reaches in a few steps
    rs = build("A", 1)
    cases = (
        (size, ((-1,),), (size,), (0,)),
        (-size, ((1,),), (size,), (0,)),
        (size + 1, ((1,),), (-size,), (1,)),
        (size + Fraction(1, 3), ((1,),), (-size,), (Fraction(1, 3),)),
    )
    for x, linear, translation, image in cases:
        start = time.perf_counter()
        sigma, got = reduce_to_fundamental(rs, [x])
        assert time.perf_counter() - start < 0.1  # milliseconds, not a walk
        assert (sigma.linear, sigma.translation, got) == (linear, translation, image)
        if size < 10**6:
            _assert_same_reduction(rs, [x])


def test_reduce_coroot_translates_agree_with_fraction_oracle():
    # sigma(p + beta) = sigma(p) after t_{-beta} for p inside an alcove and
    # beta = sum n_j alpha_j^vee, whose omega-coordinates are cartan . n
    rng = random.Random(53)
    for t, r in TYPES:
        rs = build(t, r)
        while True:
            p = [Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(r)]
            if all(pairing(p, a).denominator != 1 for a in rs.positive_roots):
                break
        n = [rng.choice((-1, 1)) * 10**12 + rng.randint(-1000, 1000) for _ in range(r)]
        beta = oracle.mat_vec(rs.cartan, n)
        far = [x + b for x, b in zip(p, beta)]
        sigma, image = reduce_to_fundamental(rs, far)
        near, want_image = _oracle_reduce(rs, p)
        identity = oracle.identity_map(r).linear
        want = oracle.compose(near, AffineMap(identity, tuple(-b for b in beta)))
        assert (sigma.linear, sigma.translation, image) == (
            want.linear, want.translation, want_image
        )
        assert [str(x) for x in sigma.translation] == [str(x) for x in want.translation]
