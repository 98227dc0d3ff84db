"""Alcoves, central points and reduction to the fundamental alcove."""

import dataclasses
import functools
import random
import time
from fractions import Fraction

import pytest

import fraction_oracles as oracle
from alcoved import geometry
from alcoved.geometry import (
    AffineMap,
    CentralPoint,
    alcove_of,
    fundamental_central_point,
    neighbors,
    reduce_to_fundamental,
    weyl_alcove,
)
from alcoved.errors import BudgetExceededError, DefectError, UserInputError
from alcoved.rootsys import build, pairing
from alcoved.weyl import enumerate_weyl


def test_fundamental_central_point_lies_in_the_open_alcove():
    for t, r in (("A", 3), ("C", 2), ("D", 4), ("G", 2)):
        rs = build(t, r)
        p = fundamental_central_point(rs).omega_point()
        for root in rs.positive_roots:
            assert 0 < pairing(p, root) < 1
        # central points live in (1/h) times the coweight lattice
        h = rs.h_star
        assert all((h * c).denominator == 1 for c in map(Fraction, p))


def test_fundamental_alcove_has_zero_floor_vector():
    rs = build("C", 2)
    alc = alcove_of(fundamental_central_point(rs))
    assert all(m == 0 for m in alc.m)


def test_alcove_floors_bound_the_central_point():
    rs = build("A", 3)
    point = fundamental_central_point(rs)
    for q in neighbors(point):
        alc = alcove_of(q)
        y = q.omega_point()
        for root, m in zip(rs.positive_roots, alc.m):
            assert m < pairing(y, root) < m + 1


def test_neighbors_count_and_distinctness():
    for t, r in (("A", 2), ("C", 3), ("D", 4)):
        rs = build(t, r)
        ns = neighbors(fundamental_central_point(rs))
        assert len(ns) == r + 1
        assert len({alcove_of(q).m for q in ns}) == r + 1


def test_weyl_alcoves_are_distinct():
    rs = build("C", 2)
    W = enumerate_weyl(rs)
    alcoves = {alcove_of(weyl_alcove(w)).m for w in W}
    assert len(alcoves) == len(W)


def test_reduce_to_fundamental_roundtrip():
    rs = build("A", 2)
    W = enumerate_weyl(rs)
    base = fundamental_central_point(rs)
    target = base.omega_point()
    for w in W:
        coords = weyl_alcove(w).omega_point()
        sigma, image = reduce_to_fundamental(rs, coords)
        assert image == target
        assert sigma.apply(coords) == image


def test_reduce_to_fundamental_reaches_far_alcoves():
    rs = build("C", 2)
    point = fundamental_central_point(rs)
    # walk a deterministic zig-zag path away from the origin
    for step in range(12):
        point = neighbors(point)[step % (rs.rank + 1)]
    coords = point.omega_point()
    sigma, image = reduce_to_fundamental(rs, coords)
    assert image == fundamental_central_point(rs).omega_point()
    assert sigma.apply(coords) == image


def test_affine_map_compose_and_inverse():
    rs = build("A", 3)
    p = fundamental_central_point(rs)
    q = neighbors(neighbors(p)[0])[2]
    sigma, _ = reduce_to_fundamental(rs, q.omega_point())
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
    inner = [
        sum(Fraction(c * rs.cartan[i][j], rs.symmetrizer[j]) for i, c in enumerate(root))
        for j in range(rs.rank)
    ]
    norm = sum(c * ip for c, ip in zip(root, inner))
    return tuple(2 * ip / norm for ip in inner)


def _oracle_m(rs, y):
    return tuple(pairing(y, root) // rs.h_star for root in rs.positive_roots)


def _oracle_reflect(point, root, k):
    rs = point.rs
    covector = _fraction_covector(rs, root)
    excess = pairing(point.y, root) - k * rs.h_star
    y = tuple(v - excess * c for v, c in zip(point.y, covector))
    assert all(v.denominator == 1 for v in y)
    return CentralPoint(rs, tuple(int(v) for v in y))


def _oracle_neighbors(point):
    rs = point.rs
    base = _oracle_m(rs, point.y)
    found, seen = [], set()
    for idx, root in enumerate(rs.positive_roots):
        for k in (base[idx], base[idx] + 1):
            candidate = _oracle_reflect(point, root, k)
            m = _oracle_m(rs, candidate.y)
            diffs = [i for i in range(len(m)) if m[i] != base[i]]
            if diffs == [idx] and abs(m[idx] - base[idx]) == 1:
                if candidate.y not in seen:
                    seen.add(candidate.y)
                    found.append(candidate)
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
    point = fundamental_central_point(rs)
    for _ in range(steps):
        point = rng.choice(neighbors(point))
    return point


def test_neighbors_agree_with_fraction_oracle():
    # a seeded walk of 20 steps, continued until every positive root has
    # been a wall of a compared alcove, so that every row of the table
    # has made a neighbor; later points that add no wall are not compared
    rng = random.Random(41)
    for t, r in TYPES:
        rs = build(t, r)
        point = fundamental_central_point(rs)
        walls = set()
        for step in range(2000):
            if step >= 20 and len(walls) == len(rs.positive_roots):
                break
            found = neighbors(point)
            base = _oracle_m(rs, point.y)
            crossed = set()
            for q in found:
                m = _oracle_m(rs, q.y)
                crossed.update(i for i in range(len(m)) if m[i] != base[i])
            if step < 20 or not crossed <= walls:
                walls |= crossed
                assert found == _oracle_neighbors(point)
                for q in found:
                    assert q.pairings == tuple(pairing(q.y, a) for a in rs.positive_roots)
                    assert alcove_of(q).m == _oracle_m(rs, q.y)
            point = rng.choice(found)
        else:
            raise AssertionError(f"{rs}: the walk met only {len(walls)} root directions")


def test_neighbors_check_every_candidate():
    # a corrupt table entry that puts one candidate's pairing on a wall
    rs = build("A", 2)
    theta = rs.root_index(rs.theta)
    table = [list(row) for row in rs.coroot_pairings]
    table[theta][theta] = 1
    bad = dataclasses.replace(rs, coroot_pairings=tuple(map(tuple, table)))
    with pytest.raises(DefectError):
        neighbors(CentralPoint(bad, (1, 1)))
    # a point that is not central is refused before any walk
    with pytest.raises(UserInputError):
        CentralPoint(rs, (1, 2))


def test_neighbors_report_a_candidate_on_a_simple_wall_as_a_defect():
    # the corrupt entry puts a candidate on the wall of a simple root: a
    # broken root-system table, not bad input
    rs = build("A", 2)
    first = rs.simple_index[0]
    table = [list(row) for row in rs.coroot_pairings]
    table[first][first] = 1
    bad = dataclasses.replace(rs, coroot_pairings=tuple(map(tuple, table)))
    with pytest.raises(DefectError, match=r"alcove \(1, 1\)"):
        neighbors(fundamental_central_point(bad))


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
        far = _walk(rs, rng, 12 if r <= 3 else 6).omega_point()
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
