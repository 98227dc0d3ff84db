"""Alcoved polytopes: volumes, lattice points and the slice identities."""

import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fraction_oracles import brute_force_eulerian
from alcoved import groebner, polytope
from alcoved.errors import DEFAULT_BUDGET, BudgetExceededError, UserInputError
from alcoved.polytope import (
    AlcovedPolytope,
    adjacent_star,
    alcove_count_bfs,
    hypersimplex,
    lattice_point_count,
    make_polytope,
    parallelepiped,
    spec_to_polytope,
    thick_hypersimplex,
    thick_identity_check,
    volume,
    volume_identity_check,
)
from alcoved.rootsys import build, weyl_order
from alcoved.statistics import coset_representatives
from alcoved.weyl import enumerate_weyl


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
    lo, hi = P.bounds[rs.root_index(rs.theta)]
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


def _random_polytope(rs, rng, max_volume=10**4):
    while True:
        cons = []
        for root in rs.simple_roots:
            lo = rng.randint(-2, 1)
            cons.append((root, lo, rng.randint(lo + 1, 2)))
        P = make_polytope(rs, cons)
        if not P.is_empty and 0 < volume(P) <= max_volume:
            return P


def test_volume_agrees_with_alcove_walk():
    # numpy box filtering against an independent breadth-first walk
    rng = random.Random(11)
    for t, r, draws, max_volume in (
        ("A", 2, 5, 10**4),
        ("C", 2, 5, 10**4),
        ("G", 2, 5, 10**4),
        ("B", 2, 5, 10**4),
        ("B", 3, 3, 100),
        ("D", 4, 2, 100),
        # the walk costs about 0.4 ms per alcove in rank 4: unit boxes only
        ("B", 4, 2, 200),
        ("C", 4, 2, 200),
    ):
        rs = build(t, r)
        for _ in range(draws):
            P = _random_polytope(rs, rng, max_volume)
            assert volume(P) == alcove_count_bfs(P)
    # no F4 box has a volume below 1152, so F4 walks its hypersimplices;
    # E6 stays out: finding the seed alone scans the 13^6 box
    rs = build("F", 4)
    for k, expected in ((2, 15), (3, 63)):
        P = hypersimplex(rs, k)
        assert volume(P) == alcove_count_bfs(P) == expected


def test_volume_lattice_identity_random():
    rng = random.Random(23)
    for t, r in (("A", 2), ("C", 2)):
        rs = build(t, r)
        W = enumerate_weyl(rs)
        for _ in range(5):
            report = volume_identity_check(_random_polytope(rs, rng), W)
            assert report["identity_holds"]
            assert report["volume"] == report["coset_lattice_sum"]


def _inv(w, root) -> int:
    """1 if the positive root is an inversion of w, else 0."""
    return 1 if sum(x * c for x, c in zip(w.z, root)) < 0 else 0


def _translated_polytope(P, w):
    """The polytope whose lattice points index the w-translates of alcoves
    in P: ``(k_a + i_a, K_a + i_a - 1)`` with ``i_a`` the inversions of w^-1."""
    winv = w.inverse()
    bounds = []
    for root, (k, K) in zip(P.rs.positive_roots, P.bounds):
        d = _inv(winv, root)
        bounds.append((k + d, K + d - 1))
    return AlcovedPolytope(P.rs, tuple(bounds))


def _per_coset_oracle(P):
    """One lattice-point scan per coset, as volume_identity_check ran it
    before every coset was read off one scan of P."""
    return [
        lattice_point_count(_translated_polytope(P, w))
        for w in coset_representatives(enumerate_weyl(P.rs))
    ]


def _coset_samples():
    """Seeded random boxes with random cuts on two roots, then the adjacent
    stars, an empty polytope, one with k_a = K_a on theta and boxes near
    10^12."""
    rng = random.Random(2012)
    systems = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("C", 2), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
    for t, r in systems:
        rs = build(t, r)
        for _ in range(3 if r < 4 else 2):
            cons = []
            for s in rs.simple_roots:
                lo = rng.randint(-2, 1)
                cons.append((s, lo, lo + rng.randint(1, 2 if r < 4 else 1)))
            for root in rng.sample(rs.positive_roots, min(2, len(rs.positive_roots))):
                k, K = make_polytope(rs, cons).bounds[rs.root_index(root)]
                a = rng.randint(k, K - 1)
                cons.append((root, a, a + rng.randint(1, 2)))
            yield make_polytope(rs, cons)
    for t, r in (("A", 2), ("B", 2), ("C", 3), ("G", 2)):
        yield adjacent_star(build(t, r))  # bounds -1..1 on every root, not simple
    yield hypersimplex(build("D", 4), 2)
    rs = build("A", 2)
    yield make_polytope(rs, [((1, 0), 0, 1), ((0, 1), 0, 1), (rs.theta, 3, 4)])
    yield make_polytope(rs, [((1, 0), 0, 2), ((0, 1), 0, 2), (rs.theta, 2, 2)])
    for t, r in (("A", 2), ("B", 2), ("C", 3)):
        rs = build(t, r)
        box = [(s, 10**12, 10**12 + 2) for s in rs.simple_roots]
        far = sum(rs.marks) * 10**12
        yield make_polytope(rs, box)
        yield make_polytope(rs, box + [(rs.theta, far + 1, far + 3)])


def test_coset_lattice_sum_matches_per_coset_scans():
    for P in _coset_samples():
        report = volume_identity_check(P, enumerate_weyl(P.rs))
        assert report["per_coset"] == _per_coset_oracle(P)
        assert report["identity_holds"]
    # lattice points on the slab k_theta = K_theta lie in no P_(w)
    rs = build("A", 2)
    slab = make_polytope(rs, [((1, 0), 0, 2), ((0, 1), 0, 2), (rs.theta, 2, 2)])
    assert lattice_point_count(slab) == 3
    assert volume_identity_check(slab, enumerate_weyl(rs))["per_coset"] == [0, 0]


def test_volume_identity_refuses_a_group_of_another_root_system():
    # summed over W(B3)/C, the A3 box would compare Vol(P) = 6 with 24
    P, W = parallelepiped(build("A", 3)), enumerate_weyl(build("B", 3))
    with pytest.raises(UserInputError, match="B3"):
        volume_identity_check(P, W)


def test_coset_lattice_sum_across_chunks(monkeypatch):
    # with 3 scan rows per chunk and one pattern per product, the patterns
    # of a point set are summed over many chunks and products
    rs = build("B", 3)
    P = make_polytope(rs, [(s, 0, 2) for s in rs.simple_roots] + [(rs.theta, 3, 7)])
    W = enumerate_weyl(rs)
    whole = volume_identity_check(P, W)
    scan, chunk_counts = polytope._scan, []

    def counted(*args, **kwargs):
        offset, chunks = scan(*args, **kwargs)
        chunks = list(chunks)
        chunk_counts.append(len(chunks))
        return offset, iter(chunks)

    monkeypatch.setattr(polytope, "_CHUNK_CELLS", 3 * len(rs.positive_roots))
    monkeypatch.setattr(polytope, "_scan", counted)
    assert volume_identity_check(P, W) == whole
    assert chunk_counts[-1] > 3  # the scale-1 scan, after the volume scan
    monkeypatch.undo()
    assert whole["per_coset"] == _per_coset_oracle(P)
    assert whole["identity_holds"]


def _row_unique_per_coset(P, W):
    """``per_coset`` as volume_identity_check summed it before its
    boundary patterns were packed into byte keys: one ``np.unique`` over
    the bool pattern rows of each block of the scale-1 scan."""
    rs = P.rs
    reps = W.coset_indices()
    inverted = W.z[W.inverse[reps]] @ rs.root_array.T < 0
    forbidden = np.hstack([inverted, ~inverted]).T
    per_coset = np.zeros(len(reps), dtype=np.int64)
    offset, chunks = polytope._scan(P, 1, DEFAULT_BUDGET)
    lo, hi = np.array(polytope._shifted_bounds(P, offset, 1, 2**62), dtype=np.int64)
    for ys in chunks:
        pairings = ys @ rs.root_array.T
        patterns, counts = np.unique(
            np.hstack([pairings == lo, pairings == hi]), axis=0, return_counts=True
        )
        per_coset += counts @ ~(patterns @ forbidden)
    return per_coset.tolist()


def test_packed_patterns_group_as_unique_rows():
    # E6 has 36 positive roots, so its patterns are 72 bits wide: nine
    # bytes per key.  With alpha_1 in 0..3 and theta cut at 6, the points
    # with lambda_1 = 1 and 2 and the rest equal differ only in bit 71,
    # whether theta meets its upper bound: a key of the first 64 bits
    # would merge them
    rs = build("E", 6)
    box = [(s, 0, 3 if i == 0 else 1) for i, s in enumerate(rs.simple_roots)]
    wide = make_polytope(rs, box + [(rs.theta, 3, 6)])
    for P in [*_coset_samples(), wide]:
        W = enumerate_weyl(P.rs)
        report = volume_identity_check(P, W)
        assert report["per_coset"] == _row_unique_per_coset(P, W)
        assert report["identity_holds"]


def test_thick_hypersimplex_identity_samples():
    rs = build("C", 2)
    reports = thick_identity_check(rs, [(1, 1), (2, 1), (2, 2)])
    for b, k, K in (((1, 1), 0, 3), ((2, 1), 1, 3), ((2, 2), 2, 5)):
        report = reports[b, k, K]
        assert report["identity_holds"]
    with pytest.raises(UserInputError):
        thick_identity_check(rs, [(0, 1)])


def test_thick_bounds_are_read_as_integers():
    # an integral float is that integer; 1.7, a string or a bool is refused,
    # not truncated into another box
    A2, C2 = build("A", 2), build("C", 2)
    assert thick_hypersimplex(A2, (1.0, 1), 0, 2) == thick_hypersimplex(A2, (1, 1), 0, 2)
    for b in ((1.7, 1), ("2", 1), (True, 1)):
        with pytest.raises(UserInputError, match=f"b_1 must be an integer, got {b[0]!r}"):
            thick_hypersimplex(A2, b, 0, 2)
        with pytest.raises(UserInputError, match="b_1 must be an integer"):
            thick_identity_check(C2, [(1, 1), b])
    assert thick_identity_check(C2, [(1.0, 2)]) == thick_identity_check(C2, [(1, 2)])


def test_hypersimplex_indices_are_read_as_integers():
    # an integral float is that index; a string, a bool or 1.5 is refused,
    # not compared with the range in a bare TypeError
    A2 = build("A", 2)
    assert hypersimplex(A2, 2.0) == hypersimplex(A2, 2)
    assert thick_hypersimplex(A2, (1, 1), 0.0, 2.0) == thick_hypersimplex(A2, (1, 1), 0, 2)
    for bad in ("2", 1.5, True):
        with pytest.raises(UserInputError, match="hypersimplex index must be an integer"):
            hypersimplex(A2, bad)
        with pytest.raises(UserInputError, match="^k must be an integer"):
            thick_hypersimplex(A2, (1, 1), bad, 2)
        with pytest.raises(UserInputError, match="^K must be an integer"):
            thick_hypersimplex(A2, (1, 1), 0, bad)


def test_alcove_walk_charges_each_alcove_it_reaches(monkeypatch):
    # the seed scan's box holds more points than P has alcoves, so the walk
    # is reached under a budget below the volume only past a scan that the
    # default budget lets through
    scan = polytope._scan

    def unbounded(P, scale, budget, walls=False):
        return scan(P, scale, DEFAULT_BUDGET, walls)

    monkeypatch.setattr(polytope, "_scan", unbounded)
    P = parallelepiped(build("A", 2))  # |W| / f = 2 alcoves
    assert alcove_count_bfs(P, 2) == 2
    with pytest.raises(BudgetExceededError, match=r"^A2 alcove walk: 2 alcoves exceed budget 1$"):
        alcove_count_bfs(P, 1)


def _thick_identity_oracle(rs, b, k, K, layer_volumes, budget):
    """The per-case identity that thick-check ran before every θ-slice
    was read off one scan per box: one sliced volume scan and h - 1
    sliced lattice scans."""
    lhs = volume(thick_hypersimplex(rs, b, k, K), budget)
    b_minus = [x - 1 for x in b]
    if any(x < 0 for x in b_minus):
        raise UserInputError("thick-hypersimplex identity needs all b_i >= 1")
    terms = []
    for layer, vol_layer in enumerate(layer_volumes, start=1):
        inner = thick_hypersimplex(rs, b_minus, k - layer + 1, K - layer)
        terms.append(vol_layer * lattice_point_count(inner, budget))
    total = sum(terms)
    return {
        "volume": lhs,
        "slice_sum": total,
        "per_layer": terms,
        "identity_holds": lhs == total,
    }


def _thick_cases(rs, boxes):
    for b in boxes:
        top = sum(a * bi for a, bi in zip(rs.marks, b))
        for k in range(top + 1):
            for K in range(k, top + 1):
                yield b, k, K


def test_thick_identity_matches_per_case_oracle():
    for t, r in (("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)):
        rs = build(t, r)
        layers = [volume(hypersimplex(rs, i)) for i in range(1, rs.h_star)]
        reports = thick_identity_check(rs, product((1, 2), repeat=r))
        for b, k, K in _thick_cases(rs, product((1, 2), repeat=r)):
            oracle = _thick_identity_oracle(rs, b, k, K, layers, 10**8)
            assert reports[b, k, K] == oracle


@pytest.mark.parametrize("t", ["A", "C", "G"])
def test_thick_identity_reads_boxes_off_their_bounding_box(t):
    # neither list holds its bounding box, (2, 2) or (2, 3): the slices of
    # each box are the rows of the bounding-box scans that fit it, and the
    # budget is charged for the bounding box, so one that admits the scan
    # of every box, as the per-case oracle runs them, refuses the check
    rs = build(t, 2)
    h = rs.h_star
    layers = [volume(hypersimplex(rs, i)) for i in range(1, h)]

    def points(b):
        return math.prod(x * h + 1 for x in b)

    for boxes in ([(2, 1), (1, 2)], [(1, 3), (2, 1), (1, 1)]):
        reports = thick_identity_check(rs, boxes)
        cases = list(_thick_cases(rs, boxes))
        assert set(reports) == set(cases)
        budget = max(map(points, boxes))
        for b, k, K in cases:
            assert reports[b, k, K] == _thick_identity_oracle(rs, b, k, K, layers, budget)
        bounding = points([max(col) for col in zip(*boxes)])
        assert bounding > budget
        message = f"^{t}2 box scan at scale {h}: {bounding} points exceed budget {budget}$"
        with pytest.raises(BudgetExceededError, match=message):
            thick_identity_check(rs, boxes, budget)


def test_hypersimplex_volumes_match_per_slice_scans():
    for t, r in (
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
        ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6),
    ):
        rs = build(t, r)
        sliced = [volume(hypersimplex(rs, k)) for k in range(1, rs.h_star)]
        assert polytope.hypersimplex_volumes(rs) == sliced


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
    # the scan translates by the lower simple bounds, so int64 holds only
    # box pairings: 3e18 * h_star * 2 would wrap, and once gave 0, not 2
    base = 3 * 10**18
    rs = build("A", 2)
    P = make_polytope(rs, [((1, 0), base, base + 1), ((0, 1), base, base + 1)])
    assert volume(P) == 2
    assert lattice_point_count(P) == 4
    assert _central_rows(P)[0] == (9 * 10**18 + 1, 9 * 10**18 + 1)
    # far non-simple bounds of a directly built polytope are clipped
    wide = AlcovedPolytope(rs, ((0, 1), (0, 1), (-(10**30), 10**30)))
    assert (volume(wide), lattice_point_count(wide)) == (2, 4)
    far = AlcovedPolytope(rs, ((0, 1), (0, 1), (10**30, 10**30 + 1)))
    assert (volume(far), lattice_point_count(far)) == (0, 0)
    # only a box too wide for int64 pairings is refused
    P = make_polytope(rs, [((1, 0), 0, 2**61), ((0, 1), 0, 2**61)])
    with pytest.raises(UserInputError):
        volume(P)
    with pytest.raises(UserInputError):
        lattice_point_count(P)
    with pytest.raises(UserInputError):
        _central_rows(P)
    with pytest.raises(UserInputError):
        alcove_count_bfs(P)
    with pytest.raises(UserInputError):
        groebner.polytope_vertices(P)


def test_alcove_walk_is_exact_far_from_the_origin():
    # the walk seeds at the first scan row plus the offset, in Python ints:
    # its theta pairings, near 1.8e19, are past the int64 range
    base = 3 * 10**18
    rs = build("A", 2)
    P = make_polytope(rs, [((1, 0), base, base + 1), ((0, 1), base, base + 1)])
    assert alcove_count_bfs(P) == volume(P) == 2


# -- the numpy masks that volume, the central-point scan and lattice_point_count
# -- used before they shared one translated scan, kept as oracles

def _untranslated_scan(P, scale):
    """``(ys, ys @ roots)`` over the whole box, one block per value of the
    first coordinate so that rank-6 boxes stay small."""
    box = [np.arange(k * scale, K * scale + 1) for k, K in P.simple_bounds()]
    roots = np.array(P.rs.positive_roots, dtype=np.int64).T
    grids = np.meshgrid(box[0][:1], *box[1:], indexing="ij")
    ys = np.stack([g.ravel() for g in grids], axis=1)
    pairings = ys @ roots
    first = np.eye(1, len(box), dtype=np.int64)
    for step in box[0] - box[0][0]:
        yield ys + step * first, pairings + step * roots[0]


def _bound_vectors(P):
    return (np.array([b[i] for b in P.bounds], dtype=np.int64) for i in (0, 1))


def _central_mask_oracle(P):
    h = P.rs.h_star
    k_vec, K_vec = _bound_vectors(P)
    points = []
    for ys, pairings in _untranslated_scan(P, h):
        # k <= pairings // h <= K - 1, tested before the residues
        inside = ((pairings >= k_vec * h) & (pairings < K_vec * h)).all(axis=1)
        ys, pairings = ys[inside], pairings[inside]
        points.extend(map(tuple, ys[(pairings % h != 0).all(axis=1)].tolist()))
    return points


def _lattice_mask_oracle(P):
    k_vec, K_vec = _bound_vectors(P)
    return sum(
        int(((pairings >= k_vec).all(axis=1) & (pairings <= K_vec).all(axis=1)).sum())
        for _, pairings in _untranslated_scan(P, 1)
    )


def _central_rows(P):
    """The rows of the volume scan plus its offset: the central points
    ``y`` of P's alcoves, in lexicographic order."""
    offset, chunks = polytope._scan(P, P.rs.h_star, DEFAULT_BUDGET, walls=True)
    return [tuple(v + o for v, o in zip(y, offset)) for ys in chunks for y in ys.tolist()]


def _assert_scans_agree(P):
    points = _central_mask_oracle(P) if not P.is_empty else []
    assert _central_rows(P) == points
    assert volume(P) == len(points)
    expected = _lattice_mask_oracle(P) if not P.is_empty else 0
    assert lattice_point_count(P) == expected


def _mask_cases():
    """Wide, far and unit boxes with random cuts on non-simple roots, some
    of them empty, then the first E6 slices, where the scan prunes nearly
    all of the 13^6 box."""
    rng = random.Random(31)
    wide = ((-2, 0), (5, 7), (10**12, 10**12 + 1))
    unit = ((-1, 0), (5, 6), (10**12, 10**12 + 1))  # rank 4 and 5 boxes
    for t, r, boxes in (
        ("A", 2, wide), ("A", 3, wide), ("B", 3, wide), ("C", 3, wide),
        ("D", 4, wide), ("G", 2, wide), ("B", 4, unit), ("D", 5, unit), ("F", 4, unit),
    ):
        rs = build(t, r)
        inner = [root for root in rs.positive_roots if sum(root) > 1]
        for lo, hi in boxes:
            cons = [(s, lo, hi) for s in rs.simple_roots]
            for root in rng.sample(inner, min(2, len(inner))):
                top = sum(root) * lo + rng.randint(0, sum(root) * (hi - lo))
                cons.append((root, top, top + rng.randint(0, 2)))
            yield make_polytope(rs, cons[:r])
            yield make_polytope(rs, cons)
    rs = build("E", 6)
    for k in (1, 2):
        yield hypersimplex(rs, k)


def test_scans_agree_with_untranslated_masks():
    for P in _mask_cases():
        _assert_scans_agree(P)


def test_scan_dtype_boundary_on_a1_boxes(monkeypatch):
    # at h = 2 the A1 boxes 0..8191 and 0..8192 reach 16,382 and 16,384, on
    # either side of 2^14: an int16 and an int32 scan against the masks
    natural, reaches = polytope._scan_dtype, []

    def recorded(reach):
        reaches.append(reach)
        return natural(reach)

    monkeypatch.setattr(polytope, "_scan_dtype", recorded)
    rs = build("A", 1)
    for top in (8191, 8192):
        _assert_scans_agree(make_polytope(rs, [((1,), 0, top)]))
    assert reaches == [16382, 16382, 8191, 16384, 16384, 8192]
    tops = (2**14 - 1, 2**14, 2**30 - 1, 2**30, 2**62 - 1)
    expected = [np.int16, np.int32, np.int32, np.int64, np.int64]
    assert [natural(top) for top in tops] == expected


def _chunk_samples():
    return [
        make_polytope(build("B", 4), [(s, -1, 0) for s in build("B", 4).simple_roots]),
        hypersimplex(build("F", 4), 3),
        thick_hypersimplex(build("C", 3), (2, 1, 2), 2, 5),
        make_polytope(build("A", 2), [((1, 0), 10**12, 10**12 + 2), ((0, 1), 0, 1)]),
    ]


def test_scan_in_small_chunks_keeps_rows_and_order(monkeypatch):
    # a block whose extension would pass 7 rows is extended in parts,
    # splitting the 9 values of a B4 coordinate too; the parts, joined,
    # are the rows of the unsplit scan in the same order
    for P in _chunk_samples():
        h = P.rs.h_star
        for scale, walls in ((h, True), (h, False), (1, False)):
            offset, chunks = polytope._scan(P, scale, 10**8, walls)
            whole = list(chunks)
            assert len(whole) == 1
            monkeypatch.setattr(polytope, "_CHUNK_CELLS", 7 * len(P.rs.positive_roots))
            small_offset, small = polytope._scan(P, scale, 10**8, walls)
            parts = list(small)
            monkeypatch.undo()
            assert small_offset == offset
            assert len(parts) > 1 or scale == 1
            assert max(len(part) for part in parts) <= 7
            joined = np.concatenate(parts)
            assert joined.dtype == np.int64
            assert np.array_equal(joined, whole[0])


@pytest.mark.parametrize("variant", ["int16", "int32", "int64", "small_chunks"])
def test_counts_equal_the_listing_scan(monkeypatch, variant):
    # volume and lattice_point_count count the survivors of the last
    # coordinate without building them: block by block, as many as the
    # listing scan yields, in every scan type and in 7-row blocks
    for P in [*_chunk_samples(), *_mask_cases()]:
        if variant == "small_chunks":
            monkeypatch.setattr(polytope, "_CHUNK_CELLS", 7 * len(P.rs.positive_roots))
        elif variant != "int16":
            monkeypatch.setattr(polytope, "_scan_dtype", lambda reach: getattr(np, variant))
        for scale, walls, count in ((P.rs.h_star, True, volume), (1, False, lattice_point_count)):
            listed = [len(ys) for ys in polytope._scan(P, scale, DEFAULT_BUDGET, walls)[1]]
            _, counted = polytope._scan(P, scale, DEFAULT_BUDGET, walls, count_only=True)
            assert list(counted) == listed
            assert count(P) == sum(listed)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_every_scan_dtype_gives_the_same_rows(monkeypatch, dtype):
    # these scans run in int16; forced into a wider type, each yields the
    # same int64 rows, in the same blocks and order, from the same offset
    natural, chosen = polytope._scan_dtype, set()

    def recorded(reach):
        chosen.add(natural(reach))
        return natural(reach)

    for P in [*_chunk_samples(), *_mask_cases()]:
        h = P.rs.h_star
        for scale, walls in ((h, True), (h, False), (1, False)):
            monkeypatch.setattr(polytope, "_scan_dtype", recorded)
            offset, chunks = polytope._scan(P, scale, 10**8, walls)
            rows = list(chunks)
            monkeypatch.setattr(polytope, "_scan_dtype", lambda reach: dtype)
            wide_offset, wide = polytope._scan(P, scale, 10**8, walls)
            wide = list(wide)
            assert wide_offset == offset
            assert len(wide) == len(rows)
            for block, wide_block in zip(rows, wide):
                assert block.dtype == wide_block.dtype == np.int64
                assert np.array_equal(block, wide_block)
    assert chosen == {np.int16}


@st.composite
def _small_polytopes(draw, t, r):
    """A box of simple bounds in [-2, 2], one or two wide, cut on theta and
    on one more root; rank 4 boxes are one wide and cut on theta only."""
    rs = build(t, r)
    cons = []
    for s in rs.simple_roots:
        lo = draw(st.integers(-2, 1))
        cons.append((s, lo, lo + draw(st.integers(1, 2 if r < 4 else 1))))
    roots = [rs.theta]
    if r < 4:
        roots.append(draw(st.sampled_from(rs.positive_roots)))
    for root in roots:
        k, K = make_polytope(rs, cons).bounds[rs.root_index(root)]
        a = draw(st.integers(k, K - 1))
        cons.append((root, a, a + draw(st.integers(1, 3))))
    return make_polytope(rs, cons)


# E6 and larger stay out: the mask oracle would build the whole 13^6 box
@pytest.mark.parametrize(
    "t, r",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
     ("D", 4), ("F", 4), ("G", 2)],
)
@seed(2012)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_volume_matches_oracles_and_walk_on_random_polytopes(t, r, data):
    P = data.draw(_small_polytopes(t, r))
    central = _central_mask_oracle(P) if not P.is_empty else []
    assert volume(P) == len(central) == alcove_count_bfs(P)
    expected = _lattice_mask_oracle(P) if not P.is_empty else 0
    assert lattice_point_count(P) == expected
