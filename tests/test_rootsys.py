"""Root system construction, pairings and the order formula."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fraction_oracles as oracle
from alcoved import rootsys
from alcoved.errors import DefectError, UserInputError
from alcoved.polytope import adjacent_star
from alcoved.rootsys import build, pairing, rho, weyl_order


def test_cartan_matrices_small_types():
    assert build("A", 2).cartan == ((2, -1), (-1, 2))
    assert build("G", 2).cartan in (((2, -1), (-3, 2)), ((2, -3), (-1, 2)))
    c2 = build("C", 2).cartan
    assert sorted(sorted(row) for row in c2) == [[-2, 2], [-1, 2]]
    d4 = build("D", 4)
    assert sum(row.count(-1) for row in d4.cartan) == 6


def test_positive_root_counts():
    expected = {
        ("A", 3): 6,
        ("B", 3): 9,
        ("C", 4): 16,
        ("D", 4): 12,
        ("G", 2): 6,
        ("F", 4): 24,
    }
    for (t, r), count in expected.items():
        rs = build(t, r)
        assert len(rs.positive_roots) == count
        for root in rs.positive_roots:
            assert all(c >= 0 for c in root)


def test_theta_has_the_marks_as_coordinates():
    for t, r in (("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)):
        rs = build(t, r)
        assert rs.theta == rs.marks
        assert max(rs.positive_roots, key=sum) == rs.theta
        assert rs.h_star == 1 + sum(rs.marks)


def test_weyl_order_closed_forms():
    # classical orders: (n+1)! for A_n, 2^n n! for B_n/C_n,
    # 2^(n-1) n! for D_n, 12 for G_2, 1152 for F_4
    for n in range(1, 6):
        assert weyl_order(build("A", n)) == math.factorial(n + 1)
    for n in range(2, 5):
        assert weyl_order(build("B", n)) == 2**n * math.factorial(n)
        assert weyl_order(build("C", n)) == 2**n * math.factorial(n)
    assert weyl_order(build("D", 4)) == 192
    assert weyl_order(build("G", 2)) == 12
    assert weyl_order(build("F", 4)) == 1152


def test_index_of_connection_is_cartan_determinant():
    expected = {("A", 3): 4, ("B", 3): 2, ("C", 3): 2, ("D", 4): 4, ("G", 2): 1, ("F", 4): 1}
    for (t, r), f in expected.items():
        rs = build(t, r)
        assert rs.index_of_connection == f
        # f also counts the marks equal to one, with the affine mark included
        assert f == 1 + sum(1 for a in rs.marks if a == 1)


def _every_system():
    for t, (lo, hi) in rootsys._RANK_RANGE.items():
        for r in range(lo, (hi or 8) + 1):
            yield t, r


def test_integer_cartan_inverse_matches_fraction_oracle():
    for t, r in _every_system():
        rs = build(t, r)
        assert rs.index_of_connection == abs(oracle.det(rs.cartan))
        f = rs.index_of_connection
        adj = rs.cartan_adjugate
        assert all(type(x) is int for row in adj for x in row)
        inverse = tuple(tuple(Fraction(x, f) for x in row) for row in adj)
        assert inverse == oracle.mat_inv(rs.cartan)


def test_corrupted_cartan_adjugate_raises(monkeypatch):
    adjugate = rootsys._cartan_adjugate

    def corrupted(cartan):
        f, adj = adjugate(cartan)
        return f, ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:]

    monkeypatch.setattr(rootsys, "_cartan_adjugate", corrupted)
    with pytest.raises(DefectError):
        build.__wrapped__("B", 3)  # past the cache


def test_equal_root_systems_hash_equal():
    for t, r in (("A", 4), ("C", 3), ("E", 6)):
        cached, fresh = build(t, r), build.__wrapped__(t, r)
        assert cached is not fresh and cached == fresh
        assert hash(cached) == hash(fresh)
        assert hash(adjacent_star(cached)) == hash(adjacent_star(fresh))
    assert build("B", 3) != build("C", 3)


def test_pairing_is_the_plain_dot_product():
    rs = build("C", 3)
    omega_1 = (1, 0, 0)
    assert pairing(omega_1, rs.simple_roots[0]) == 1
    assert pairing(omega_1, rs.simple_roots[1]) == 0
    assert pairing(omega_1, rs.theta) == rs.marks[0]


def test_coroot_covector_of_simple_roots():
    # the coroot of alpha_j pairs with alpha_i to cartan[i][j]: its row of
    # coroot_array @ root_array.T, read at the simple roots, is column j of
    # the Cartan matrix
    rs = build("B", 3)
    table = rs.coroot_array @ rs.root_array.T
    for j, alpha in enumerate(rs.simple_roots):
        col = tuple(rs.cartan[i][j] for i in range(rs.rank))
        assert oracle.coroot_covector(rs.cartan, alpha) == col
        row = table[rs.simple_index[j]].tolist()
        assert tuple(row[i] for i in rs.simple_index) == col


def test_coroot_array_matches_the_symmetrized_form():
    # (a^vee, b) = 2 (a, b) / (a, a) in Fractions, against the integer rows
    for t, r in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2),
                 ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4),
                 ("D", 5), ("E", 6), ("E", 7), ("F", 4), ("G", 2)):
        rs = build(t, r)
        roots = rs.positive_roots
        covectors = [oracle.coroot_covector(rs.cartan, a) for a in roots]
        expected = [[pairing(cov, b) for b in roots] for cov in covectors]
        assert (rs.coroot_array @ rs.root_array.T).tolist() == expected
        assert rs.coroot_array.tolist() == [list(cov) for cov in covectors]
        assert pairing(rs.coroot_array[-1].tolist(), rs.theta) == 2
        assert rs.coroot_array.dtype == np.int64 and not rs.coroot_array.flags.writeable


_ORACLE_SYSTEMS = (
    [("A", r) for r in range(1, 10)] + [(t, r) for t in "BC" for r in range(2, 10)]
    + [("D", r) for r in range(4, 10)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("t, r", _ORACLE_SYSTEMS)
def test_build_matches_the_root_string_and_symmetrized_oracles(t, r):
    rs = build(t, r)
    roots = oracle.positive_roots(rs.cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    covectors = [oracle.coroot_covector(rs.cartan, a) for a in roots]
    pairings = [[pairing(cov, b) for b in roots] for cov in covectors]
    f = abs(oracle.det(rs.cartan))
    last = [max(j for j, c in enumerate(root) if c) for root in roots]
    assert rs.positive_roots == tuple(roots)
    assert (rs.coroot_array @ rs.root_array.T).tolist() == pairings
    assert rs.coroot_array[-1].tolist() == list(covectors[-1])
    inverse = oracle.mat_inv(rs.cartan)
    assert rs.cartan_adjugate == tuple(tuple(f * x for x in row) for row in inverse)
    assert rs.root_array.tolist() == [list(root) for root in roots]
    assert not rs.root_array.flags.writeable and not rs.coroot_array.flags.writeable
    assert list(rs.root_arrays) == [np.int16, np.int32, np.int64]
    for dtype, array in rs.root_arrays.items():
        assert array.dtype == dtype and array.tolist() == rs.root_array.tolist()
    assert [c.tolist() for c in rs.column_support] == [
        [k for k, root in enumerate(roots) if root[i]] for i in range(r)
    ]
    assert rs.simple_index == tuple(roots.index(alpha) for alpha in simple)
    assert [c.tolist() for c in rs.column_final] == [
        [k for k, j in enumerate(last) if j == i] for i in range(r)
    ]
    assert rootsys.info_dict(rs) == {
        "type": t,
        "rank": r,
        "cartan": [list(row) for row in rs.cartan],
        "marks": list(roots[-1]),
        "h": 1 + sum(roots[-1]),
        "f": f,
        "positive_roots": [list(root) for root in roots],
        "theta": list(roots[-1]),
        "weyl_order": f * math.factorial(r) * math.prod(roots[-1]),
    }


def test_a_coroot_that_does_not_pair_to_two_raises(monkeypatch):
    closure = rootsys._roots_and_coroots

    def corrupted(cartan, rank):
        roots, coroots = closure(cartan, rank)
        coroots[4] = tuple(2 * c for c in coroots[4])  # pairs to 4 with its root
        return roots, coroots

    monkeypatch.setattr(rootsys, "_roots_and_coroots", corrupted)
    with pytest.raises(DefectError, match="pair to 2"):
        build.__wrapped__("B", 3)  # past the cache


def test_pairing_table_limit_is_checked_before_the_closure(monkeypatch):
    # the limit counts positive roots, which are known before the closure;
    # it refuses the ranks that the old limit of 10^8 pairings refused
    def unreachable(cartan, rank):
        raise AssertionError("the closure ran past the positive root limit")

    monkeypatch.setattr(rootsys, "_roots_and_coroots", unreachable)
    with pytest.raises(UserInputError, match="A141 has 10011 positive roots, .* 10000"):
        build("A", 141)
    for t, admitted in (("A", 140), ("B", 100), ("C", 100), ("D", 100)):
        assert rootsys._positive_root_count(t, admitted) <= rootsys.POSITIVE_ROOT_LIMIT
        with pytest.raises(UserInputError, match="positive roots, more than"):
            build(t, admitted + 1)
    monkeypatch.undo()
    # at the limit a root system builds, one root more is refused
    monkeypatch.setattr(rootsys, "POSITIVE_ROOT_LIMIT", 6)
    assert len(build.__wrapped__("A", 3).coroot_array) == 6  # past the cache
    with pytest.raises(UserInputError, match="A4 has 10 positive roots"):
        build.__wrapped__("A", 4)


def test_rank_is_read_as_an_integer():
    # an integral float is that rank; a string, 2.5 or a bool is refused,
    # also once the rank it equals is cached
    assert build("A", 3.0) == build("A", 3)
    build("A", 1)
    for rank in ("3", 2.5, True):
        with pytest.raises(UserInputError, match=f"^rank must be an integer, got {rank!r}$"):
            build("A", rank)


def test_build_allocates_no_table_of_all_pairings():
    # A60 has 1,830 positive roots: a table of all their pairings would
    # hold 3.3M entries, while coroot_array holds 109,800
    tracemalloc.start()
    try:
        build.__wrapped__("A", 60)  # past the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_rho_pairs_to_one_with_simple_coroots():
    for t, r in (("A", 2), ("C", 3), ("D", 4)):
        rs = build(t, r)
        assert rho(rs) == (1,) * r
        assert pairing(rho(rs), rs.theta) == rs.h_star - 1


def test_symmetrizer_makes_cartan_symmetric():
    for t, r in (("B", 3), ("C", 3), ("G", 2), ("F", 4)):
        rs = build(t, r)
        d = oracle.symmetrizer(rs.cartan)
        for i in range(r):
            for j in range(r):
                assert Fraction(rs.cartan[i][j], d[j]) == Fraction(
                    rs.cartan[j][i], d[i]
                )


def test_invalid_input_raises():
    with pytest.raises(UserInputError):
        build("H", 3)
    with pytest.raises(UserInputError):
        build("G", 3)
    with pytest.raises(UserInputError):
        build("D", 3)
    rs = build("A", 2)
    with pytest.raises(UserInputError):
        rs.root_index((5, 5))


def test_info_dict_shape():
    info = rootsys.info_dict(build("A", 2))
    assert info["type"] == "A"
    assert info["rank"] == 2
    assert info["weyl_order"] == 6
    assert info["f"] == 3
    assert len(info["positive_roots"]) == 3
