"""Weyl group enumeration and the permutation models."""

import copy
import math
import random
import time
from itertools import accumulate, permutations

import pytest

import fraction_oracles as oracle
from alcoved import weyl
from alcoved.errors import BudgetExceededError, UserInputError
from alcoved.rootsys import build
from alcoved.weyl import (
    enumerate_weyl,
    from_permutation,
    from_signed_permutation,
    identity_element,
    permutation_descents,
    signed_permutation_descents,
    simple_reflection,
    to_permutation,
    to_signed_permutation,
)
from alcoved.statistics import coset_representatives


def test_enumeration_counts():
    assert len(enumerate_weyl(build("A", 3))) == 24
    assert len(enumerate_weyl(build("B", 2))) == 8
    assert len(enumerate_weyl(build("G", 2))) == 12
    assert len(enumerate_weyl(build("D", 4))) == 192


def test_simple_reflections_are_involutions():
    rs = build("C", 3)
    e = identity_element(rs)
    for i in range(1, rs.rank + 1):
        s = simple_reflection(rs, i)
        assert s * s == e
        assert s.word_length == 1


def test_group_axioms_small():
    rs = build("A", 2)
    W = enumerate_weyl(rs)
    for u in W:
        assert u * u.inverse() == identity_element(rs)
        for v in W:
            assert u * v in W


def test_word_length_extremes():
    for t, r in (("A", 3), ("B", 3), ("D", 4), ("G", 2)):
        rs = build(t, r)
        W = enumerate_weyl(rs)
        assert W[int(W.length.argmax())].word_length == len(rs.positive_roots)
        assert min(w.word_length for w in W) == 0


def test_length_generating_function_is_poincare_polynomial():
    # sum of q^length factors as a product of q-integers of the degrees
    rs = build("B", 2)
    W = enumerate_weyl(rs)
    hist = {}
    for w in W:
        hist[w.word_length] = hist.get(w.word_length, 0) + 1
    # degrees of B2 are 2 and 4: (1+q)(1+q+q^2+q^3)
    assert hist == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_descents_of_identity_and_longest():
    for t, r in (("A", 3), ("C", 2), ("D", 4)):
        rs = build(t, r)
        W = enumerate_weyl(rs)
        assert W.descents[0].tolist() == [1] + [0] * r
        assert W.descents[int(W.length.argmax())].tolist() == [0] + [1] * r


def test_permutation_model_roundtrip():
    rs = build("A", 3)
    for window in permutations(range(1, 5)):
        w = from_permutation(rs, window)
        assert to_permutation(w) == window
    W = enumerate_weyl(rs)
    assert len({to_permutation(w) for w in W}) == 24


def test_permutation_model_multiplies_correctly():
    rs = build("A", 2)
    rng = random.Random(7)
    for _ in range(20):
        p = tuple(rng.sample(range(1, 4), 3))
        q = tuple(rng.sample(range(1, 4), 3))
        composed = tuple(p[q[i] - 1] for i in range(3))
        assert to_permutation(from_permutation(rs, p) * from_permutation(rs, q)) == composed


def test_major_index_against_brute_force():
    for window in permutations(range(1, 5)):
        expected = sum(
            i + 1 for i in range(3) if window[i] > window[i + 1]
        )
        assert oracle.major_index(window) == expected


def test_long_cycle_has_cdes_one_descent_pattern():
    rs = build("A", 3)
    c = from_permutation(rs, (2, 3, 4, 1))  # the long cycle 1 -> 2 -> 3 -> 4 -> 1
    assert to_permutation(c) == (2, 3, 4, 1)
    W = enumerate_weyl(rs)
    k = W.z.tolist().index(list(c.z))
    assert W.descents[k].tolist() == [0, 0, 0, 1]
    assert W.cdes[k] == 1


def test_signed_permutation_model_roundtrip():
    rs = build("C", 2)
    windows = [
        (1, 2), (2, 1), (-1, 2), (2, -1), (-2, -1), (1, -2), (-1, -2), (-2, 1),
    ]
    for window in windows:
        assert to_signed_permutation(from_signed_permutation(rs, window)) == window
    W = enumerate_weyl(rs)
    assert len({to_signed_permutation(w) for w in W}) == 8


def test_model_windows_match_the_root_action():
    # w(e_i) = sign(w_i) e_|w_i| in both models.  Type A: e_a - e_b is
    # alpha_a + ... + alpha_(b-1).  Type C: alpha_n = 2 e_n, so the alpha
    # coordinates of an e-vector are its partial sums, the last one halved.
    def unit(n, v):
        return [(1 if v > 0 else -1) * (i == abs(v)) for i in range(1, n + 1)]

    for t, n, to_window in (("A", 3, to_permutation), ("A", 5, to_permutation),
                            ("C", 2, to_signed_permutation), ("C", 4, to_signed_permutation)):
        rs = build(t, n - 1 if t == "A" else n)
        for w in enumerate_weyl(rs):
            window = to_window(w)
            images = [[x - y for x, y in zip(unit(n, a), unit(n, b))]
                      for a, b in zip(window, window[1:])]
            if t == "C":
                images.append([2 * x for x in unit(n, window[-1])])
            for alpha, image in zip(rs.simple_roots, images):
                coords = list(accumulate(image))[: rs.rank]
                if t == "C":
                    coords[-1] //= 2
                assert w.act_on_root(alpha) == tuple(coords)


def test_negative_rotation():
    rs = build("C", 3)
    window = (-3, -2, -1)
    assert to_signed_permutation(from_signed_permutation(rs, window)) == window


def test_model_functions_reject_wrong_type():
    with pytest.raises(UserInputError):
        to_permutation(identity_element(build("C", 2)))
    with pytest.raises(UserInputError):
        to_signed_permutation(identity_element(build("A", 2)))


def test_budget_exceeded():
    # the message names the system and |W|, not the RootSystemData repr
    message = "^A4 Weyl group: 120 elements exceed budget 5$"
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_weyl(build("A", 4), budget=5)


def test_simple_reflection_index_is_read_as_an_integer():
    rs = build("A", 2)
    assert simple_reflection(rs, 1.0).z == simple_reflection(rs, 1).z
    for i in ("1", 1.5, True):
        with pytest.raises(UserInputError, match="simple-reflection index must be an integer"):
            simple_reflection(rs, i)


def test_e8_is_refused_at_once_under_the_default_budget():
    # |W(E8)| = 696,729,600 passes DEFAULT_BUDGET, which E7's 2,903,040 does not
    rs = build("E", 8)
    message = "^E8 Weyl group: 696729600 elements exceed budget 100000000$"
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_weyl(rs)
    assert time.perf_counter() - start < 1


def test_elements_of_equal_root_systems_multiply():
    rs = build("B", 3)
    W = enumerate_weyl(rs)
    s = simple_reflection(copy.deepcopy(rs), 1)
    assert s in W
    assert W[1] * s == W[1] * simple_reflection(rs, 1)
    assert s * W[1] == simple_reflection(rs, 1) * W[1]
    with pytest.raises(UserInputError, match="different root systems"):
        W[1] * simple_reflection(build("C", 3), 1)


# -- the orbit tables of enumerate_weyl ----------------------------------------

TABLE_TYPES = [("A", n) for n in range(1, 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]


def _matrix_bfs(rs):
    """Oracle: breadth-first search on root-coordinate matrices, w -> w s_i
    with the generators in index order.  Yields (z, length) per element,
    where z_j is the height of w(alpha_j), the j-th column sum."""
    r = rs.rank
    identity = tuple(tuple(int(a == b) for b in range(r)) for a in range(r))

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(r)) for j in range(r))
            for i in range(r)
        )

    gens = []
    for i in range(r):
        # s_i(alpha_j) = alpha_j - cartan[j][i] alpha_i is column j
        m = [list(row) for row in identity]
        for j in range(r):
            m[i][j] -= rs.cartan[j][i]
        gens.append(tuple(map(tuple, m)))
    order, seen, frontier, depth = [(identity, 0)], {identity}, [identity], 0
    while frontier:
        depth += 1
        new_frontier = []
        for w in frontier:
            for s in gens:
                ws = mul(w, s)
                if ws not in seen:
                    seen.add(ws)
                    order.append((ws, depth))
                    new_frontier.append(ws)
        frontier = new_frontier
    return [(tuple(sum(col) for col in zip(*m)), d) for m, d in order]


@pytest.mark.parametrize("t, r", TABLE_TYPES)
def test_orbit_order_and_lengths_match_matrix_bfs(t, r):
    rs = build(t, r)
    W = enumerate_weyl(rs)
    expected = _matrix_bfs(rs)
    assert [(w.z, w.word_length) for w in W] == expected
    assert W.length.tolist() == [d for _, d in expected]
    assert [tuple(row) for row in W.z.tolist()] == [z for z, _ in expected]


@pytest.mark.parametrize("t, r", TABLE_TYPES)
def test_inverse_table_is_an_involution(t, r):
    rs = build(t, r)
    W = enumerate_weyl(rs)
    e = identity_element(rs)
    assert W[0] == e
    assert (W.inverse[W.inverse] == range(len(W))).all()
    # the inverse walk reads the search's tree, which the group does not keep
    assert not hasattr(W, "parent") and not hasattr(W, "letter")
    for k, w in enumerate(W):
        assert W[W.inverse[k]] == w.inverse()
        assert w * w.inverse() == e


def _swap(window, i):
    out = list(window)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 7))
def test_right_multiplication_table_matches_permutations(n):
    rs = build("A", n - 1)
    W = enumerate_weyl(rs)
    identity = tuple(range(1, n + 1))
    for k, w in enumerate(W):
        window = to_permutation(w)
        for i in range(n - 1):
            ws = W[W.rmul[k, i]]
            assert ws == from_permutation(rs, _swap(window, i))
            assert ws == from_permutation(rs, window) * from_permutation(
                rs, _swap(identity, i)
            )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_right_multiplication_table_matches_signed_permutations(n):
    rs = build("C", n)
    W = enumerate_weyl(rs)
    identity = tuple(range(1, n + 1))
    gens = [_swap(identity, i) for i in range(n - 1)] + [identity[:-1] + (-n,)]
    for k, w in enumerate(W):
        window = to_signed_permutation(w)
        for i, s in enumerate(gens):
            # w s_i permutes the positions of w like s_i permutes 1..n
            moved = tuple(
                window[abs(v) - 1] * (1 if v > 0 else -1) for v in s
            )
            ws = W[W.rmul[k, i]]
            assert ws == from_signed_permutation(rs, moved)
            assert ws == from_signed_permutation(rs, window) * from_signed_permutation(rs, s)


@pytest.mark.parametrize("t, r", (("A", 3), ("C", 3), ("G", 2)))
def test_left_and_right_actions_match_products(t, r):
    rs = build(t, r)
    W = enumerate_weyl(rs)
    for k, w in enumerate(W):
        right = W.right_action(k)
        left = W.left_action(k)
        for j, u in enumerate(W):
            assert W[right[j]] == u * w
            assert W[left[j]] == w * u


@pytest.mark.parametrize("n", range(2, 7))
def test_descents_match_permutation_descents(n):
    W = enumerate_weyl(build("A", n - 1))
    for k, w in enumerate(W):
        assert tuple(W.descents[k].tolist()) == permutation_descents(to_permutation(w))
        assert tuple(W.descents[k].tolist()) == oracle.descent_bits(W.rs, w.z)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_descents_match_signed_permutation_descents(n):
    W = enumerate_weyl(build("C", n))
    for k, w in enumerate(W):
        bits = signed_permutation_descents(to_signed_permutation(w))
        assert tuple(W.descents[k].tolist()) == bits
        assert tuple(W.descents[k].tolist()) == oracle.descent_bits(W.rs, w.z)


@pytest.mark.parametrize("t, r", TABLE_TYPES)
def test_coset_representative_count_is_order_over_f(t, r):
    rs = build(t, r)
    W = enumerate_weyl(rs)
    reps = coset_representatives(W)
    assert len(reps) == len(W) // rs.index_of_connection
    assert len(set(reps)) == len(reps)
