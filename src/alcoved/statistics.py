"""Circular descent statistics, the group C, and the q-Weyl identity.

Polynomials in q are dense integer coefficient tuples (degrees stay
below ``h_star * rank``); elements of the group algebra over the
coweight-mod-coroot quotient map coset classes to such polynomials.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from . import polytope as polytope_mod
from .errors import DefectError, UserInputError
from .rootsys import RootSystemData, weyl_order
from .weyl import WeylElement, WeylGroup, descents, enumerate_weyl


# ---------------------------------------------------------------------------
# Polynomials in q as coefficient tuples (index = degree).

def poly_trim(p) -> tuple:
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q) -> tuple:
    n = max(len(p), len(q))
    p = tuple(p) + (0,) * (n - len(p))
    q = tuple(q) + (0,) * (n - len(q))
    return poly_trim(a + b for a, b in zip(p, q))


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def q_power(k: int) -> tuple:
    return (0,) * k + (1,)


def q_integer(n: int) -> tuple:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise UserInputError("q-integer of a negative integer")
    return (1,) * n


@lru_cache(maxsize=None)
def eulerian_polynomial(n: int) -> tuple:
    """A_n(q), via the Eulerian-number recurrence; A_0 = 1."""
    if n < 0:
        raise UserInputError("Eulerian polynomial of negative index")
    if n == 0:
        return (1,)
    # E[k] = number of permutations of [n] with k descents
    prev = [1]
    for m in range(2, n + 1):
        cur = [0] * m
        for k in range(m):
            cur[k] = (k + 1) * (prev[k] if k < m - 1 else 0) + (m - k) * (
                prev[k - 1] if k >= 1 else 0
            )
        prev = cur
    return poly_trim((0,) + tuple(prev))


# ---------------------------------------------------------------------------
# Coset classes of the coweight lattice modulo the coroot lattice.

@dataclass(frozen=True)
class CosetClass:
    """Fractional parts of the simple-coroot coordinates of a coweight."""

    frac: tuple

    def __add__(self, other: "CosetClass") -> "CosetClass":
        return CosetClass(tuple((a + b) % 1 for a, b in zip(self.frac, other.frac)))


def coweight_class(rs: RootSystemData, coweight) -> CosetClass:
    """Class of an integral coweight in the coweight-mod-coroot group."""
    cw = tuple(coweight)
    if any(Fraction(x).denominator != 1 for x in cw):
        raise UserInputError(f"{cw} is not an integral coweight")
    # The coroot coordinates are cartan^-1 . cw, and f * cartan^-1 is an
    # integer matrix (f = |det cartan|): reduce its numerators mod f.
    f = rs.index_of_connection
    frac = []
    for row in rs.cartan_inverse:
        n = sum(c.numerator * (f // c.denominator) * int(y) for c, y in zip(row, cw))
        frac.append(Fraction(n % f, f))
    return CosetClass(tuple(frac))


@dataclass
class GroupAlgebraElement:
    """Finitely supported map from coset classes to polynomials in q."""

    coeffs: dict = field(default_factory=dict)

    def add_term(self, cls: CosetClass, poly) -> None:
        self.coeffs[cls] = poly_add(self.coeffs.get(cls, ()), poly)

    def normalized(self) -> dict:
        return {c: p for c, p in self.coeffs.items() if poly_trim(p)}

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and (
            self.normalized() == other.normalized()
        )

    def scalar_sum(self) -> tuple:
        total = ()
        for p in self.coeffs.values():
            total = poly_add(total, p)
        return total


# ---------------------------------------------------------------------------
# Statistics on Weyl group elements.

def cdes(w: WeylElement) -> int:
    """Circular descent number: marks-weighted sum of the descent bits."""
    d = descents(w)
    marks = (1,) + w.rs.marks
    value = sum(a * di for a, di in zip(marks, d))
    if value < 1:
        raise DefectError("cdes must be positive")
    return value


def delta(w: WeylElement) -> tuple:
    """The integral coweight translating w^-1(A_o) into the coweight box."""
    d = descents(w)
    return tuple(d[1:])


@dataclass
class CGroup:
    """The subgroup of elements with circular descent number one."""

    rs: RootSystemData
    elements: tuple
    identity: WeylElement
    class_of: dict  # CosetClass -> WeylElement

    def power(self, c: WeylElement, n: int) -> WeylElement:
        out = self.identity
        for _ in range(n):
            out = out * c
        return out


def _cdes_table(rs: RootSystemData, W: WeylGroup) -> np.ndarray:
    """cdes of every element of W, indexed like W."""
    table = W.descents @ np.array((1,) + rs.marks, dtype=np.int64)
    if table.min() < 1:
        raise DefectError("cdes must be positive")
    return table


def group_C(rs: RootSystemData, W=None) -> CGroup:
    """Elements with cdes = 1, cross-validated against the root-permutation
    descriptions; the class map is built from their delta coweights.

    ``W``, when given, is the result of ``enumerate_weyl(rs)``.
    """
    if W is None:
        W = enumerate_weyl(rs)
    elements = tuple(W[k] for k in np.flatnonzero(_cdes_table(rs, W) == 1))
    f = rs.index_of_connection
    if len(elements) != f:
        raise DefectError(
            f"|C| = {len(elements)} but the index of connection is {f}"
        )

    # the affine simple-root set, with -theta playing the role of index 0
    hat = [tuple(-c for c in rs.theta)] + list(rs.simple_roots)
    marks = (1,) + rs.marks
    hat_set = frozenset(hat)
    graded = {}
    for a, root in zip(marks, hat):
        graded.setdefault(a, set()).add(root)
    for c in elements:
        images = [tuple(c.act_on_root(a)) for a in hat]
        if frozenset(images) != hat_set:
            raise DefectError("an element of C does not permute the affine roots")
        for a, img in zip(marks, images):
            if img not in graded[a]:
                raise DefectError("C does not preserve the mark grading")

    ident = next(w for w in elements if w.is_identity())
    class_of = {}
    for c in elements:
        cls = coweight_class(rs, delta(c))
        if cls in class_of:
            raise DefectError("delta classes of C are not distinct")
        class_of[cls] = c
    for a in elements:
        for b in elements:
            if a * b not in elements:
                raise DefectError("C is not closed under multiplication")
    return CGroup(rs=rs, elements=elements, identity=ident, class_of=class_of)


def cmaj(w: WeylElement, group: CGroup = None) -> WeylElement:
    """The element of C whose class matches the delta coweight of w."""
    if group is None:
        group = group_C(w.rs)
    return group.class_of[coweight_class(w.rs, delta(w))]


class _Tables:
    """cdes, delta class and cmaj of every element of W, indexed like W.

    ``classes`` maps each delta class to its id, in order of first
    occurrence in W; ``cls[k]`` is the id of the class of ``w_k`` and
    ``cmaj[k]`` the index in W of ``cmaj(w_k)``.  One ``coweight_class``
    is computed per distinct delta bit vector, not one per element.
    """

    def __init__(self, rs: RootSystemData, W: WeylGroup, group: CGroup):
        self.cdes = _cdes_table(rs, W)
        keys = (W.descents[:, 1:] @ (1 << np.arange(rs.rank, dtype=np.int64))).tolist()
        self.classes = {}
        key_ids = {}
        for key in dict.fromkeys(keys):  # distinct deltas, first occurrence first
            delta = tuple((key >> i) & 1 for i in range(rs.rank))
            cls = coweight_class(rs, delta)
            key_ids[key] = self.classes.setdefault(cls, len(self.classes))
        self.cls = np.array([key_ids[key] for key in keys], dtype=np.intp)
        cmaj_of_class = [W.index(group.class_of[cls]) for cls in self.classes]
        self.cmaj = np.array(cmaj_of_class, dtype=np.intp)[self.cls]


def _actions(W: WeylGroup, group: CGroup) -> tuple:
    """Left and right multiplication by each element of C, as index maps on W."""
    C = [W.index(c) for c in group.elements]
    return [W.left_action(k) for k in C], [W.right_action(k) for k in C]


def _q_sum(classes, ids, degrees) -> GroupAlgebraElement:
    """The group-algebra sum of ``[class ids[k]] q^degrees[k]`` over k."""
    counts = np.zeros((len(classes), int(degrees.max()) + 1), dtype=np.int64)
    np.add.at(counts, (ids, degrees), 1)
    out = GroupAlgebraElement()
    for cls, row in zip(classes, counts.tolist()):
        if any(row):
            out.add_term(cls, row)
    return out


def coset_representatives(rs: RootSystemData, W=None) -> list:
    """One representative per right coset wC: the w with cmaj(w^-1) = id.

    The elements with cmaj = id form a transversal of the left cosets;
    their inverses, used here, are pairwise inequivalent under alcove
    translation and therefore represent W/C.  That is checked apart from
    the delta classes: u(A_o) and w(A_o) differ by an integral coweight
    exactly when u(rho) = w(rho) mod h_star.
    """
    if W is None:
        W = enumerate_weyl(rs)
    group = group_C(rs, W)
    tables = _Tables(rs, W, group)
    identity = W.index(group.identity)
    chosen = np.flatnonzero(tables.cmaj[W.inverse] == identity)
    expected = weyl_order(rs) // rs.index_of_connection
    if len(chosen) != expected:
        raise DefectError(
            f"{len(chosen)} coset representatives, expected {expected}"
        )
    # w(rho) is the z of w^-1
    centres = W.z[W.inverse[chosen]] % rs.h_star
    if len(set(map(tuple, centres.tolist()))) != len(chosen):
        raise DefectError("two representatives lie in the same coset")
    return [W[k] for k in chosen]


# ---------------------------------------------------------------------------
# Identity checks.  ``W``, when given, is the result of ``enumerate_weyl(rs)``.

def qweyl_check(rs: RootSystemData, W=None) -> dict:
    """Exact check of the group-algebra q-analogue of Weyl's formula."""
    if W is None:
        W = enumerate_weyl(rs)
    group = group_C(rs, W)
    tables = _Tables(rs, W, group)
    lhs = _q_sum(tables.classes, tables.cls, tables.cdes)
    rhs_poly = eulerian_polynomial(rs.rank)
    for a in rs.marks:
        rhs_poly = poly_mul(rhs_poly, q_integer(a))
    rhs = GroupAlgebraElement()
    for cls in group.class_of:
        rhs.add_term(cls, rhs_poly)
    scalar_lhs = lhs.scalar_sum()
    scalar_rhs = poly_mul((rs.index_of_connection,), rhs_poly)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "identity_holds": lhs == rhs,
        "scalar_holds": scalar_lhs == scalar_rhs,
        "component_poly": rhs_poly,
    }


def hypersimplex_statistic_check(rs: RootSystemData, W=None) -> dict:
    """Hypersimplex volumes against circular-descent counts."""
    if W is None:
        W = enumerate_weyl(rs)
    f = rs.index_of_connection
    reps = coset_representatives(rs, W)
    rep_index = np.array([W.index(w) for w in reps], dtype=np.intp)
    cdes_table = _cdes_table(rs, W)
    cdes_inv = cdes_table[W.inverse]  # cdes(w^-1) for every w
    volumes = dict(enumerate(polytope_mod.hypersimplex_volumes(rs), 1))
    coset_counts = {}
    element_counts = {}
    for k in volumes:
        coset_counts[k] = int(np.count_nonzero(cdes_inv[rep_index] == k))
        element_counts[k] = int(np.count_nonzero(cdes_inv == k))
    coset_ok = all(volumes[k] == coset_counts[k] for k in volumes)
    element_ok = all(f * volumes[k] == element_counts[k] for k in volumes)

    group = group_C(rs, W)
    lefts, rights = _actions(W, group)
    constant_ok = all(
        np.array_equal(
            cdes_table[W.inverse[left[right[rep_index]]]], cdes_inv[rep_index]
        )
        for left in lefts
        for right in rights
    )
    genfun = ()
    for k, v in volumes.items():
        genfun = poly_add(genfun, poly_mul((v,), q_power(k)))
    expected = eulerian_polynomial(rs.rank)
    for a in rs.marks:
        expected = poly_mul(expected, q_integer(a))
    return {
        "volumes": volumes,
        "coset_counts": coset_counts,
        "element_counts": element_counts,
        "coset_identity_holds": coset_ok,
        "element_identity_holds": element_ok,
        "cdes_constant_on_cosets": constant_ok,
        "generating_function_holds": genfun == expected,
    }


def double_coset_check(rs: RootSystemData, W=None) -> dict:
    """cdes is constant on double cosets of C."""
    if W is None:
        W = enumerate_weyl(rs)
    group = group_C(rs, W)
    cdes_table = _cdes_table(rs, W)
    lefts, rights = _actions(W, group)
    for c1, left in zip(group.elements, lefts):
        for c2, right in zip(group.elements, rights):
            bad = np.flatnonzero(cdes_table[left[right]] != cdes_table)
            if bad.size:
                return {"holds": False, "witness": (c1, W[int(bad[0])], c2)}
    return {"holds": True}


def cmaj_twist_check(rs: RootSystemData, W=None) -> dict:
    """cmaj(c1 w c2) = c1 * cmaj(w) * c2^cdes(w), plus the inverse symmetry."""
    if W is None:
        W = enumerate_weyl(rs)
    group = group_C(rs, W)
    tables = _Tables(rs, W, group)
    lefts, rights = _actions(W, group)
    for c2, right in zip(group.elements, rights):
        # powers[n, j] is the index of w_j c2^n
        powers = [np.arange(len(W))]
        for _ in range(int(tables.cdes.max())):
            powers.append(right[powers[-1]])
        twisted = np.stack(powers)[tables.cdes, tables.cmaj]
        for c1, left in zip(group.elements, lefts):
            bad = np.flatnonzero(tables.cmaj[left[right]] != left[twisted])
            if bad.size:
                return {"holds": False, "witness": (c1, W[int(bad[0])], c2)}

    lhs = _q_sum(tables.classes, tables.cls, tables.cdes)
    rhs = _q_sum(tables.classes, tables.cls[W.inverse], tables.cdes)
    return {"holds": True, "inverse_symmetry_holds": lhs == rhs}


def cmaj_cross_table(rs: RootSystemData, W=None) -> dict:
    """q-refined joint distribution of cmaj(w) and cmaj(w^-1).

    Exploratory: entry (x, y) collects q^cdes(w) over the elements with
    cmaj(w) = x and cmaj(w^-1) = y.  Only the total mass is a theorem.
    """
    if W is None:
        W = enumerate_weyl(rs)
    group = group_C(rs, W)
    tables = _Tables(rs, W, group)
    f = len(group.elements)
    order = np.zeros(len(W), dtype=np.intp)  # position in group.elements
    for i, c in enumerate(group.elements):
        order[W.index(c)] = i
    x = order[tables.cmaj]
    y = order[tables.cmaj[W.inverse]]
    counts = np.zeros((f, f, int(tables.cdes.max()) + 1), dtype=np.int64)
    np.add.at(counts, (x, y, tables.cdes), 1)
    table = [[poly_trim(p) for p in row] for row in counts.tolist()]
    total = sum(poly_eval(p, 1) for row in table for p in row)
    if total != len(W):
        raise DefectError("cross table does not partition the group")
    symmetric = all(
        table[x][y] == table[y][x] for x in range(f) for y in range(f)
    )
    return {"table": table, "total": total, "symmetric_under_transpose": symmetric}


def brute_force_eulerian(n: int) -> tuple:
    """Independent oracle: descent generating polynomial over all of S_n."""
    from itertools import permutations

    counts = [0] * (n + 1)
    for p in permutations(range(1, n + 1)):
        d = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        counts[d + 1] += 1
    assert sum(counts) == factorial(n)
    return poly_trim(counts)
