"""Circular descent statistics, the group C, and the q-Weyl identity.

The statistics are the tables of an enumerated :class:`WeylGroup`:
``W.descents``, ``W.cdes``, ``W.delta_class`` and ``W.cmaj``, read here
by the whole-group checks.  Polynomials in q are dense integer
coefficient tuples (degrees stay below ``h_star * rank``); elements of
the group algebra over the coweight-mod-coroot quotient map coset
classes to such polynomials.

Each check returns a report of plain data, and every bool at its top
level is a flag: a theorem that must hold, which the CLI requires by
that rule alone.  ``cmaj_cross_table`` is an exploration, not a check:
only its total mass is a theorem (it raises DefectError otherwise), so
its ``symmetric_under_transpose`` is data and never required.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from . import polytope as polytope_mod
from .errors import DEFAULT_BUDGET, DefectError, UserInputError
from .rootsys import RootSystemData
from .weyl import WeylGroup


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

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.frac)) + ")"


def _classes(W: WeylGroup) -> list:
    """The CosetClass of each delta class id of W."""
    f = W.rs.index_of_connection
    rows = W.class_residues.tolist()
    return [CosetClass(tuple(Fraction(x, f) for x in row)) for row in rows]


# ---------------------------------------------------------------------------
# The group C and the coset representatives, as elements.

@dataclass
class CGroup:
    """The subgroup of elements with circular descent number one."""

    rs: RootSystemData
    elements: tuple


def group_C(W: WeylGroup) -> CGroup:
    """The elements of ``W.C``; reading the table validates C against its
    root-permutation descriptions."""
    return CGroup(rs=W.rs, elements=tuple(W[k] for k in W.C.tolist()))


def coset_representatives(W: WeylGroup) -> list:
    """One representative per right coset wC (see ``W.coset_indices``)."""
    return [W[k] for k in W.coset_indices().tolist()]


# ---------------------------------------------------------------------------
# Identity checks over one enumerated Weyl group W, of the root system W.rs.

def _q_sum(classes, ids, degrees) -> dict:
    """The group-algebra sum of ``[class ids[k]] q^degrees[k]`` over k, as
    ``{CosetClass: polynomial}`` without the classes whose sum is zero."""
    counts = np.zeros((len(classes), int(degrees.max()) + 1), dtype=np.int64)
    np.add.at(counts, (ids, degrees), 1)
    rows = zip(classes, counts.tolist())
    return {cls: poly_trim(row) for cls, row in rows if any(row)}


def _component_poly(rs: RootSystemData) -> tuple:
    """A_r(q) times the q-integers [a_i]_q of the marks a_i of ``rs``."""
    return reduce(poly_mul, map(q_integer, rs.marks), eulerian_polynomial(rs.rank))


def qweyl_check(W: WeylGroup) -> dict:
    """Exact check of the group-algebra q-analogue of Weyl's formula."""
    rs = W.rs
    classes = _classes(W)
    lhs = _q_sum(classes, W.delta_class, W.cdes)
    rhs_poly = _component_poly(rs)
    # one term per element of C: C's tables raise DefectError on a repeated class
    rhs = {classes[W.delta_class[k]]: rhs_poly for k in W.C.tolist()}
    scalar_lhs = reduce(poly_add, lhs.values(), ())
    scalar_rhs = poly_mul((rs.index_of_connection,), rhs_poly)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "identity_holds": lhs == rhs,
        "scalar_holds": scalar_lhs == scalar_rhs,
        "component_poly": rhs_poly,
    }


def hypersimplex_statistic_check(
    W: WeylGroup, budget: int = DEFAULT_BUDGET
) -> dict:
    """Hypersimplex volumes against circular-descent counts; ``budget``
    bounds the scan of the hypersimplex volumes."""
    rs = W.rs
    f = rs.index_of_connection
    reps = W.coset_indices()
    cdes_inv = W.cdes[W.inverse]  # cdes(w^-1) for every w
    volumes = dict(enumerate(polytope_mod.hypersimplex_volumes(rs, budget), 1))
    coset_counts = {}
    element_counts = {}
    for k in volumes:
        coset_counts[k] = int(np.count_nonzero(cdes_inv[reps] == k))
        element_counts[k] = int(np.count_nonzero(cdes_inv == k))
    coset_ok = all(volumes[k] == coset_counts[k] for k in volumes)
    element_ok = all(f * volumes[k] == element_counts[k] for k in volumes)

    constant_ok = all(
        np.array_equal(W.cdes[W.inverse[left[right[reps]]]], cdes_inv[reps])
        for left in W.C_left
        for right in W.C_right
    )
    genfun = poly_trim((0, *volumes.values()))  # the keys run 1..h - 1
    return {
        "volumes": volumes,
        "coset_counts": coset_counts,
        "element_counts": element_counts,
        "coset_identity_holds": coset_ok,
        "element_identity_holds": element_ok,
        "cdes_constant_on_cosets": constant_ok,
        "generating_function_holds": genfun == _component_poly(rs),
    }


def double_coset_check(W: WeylGroup) -> dict:
    """cdes is constant on double cosets of C."""
    C = W.C.tolist()
    for c1, left in zip(C, W.C_left):
        for c2, right in zip(C, W.C_right):
            bad = np.flatnonzero(W.cdes[left[right]] != W.cdes)
            if bad.size:
                return {"holds": False, "witness": (W[c1], W[int(bad[0])], W[c2])}
    return {"holds": True}


def cmaj_twist_check(W: WeylGroup) -> dict:
    """cmaj(c1 w c2) = c1 * cmaj(w) * c2^cdes(w), plus the inverse symmetry."""
    C = W.C.tolist()
    for c2, right in zip(C, W.C_right):
        # powers[n, j] is the index of w_j c2^n
        powers = [np.arange(len(W))]
        for _ in range(int(W.cdes.max())):
            powers.append(right[powers[-1]])
        twisted = np.stack(powers)[W.cdes, W.cmaj]
        for c1, left in zip(C, W.C_left):
            bad = np.flatnonzero(W.cmaj[left[right]] != left[twisted])
            if bad.size:
                return {"holds": False, "witness": (W[c1], W[int(bad[0])], W[c2])}

    classes = _classes(W)
    lhs = _q_sum(classes, W.delta_class, W.cdes)
    rhs = _q_sum(classes, W.delta_class[W.inverse], W.cdes)
    return {"holds": True, "inverse_symmetry_holds": lhs == rhs}


def cmaj_cross_table(W: WeylGroup) -> dict:
    """q-refined joint distribution of cmaj(w) and cmaj(w^-1).

    Exploratory: entry (x, y) collects q^cdes(w) over the elements with
    cmaj(w) = x and cmaj(w^-1) = y.  Only the total mass is a theorem.
    """
    f = len(W.C)
    order = np.zeros(len(W), dtype=np.intp)  # position in C
    order[W.C] = np.arange(f)
    x = order[W.cmaj]
    y = order[W.cmaj[W.inverse]]
    counts = np.zeros((f, f, int(W.cdes.max()) + 1), dtype=np.int64)
    np.add.at(counts, (x, y, W.cdes), 1)
    table = [[poly_trim(p) for p in row] for row in counts.tolist()]
    total = sum(poly_eval(p, 1) for row in table for p in row)
    if total != len(W):
        raise DefectError("cross table does not partition the group")
    symmetric = all(
        table[x][y] == table[y][x] for x in range(f) for y in range(f)
    )
    return {"table": table, "total": total, "symmetric_under_transpose": symmetric}
