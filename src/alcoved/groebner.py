"""Quadratic binomial rewriting and the alcove triangulation.

Supported in types A, C and D_4 only.  Vertices are integer vectors in
a basis of the lattice of arrangement vertices (``_vertex_lattice``):
in types A and C the fundamental-alcove vertices ``c_i = omega_i / a_i``,
so omega-coordinates are ``n[i] / a_i``; in D4 the halved simple
coroots, since there the vertex lattice is half the coroot lattice.

The one rewrite rule groups the vertex pairs by their sum: in each
group the pair of least coherent weight is standard, and every other
pair rewrites to it.  In types A and C this equals the paper's rule,
kept in the tests as an oracle, which rewrites a pair to the two
vertices nearest its midpoint on the arrangement edge through it.  In
D4 the two rules differ, since there the center of a pair can lie on a
face of the arrangement of higher dimension than an edge.

The nontrivial rewrites over the vertices of an alcoved polytope form
the marked quadratic binomial basis whose irreducible monomials are the
faces of the alcove triangulation.  In D4 this is known to hold only
on polytopes of one or two alcoves; on the larger ones tried (the unit
box, the adjacent star) the triangulation check raises DefectError.

The basis has one form: ``Rewriter.rules``, rows ``(a, b, u, v)`` of
indices into the sorted vertex list, one per rewrite of a lead pair to
its trail pair.  ``groebner_basis`` and ``triangulate`` each build one
``Rewriter`` and return the coordinate rows that the CLI prints; its
``normal_form`` and ``is_standard`` take monomials as sequences of
vertices of P and look their pairs up in the index rows.  No rewriter
outlives the call that built it.

The vertex-lattice tables (the basis, its inverse and the root
pairings) are each a denominator and an int64 matrix.  The vertex scan
``polytope_vertices`` returns P's vertices as int64 rows less the vertex
of P's lower simple corner, and the coherent weights
(``Rewriter.weights``) that pick the rewrites and that ``normal_form``
checks drop, the cliques and the self-check of the triangulation all
run on those rows, on scaled integers: pairings times ``denom``
(barycenters times ``denom * (rank + 1)``).  Only the vertex tuples
and the printed coordinates add the corner back, in Python ints, so
far-away bounds stay exact; where a value could pass 2^62 they raise
UserInputError instead.
"""

import math
import random
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import polytope as polytope_mod
from .errors import DEFAULT_BUDGET, DefectError, UserInputError, charge
from .polytope import _INT64_HEADROOM, AlcovedPolytope
from .rootsys import RootSystemData, pairing

REWRITE_STEP_GUARD = 10**6


def supported(rs: RootSystemData) -> bool:
    """Whether the vertex-lattice rewriting is available: types A, C and D4."""
    return rs.type_label in ("A", "C") or (rs.type_label, rs.rank) == ("D", 4)


def _require_supported(rs: RootSystemData) -> None:
    if not supported(rs):
        raise UserInputError(
            f"vertex-lattice rewriting is only available in types A, C and D4; "
            f"got {rs}"
        )


@lru_cache(maxsize=None)
def _vertex_lattice(rs: RootSystemData) -> tuple:
    """``(d, B, q, M, index)``, B and M int64: the columns of ``B / d`` are
    a basis of the arrangement-vertex lattice in omega coordinates, and
    ``M / q`` is its inverse, q the least common denominator.

    In types A and C the vertices form the lattice spanned by the
    fundamental-alcove vertices ``c_i = omega_i / a_i``, which is
    diagonal in omega coordinates.  In D4 the vertex lattice is half
    the coroot lattice; it contains the span of the ``c_i`` with
    index 2, so the basis is the halved coroots instead.  Every other
    type raises UserInputError, so every groebner path refuses it here.

    ``index`` is the normalized volume of one alcove with respect to the
    vertex lattice.  The fundamental alcove has the vertices 0 and
    ``c_i``, whose vertex coordinates are ``M e_i / (q a_i)``, so its
    index is ``|det M| / (q^r a_1 ... a_r)``: 1 in types A and C, and 2
    in D4, where the vertex lattice is twice as fine as the span of the c_i.
    """
    _require_supported(rs)
    r = rs.rank
    if rs.type_label == "D":
        # (cartan / 2)^-1 is 2 adjugate / f; q is its least denominator
        f = rs.index_of_connection
        twice = [2 * x for row in rs.cartan_adjugate for x in row]
        q = f // math.gcd(f, *twice)
        d, B, M = 2, rs.cartan, [x * q // f for x in twice]
    else:
        d, q = math.lcm(*rs.marks), 1
        B, M = np.diag([d // a for a in rs.marks]), np.diag(rs.marks)
    B, M = (np.array(x, dtype=np.int64).reshape(r, r) for x in (B, M))
    B.flags.writeable = M.flags.writeable = False  # cached: shared by every caller
    index = abs(int(_exact_dets(M[None])[0])) // (q**r * math.prod(rs.marks))
    return d, B, q, M, index


def _exact_dets(M: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of square integer matrices.

    Bareiss elimination: every entry is a minor, at most the Hadamard
    bound ``(r*top^2)^(r/2)``, so where a product of two could pass 2^62
    the elimination runs on Python ints instead of int64.
    """
    n, r, _ = M.shape
    top = int(np.abs(M).max(initial=0))
    M = M.astype(object if (r * top * top) ** r >= _INT64_HEADROOM else np.int64)
    every, sign = np.arange(n), np.ones(n, dtype=np.int64)
    prev = np.ones((n, 1, 1), dtype=M.dtype)
    for k in range(r):
        p = k + (M[:, k:, k] != 0).argmax(axis=1)  # the first nonzero pivot, if any
        M[every, p], M[:, k] = M[:, k].copy(), M[every, p]
        sign[p != k] *= -1
        rest = M[:, k + 1 :, k + 1 :]
        column, row = M[:, k + 1 :, k, None], M[:, None, k, k + 1 :]
        rest[...] = (M[:, k, k, None, None] * rest - column * row) // prev
        prev = (M[:, k, k] + (M[:, k, k] == 0))[:, None, None]  # no pivot: rest is 0
    return sign * M[:, -1, -1]


def polytope_vertices(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All arrangement vertices inside the polytope, less the vertex of
    its lower simple corner, as int64 rows in lexicographic order.

    The vertex lattice lies inside the diagonal lattice ``{y : d*y_i
    integral}`` for the basis denominator d, so the box scan at scale d
    lists the candidates ``d*omega``, less d times the corner.  With
    ``M / q`` the inverse basis, a candidate is a vertex when ``M y`` is
    divisible by ``q*d``; the corner is an integral coweight, itself a
    vertex, so the scan's rows pass that test exactly where the
    candidates do, and ``M / (q*d)`` takes them to the vertices less the
    corner's vertex coordinates.  ``M`` is nonnegative with rows at most
    twice theta in types A, C and D4, so ``M y`` stays within int64
    wherever the scan does.  Raises BudgetExceededError when the box has
    more than ``budget`` points.
    """
    denom, _, q, M, _ = _vertex_lattice(P.rs)
    blocks = [np.empty((0, P.rs.rank), dtype=np.int64)]
    for ys in polytope_mod._scan(P, denom, budget)[1]:
        coords = ys @ M.T
        blocks.append(coords[(coords % (q * denom) == 0).all(axis=1)] // (q * denom))
    X = np.concatenate(blocks)
    return X[np.lexsort(X.T[::-1])]


class Rewriter:
    """Rewriting engine for the vertex pairs of one alcoved polytope.

    Rules and simplices are rows of indices into the sorted ``vertices``:
    row ``(a, b, u, v)`` of ``rules``, an (m, 4) int64 array sorted by
    lead, rewrites the pair ``(vertices[a], vertices[b])``, ``a < b``, to
    ``(vertices[u], vertices[v])``, ``u <= v``.  ``weights[k]`` is the
    coherent weight of ``vertices[k]`` times ``denom``, in int64.  The
    computation reads the vertices as the int64 rows ``_X`` of
    ``polytope_vertices``, taken from the vertex ``_origin`` of P's lower
    simple corner, with the bounds moved to match.
    """

    def __init__(self, P: AlcovedPolytope, budget: int = DEFAULT_BUDGET):
        self.P = P
        self.rs = P.rs
        self.budget = budget  # bounds the vertex scan, pair table and check's volume scan
        self._denom, B, q, M, self._alcove_volume = _vertex_lattice(self.rs)
        low = [k for k, _ in P.simple_bounds()]
        corner = [divmod(sum(m * k for m, k in zip(row, low)), q) for row in M.tolist()]
        if any(rest for _, rest in corner):
            raise DefectError(f"the coweight {tuple(low)} is not an arrangement vertex")
        self._origin = tuple(n for n, _ in corner)
        self._bounds = [
            (k - pairing(low, root), K - pairing(low, root))
            for root, (k, K) in zip(self.rs.positive_roots, P.bounds)
        ]
        # Weights and check use pairings times denom, X @ G, bounded by reach.
        self._G = B.T @ self.rs.root_array.T
        self._X = polytope_vertices(P, budget)
        top = int(np.abs(self._X).max(initial=0))
        self._reach = top * int(np.abs(self._G).sum(axis=0).max())
        if self._reach * (self.rs.rank + 1) >= _INT64_HEADROOM:
            raise UserInputError(f"vertices {top} from {self._origin} overflow int64")
        self.weights = self._scaled_weights(self._X, self._reach)
        self.rules = self._rule_rows()

    @cached_property
    def vertices(self) -> list:
        """P's vertices as tuples, in lexicographic order."""
        return list(map(tuple, self.coordinates(np.arange(len(self._X))[:, None])))

    def _rule_rows(self) -> np.ndarray:
        """One rewrite per non-minimal decomposition class, as ``rules``:
        vertex pairs are grouped by their sum, and within a group every
        pair rewrites to the pair of smallest coherent weight.  Raises
        BudgetExceededError before building the table when the vertices
        have more than ``budget`` pairs."""
        n, phase = len(self._X), f"{self.P.rs.type_label}{self.P.rs.rank} rewrite rules"
        charge(phase, n * (n + 1) // 2, "vertex pairs", self.budget)
        w = self.weights
        i, j = np.triu_indices(n)  # the pairs (u, v), u <= v, in order
        sums = self._X[i] + self._X[j]
        # by sum, then weight, then (stable) pair: a group's first pair is its best
        order = np.lexsort((w[i] + w[j], *sums.T))
        sums = sums[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (sums[1:] != sums[:-1]).any(axis=1)
        best = np.empty_like(order)  # per pair, in pair order, so leads stay sorted
        best[order] = order[np.maximum.accumulate(np.where(new, np.arange(len(new)), 0))]
        keep = (w[i] + w[j] > w[i[best]] + w[j[best]]) & (i != j)
        best = best[keep]
        return np.column_stack((i[keep], j[keep], i[best], j[best]))

    def _scaled_weights(self, X: np.ndarray, reach: int) -> np.ndarray:
        """``denom`` times the coherent weight, the sum of |distance| to
        every arrangement hyperplane meeting P, per vertex, exact in int64,
        from the rows ``X`` of the vertices and their ``reach``.

        Per root, let ``u = denom * ((v, a) - k)``, ``W = K - k`` and
        ``g = u // denom`` clipped to ``[-1, W]``: the levels ``k .. k+g``
        lie at or below v and the others above, so the sum over levels
        of ``|u - m*denom|`` is ``(2g+1-W) u - denom g (g+1) + denom W (W+1) / 2``.
        """
        d = self._denom
        lows = [d * k for k, _ in self._bounds]
        widths = [max(K - k, -1) for k, K in self._bounds]  # -1: no levels
        terms = ((w + 1) * (reach + abs(lo) + 2 * d * w) for w, lo in zip(widths, lows))
        if sum(terms) >= _INT64_HEADROOM:
            raise UserInputError(f"bounds {self.P.bounds} too wide to weigh in int64")
        W = np.array(widths, dtype=np.int64)
        u = X @ self._G - np.array(lows, dtype=np.int64)
        g = np.clip(u // d, -1, W)
        levels = (2 * g + 1 - W) * u - d * g * (g + 1) + d * W * (W + 1) // 2
        return levels.sum(axis=1)

    # -- reduction -------------------------------------------------------
    def _index(self, monomial) -> list:
        """The index in ``vertices`` of each point of the monomial; raises
        UserInputError for a point that is not a vertex of P."""
        V, index = self.vertices, []
        for point in monomial:
            point = tuple(point)
            k = bisect_left(V, point)
            if k == len(V) or V[k] != point:
                raise UserInputError(f"{point} is not a vertex of {self.P}")
            index.append(k)
        return index

    def _reducible(self, index) -> np.ndarray:
        """The rows of ``rules`` whose lead is a pair of distinct vertices
        among the indices, in lead order."""
        n = len(self._X)
        support = sorted(set(index))
        pairs = np.array([a * n + b for a, b in combinations(support, 2)], dtype=np.int64)
        at = np.searchsorted(self._leads, pairs)
        hit = at < len(self._leads)
        hit[hit] = self._leads[at[hit]] == pairs[hit]
        return self.rules[at[hit]]

    @cached_property
    def _leads(self) -> np.ndarray:
        """The key ``a * n + b`` of each lead ``(a, b)`` of ``rules``, for n
        vertices: the rows are sorted by it."""
        return self.rules[:, 0] * len(self._X) + self.rules[:, 1]

    def is_standard(self, monomial) -> bool:
        return not len(self._reducible(self._index(monomial)))

    def normal_form(self, monomial, rng: random.Random = None) -> tuple:
        """The unique irreducible multiset reachable from the monomial, a
        sequence of vertices of P, as a sorted tuple of vertices; asserts
        that the coherent weight drops at every step.

        ``rng`` randomizes which applicable rule fires at each step; the
        normal form is independent of that choice (confluence).  Raises
        UserInputError when a point of the monomial is not a vertex of P.
        """
        current = sorted(self._index(monomial))
        weight = sum(self.weights[current].tolist())
        for _ in range(REWRITE_STEP_GUARD):
            rows = self._reducible(current)
            if not len(rows):
                return tuple(self.vertices[k] for k in current)
            a, b, u, v = rows[0 if rng is None else rng.randrange(len(rows))].tolist()
            current.remove(a)
            current.remove(b)
            current = sorted(current + [u, v])
            new_weight = sum(self.weights[current].tolist())
            if not new_weight < weight:
                V = self.vertices
                raise DefectError(f"rewrite {(V[a], V[b])} -> {(V[u], V[v])} did not "
                                  "decrease the coherent weight")
            weight = new_weight
        raise DefectError("rewriting did not terminate")

    # -- triangulation ---------------------------------------------------
    def simplex_rows(self) -> np.ndarray:
        """All maximal standard vertex sets of size rank + 1, as rows of
        indices into ``vertices`` in lexicographic order.

        The standard pairs form a flag complex (the basis is quadratic),
        so the alcove simplices are exactly the (r+1)-cliques of the
        standard-pair graph: the later vertices that form a standard
        pair with a vertex are the bits of one int, and a clique extends
        by the lowest bits of their AND.  The count is checked against
        the volume and each simplex against unimodularity and membership.
        """
        rows = self._cliques()
        self._validate_triangulation(rows)
        return rows

    def coordinates(self, index: np.ndarray) -> list:
        """Row k lists the coordinates of the vertices ``index[k]`` in turn;
        an object array keeps coordinates past int64 exact."""
        V = self._X.astype(object) + np.array(self._origin, dtype=object)
        return V[index].reshape(len(index), index.shape[1] * self.rs.rank).tolist()

    def _cliques(self) -> np.ndarray:
        size, n = self.rs.rank + 1, len(self._X)
        standard = np.triu(np.ones((n, n), dtype=bool), 1)
        standard[self.rules[:, 0], self.rules[:, 1]] = False
        bits = np.packbits(standard, axis=1, bitorder="little")
        later = [int.from_bytes(row.tobytes(), "little") for row in bits]
        cliques = []

        def extend(clique, candidates):
            if len(clique) == size:
                cliques.append(clique)
                return
            while candidates.bit_count() >= size - len(clique):
                low = candidates & -candidates
                candidates ^= low
                j = low.bit_length() - 1
                extend(clique + [j], candidates & later[j])

        extend([], (1 << n) - 1)
        return np.array(cliques, dtype=np.intp).reshape(-1, size)

    def _validate_triangulation(self, simplices: np.ndarray) -> None:
        """The count against the volume scan, then all simplices, rows of
        indices into ``vertices``, at once: corner pairings times ``denom``,
        barycenters times ``s``.  Reports the first failing simplex and its
        first failing check."""
        vol = polytope_mod.volume(self.P, self.budget)
        if len(simplices) != vol:
            raise DefectError(f"triangulation produced {len(simplices)} simplices "
                              f"for a polytope of volume {vol}")
        if not len(simplices):
            return
        X = self._X[simplices]  # simplex, corner, coordinate
        d = self._denom
        s = d * (self.rs.rank + 1)
        corners = X @ self._G
        bary = corners.sum(axis=1)
        floor = bary // s
        lo, hi = np.array(self._bounds, dtype=np.int64).T  # the weight guard holds them
        inside = (corners >= d * floor[:, None]) & (corners <= d * floor[:, None] + d)
        faults = np.select(
            [bary % s == 0, (floor < lo) | (floor >= hi), ~inside.all(axis=1)],
            [2, 3, 4],
        )
        fault = faults[np.arange(len(faults)), (faults != 0).argmax(axis=1)]
        fault[abs(_exact_dets(X[:, 1:] - X[:, :1])) != self._alcove_volume] = 1
        order = np.lexsort(floor.T)  # stable; np.unique(axis=0) would import numpy.ma
        repeated = np.zeros(len(fault), dtype=bool)
        repeated[order[1:]] = (floor[order[1:]] == floor[order[:-1]]).all(axis=1)
        fault[repeated & (fault == 0)] = 5
        if fault.any():
            i = int(fault.nonzero()[0][0])
            simplex = tuple(self.vertices[j] for j in simplices[i])
            raise DefectError(_FAULTS[fault[i]].format(simplex))


# The triangulation check's messages, indexed by its fault codes.
_FAULTS = (
    None,
    "simplex {} does not have the normalized volume of an alcove",
    "simplex {} barycenter lies on a hyperplane",
    "simplex {} leaves the polytope",
    "simplex {} is not contained in the closed alcove of its barycenter",
    "two simplices occupy the same alcove",
)

def groebner_basis(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> list:
    """The marked quadratic binomials over the polytope's vertex pairs, in
    lead order, each as the list of the coordinates of its lead and trail
    vertices in turn."""
    rewriter = Rewriter(P, budget)
    return rewriter.coordinates(rewriter.rules)


def triangulate(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> list:
    """The alcove triangulation, each simplex as the list of the
    coordinates of its rank + 1 vertices in turn.

    Raises BudgetExceededError when the vertex scan or the check's
    volume scan has more than ``budget`` box points, or the vertices
    more than ``budget`` pairs."""
    rewriter = Rewriter(P, budget)
    return rewriter.coordinates(rewriter.simplex_rows())
