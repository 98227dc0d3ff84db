"""Quadratic binomial rewriting and the alcove triangulation.

Supported in types A, C and D_4 only, where the vertex set of the
affine arrangement is the lattice spanned by ``c_i = omega_i / a_i``.
Vertices are integer vectors in the ``c_i`` basis (so omega-coordinates
are ``n[i] / a_i``).

Every unordered pair of arrangement vertices either spans an edge of a
common alcove or rewrites to the pair of closest vertices around its
midpoint; collecting the nontrivial rewrites over the vertices of an
alcoved polytope gives the marked quadratic binomial basis whose
irreducible monomials are the faces of the alcove triangulation.

The vertex-lattice tables (the basis, its inverse and the root
pairings) are each a denominator and an int64 matrix, so converting
between vertex and omega coordinates is integer arithmetic.  The
coherent weights that pick the rewrites and the self-check of the
triangulation are int64 numpy code on scaled integers: pairings times
``denom`` (barycenters times ``denom * (rank + 1)``), taken from the
vertex at the polytope's lower simple bounds, so far-away bounds stay
exact; where a value could pass 2^62 they raise UserInputError instead.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import geometry, polytope as polytope_mod
from .errors import DefectError, UserInputError
from .polytope import _INT64_HEADROOM, DEFAULT_POINT_BUDGET, AlcovedPolytope
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
    """``(d, B, q, M)``, B and M int64: the columns of ``B / d`` are a
    basis of the arrangement-vertex lattice in omega coordinates, and
    ``M / q`` is its inverse, q the least common denominator.

    In types A and C the vertices form the lattice spanned by the
    fundamental-alcove vertices ``c_i = omega_i / a_i``, which is
    diagonal in omega coordinates.  In D4 the vertex lattice is half
    the coroot lattice; it contains the span of the ``c_i`` with
    index 2, so the basis is the halved coroots instead.
    """
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
    return d, B, q, M


def vertex_to_omega(rs: RootSystemData, vertex) -> tuple:
    d, B, _, _ = _vertex_lattice(rs)
    return tuple(
        Fraction(sum(b * x for b, x in zip(row, vertex, strict=True)), d)
        for row in B.tolist()
    )


@lru_cache(maxsize=None)
def _alcove_index(rs: RootSystemData) -> int:
    """Normalized volume of one alcove with respect to the vertex lattice.

    1 in types A and C.  In D4 the vertex lattice is twice as fine as
    the span of the fundamental-alcove vertices, so each alcove has
    normalized volume 2.
    """
    corners = np.array([omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)])
    return abs(int(_exact_dets((corners[1:] - corners[0])[None])[0]))


def omega_to_vertex(rs: RootSystemData, point) -> tuple:
    _, _, q, M = _vertex_lattice(rs)
    scaled = [Fraction(y) for y in point]
    e = math.lcm(*(y.denominator for y in scaled))
    scaled = [y.numerator * (e // y.denominator) for y in scaled]  # e * point
    coords = [
        divmod(sum(m * y for m, y in zip(row, scaled, strict=True)), q * e)
        for row in M.tolist()
    ]
    if any(rest for _, rest in coords):
        raise UserInputError(f"{tuple(point)} is not an arrangement vertex")
    return tuple(n for n, _ in coords)


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


@lru_cache(maxsize=None)
def _fundamental_vertices(rs: RootSystemData) -> tuple:
    """Vertices of the closed fundamental alcove, 0 and c_i, in omega coords."""
    zero = (Fraction(0),) * rs.rank
    c = (zero[:i] + (Fraction(1, a),) + zero[i + 1 :] for i, a in enumerate(rs.marks))
    return (zero, *c)


def _edge_direction(rs: RootSystemData, integral_roots):
    """Rational spanning vector of the common kernel of the given roots.

    Returns None when the roots do not have rank exactly rank - 1, in
    which case they cut out a face of dimension larger than one rather
    than a line.  ``echelon`` maps each pivot column to a row of the
    reduced row echelon form of the roots seen so far.
    """
    echelon = {}
    for root in integral_roots:
        row = [Fraction(c) for c in root]
        for col, lead in echelon.items():
            row = [x - row[col] * y for x, y in zip(row, lead)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            row = [x / row[col] for x in row]
            for c, lead in echelon.items():
                echelon[c] = [x - lead[col] * y for x, y in zip(lead, row)]
            echelon[col] = row
    if len(echelon) != rs.rank - 1:
        return None
    free = next(col for col in range(rs.rank) if col not in echelon)
    direction = [Fraction(col == free) for col in range(rs.rank)]
    for col, lead in echelon.items():
        direction[col] = -lead[free]
    return tuple(direction)


@lru_cache(maxsize=None)
def _verify_vertex_lattice(rs: RootSystemData) -> None:
    """Startup self-check: sampled lattice points reduce onto {0, c_i}.

    The identification of the arrangement vertices with the integer
    span of the chosen basis is used without proof, so sampled points
    are reduced into the closed fundamental alcove and required to
    land on one of its vertices.
    """
    rng = random.Random(20240 + rs.rank)
    fundamental = {omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)}
    for _ in range(20):
        vertex = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        _, image = geometry.reduce_to_fundamental(rs, vertex_to_omega(rs, vertex))
        if omega_to_vertex(rs, image) not in fundamental:
            raise DefectError(
                f"{rs}: arrangement vertex {vertex} does not reduce onto a "
                "fundamental-alcove vertex"
            )


def _nearest_on_line(a, b) -> tuple:
    """Nearest lattice points around (a+b)/2 on the line through a, b.

    The lattice points on the line are ``a + t (b - a) / g``, g the gcd
    of ``b - a``, with the midpoint at ``t = g / 2``.  The midpoint is
    not a lattice point, so g is odd and the nearest points, at ``t =
    (g -+ 1) / 2``, sum to a + b; for g = 1 they are a and b themselves.
    """
    g = math.gcd(*(y - x for x, y in zip(a, b)))
    step = [(y - x) // g for x, y in zip(a, b)]
    return tuple(tuple(x + t * s for x, s in zip(a, step)) for t in (g // 2, g // 2 + 1))


def midpoint_pair(rs: RootSystemData, a, b) -> tuple:
    """The two closest arrangement vertices around the midpoint of a, b.

    Returns ``(u, v)`` with ``u + v = a + b``; when the midpoint is
    itself a vertex, ``u == v``.
    """
    _require_supported(rs)
    _verify_vertex_lattice(rs)
    a, b = tuple(a), tuple(b)
    if a == b:
        raise UserInputError("midpoint_pair needs two distinct vertices")
    if all((x + y) % 2 == 0 for x, y in zip(a, b)):
        mid = tuple((x + y) // 2 for x, y in zip(a, b))
        return mid, mid
    mid = tuple((x + y) / 2 for x, y in zip(vertex_to_omega(rs, a), vertex_to_omega(rs, b)))
    integral = [root for root in rs.positive_roots if pairing(mid, root).denominator == 1]
    direction = _edge_direction(rs, integral)
    if direction is None:
        # The midpoint sits on a face of dimension > 1 (this happens in
        # D4, where the arrangement vertices outnumber the span of the
        # fundamental-alcove vertices).  Fall back to the lattice points
        # nearest the midpoint on the line through a and b; when a and b
        # are already consecutive there, the pair admits no rewrite.
        return _nearest_on_line(*sorted((a, b)))
    # Nearest hyperplane crossings on the edge through the midpoint; a
    # root that moves along the edge is not integral at the midpoint.
    # Each crossing adds a root independent of the rank-(r-1) family
    # cutting out the edge, so it is an arrangement vertex.
    crossings = []
    for root in rs.positive_roots:
        speed, value = pairing(direction, root), pairing(mid, root)
        if speed:
            crossings += [(m - value) / speed for m in (math.floor(value), math.ceil(value))]
    forward = min((t for t in crossings if t > 0), default=None)
    backward = max((t for t in crossings if t < 0), default=None)
    if forward is None or backward is None or forward != -backward:
        raise DefectError(f"edge crossings around midpoint {mid} are not symmetric")
    u, v = sorted(
        omega_to_vertex(rs, tuple(x + t * dx for x, dx in zip(mid, direction)))
        for t in (backward, forward)
    )
    if tuple(x + y for x, y in zip(u, v)) != tuple(x + y for x, y in zip(a, b)):
        raise DefectError("midpoint endpoints do not sum to a + b")
    return u, v


def polytope_vertices(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> list:
    """All arrangement vertices inside the polytope.

    The vertex lattice lies inside the diagonal lattice ``{y : d*y_i
    integral}`` for the basis denominator d, so the box scan at scale d
    lists the candidates ``d*omega``.  With ``M / q`` the inverse basis,
    a candidate is a vertex when ``M (d*omega)`` is divisible by ``q*d``.
    The scan's offset is ``d`` times an integral coweight, itself a
    vertex, which is added back.  ``M`` is nonnegative with rows at most
    twice theta in types A, C and D4, so ``M y`` stays within int64
    wherever the scan does.  Raises BudgetExceededError when the box has
    more than ``budget`` points.
    """
    _require_supported(P.rs)
    rs = P.rs
    denom, _, q, M = _vertex_lattice(rs)
    offset, chunks = polytope_mod._scan(P, denom, budget)
    base = omega_to_vertex(rs, [o // denom for o in offset])
    out = []
    for ys in chunks:
        coords = ys @ M.T
        coords = coords[(coords % (q * denom) == 0).all(axis=1)] // (q * denom)
        out.extend(tuple(c + b for c, b in zip(n, base)) for n in coords.tolist())
    return sorted(out)


@dataclass(frozen=True)
class Binomial:
    """Marked rewrite: the lead pair reduces to the trail pair."""

    lead: tuple  # (a, b), a < b
    trail: tuple  # (u, v), u <= v


class Rewriter:
    """Rewriting engine for the vertex pairs of one alcoved polytope.

    Rules and simplices are rows of indices into the sorted ``vertices``:
    row ``(a, b, u, v)`` of ``rule_rows``, sorted by lead, rewrites the
    pair ``(vertices[a], vertices[b])``, ``a < b``, to ``(vertices[u],
    vertices[v])``, ``u <= v``.  The ``rules`` dict keyed by vertex pairs
    is built on first read, and the weights one vertex at a time.
    """

    def __init__(self, P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET):
        _require_supported(P.rs)
        self.P = P
        self.rs = P.rs
        self.budget = budget  # bounds the vertex scan and the check's volume scan
        self.vertices = polytope_vertices(P, budget)
        # Weights and check use pairings times denom, v @ G, taken from the
        # vertex of P's lower simple bounds, with the bounds moved to match.
        self._denom, B, _, _ = _vertex_lattice(self.rs)
        self._G = B.T @ self.rs.root_array.T
        low = [k for k, _ in P.simple_bounds()]
        self._origin = omega_to_vertex(self.rs, low)
        self._bounds = [
            (k - pairing(low, root), K - pairing(low, root))
            for root, (k, K) in zip(self.rs.positive_roots, P.bounds)
        ]
        self._scaled = {}  # denom * weight, by vertex, filled by weight()
        self.rule_rows = self._rule_rows()

    @cached_property
    def rules(self) -> dict:
        """``rule_rows`` as a lead pair -> trail pair dict, in lead order."""
        V = self.vertices
        return {(V[a], V[b]): (V[u], V[v]) for a, b, u, v in self.rule_rows.tolist()}

    def _translated(self, vertices) -> tuple:
        """``(X, reach)``: the vertices minus the origin as int64 rows,
        and a bound on the scaled pairings ``X @ G``.  Raises
        UserInputError where rank + 1 of those could sum past 2^62."""
        rows = [[x - o for x, o in zip(v, self._origin)] for v in vertices]
        top = max((abs(x) for row in rows for x in row), default=0)
        reach = top * int(np.abs(self._G).sum(axis=0).max())
        if reach * (self.rs.rank + 1) >= _INT64_HEADROOM:
            raise UserInputError(f"vertices {top} from {self._origin} overflow int64")
        return np.array(rows, dtype=np.int64).reshape(-1, self.rs.rank), reach

    def _rule_rows(self) -> np.ndarray:
        """One rewrite per non-minimal decomposition class, as ``rule_rows``.

        Vertex pairs are grouped by their sum; within a group the pair
        of smallest coherent weight is the standard form, and every
        other pair rewrites to it.  In types A and C this reproduces
        the nearest-vertices-around-the-midpoint rule (the carrier-edge
        endpoints are the unique weight minimizers); in D4 midpoints
        can sit on higher-dimensional faces of the arrangement, where
        the weight minimum is the only canonical choice left.
        """
        V = self.vertices
        w = self._scaled_weights(V)
        i, j = np.triu_indices(len(V))  # the pairs (u, v), u <= v, in order
        sums = self._translated(V)[0]
        sums = sums[i] + sums[j]
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

    # -- coherent weight -------------------------------------------------
    def weight(self, vertex) -> Fraction:
        """Sum of |distance| to every arrangement hyperplane meeting P."""
        if vertex not in self._scaled:
            self._scaled[vertex] = int(self._scaled_weights([vertex])[0])
        return Fraction(self._scaled[vertex], self._denom)

    def _scaled_weights(self, vertices) -> np.ndarray:
        """``denom * weight(v)`` per vertex, exact in int64.

        Per root, let ``u = denom * ((v, a) - k)``, ``W = K - k`` and
        ``g = u // denom`` clipped to ``[-1, W]``: the levels ``k .. k+g``
        lie at or below v and the others above, so the sum over levels
        of ``|u - m*denom|`` is ``(2g+1-W) u - denom g (g+1) + denom W (W+1) / 2``.
        """
        d = self._denom
        X, reach = self._translated(vertices)
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

    def monomial_weight(self, monomial) -> Fraction:
        return sum((self.weight(v) for v in monomial), Fraction(0))

    # -- reduction -------------------------------------------------------
    def basis(self) -> list:
        return [Binomial(lead, trail) for lead, trail in self.rules.items()]

    def reducible_pairs(self, monomial) -> list:
        support = sorted(set(monomial))
        return [pair for pair in combinations(support, 2) if pair in self.rules]

    def is_standard(self, monomial) -> bool:
        return not self.reducible_pairs(monomial)

    def normal_form(self, monomial, rng: random.Random = None) -> tuple:
        """Reduce until irreducible; asserts the coherent weight drops.

        ``rng`` randomizes which applicable rule fires at each step; the
        normal form is independent of that choice (confluence).
        """
        current = sorted(monomial)
        weight = self.monomial_weight(current)
        for _ in range(REWRITE_STEP_GUARD):
            pairs = self.reducible_pairs(current)
            if not pairs:
                return tuple(current)
            pair = pairs[0] if rng is None else rng.choice(pairs)
            for a in pair:
                current.remove(a)
            u, v = self.rules[pair]
            current = sorted(current + [u, v])
            new_weight = self.monomial_weight(current)
            if not new_weight < weight:
                raise DefectError(f"rewrite {pair} -> {(u, v)} did not decrease the "
                                  "coherent weight")
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

    def triangulate(self) -> list:
        """The simplices of ``simplex_rows`` as tuples of vertices."""
        V = self.vertices
        return [tuple(V[j] for j in row) for row in self.simplex_rows().tolist()]

    def coordinates(self, index: np.ndarray) -> list:
        """Row k lists the coordinates of the vertices ``index[k]`` in turn;
        an object array keeps coordinates past int64 exact."""
        V = np.array(self.vertices, dtype=object).reshape(len(self.vertices), self.rs.rank)
        return V[index].reshape(len(index), index.shape[1] * self.rs.rank).tolist()

    def _cliques(self) -> np.ndarray:
        size, n = self.rs.rank + 1, len(self.vertices)
        standard = np.triu(np.ones((n, n), dtype=bool), 1)
        standard[self.rule_rows[:, 0], self.rule_rows[:, 1]] = False
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
        V = self.vertices
        vol = polytope_mod.volume(self.P, self.budget)
        if len(simplices) != vol:
            raise DefectError(f"triangulation produced {len(simplices)} simplices "
                              f"for a polytope of volume {vol}")
        if not len(simplices):
            return
        X = self._translated(V)[0][simplices]  # simplex, corner, coordinate
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
        fault[abs(_exact_dets(X[:, 1:] - X[:, :1])) != _alcove_index(self.rs)] = 1
        order = np.lexsort(floor.T)  # stable; np.unique(axis=0) would import numpy.ma
        repeated = np.zeros(len(fault), dtype=bool)
        repeated[order[1:]] = (floor[order[1:]] == floor[order[:-1]]).all(axis=1)
        fault[repeated & (fault == 0)] = 5
        if fault.any():
            i = int(fault.nonzero()[0][0])
            raise DefectError(_FAULTS[fault[i]].format(tuple(V[j] for j in simplices[i])))


# The triangulation check's messages, indexed by its fault codes.
_FAULTS = (
    None,
    "simplex {} does not have the normalized volume of an alcove",
    "simplex {} barycenter lies on a hyperplane",
    "simplex {} leaves the polytope",
    "simplex {} is not contained in the closed alcove of its barycenter",
    "two simplices occupy the same alcove",
)

_REWRITERS = {}


def _rewriter(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> Rewriter:
    # keyed by the budget too, so that a smaller budget is checked again
    rewriter = _REWRITERS.get((P, budget))
    if rewriter is None:
        rewriter = _REWRITERS[P, budget] = Rewriter(P, budget)
    return rewriter


def groebner_basis(
    P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET, flat: bool = False
) -> list:
    """The marked quadratic binomials over the polytope's vertex pairs, in
    lead order; with ``flat``, each as the list of the coordinates of its
    lead and trail vertices in turn."""
    rewriter = _rewriter(P, budget)
    return rewriter.coordinates(rewriter.rule_rows) if flat else rewriter.basis()


def normal_form(P: AlcovedPolytope, monomial) -> tuple:
    """The unique irreducible multiset reachable from the monomial."""
    return _rewriter(P).normal_form(monomial)


def is_standard(P: AlcovedPolytope, monomial) -> bool:
    return _rewriter(P).is_standard(monomial)


def triangulate(
    P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET, flat: bool = False
) -> list:
    """The alcove triangulation as (rank+1)-sets of arrangement vertices;
    with ``flat``, each simplex as the list of its vertices' coordinates.

    Raises BudgetExceededError when the vertex scan or the check's
    volume scan has more than ``budget`` box points."""
    rewriter = _rewriter(P, budget)
    return rewriter.coordinates(rewriter.simplex_rows()) if flat else rewriter.triangulate()


def midpoint_closure_check(rs: RootSystemData, vertex_set) -> bool:
    """Whether the set is closed under taking midpoint-nearest vertices.

    For vertex sets of convex polytopes this is the alcovedness
    criterion; convexity itself is the caller's responsibility.
    """
    _require_supported(rs)
    vertices = {tuple(v) for v in vertex_set}
    for a, b in combinations(sorted(vertices), 2):
        u, v = midpoint_pair(rs, a, b)
        if u not in vertices or v not in vertices:
            return False
    return True
