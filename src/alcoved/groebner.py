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
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _linalg, geometry, polytope as polytope_mod
from .errors import DefectError, UserInputError
from .polytope import AlcovedPolytope
from .rootsys import RootSystemData, pairing

REWRITE_STEP_GUARD = 10**6

SUPPORTED = ("A", "C")  # plus D_4, checked separately


def _require_supported(rs: RootSystemData) -> None:
    if rs.type_label in SUPPORTED:
        return
    if rs.type_label == "D" and rs.rank == 4:
        return
    raise UserInputError(
        f"vertex-lattice rewriting is only available in types A, C and D4; "
        f"got {rs}"
    )


@lru_cache(maxsize=None)
def _lattice_basis(rs: RootSystemData) -> tuple:
    """Basis of the arrangement-vertex lattice, columns in omega coords.

    In types A and C the vertices form the lattice spanned by the
    fundamental-alcove vertices ``c_i = omega_i / a_i``, which is
    diagonal in omega coordinates.  In D4 the vertex lattice is half
    the coroot lattice; it contains the span of the ``c_i`` with
    index 2, so the basis is the halved coroots instead.
    """
    r = rs.rank
    if rs.type_label == "D":
        return tuple(
            tuple(Fraction(rs.cartan[i][j], 2) for j in range(r))
            for i in range(r)
        )
    return tuple(
        tuple(Fraction(1, rs.marks[i]) if i == j else Fraction(0) for j in range(r))
        for i in range(r)
    )


def vertex_to_omega(rs: RootSystemData, vertex) -> tuple:
    basis = _lattice_basis(rs)
    return tuple(
        sum(row[j] * vertex[j] for j in range(rs.rank)) for row in basis
    )


@lru_cache(maxsize=None)
def _lattice_basis_inverse(rs: RootSystemData) -> tuple:
    return _linalg.mat_inv(_lattice_basis(rs))


@lru_cache(maxsize=None)
def _alcove_index(rs: RootSystemData) -> int:
    """Normalized volume of one alcove with respect to the vertex lattice.

    1 in types A and C.  In D4 the vertex lattice is twice as fine as
    the span of the fundamental-alcove vertices, so each alcove has
    normalized volume 2.
    """
    corners = [
        omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)
    ]
    base = corners[0]
    edges = tuple(
        tuple(x - y for x, y in zip(c, base)) for c in corners[1:]
    )
    return abs(int(_linalg.det(edges)))


def omega_to_vertex(rs: RootSystemData, point) -> tuple:
    coords = _linalg.mat_vec(
        _lattice_basis_inverse(rs), tuple(Fraction(y) for y in point)
    )
    out = []
    for v in coords:
        if v.denominator != 1:
            raise UserInputError(f"{tuple(point)} is not an arrangement vertex")
        out.append(int(v))
    return tuple(out)


@lru_cache(maxsize=None)
def _fundamental_vertices(rs: RootSystemData) -> tuple:
    """Vertices of the closed fundamental alcove, 0 and c_i, in omega coords."""
    verts = [(Fraction(0),) * rs.rank]
    for i in range(rs.rank):
        verts.append(
            tuple(
                Fraction(1, rs.marks[i]) if j == i else Fraction(0)
                for j in range(rs.rank)
            )
        )
    return tuple(verts)


def _edge_direction(rs: RootSystemData, integral_roots):
    """Rational spanning vector of the common kernel of the given roots.

    Returns None when the roots do not have rank exactly rank - 1, in
    which case they cut out a face of dimension larger than one rather
    than a line.
    """
    rows = [tuple(Fraction(c) for c in root) for root in integral_roots]
    r = rs.rank
    pivots = []
    for col in range(r):
        pivot_row = None
        for i in range(len(pivots), len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[len(pivots)], rows[pivot_row] = rows[pivot_row], rows[len(pivots)]
        lead = rows[len(pivots)]
        lead = tuple(x / lead[col] for x in lead)
        rows[len(pivots)] = lead
        for i in range(len(rows)):
            if i != len(pivots) and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = tuple(x - factor * y for x, y in zip(rows[i], lead))
        pivots.append(col)
    if len(pivots) != r - 1:
        return None
    free = next(col for col in range(r) if col not in pivots)
    direction = [Fraction(0)] * r
    direction[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        direction[col] = -row[free]
    return tuple(direction)


_LATTICE_CHECKED = set()


def _verify_vertex_lattice(rs: RootSystemData) -> None:
    """Startup self-check: sampled lattice points reduce onto {0, c_i}.

    The identification of the arrangement vertices with the integer
    span of the chosen basis is used without proof, so sampled points
    are reduced into the closed fundamental alcove and required to
    land on one of its vertices.
    """
    if rs in _LATTICE_CHECKED:
        return
    rng = random.Random(20240 + rs.rank)
    fundamental = {
        omega_to_vertex(rs, p) for p in _fundamental_vertices(rs)
    }
    for _ in range(20):
        vertex = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        _, image = geometry.reduce_to_fundamental(rs, vertex_to_omega(rs, vertex))
        if omega_to_vertex(rs, image) not in fundamental:
            raise DefectError(
                f"{rs}: arrangement vertex {vertex} does not reduce onto a "
                "fundamental-alcove vertex"
            )
    _LATTICE_CHECKED.add(rs)


def _nearest_on_line(rs: RootSystemData, a, b) -> tuple:
    """Nearest lattice points around (a+b)/2 on the line through a, b.

    The lattice points on the line form an arithmetic progression that
    contains a and b and is symmetric about their midpoint, so the two
    nearest points u, v satisfy u + v = a + b; they may be a and b
    themselves.
    """
    diff = tuple(x - y for x, y in zip(b, a))
    g = 0
    for x in diff:
        g = math.gcd(g, x)
    double_mid = tuple(x + y for x, y in zip(a, b))
    for j in range(1, g + 1):
        # candidate points (a+b)/2 +- (j/(2g)) * (b-a)
        candidates = []
        ok = True
        for sign in (1, -1):
            point = tuple(
                Fraction(dm * g + sign * j * d, 2 * g)
                for dm, d in zip(double_mid, diff)
            )
            if any(x.denominator != 1 for x in point):
                ok = False
                break
            candidates.append(tuple(int(x) for x in point))
        if ok:
            u, v = sorted(candidates)
            return u, v
    return tuple(sorted((a, b)))  # pragma: no cover - j = g always works


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
    omega_a = vertex_to_omega(rs, a)
    omega_b = vertex_to_omega(rs, b)
    mid = tuple((x + y) / 2 for x, y in zip(omega_a, omega_b))
    integral = [
        root
        for root in rs.positive_roots
        if pairing(mid, root).denominator == 1
    ]
    direction = _edge_direction(rs, integral)
    if direction is None:
        # The midpoint sits on a face of dimension > 1 (this happens in
        # D4, where the arrangement vertices outnumber the span of the
        # fundamental-alcove vertices).  Fall back to the lattice points
        # nearest the midpoint on the line through a and b; when a and b
        # are already consecutive there, the pair admits no rewrite.
        return _nearest_on_line(rs, a, b)
    # Nearest hyperplane crossings on the edge through the midpoint.
    # Each crossing adds a root independent of the rank-(r-1) family
    # cutting out the edge, so it is an arrangement vertex.
    forward = backward = None
    for root in rs.positive_roots:
        speed = pairing(direction, root)
        if speed == 0:
            continue
        value = pairing(mid, root)
        below = value.numerator // value.denominator
        for level in (below, below + 1):
            t = (level - value) / speed
            if t > 0 and (forward is None or t < forward):
                forward = t
            if t < 0 and (backward is None or t > backward):
                backward = t
    if forward is None or backward is None or forward != -backward:
        raise DefectError(
            f"edge crossings around midpoint {mid} are not symmetric"
        )
    u, v = sorted(
        omega_to_vertex(
            rs, tuple(x + t * dx for x, dx in zip(mid, direction))
        )
        for t in (backward, forward)
    )
    if tuple(x + y for x, y in zip(u, v)) != tuple(x + y for x, y in zip(a, b)):
        raise DefectError("midpoint endpoints do not sum to a + b")
    return u, v


def polytope_vertices(P: AlcovedPolytope, budget: int = 10**7) -> list:
    """All arrangement vertices inside the polytope.

    The vertex lattice lies inside the diagonal lattice ``{y : d*y_i
    integral}`` for d the lcm of the basis denominators, so the box scan
    at scale d lists the candidates ``d*omega``.  With ``M = q*B^-1``
    integral, a candidate is a vertex when ``M (d*omega)`` is divisible
    by ``q*d``.  The scan's offset is ``d`` times an integral coweight,
    itself a vertex, which is added back.  ``M`` is nonnegative with
    rows at most twice theta in types A, C and D4, so ``M y`` stays
    within int64 wherever the scan does.
    """
    _require_supported(P.rs)
    rs = P.rs
    denom = math.lcm(*(x.denominator for row in _lattice_basis(rs) for x in row))
    inverse = _lattice_basis_inverse(rs)
    q = math.lcm(*(x.denominator for row in inverse for x in row))
    M = np.array([[int(x * q) for x in row] for row in inverse], dtype=np.int64)
    offset, chunks = polytope_mod._scan(P, denom, budget)
    base = omega_to_vertex(rs, [o // denom for o in offset])
    out = []
    for ys, _ in chunks:
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
    """Rewriting engine for the vertex pairs of one alcoved polytope."""

    def __init__(self, P: AlcovedPolytope):
        _require_supported(P.rs)
        self.P = P
        self.rs = P.rs
        self.vertices = polytope_vertices(P)
        self._weights = {}
        self.rules = self._build_rules()

    def _build_rules(self) -> dict:
        """One rewrite per non-minimal decomposition class.

        Vertex pairs are grouped by their sum; within a group the pair
        of smallest coherent weight is the standard form, and every
        other pair rewrites to it.  In types A and C this reproduces
        the nearest-vertices-around-the-midpoint rule (the carrier-edge
        endpoints are the unique weight minimizers); in D4 midpoints
        can sit on higher-dimensional faces of the arrangement, where
        the weight minimum is the only canonical choice left.
        """
        by_sum = {}
        for u, v in combinations(self.vertices, 2):
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

    # -- coherent weight -------------------------------------------------
    def weight(self, vertex) -> Fraction:
        """Sum of |distance| to every arrangement hyperplane meeting P."""
        if vertex not in self._weights:
            omega = vertex_to_omega(self.rs, vertex)
            total = Fraction(0)
            for root, (k, K) in zip(self.rs.positive_roots, self.P.bounds):
                value = pairing(omega, root)
                for level in range(k, K + 1):
                    total += abs(value - level)
            self._weights[vertex] = total
        return self._weights[vertex]

    def monomial_weight(self, monomial) -> Fraction:
        return sum((self.weight(v) for v in monomial), Fraction(0))

    # -- reduction -------------------------------------------------------
    def basis(self) -> list:
        return [
            Binomial(lead=pair, trail=self.rules[pair])
            for pair in sorted(self.rules)
        ]

    def reducible_pairs(self, monomial) -> list:
        support = sorted(set(monomial))
        return [
            pair for pair in combinations(support, 2) if pair in self.rules
        ]

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
            a, b = pair
            u, v = self.rules[pair]
            current.remove(a)
            current.remove(b)
            current.extend((u, v))
            current.sort()
            new_weight = self.monomial_weight(current)
            if not new_weight < weight:
                raise DefectError(
                    f"rewrite {pair} -> {(u, v)} did not decrease the "
                    "coherent weight"
                )
            weight = new_weight
        raise DefectError("rewriting did not terminate")

    # -- triangulation ---------------------------------------------------
    def triangulate(self) -> list:
        """All maximal standard vertex sets of size rank + 1.

        The standard pairs form a flag complex (the basis is quadratic),
        so the alcove simplices are exactly the (r+1)-cliques of the
        standard-pair graph.  The count is checked against the volume
        and each simplex against unimodularity and membership.
        """
        r = self.rs.rank
        verts = self.vertices
        n = len(verts)
        compatible = {
            i: {
                j
                for j in range(n)
                if j != i
                and tuple(sorted((verts[i], verts[j]))) not in self.rules
            }
            for i in range(n)
        }
        simplices = []

        def extend(clique, candidates):
            if len(clique) == r + 1:
                simplices.append(tuple(verts[i] for i in clique))
                return
            for j in sorted(candidates):
                extend(clique + [j], {x for x in candidates if x > j} & compatible[j])

        extend([], set(range(n)))
        self._validate_triangulation(simplices)
        return simplices

    def _validate_triangulation(self, simplices) -> None:
        vol = polytope_mod.volume(self.P)
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
            if abs(_linalg.det(edges)) != _alcove_index(self.rs):
                raise DefectError(
                    f"simplex {simplex} does not have the normalized "
                    "volume of an alcove"
                )
            corners = [vertex_to_omega(self.rs, v) for v in simplex]
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


_REWRITERS = {}


def _rewriter(P: AlcovedPolytope) -> Rewriter:
    if P not in _REWRITERS:
        _REWRITERS[P] = Rewriter(P)
    return _REWRITERS[P]


def groebner_basis(P: AlcovedPolytope) -> list:
    """The marked quadratic binomials over the polytope's vertex pairs."""
    return _rewriter(P).basis()


def normal_form(P: AlcovedPolytope, monomial) -> tuple:
    """The unique irreducible multiset reachable from the monomial."""
    return _rewriter(P).normal_form(monomial)


def is_standard(P: AlcovedPolytope, monomial) -> bool:
    return _rewriter(P).is_standard(monomial)


def triangulate(P: AlcovedPolytope) -> list:
    """The alcove triangulation as (rank+1)-sets of arrangement vertices."""
    return _rewriter(P).triangulate()


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
