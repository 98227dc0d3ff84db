"""Alcoves, central points and reduction into the fundamental alcove.

An alcove is represented primarily by its central point: the unique
point of the shrunken coweight lattice inside it.  Central points are
stored as integer omega-vectors ``y`` with the implicit denominator
``h_star`` and keep their pairings with the positive roots.  The walk
to neighbouring alcoves and the reduction into the fundamental alcove
run in integers too; ``Fraction`` appears only in a reduction's input
and image.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, DefectError, UserInputError
from .rootsys import RootSystemData, pairing, rho

REDUCTION_STEP_GUARD = 10**6


@dataclass(frozen=True)
class Alcove:
    """Integer vector ``m`` indexed like ``rs.positive_roots``."""

    rs: RootSystemData
    m: tuple


@dataclass(frozen=True)
class CentralPoint:
    """The point ``y / h_star`` in omega-coordinates.

    Valid central points have ``pairing(y, a) % h_star != 0`` for every
    positive root ``a``; construction rejects anything else and keeps
    those pairings, in the order of ``rs.positive_roots``, as
    ``pairings``.
    """

    rs: RootSystemData
    y: tuple

    def __post_init__(self):
        h = self.rs.h_star
        pairings = tuple(pairing(self.y, root) for root in self.rs.positive_roots)
        for root, value in zip(self.rs.positive_roots, pairings):
            if value % h == 0:
                raise UserInputError(
                    f"{self.y}/{h} lies on the hyperplane of root {root}"
                )
        object.__setattr__(self, "pairings", pairings)

    def omega_point(self) -> tuple:
        """Exact rational omega-coordinates of the point."""
        h = self.rs.h_star
        return tuple(Fraction(v, h) for v in self.y)


@dataclass(frozen=True)
class AffineMap:
    """lambda -> linear . lambda + translation, on omega-coordinates."""

    linear: tuple
    translation: tuple

    def apply(self, point) -> tuple:
        return tuple(
            sum(a * x for a, x in zip(row, point)) + t
            for row, t in zip(self.linear, self.translation)
        )


def fundamental_central_point(rs: RootSystemData) -> CentralPoint:
    """rho / h_star, the central point of the fundamental alcove."""
    return CentralPoint(rs, rho(rs))


def alcove_of(point: CentralPoint) -> Alcove:
    """The m-vector of the alcove containing the central point."""
    h = point.rs.h_star
    return Alcove(point.rs, tuple(v // h for v in point.pairings))


def weyl_alcove(w) -> CentralPoint:
    """Central point of w(A_o)."""
    y = w.act_on_coweight(rho(w.rs))
    return CentralPoint(w.rs, tuple(int(v) for v in y))


def _trusted_point(rs: RootSystemData, y: tuple, pairings: tuple) -> CentralPoint:
    """A CentralPoint from pairings the caller has computed and checked."""
    point = object.__new__(CentralPoint)
    point.__dict__.update(rs=rs, y=y, pairings=pairings)
    return point


def neighbors(point: CentralPoint) -> list:
    """The r+1 central points of the alcoves sharing a facet with this one.

    Candidates are the reflections in the two bounding hyperplanes of
    every positive root; those differing from the current m-vector in
    exactly one coordinate are facet neighbors.  Reflecting in
    ``(lambda, a) = k`` moves the pairing with ``b`` by
    ``-((y, a) - k*h) * (a^vee, b)``, all in integers.
    """
    rs = point.rs
    h = rs.h_star
    p = point.pairings
    base = [v // h for v in p]
    simple = rs.simple_index
    found = []
    seen = set()
    for idx, row in enumerate(rs.coroot_pairings):
        for k in (base[idx], base[idx] + 1):
            excess = p[idx] - k * h
            q = [v - excess * c for v, c in zip(p, row)]
            if not all(v % h for v in q):  # not a central point
                raise DefectError(
                    f"a reflection of alcove {point.y} lands on a wall: "
                    "coroot_pairings disagree with the pairings"
                )
            diffs = [i for i, (v, b) in enumerate(zip(q, base)) if v // h != b]
            if diffs == [idx] and abs(q[idx] // h - base[idx]) == 1:
                y = tuple(q[i] for i in simple)
                if y not in seen:
                    seen.add(y)
                    found.append(_trusted_point(rs, y, tuple(q)))
    if len(found) != rs.rank + 1:
        raise DefectError(
            f"alcove {point.y} has {len(found)} facet neighbors, "
            f"expected {rs.rank + 1}"
        )
    return found


def reduce_to_fundamental(rs: RootSystemData, point) -> tuple:
    """Affine map sigma and image with sigma(point) in the closed A_o.

    sigma is the shortest element of the affine Weyl group that maps the
    point p into the closed A_o.  For small eps > 0 the point
    ``p + eps (rho/h_star - p)`` lies in the alcove around p that is on
    the side of A_o of every hyperplane through p, so sigma is also the
    unique element that maps it into the open A_o, which fixes sigma for
    points on walls too.

    A translation by the coroot lattice comes first: ``n`` are the floors
    of p's coroot coordinates ``cartan^-1 . p``, and ``-cartan . n`` (the
    omega-coordinates of ``-sum n_j alpha_j^vee``) moves p into the
    parallelepiped of the simple coroots.  From there a walk applies the
    lowest-index wall of A_o that the nearby point violates, among s_1..s_r
    and the affine reflection in (lambda, theta) = 1; each step removes
    one of the few hyperplanes left between it and A_o.  A walk of
    ``REDUCTION_STEP_GUARD`` steps or more raises BudgetExceededError.

    Everything runs in integers on the rows of ``[linear | translation |
    d * sigma(rho/h_star) | d * image]``, for ``d`` the lcm of h_star and
    the point's denominators.  Wall i is violated when its two last
    entries are below ``(0, 0)`` in lexicographic order, the theta wall
    when ``theta . rows`` less ``d`` is above it there.  ``s_i`` subtracts
    ``cartan[a][i]`` times row i from row a, and the affine reflection
    subtracts ``theta_covector[a]`` times ``theta . rows`` less
    ``(0, .., 0, 1, d, d)``.
    """
    rank = rs.rank
    p = [Fraction(x) for x in point]
    if len(p) != rank:
        raise UserInputError("point has wrong dimension")
    d = math.lcm(rs.h_star, *(x.denominator for x in p))
    scaled = [x.numerator * (d // x.denominator) for x in p]
    fd = rs.index_of_connection * d
    n = [sum(a * x for a, x in zip(row, scaled)) // fd for row in rs.cartan_adjugate]
    shift = [sum(c * k for c, k in zip(row, n)) for row in rs.cartan]
    centre = [d // rs.h_star * v for v in rho(rs)]
    rows = [
        [int(a == b) for b in range(rank)] + [-t, c - d * t, x - d * t]
        for a, (t, c, x) in enumerate(zip(shift, centre, scaled))
    ]
    wall = [0] * rank + [1, d, d]
    for _ in range(REDUCTION_STEP_GUARD):
        i = next((i for i, row in enumerate(rows) if (row[-1], row[-2]) < (0, 0)), None)
        if i is not None:
            col, pivot = [row[i] for row in rs.cartan], rows[i]
        else:
            pivot = [pairing(c, rs.theta) - w for c, w in zip(zip(*rows), wall)]
            if (pivot[-1], pivot[-2]) <= (0, 0):
                sigma = AffineMap(
                    tuple(tuple(row[:rank]) for row in rows),
                    tuple(row[rank] for row in rows),
                )
                return sigma, tuple(Fraction(row[-1], d) for row in rows)
            col = rs.theta_covector
        rows = [[x - c * z for x, z in zip(row, pivot)] for row, c in zip(rows, col)]
    raise BudgetExceededError(
        f"reduction to A_o did not finish in {REDUCTION_STEP_GUARD} steps"
    )
