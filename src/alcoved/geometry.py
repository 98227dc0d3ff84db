"""Alcove walks and reduction into the fundamental alcove.

An alcove is represented by its central point ``y / h_star``: the
unique point of the shrunken coweight lattice inside it.  A central
point is the tuple of its pairings ``(y, a)`` with the positive roots,
in the order of ``rs.positive_roots``: their floors by h_star are the
alcove's m-vector, the entries ``≡ ±1 (mod h_star)`` name its facets,
and the simple ones are ``y`` itself.  That of the fundamental alcove
A_o pairs ``rho`` with the roots, and that of ``w(A_o)`` pairs
``w.inverse().z``, since ``w(rho)`` is the ``z`` of ``w^-1``.  The walk
to neighbouring alcoves and the reduction into A_o run in integers;
``Fraction`` appears only in a reduction's input and image.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, DefectError, UserInputError, integer
from .rootsys import RootSystemData, pairing, rho

REDUCTION_STEP_GUARD = 10**6


@dataclass(frozen=True)
class AffineMap:
    """lambda -> linear . lambda + translation, on omega-coordinates."""

    linear: tuple
    translation: tuple


def neighbors(rs: RootSystemData, p) -> list:
    """The r+1 central points of the alcoves sharing a facet with ``y / h``.

    ``p`` holds the pairings ``(y, a)`` in the order of
    ``rs.positive_roots``, and so does each neighbour returned; an entry
    that is no integer, or is divisible by h (a wall), is a UserInputError.
    The facets around ``y / h`` are the hyperplanes ``(lambda, a) = k``
    with ``(y, a) - k*h = e = +-1``: the affine Weyl group carries rho/h to
    every central point, and only the walls of A_o lie 1/h from rho/h (in
    A1, h = 2 and both levels count).  Reflecting in one maps y to
    ``y - e * a^vee``; neighbors come in root order, lower facet first.
    """
    h = rs.h_star
    if len(p) != len(rs.positive_roots):
        raise UserInputError(f"need {len(rs.positive_roots)} pairings, got {len(p)}")
    y = tuple(p[i] for i in rs.simple_index)
    for root, v in zip(rs.positive_roots, p):
        if type(v) is not int:  # the walk passes ints; others are read once
            return neighbors(rs, [integer(v, "each pairing") for v in p])
        if v % h == 0:
            raise UserInputError(f"{y}/{h} lies on the hyperplane of root {root}")
    base = [v // h for v in p]
    facets = [(idx, e) for idx, v in enumerate(p) for e in (1, -1) if (v - e) % h == 0]
    rows = rs.coroot_array[[idx for idx, _ in facets]] @ rs.root_array.T
    found = []
    for (idx, e), row in zip(facets, rows.tolist()):
        q = tuple(v - e * c for v, c in zip(p, row))
        if not all(v % h for v in q):  # coroot_array disagrees with the pairings
            raise DefectError(f"alcove {y}: facet {idx} reflects it onto a wall")
        if [b - v // h for v, b in zip(q, base)] != [e * (i == idx) for i in range(len(q))]:
            raise DefectError(f"alcove {y}: facet {idx} reflects it across another wall")
        found.append(q)
    if len(found) != rs.rank + 1:
        raise DefectError(f"alcove {y} has {len(found)} facets, expected {rs.rank + 1}")
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
    subtracts ``theta^vee[a]``, the last row of ``coroot_array``, times
    ``theta . rows`` less ``(0, .., 0, 1, d, d)``.
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
    theta_vee = rs.coroot_array[-1].tolist()
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
            col = theta_vee
        rows = [[x - c * z for x, z in zip(row, pivot)] for row, c in zip(rows, col)]
    raise BudgetExceededError(
        f"reduction to A_o did not finish in {REDUCTION_STEP_GUARD} steps"
    )
