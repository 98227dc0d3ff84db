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

from . import _linalg
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

    @staticmethod
    def identity_map(rank: int) -> "AffineMap":
        return AffineMap(_linalg.identity(rank), (Fraction(0),) * rank)

    def apply(self, point) -> tuple:
        moved = _linalg.mat_vec(self.linear, tuple(point))
        return tuple(a + b for a, b in zip(moved, self.translation))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        linear = _linalg.mat_mul(self.linear, other.linear)
        translation = tuple(
            a + b
            for a, b in zip(
                _linalg.mat_vec(self.linear, other.translation), self.translation
            )
        )
        return AffineMap(linear, translation)

    def inverse(self) -> "AffineMap":
        inv = _linalg.mat_inv(self.linear)
        return AffineMap(
            inv, tuple(-x for x in _linalg.mat_vec(inv, self.translation))
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
                CentralPoint(rs, tuple(q[i] for i in simple))  # raises, or:
                raise DefectError("coroot_pairings disagree with the pairings")
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

    sigma is a composition of the simple reflections s_1..s_r and the
    affine reflection in (lambda, theta) = 1; the lowest-index violated
    wall is applied at each step, which terminates for every input; a
    walk of ``REDUCTION_STEP_GUARD`` steps or more raises
    BudgetExceededError.
    The walk runs in integers on the rows of ``[linear | translation |
    d * image]``, for ``d`` the lcm of the point's denominators: ``s_i``
    subtracts ``cartan[a][i]`` times row i from row a, and the affine
    reflection subtracts ``theta_covector[a]`` times ``theta . rows``
    less ``(0, .., 0, 1, d)``.
    """
    rank = rs.rank
    p = [Fraction(x) for x in point]
    if len(p) != rank:
        raise UserInputError("point has wrong dimension")
    d = math.lcm(*(x.denominator for x in p))
    rows = [
        [int(a == b) for b in range(rank)] + [0, x.numerator * (d // x.denominator)]
        for a, x in enumerate(p)
    ]
    wall = [0] * rank + [1, d]
    for _ in range(REDUCTION_STEP_GUARD):
        i = next((i for i, row in enumerate(rows) if row[-1] < 0), None)
        if i is not None:
            col, pivot = [row[i] for row in rs.cartan], rows[i]
        else:
            pivot = [pairing(c, rs.theta) - w for c, w in zip(zip(*rows), wall)]
            if pivot[-1] <= 0:
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
