"""Static data of an irreducible crystallographic root system.

Coordinate conventions used throughout the package:

* roots are integer vectors of coefficients in the simple-root basis;
* coweights are vectors in the fundamental-coweight basis (the dual
  basis to the simple roots), so that the pairing of a coweight ``y``
  with a root ``c`` is the plain dot product ``sum(y[i] * c[i])``;
* coroots are coweights too: row a of ``coroot_array`` is ``a^vee``.

No ambient Euclidean realization is ever needed here; types A and C get
concrete coordinate models in :mod:`alcoved.weyl` for cross-checking
only.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .errors import DefectError, UserInputError, integer

#: valid rank ranges per type letter
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

#: most positive roots that build() accepts: A_140 and B/C/D_100 fit,
#: A_141 and B/C/D_101 do not
POSITIVE_ROOT_LIMIT = 10**4


def _positive_root_count(type_label: str, rank: int) -> int:
    n = rank
    if type_label == "A":
        return n * (n + 1) // 2
    if type_label in ("B", "C"):
        return n * n
    if type_label == "D":
        return n * (n - 1)
    if type_label == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if type_label == "F" else 6


@dataclass(frozen=True)
class RootSystemData:
    """Immutable tables for one irreducible root system.

    ``cartan[i][j]`` is the pairing of the i-th simple root with the
    j-th simple coroot.  ``marks`` are the coefficients of the highest
    root ``theta`` in the simple roots; ``h_star`` is ``1 + sum(marks)``
    and ``index_of_connection`` is ``|det(cartan)|``.
    ``cartan_adjugate`` is the integer matrix ``f * cartan^-1``, with
    ``f = index_of_connection``.

    The array tables are read-only: ``root_array`` holds the positive
    roots as int64 rows, ``root_arrays`` the same rows by dtype (int16,
    int32 and int64), and ``simple_index[j]`` is the row of alpha_j.
    Row a of the int64 ``coroot_array`` holds the omega-coordinates of
    the coroot of the a-th positive root, so ``(a^vee, b)`` is the dot
    product of its row with the row of b; its last row is ``theta^vee``.
    ``column_support[j]`` lists the rows with alpha_j in their support,
    ``column_final[j]`` those whose last simple root is alpha_j.
    """

    type_label: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    theta: tuple
    marks: tuple
    h_star: int
    index_of_connection: int
    cartan_adjugate: tuple = field(compare=False)  # these are determined by the rest
    coroot_array: np.ndarray = field(compare=False)
    root_array: np.ndarray = field(compare=False)
    root_arrays: dict = field(compare=False)
    simple_index: tuple = field(compare=False)
    column_support: tuple = field(compare=False)
    column_final: tuple = field(compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_root_index", {root: i for i, root in enumerate(self.positive_roots)}
        )

    @property
    def simple_roots(self) -> tuple:
        r = self.rank
        return tuple(
            tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
        )

    def root_index(self, root) -> int:
        try:
            return self._root_index[tuple(root)]
        except KeyError:
            raise UserInputError(f"{root} is not a positive root of {self}") from None

    def __hash__(self):
        # type and rank determine the rest; hashing every compared field
        # would rehash all the nested tuples on each cache lookup
        return hash((self.type_label, self.rank))

    def __repr__(self):
        return f"RootSystemData({self.type_label}{self.rank})"


def _cartan_matrix(type_label: str, rank: int) -> tuple:
    """Cartan matrix with the Bourbaki node numbering (0-indexed)."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if type_label == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif type_label == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif type_label == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif type_label == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif type_label == "E":
        # chain 1-3-4-5-... with node 2 attached to node 4
        chain = [0] + list(range(2, n))
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif type_label == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif type_label == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _roots_and_coroots(cartan: tuple, rank: int) -> tuple:
    """The positive roots, sorted by height, and their coroots in
    simple-coroot coefficients, as one closure of the simple roots under
    the simple reflections that raise height.

    ``s_i`` raises ``beta`` where ``(beta, alpha_i^vee) < 0``, and every
    positive root but a simple one is reached so from a lower one.  The
    coroot goes along: ``s_i(beta)^vee = beta^vee - (alpha_i, beta^vee) alpha_i^vee``,
    and so do the pairings with the simple coroots, ``(s_i(beta), alpha_j^vee)
    = (beta, alpha_j^vee) - (beta, alpha_i^vee) cartan[i][j]``; a root's
    pairings are dropped once it is expanded.  Both read row i's nonzero entries.
    """
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    coroot = dict(zip(simple, simple))
    pairings = dict(zip(simple, map(list, cartan)))
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    queue = list(simple)
    for beta in queue:  # the queue grows as the loop walks it
        dual, pair = coroot[beta], pairings.pop(beta)
        for i, down in enumerate(pair):
            if down >= 0:
                continue
            up = beta[:i] + (beta[i] - down,) + beta[i + 1:]
            if up not in coroot:
                lift = sum(c * dual[j] for j, c in rows[i])
                coroot[up] = dual[:i] + (dual[i] - lift,) + dual[i + 1:]
                pairings[up] = raised = pair.copy()
                for j, c in rows[i]:
                    raised[j] -= down * c
                queue.append(up)
    roots = sorted(coroot, key=lambda v: (sum(v), v))
    return roots, [coroot[root] for root in roots]


def _cartan_adjugate(cartan: tuple) -> tuple:
    """``(det, adjugate)`` of a Cartan matrix by fraction-free (Bareiss)
    Gauss-Jordan elimination of ``[cartan | I]``: pivot k is the leading
    principal minor of order k + 1, positive for a Cartan matrix, so no
    row is swapped and every division by the previous pivot is exact."""
    n = len(cartan)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    previous = 1
    for k, pivot in enumerate(rows):
        p = pivot[k]
        if p <= 0:
            raise DefectError("Cartan matrix is not positive definite")
        for i, row in enumerate(rows):
            if i != k:
                c = row[k]
                rows[i] = [(p * x - c * y) // previous for x, y in zip(row, pivot)]
        previous = p
    return previous, tuple(tuple(row[n:]) for row in rows)


@lru_cache(maxsize=None, typed=True)  # typed: True and 1 are not one key
def build(type_label: str, rank: int) -> RootSystemData:
    """Construct the root-system tables for the given type and rank."""
    type_label, rank = str(type_label).upper(), integer(rank, "rank")
    if type_label not in _RANK_RANGE:
        raise UserInputError(f"unknown root-system type {type_label!r}")
    lo, hi = _RANK_RANGE[type_label]
    if rank < lo or (hi is not None and rank > hi):
        raise UserInputError(f"invalid rank {rank} for type {type_label}")
    expected = _positive_root_count(type_label, rank)
    if expected > POSITIVE_ROOT_LIMIT:
        raise UserInputError(
            f"{type_label}{rank} has {expected} positive roots, more than "
            f"the limit of {POSITIVE_ROOT_LIMIT}"
        )

    cartan = _cartan_matrix(type_label, rank)
    positive_roots, coroots = _roots_and_coroots(cartan, rank)
    if len(positive_roots) != expected:
        raise DefectError(
            f"{type_label}{rank}: generated {len(positive_roots)} positive "
            f"roots, expected {expected}"
        )

    theta = positive_roots[-1]
    height = sum(theta)
    if len(positive_roots) > 1 and sum(positive_roots[-2]) == height:
        raise DefectError("highest root is not unique")
    marks = theta
    h_star = 1 + sum(marks)

    f, adjugate = _cartan_adjugate(cartan)
    if (np.array(cartan) @ np.array(adjugate) != f * np.eye(rank, dtype=int)).any():
        raise DefectError("cartan . adjugate != det(cartan) * I")
    if f != 1 + sum(1 for a in marks if a == 1):
        raise DefectError("index of connection disagrees with the minuscule count")

    root_array = np.array(positive_roots, dtype=np.int64)
    coroot_array = np.array(coroots, dtype=np.int64) @ np.array(cartan, dtype=np.int64).T
    if ((coroot_array * root_array).sum(axis=1) != 2).any():
        raise DefectError("a positive root does not pair to 2 with its coroot")
    dtypes = (np.int16, np.int32, np.int64)
    root_arrays = {t: root_array.astype(t, copy=False) for t in dtypes}
    column_support = tuple(map(np.flatnonzero, root_array.T))
    last = rank - 1 - np.argmax(root_array[:, ::-1] > 0, axis=1)
    column_final = tuple(np.flatnonzero(last == j) for j in range(rank))
    for table in (coroot_array, *root_arrays.values(), *column_support, *column_final):
        table.flags.writeable = False
    simple_index = tuple(
        positive_roots.index(tuple(int(i == j) for j in range(rank))) for i in range(rank)
    )
    return RootSystemData(
        type_label=type_label,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(positive_roots),
        theta=theta,
        marks=marks,
        h_star=h_star,
        index_of_connection=f,
        cartan_adjugate=adjugate,
        coroot_array=coroot_array,
        root_array=root_array,
        root_arrays=root_arrays,
        simple_index=simple_index,
        column_support=column_support,
        column_final=column_final,
    )


def pairing(coweight, root):
    """Pairing of a coweight (omega-coordinates) with a root (alpha-coordinates).

    Because the fundamental coweights are dual to the simple roots this
    is just the dot product of the two coordinate vectors.
    """
    if len(coweight) != len(root):
        raise UserInputError(
            f"dimension mismatch: coweight of length {len(coweight)}, "
            f"root of length {len(root)}"
        )
    return sum(y * c for y, c in zip(coweight, root))


def rho(rs: RootSystemData) -> tuple:
    """The sum of the fundamental coweights, i.e. the all-ones omega-vector."""
    return (1,) * rs.rank


def weyl_order(rs: RootSystemData) -> int:
    """``f * r! * a_1 ... a_r`` -- the order of the Weyl group."""
    return (
        rs.index_of_connection
        * prod(range(1, rs.rank + 1))
        * prod(rs.marks)
    )


def info_dict(rs: RootSystemData) -> dict:
    """JSON-ready summary used by the ``info`` CLI subcommand."""
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "marks": list(rs.marks),
        "h": rs.h_star,
        "f": rs.index_of_connection,
        "positive_roots": [list(r) for r in rs.positive_roots],
        "theta": list(rs.theta),
        "weyl_order": weyl_order(rs),
    }
