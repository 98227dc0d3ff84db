"""Weyl group elements as orbit points of rho, and their enumeration.

An element ``w`` is stored as the integer vector ``z = w^-1(rho)`` in
omega-coordinates; ``rho`` is regular, so ``z`` identifies ``w``.  The
pairing is W-invariant, so ``(z, a) = (rho, w(a))`` is the height of
``w(a)``: inversions, descents and word length are signs of pairings
with ``z``, and ``w(alpha_i) < 0`` exactly when ``z_i < 0``.

Why ``z`` and not the central point ``w(rho)``: right multiplication by
a simple reflection reflects ``z``, ``(w s_i)^-1(rho) = s_i(z)``, so a
breadth-first search on ``z`` with the generators in index order lists
W in the order, and with the lengths, of the search ``w -> w s_i``; and
the signs of ``w(rho)`` are the descents of ``w^-1``, not of ``w``.
``w(rho)`` is the ``z`` of ``w^-1``, read through the inverse table of
:class:`WeylGroup`, whose integer tables serve whole-group statistics.
A single element acts through the reduced word read off ``z``.

The tail of the module houses the concrete one-line models: ordinary
permutations for type A and signed permutations for type C, with
conversion in both directions.
"""

from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .errors import DEFAULT_BUDGET, DefectError, UserInputError, charge, integer
from .rootsys import RootSystemData, rho, weyl_order

#: the circular-descent tables of a WeylGroup, built together on first read
_C_TABLES = frozenset(("cdes", "C", "delta_class", "class_residues", "cmaj"))


def _reflect_coweight(cartan, i: int, v) -> list:
    """s_i on omega-coordinates: v - v_i * (column i of cartan)."""
    vi = v[i]
    return [x - vi * row[i] for x, row in zip(v, cartan)]


class WeylElement:
    """An element ``w`` of a finite Weyl group, stored as ``z = w^-1(rho)``."""

    __slots__ = ("rs", "z", "word_length")

    def __init__(self, rs: RootSystemData, z, word_length: int = None):
        self.rs = rs
        self.z = tuple(z)
        if word_length is None:  # the positive roots a with (z, a) < 0
            word_length = sum(
                1 for a in rs.positive_roots if sum(x * c for x, c in zip(z, a)) < 0
            )
        #: number of positive roots sent to negative roots
        self.word_length = word_length

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.z == other.z
            and self.rs == other.rs
        )

    def __hash__(self):
        return hash(self.z)

    def __repr__(self):
        return f"WeylElement({self.rs.type_label}{self.rs.rank}, z={self.z})"

    def _word(self) -> list:
        """A reduced word: ``w = s_{a_1} ... s_{a_l}`` for the returned
        0-based letters ``[a_1, ..., a_l]``.

        ``z_i < 0`` means ``w s_i`` is shorter, and ``s_i(z)`` is its
        ``z``; stripping such letters from the right ends at ``rho``.
        """
        cartan = self.rs.cartan
        z = list(self.z)
        letters = []
        while True:
            for i, x in enumerate(z):
                if x < 0:
                    break
            else:
                break
            letters.append(i)
            z = _reflect_coweight(cartan, i, z)
        letters.reverse()
        return letters

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise UserInputError("elements of different root systems")
        # (uv)^-1(rho) = v^-1(u^-1(rho)), and v^-1 = s_{a_l} ... s_{a_1}
        cartan = self.rs.cartan
        z = list(self.z)
        for i in other._word():
            z = _reflect_coweight(cartan, i, z)
        return WeylElement(self.rs, z)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, self.act_on_coweight(rho(self.rs)), self.word_length)

    def act_on_root(self, root) -> tuple:
        """Simple-root coordinates of ``w(root)``."""
        cartan = self.rs.cartan
        v = list(root)
        for i in reversed(self._word()):
            # s_i(a) = a - (a, alpha_i^vee) alpha_i
            v[i] -= sum(c * row[i] for c, row in zip(v, cartan))
        return tuple(v)

    def act_on_coweight(self, coweight) -> tuple:
        """Omega-coordinates of ``w(coweight)``."""
        cartan = self.rs.cartan
        v = list(coweight)
        for i in reversed(self._word()):
            v = _reflect_coweight(cartan, i, v)
        return tuple(v)


class WeylGroup(Sequence):
    """The elements of W in breadth-first order, with integer tables.

    Row ``k`` of every table belongs to ``self[k]``; element 0 is the
    identity.  ``z[k]`` is its orbit vector and ``length[k]`` its word
    length, from which ``self[k]`` is built on access; the tables are
    the only stored form of the group.  ``descents[k]`` holds its
    descent bits ``(d_0, d_1, ..., d_r)``: ``d_i`` for i >= 1 records an
    inversion at the i-th simple root, ``z_i < 0``, and ``d_0`` the
    descent at ``-theta``, ``w(theta) > 0``, that is ``(z, theta) > 0``.
    ``rmul[k, i]`` is the index of ``w_k s_{i+1}``, and ``inverse[k]``
    the index of ``w_k^-1``.

    The circular-descent tables are built together, and C validated, the
    first time one of them is read.  ``cdes[k]`` is the circular descent
    number of ``w_k``; ``C`` holds the indices of the elements with
    ``cdes = 1``, in order.  ``C_left[i]`` and ``C_right[i]`` are the
    ``left_action`` and ``right_action`` of ``C[i]``, one row per element
    of C; the two are built on the first read of either.
    ``delta_class[k]`` is the id of the class of
    ``delta(w_k) = (d_1, ..., d_r)`` modulo the coroot lattice, ids
    numbered in order of first occurrence; row ``class_residues[i]`` is
    ``adjugate . delta mod f`` for class i, that is f times the
    fractional parts of its coroot coordinates.  ``cmaj[k]`` is the index
    of the element of C in the class of ``w_k``.
    """

    def __init__(self, rs: RootSystemData, zs, length, parent, letter, rmul):
        self.rs = rs
        self.z = np.array(zs, dtype=np.int64)
        self.length = np.array(length, dtype=np.intp)
        self.rmul = np.array(rmul, dtype=np.intp)
        # w_k^-1 is the word of w_k read backwards.  The search's tree gives
        # w_k = w_parent[k] s_{letter[k]+1} (both -1 at the identity): walk
        # every element up it at once, right-multiplying by one letter per
        # step.  Nothing else reads the tree, so it is not stored
        parent, letter = np.array(parent, dtype=np.intp), np.array(letter, dtype=np.intp)
        self.inverse = np.zeros(len(zs), dtype=np.intp)
        node = np.arange(len(zs))
        for _ in range(length[-1]):
            live = node > 0
            self.inverse[live] = self.rmul[self.inverse[live], letter[node[live]]]
            node[live] = parent[node[live]]
        self.descents = np.column_stack(
            [self.z @ np.array(rs.theta, dtype=np.int64) > 0, self.z < 0]
        ).astype(np.int64)

    def __getattr__(self, name):
        # reached only while the table is not built
        if name in _C_TABLES:
            self._build_c_tables()
        elif name in ("C_left", "C_right"):  # read by stats and selfcheck only
            self.C_left = np.stack([self.left_action(k) for k in self.C.tolist()])
            self.C_right = np.stack([self.right_action(k) for k in self.C.tolist()])
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _build_c_tables(self) -> None:
        """Build the circular-descent tables and validate C; the tables are
        set only once every check has passed."""
        rs, r, f = self.rs, self.rs.rank, self.rs.index_of_connection
        cdes = self.descents @ np.array((1,) + rs.marks, dtype=np.int64)
        if cdes.min() < 1:
            raise DefectError("cdes must be positive")
        C = np.flatnonzero(cdes == 1)
        if len(C) != f:
            raise DefectError(f"|C| = {len(C)} but the index of connection is {f}")
        # C permutes the affine simple roots, -theta playing alpha_0, by marks
        hat = [tuple(-c for c in rs.theta)] + list(rs.simple_roots)
        marks = (1,) + rs.marks
        members = C.tolist()
        for k in members:
            images = [self[k].act_on_root(a) for a in hat]
            if set(images) != set(hat):
                raise DefectError("an element of C does not permute the affine roots")
            if any(marks[hat.index(b)] != a for a, b in zip(marks, images)):
                raise DefectError("C does not preserve the mark grading")

        # one product adjugate . delta mod f per distinct delta bit vector
        keys = self.descents[:, 1:] @ (1 << np.arange(r, dtype=np.int64))
        distinct = list(dict.fromkeys(keys.tolist()))  # in order of first occurrence
        bits = np.array(distinct)[:, None] >> np.arange(r) & 1
        rows = bits @ np.array(rs.cartan_adjugate, dtype=np.int64).T % f
        classes = {}
        class_of_key = np.zeros(1 << r, dtype=np.intp)
        for key, row in zip(distinct, map(tuple, rows.tolist())):
            class_of_key[key] = classes.setdefault(row, len(classes))
        delta_class = class_of_key[keys]
        if len(set(delta_class[C].tolist())) != f:
            raise DefectError("delta classes of C are not distinct")
        products = [self._times(C, k) for k in members]
        if not set(members).issuperset(np.concatenate(products).tolist()):
            raise DefectError("C is not closed under multiplication")
        of_class = np.full(len(classes), -1, dtype=np.intp)
        of_class[delta_class[C]] = C
        if (of_class < 0).any():
            raise DefectError("a delta class holds no element of C")

        self.cdes, self.C, self.delta_class = cdes, C, delta_class
        self.class_residues = np.array(list(classes), dtype=np.int64).reshape(-1, r)
        self.cmaj = of_class[delta_class]

    def __len__(self):
        return len(self.length)

    def __getitem__(self, k):
        return WeylElement(self.rs, self.z[k].tolist(), int(self.length[k]))

    def __iter__(self):
        for z, n in zip(self.z.tolist(), self.length.tolist()):
            yield WeylElement(self.rs, z, n)

    def __contains__(self, w):
        return (
            isinstance(w, WeylElement)
            and w.rs == self.rs
            and bool((self.z == w.z).all(axis=1).any())
        )

    def _times(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The indices of ``w_j w_k`` for the indices j in ``rows``."""
        for i in self[k]._word():
            rows = self.rmul[rows, i]
        return rows

    def right_action(self, k: int) -> np.ndarray:
        """``perm[j]`` is the index of ``w_j w_k``."""
        return self._times(np.arange(len(self)), k)

    def left_action(self, k: int) -> np.ndarray:
        """``perm[j]`` is the index of ``w_k w_j = (w_j^-1 w_k^-1)^-1``."""
        inv = self.inverse
        return inv[self.right_action(inv[k])[inv]]

    def coset_indices(self) -> np.ndarray:
        """Indices of one representative per right coset wC: the w with
        cmaj(w^-1) = id.

        The elements with cmaj = id form a transversal of the left cosets;
        their inverses, used here, are pairwise inequivalent under alcove
        translation and therefore represent W/C.  That is checked apart
        from the delta classes: u(A_o) and w(A_o) differ by an integral
        coweight exactly when u(rho) = w(rho) mod h_star.
        """
        rs = self.rs
        chosen = np.flatnonzero(self.cmaj[self.inverse] == 0)  # self[0] is the identity
        expected = weyl_order(rs) // rs.index_of_connection
        if len(chosen) != expected:
            raise DefectError(
                f"{len(chosen)} coset representatives, expected {expected}"
            )
        # w(rho) is the z of w^-1
        centres = self.z[self.inverse[chosen]] % rs.h_star
        if len(set(map(tuple, centres.tolist()))) != len(chosen):
            raise DefectError("two representatives lie in the same coset")
        return chosen


def identity_element(rs: RootSystemData) -> WeylElement:
    return WeylElement(rs, rho(rs), 0)


def simple_reflection(rs: RootSystemData, i: int) -> WeylElement:
    """The reflection s_i, acting by a_j -> a_j - cartan[j][i] * a_i."""
    i = integer(i, "simple-reflection index")
    if not 1 <= i <= rs.rank:
        raise UserInputError(f"simple-reflection index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, _reflect_coweight(rs.cartan, i - 1, rho(rs)), 1)


def enumerate_weyl(rs: RootSystemData, budget: int = DEFAULT_BUDGET) -> WeylGroup:
    """Breadth-first closure of the identity under the simple reflections.

    Deterministic: generators are applied in index order, so element
    positions in the returned sequence are stable across runs.  BFS depth
    is recorded as the word length.

    Every edge ``{w, w s_i}`` of the Cayley graph is followed from its
    lower end: ``w s_i`` is longer than ``w`` exactly when ``z_i > 0``.
    Raises BudgetExceededError before the search when the order of W
    exceeds ``budget``.
    """
    charge(f"{rs.type_label}{rs.rank} Weyl group", weyl_order(rs), "elements", budget)
    cartan = rs.cartan
    start = tuple(rho(rs))
    zs, index = [start], {start: 0}
    parent, letter, length, rmul = [-1], [-1], [0], [[-1] * rs.rank]
    for k, z in enumerate(zs):  # zs grows while it is read: a FIFO queue
        for i in range(rs.rank):
            if z[i] < 0:
                continue
            t = tuple(_reflect_coweight(cartan, i, z))
            j = index.get(t)
            if j is None:
                j = len(zs)
                index[t] = j
                zs.append(t)
                parent.append(k)
                letter.append(i)
                length.append(length[k] + 1)
                rmul.append([-1] * rs.rank)
            rmul[k][i] = j
            rmul[j][i] = k
    return WeylGroup(rs, zs, length, parent, letter, rmul)


# ---------------------------------------------------------------------------
# Type A model: permutations of [n] acting on e_i -> e_{w_i}.

def _check_type(rs, label, op):
    if rs.type_label != label:
        raise UserInputError(f"{op} requires type {label}, got {rs}")


def from_permutation(rs: RootSystemData, window) -> WeylElement:
    """Weyl element of A_{n-1} from one-line notation ``(w_1, ..., w_n)``.

    ``z_j`` is the height of ``w(alpha_j) = e_{w_j} - e_{w_{j+1}}``,
    which is ``w_{j+1} - w_j``.
    """
    _check_type(rs, "A", "from_permutation")
    n = rs.rank + 1
    window = tuple(window)
    if sorted(window) != list(range(1, n + 1)):
        raise UserInputError(f"{window} is not a permutation of 1..{n}")
    return WeylElement(rs, [b - a for a, b in zip(window, window[1:])])


def to_permutation(w: WeylElement) -> tuple:
    """One-line notation of a type-A Weyl element: ``w_{j+1} - w_j = z_j``
    (see from_permutation), shifted so that the entries are 1..n."""
    _check_type(w.rs, "A", "to_permutation")
    window = list(accumulate(w.z, initial=0))
    low = min(window)
    return tuple(v - low + 1 for v in window)


def permutation_descents(window) -> tuple:
    """Descent bits (d_0, d_1, ..., d_{n-1}) of a permutation.

    ``d_i`` for 1 <= i <= n-1 is the classical descent ``w_i > w_{i+1}``
    and ``d_0`` is the circular descent ``w_n > w_1``.
    """
    n = len(window)
    d = [0] * n
    d[0] = 1 if window[-1] > window[0] else 0
    for i in range(1, n):
        d[i] = 1 if window[i - 1] > window[i] else 0
    return tuple(d)


# ---------------------------------------------------------------------------
# Type C model: signed permutations acting on e_i -> sign(w_i) e_{|w_i|}.

def from_signed_permutation(rs: RootSystemData, window) -> WeylElement:
    """Weyl element of C_n from a signed one-line window ``(w_1, ..., w_n)``.

    With ``alpha_j = e_j - e_{j+1}`` and ``alpha_n = 2 e_n``, ``e_i`` has
    height ``n - i + 1/2``; ``z_j`` is the height of ``w(alpha_j)``.
    """
    _check_type(rs, "C", "from_signed_permutation")
    n = rs.rank
    window = tuple(window)
    if sorted(abs(v) for v in window) != list(range(1, n + 1)) or 0 in window:
        raise UserInputError(f"{window} is not a signed permutation of 1..{n}")

    def twice_height(v):  # of sign(v) e_|v|
        return (2 * (n - abs(v)) + 1) * (1 if v > 0 else -1)

    heights = [twice_height(v) for v in window]
    z = [(a - b) // 2 for a, b in zip(heights, heights[1:])] + [heights[-1]]
    return WeylElement(rs, z)


def to_signed_permutation(w: WeylElement) -> tuple:
    """Signed one-line window of a type-C Weyl element: the twice-heights
    of ``w(e_i)`` are ``z_n`` for ``i = n`` and grow by ``2 z_i`` downward
    (see from_signed_permutation)."""
    _check_type(w.rs, "C", "to_signed_permutation")
    n = w.rs.rank
    heights = accumulate((2 * x for x in reversed(w.z[:-1])), initial=w.z[-1])
    window = [(n - (abs(h) - 1) // 2) * (1 if h > 0 else -1) for h in heights]
    return tuple(reversed(window))


def signed_permutation_descents(window) -> tuple:
    """Descent bits (d_0, d_1, ..., d_n) of a signed permutation.

    Positions 1..n-1 compare window entries in the order
    ``1 < 2 < ... < n < -n < ... < -1`` (negative letters count as larger
    than positive ones); position 0 is a descent when ``w_1 > 0`` and
    position n when ``w_n < 0``.
    """
    n = len(window)

    def key(v):
        return v if v > 0 else 2 * n + 1 + v

    d = [0] * (n + 1)
    d[0] = 1 if window[0] > 0 else 0
    d[n] = 1 if window[-1] < 0 else 0
    for i in range(1, n):
        d[i] = 1 if key(window[i - 1]) > key(window[i]) else 0
    return tuple(d)
