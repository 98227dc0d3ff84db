"""Exact rational linear algebra, kept apart from the library as an oracle.

Matrices are tuples of row tuples.  Everything works over
``fractions.Fraction`` (integers are accepted and promoted), in plain
textbook form: Gauss-Jordan inverse, elimination determinant, and the
composition and inverse of affine maps ``x -> linear . x + translation``,
so that tests can check the library's integer tables and walks against
an independent computation; the positive roots by root strings and the
coroots from the ``Fraction``-symmetrized Cartan form, against the
library's one reflection closure; the Eulerian numbers counted over S_n;
the descent bits and cdes of one element, read off its orbit vector
``z``, and the classical major index of a permutation, against the
whole-group tables of ``WeylGroup``; the facet
neighbors of a central point by a search over both bounding hyperplanes
of every positive root, against the residue rule of
``geometry.neighbors``; and the paper's midpoint rewrite rule in types A
and C, against the weight-minimal rule of ``groebner.Rewriter``.
"""

from fractions import Fraction
from itertools import permutations
from math import ceil, factorial, floor, gcd, lcm

from alcoved.geometry import AffineMap
from alcoved.rootsys import pairing


def mat_vec(m, v) -> tuple:
    if len(m[0]) != len(v):
        raise ValueError(f"dimension mismatch: {len(m[0])}x matrix, {len(v)} vector")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def mat_inv(m) -> tuple:
    """Inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(m) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result


def identity_map(rank: int) -> AffineMap:
    linear = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    return AffineMap(linear, (Fraction(0),) * rank)


def apply(sigma: AffineMap, point) -> tuple:
    moved = mat_vec(sigma.linear, tuple(point))
    return tuple(a + b for a, b in zip(moved, sigma.translation))


def compose(a: AffineMap, b: AffineMap) -> AffineMap:
    """a after b."""
    return AffineMap(mat_mul(a.linear, b.linear), apply(a, b.translation))


def inverse(sigma: AffineMap) -> AffineMap:
    inv = mat_inv(sigma.linear)
    return AffineMap(inv, tuple(-x for x in mat_vec(inv, sigma.translation)))


def positive_roots(cartan) -> list:
    """Closure of the simple roots under root-string addition, by height.

    ``beta + alpha_i`` is a root precisely when ``p - (beta, alpha_i^vee) > 0``,
    where ``p`` is the number of steps the string extends downward from ``beta``.
    """
    rank = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    layer = list(roots)
    while layer:
        new_layer = []
        for beta in layer:
            for i in range(rank):
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) in roots:
                        p += 1
                    else:
                        break
                pair = sum(beta[j] * cartan[j][i] for j in range(rank))
                if p - pair > 0:
                    cand = list(beta)
                    cand[i] += 1
                    cand = tuple(cand)
                    if cand not in roots:
                        roots.add(cand)
                        new_layer.append(cand)
        layer = new_layer
    return sorted(roots, key=lambda v: (sum(v), v))


def symmetrizer(cartan) -> tuple:
    """Positive integers d with d[i]*A[i][j] == d[j]*A[j][i], by a walk
    over the Dynkin diagram."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if cartan[i][j] != 0 and i != j and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    if any(x is None for x in d):
        raise ValueError("Cartan matrix has a disconnected diagram")
    scale = lcm(*(x.denominator for x in d))
    result = [int(x * scale) for x in d]
    g = gcd(*result)
    return tuple(x // g for x in result)


def coroot_covector(cartan, root) -> tuple:
    """omega-coordinates of the coroot of ``root``: ``2 (root, alpha_j) /
    (root, root)`` in the form ``cartan[i][j] / symmetrizer[j]``."""
    d = symmetrizer(cartan)
    inner = [
        sum(Fraction(c * cartan[i][j], d[j]) for i, c in enumerate(root))
        for j in range(len(cartan))
    ]
    norm = sum(c * ip for c, ip in zip(root, inner))
    return tuple(2 * ip / norm for ip in inner)


def neighbors_by_search(rs, p) -> list:
    """The facet neighbors of the central point with pairings ``p``, found
    by trying the reflections in both bounding hyperplanes of every
    positive root and keeping those whose alcove differs from this one in
    that root's coordinate alone, by one.  Reflecting in
    ``(lambda, a) = k`` moves the pairing with ``b`` by
    ``-((y, a) - k*h) * (a^vee, b)``, read off
    ``coroot_array @ root_array.T``; each kept point's pairings are
    recomputed from its ``y`` and checked to lie on no wall."""
    h = rs.h_star
    base = [v // h for v in p]
    found = []
    for idx, row in enumerate((rs.coroot_array @ rs.root_array.T).tolist()):
        for k in (base[idx], base[idx] + 1):
            excess = p[idx] - k * h
            q = [v - excess * c for v, c in zip(p, row)]
            diffs = [i for i, (v, b) in enumerate(zip(q, base)) if v // h != b]
            if diffs == [idx] and abs(q[idx] // h - base[idx]) == 1:
                y = tuple(q[i] for i in rs.simple_index)
                pairings = tuple(pairing(y, root) for root in rs.positive_roots)
                assert pairings == tuple(q) and all(v % h for v in pairings)
                if pairings not in found:
                    found.append(pairings)
    return found


def brute_force_eulerian(n: int) -> tuple:
    """Descent generating polynomial over all of S_n, coefficient k + 1
    for k descents, without trailing zeros."""
    counts = [0] * (n + 1)
    for p in permutations(range(1, n + 1)):
        d = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        counts[d + 1] += 1
    assert sum(counts) == factorial(n)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def descent_bits(rs, z) -> tuple:
    """(d_0, d_1, ..., d_r) of the element with orbit vector ``z``: d_0 is
    ``(z, theta) > 0``, the descent at -theta, and d_i is ``z_i < 0``."""
    return (int(pairing(z, rs.theta) > 0),) + tuple(int(x < 0) for x in z)


def cdes(rs, z) -> int:
    """The circular descent number: the descent bits weighted by 1 and
    the marks."""
    return sum(a * d for a, d in zip((1,) + rs.marks, descent_bits(rs, z)))


def major_index(window) -> int:
    """Sum of the classical descent positions of a permutation window."""
    return sum(i for i in range(1, len(window)) if window[i - 1] > window[i])


def _kernel_line(rows, n) -> tuple:
    """A spanning vector of the common kernel of the rows, by Gauss-Jordan
    elimination; ValueError unless the rows have rank n - 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][col] for x in m[k]]
        for i in range(len(m)):
            factor = m[i][col]
            if i != k and factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
        pivots.append(col)
    if len(pivots) != n - 1:
        raise ValueError(f"the roots cut out a face of dimension {n - len(pivots)}")
    free = next(col for col in range(n) if col not in pivots)
    direction = [Fraction(col == free) for col in range(n)]
    for k, col in enumerate(pivots):
        direction[col] = -m[k][free]
    return tuple(direction)


def midpoint_pair(rs, a, b) -> tuple:
    """The paper's rewrite of two distinct arrangement vertices in type A
    or C: the two vertices nearest their midpoint on the arrangement edge
    through it, sorted, or the midpoint twice when it is a vertex itself.

    Vertices are in the ``c_i = omega_i / a_i`` basis of ``groebner``.
    The edge is the common kernel of the roots that are integral at the
    midpoint; in these types that is always a line, and ValueError says
    it was not.
    """
    if rs.type_label not in ("A", "C"):
        raise ValueError(f"the midpoint oracle covers types A and C only, not {rs}")
    a, b = tuple(a), tuple(b)
    if a == b:
        raise ValueError("midpoint_pair needs two distinct vertices")
    if all((x + y) % 2 == 0 for x, y in zip(a, b)):
        mid = tuple((x + y) // 2 for x, y in zip(a, b))
        return mid, mid
    marks = rs.marks
    mid = tuple(Fraction(x + y, 2 * m) for x, y, m in zip(a, b, marks))
    integral = [root for root in rs.positive_roots if pairing(mid, root).denominator == 1]
    direction = _kernel_line(integral, rs.rank)
    # the nearest hyperplane crossings on either side along the edge
    crossings = []
    for root in rs.positive_roots:
        speed, value = pairing(direction, root), pairing(mid, root)
        if speed:
            crossings += [(m - value) / speed for m in (floor(value), ceil(value))]
    forward = min(t for t in crossings if t > 0)
    backward = max(t for t in crossings if t < 0)
    if forward != -backward:
        raise ValueError(f"edge crossings around the midpoint {mid} are not symmetric")
    ends = []
    for t in (backward, forward):
        end = [(x + t * dx) * m for x, dx, m in zip(mid, direction, marks)]
        if any(x.denominator != 1 for x in end):
            raise ValueError(f"edge end {end} is not a vertex")
        ends.append(tuple(int(x) for x in end))
    u, v = sorted(ends)
    if tuple(x + y for x, y in zip(u, v)) != tuple(x + y for x, y in zip(a, b)):
        raise ValueError("the edge ends do not sum to a + b")
    return u, v
