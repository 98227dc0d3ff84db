"""Alcoved polytopes: volume, lattice points and the volume identity.

A polytope is a pair of integer bounds ``(k, K)`` per positive root;
its normalized volume is the number of alcove central points inside it,
and ``lattice_point_count`` is the number of integral coweights.  Both,
and the arrangement vertices of ``groebner``, come from one numpy scan
of the integer box spanned by the dilated simple bounds, translated to
start at 0 so that any integer bounds are exact.  The scan adds one
simple-root coordinate at a time and drops a prefix as soon as a partial
pairing has passed its upper bound or can no longer reach its lower one;
a volume scan drops the points on a wall as each pairing becomes final,
and a scan that only counts never builds its last coordinate's points.
The families sliced along theta (the hypersimplices of the parallelepiped
and the thick hypersimplices of a list of boxes) are read off one scan
per side: a box list is scanned once, over its bounding box.
A scan runs in int16, int32 or int64, whichever is the narrowest to hold
twice the largest pairing over its translated box, and yields int64
points.  Only a box whose widths could take a pairing to 2^62 is
refused, so every count is exact or raises.
The volume identity Vol(P) = sum over W/C of #(P_(w) ∩ L) stays a check
of two different scans: central points at scale h on the left, and on
the right the lattice points of P at scale 1, each counted for the cosets
whose inversions fit its boundary pattern.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DEFAULT_BUDGET, UserInputError, charge, integer
from .rootsys import RootSystemData, build, pairing
from .weyl import WeylGroup


@dataclass(frozen=True)
class AlcovedPolytope:
    """Bounds ``k_a <= (lambda, a) <= K_a`` per positive root of ``rs``."""

    rs: RootSystemData
    bounds: tuple  # tuple of (k, K) pairs aligned with rs.positive_roots

    @property
    def is_empty(self) -> bool:
        """Whether some root's bounds cross, ``k > K``: the test that lets a
        scan stop at once.  It is not emptiness: bounds that each hold can
        still leave no point between them (the ``volume`` command tests
        that by a scan)."""
        return any(k > K for k, K in self.bounds)

    def simple_bounds(self) -> tuple:
        return tuple(self.bounds[i] for i in self.rs.simple_index)

    def contains_alcove(self, m) -> bool:
        """Whether an alcove with the given m-vector lies in the polytope."""
        return all(k <= mi <= K - 1 for mi, (k, K) in zip(m, self.bounds))


def make_polytope(rs: RootSystemData, constraints) -> AlcovedPolytope:
    """Build a polytope from ``(root, min, max)`` constraints.

    Constraints must bound every simple root.  A positive root without
    an explicit bound inherits the nonnegative-combination bound from
    the simple-root box; explicit bounds on non-simple roots are
    intersected with the inherited ones.  An empty intersection is
    allowed and yields an empty polytope, not an error.
    """
    user = {}
    for root, lo, hi in constraints:
        root = tuple(root)
        idx = rs.root_index(root)
        lo = integer(lo, f"bound min for root {root}")
        hi = integer(hi, f"bound max for root {root}")
        if lo > hi:
            raise UserInputError(f"bound min {lo} > max {hi} for root {root}")
        if idx in user:
            prev_lo, prev_hi = user[idx]
            lo, hi = max(lo, prev_lo), min(hi, prev_hi)
        user[idx] = (lo, hi)
    simple_idx = rs.simple_index
    for i, idx in enumerate(simple_idx):
        if idx not in user:
            raise UserInputError(
                f"no bound given for simple root {rs.simple_roots[i]}; "
                "the polytope would be unbounded"
            )
    bounds = []
    for idx, root in enumerate(rs.positive_roots):
        lo = sum(c * user[simple_idx[i]][0] for i, c in enumerate(root))
        hi = sum(c * user[simple_idx[i]][1] for i, c in enumerate(root))
        if idx in user:
            lo, hi = max(lo, user[idx][0]), min(hi, user[idx][1])
        bounds.append((lo, hi))
    return AlcovedPolytope(rs, tuple(bounds))


_INT64_HEADROOM = 2**62
_CHUNK_CELLS = 1 << 26  # cells per candidate block: 128 MB in int16, 0.5 GB in int64


def _scan(P: AlcovedPolytope, scale: int, budget: int, walls=False, count_only=False):
    """The integer points y with ``k*scale <= (y, a) <= K*scale`` for
    every bound ``(k, K)`` of P, after a translation; with ``walls``,
    only those with no pairing divisible by ``scale``.

    Returns ``(offset, chunks)``: ``offset`` is ``scale`` times the
    coweight of P's lower simple bounds, and ``chunks`` yields int64
    arrays of ``y - offset``, one row per point, in lexicographic order
    of y; with ``count_only`` it yields each block's number of rows, and
    no row of the last coordinate is built.  The scan runs over the box
    ``[0, (K_i - k_i)*scale]`` with every root bound shifted by
    ``(offset, a)``, so the kernel only holds box pairings, in the
    narrowest integer type that their ``reach`` allows; the offset is a
    multiple of ``scale``, so the shifted pairings keep their residues.
    Raises UserInputError when one could reach 2^62 (a wrapped int64
    would give a wrong count silently) and BudgetExceededError when the
    box has more than ``budget`` points.
    A candidate block has as many rows as fit ``_CHUNK_CELLS`` pairings.
    """
    rs = P.rs
    box = P.simple_bounds()
    offset = tuple(scale * k for k, _ in box)
    if P.is_empty:
        return offset, iter(())
    widths = [(K - k) * scale for k, K in box]
    reach = pairing(widths, rs.theta)  # the largest pairing in the box
    if reach >= _INT64_HEADROOM:
        raise UserInputError(
            f"a box of widths {widths} is too large to scan exactly in int64"
        )
    phase = f"{rs.type_label}{rs.rank} box scan at scale {scale}"
    charge(phase, math.prod(w + 1 for w in widths), "points", budget)
    lo, hi = _shifted_bounds(P, offset, scale, reach + 1)
    wall = scale if walls else 0
    chunk_rows = _CHUNK_CELLS // len(lo)
    return offset, _layers(rs, widths, reach, lo, hi, wall, chunk_rows, count_only)


def _shifted_bounds(P: AlcovedPolytope, offset, scale: int, top: int) -> tuple:
    """P's bounds times ``scale`` less ``(offset, a)``, as lists ``(lo, hi)``
    clipped to ``[-1, top]``.  Box pairings lie in ``[0, top)`` for a
    ``top`` past the box's reach, so the clip keeps every comparison and
    fits the bounds into the scan's integer type."""
    base = [sum(map(operator.mul, offset, root)) for root in P.rs.positive_roots]
    return tuple(
        [min(max(b * scale - o, -1), top) for b, o in zip(side, base)]
        for side in zip(*P.bounds)
    )


def _scan_dtype(reach: int):
    """The narrowest of int16, int32 and int64 with room for twice ``reach``:
    a scan's pairings lie in ``[0, reach]``, its bounds and floors in
    ``[-reach - 1, reach + 1]``."""
    if reach < 2**14:
        return np.int16
    return np.int32 if reach < 2**30 else np.int64


def _layers(rs, widths, reach: int, lo, hi, wall: int, chunk_rows: int, count_only):
    """The points of the box ``[0, widths]`` with pairings in ``[lo, hi]``
    and, for ``wall > 0``, none divisible by it, as int64 row blocks in
    lexicographic order; with ``count_only``, as the sizes of those
    blocks, counted from the last coordinate's survivors, not built.

    Every pairing, bound and candidate is held in ``_scan_dtype(reach)``:
    the bounds must lie in ``[-1, reach + 1]`` and the box pairings lie
    in ``[0, reach]``.  Coordinates and root coefficients are
    nonnegative, so pairings only grow: a prefix dies once a pairing
    passes ``hi`` or the most the later coordinates can add leaves it
    below ``lo``.  Past the first coordinate only the pairings that
    coordinate j moves are tested again, and only the surviving
    candidates are built.  A pairing is final, and tested for a wall, at
    the last simple root of its support.  A block whose extension would
    pass ``chunk_rows`` rows is extended in parts (single prefixes and
    runs of values if need be), in order, one candidate block at a time.
    """
    dtype = _scan_dtype(reach)
    roots, simple = rs.root_arrays[dtype], list(rs.simple_index)
    lo, hi = np.array((lo, hi), dtype=dtype)
    most = roots * np.array(widths, dtype=dtype)  # the most each coordinate adds
    later = most[:, ::-1].cumsum(axis=1, dtype=dtype)[:, ::-1] - most
    floors = (lo[:, None] - later).T  # floors[j]: least partial pairing after j
    moved = (np.arange(len(lo)), *rs.column_support[1:])

    def extend(block, j):
        tested = moved[j]
        final = np.searchsorted(tested, rs.column_final[j]) if wall else ()
        last = j + 1 == len(widths)
        count = widths[j] + 1  # values of coordinate j
        size, span = max(1, chunk_rows // count), min(count, chunk_rows)
        parts = itertools.product(range(0, len(block), size), range(0, count, span))
        for start, first in parts:
            values = np.arange(first, min(first + span, count), dtype=dtype)
            rows = block[start : start + size]
            cand = rows[:, None, tested] + values[:, None] * roots[tested, j]
            alive = (cand <= hi[tested]).all(axis=2)
            alive &= (cand >= floors[j][tested]).all(axis=2)
            if len(final):
                residues = cand[:, :, final]
                residues %= wall
                alive &= residues.all(axis=2)
                del residues
            del cand  # one candidate block at a time
            if last and count_only:
                yield int(np.count_nonzero(alive))
                continue
            row, value = np.nonzero(alive)
            columns = simple if last else slice(None)
            grown = rows[row][:, columns]
            grown += values[value, None] * roots[columns, j]
            if last:
                yield grown.astype(np.int64)
            elif len(grown):
                yield from extend(grown, j + 1)

    return extend(np.zeros((1, len(lo)), dtype=dtype), 0)


def volume(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> int:
    """Number of alcoves in P, counted through their central points.

    Those are the points ``y / h_star`` of the scan at scale h_star on
    no wall: ``k*h < (y, a) < K*h`` with ``(y, a)`` not divisible by h
    puts the alcove's ``m_a`` in ``[k, K - 1]``.
    """
    return sum(_scan(P, P.rs.h_star, budget, walls=True, count_only=True)[1])


def alcove_count_bfs(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> int:
    """Independent volume oracle: BFS over the facet-adjacency graph.

    Seeds at the first central point of the volume scan and walks the
    neighbor graph restricted to P, one tuple of root pairings per alcove
    (``geometry.neighbors``); the seed adds the scan's offset in Python
    ints, so the walk is exact at any offset.  For a convex (alcoved)
    polytope the count equals ``volume(P)``.
    """
    rs, h = P.rs, P.rs.h_star
    offset, chunks = _scan(P, h, budget, walls=True)
    ys = next((ys for ys in chunks if len(ys)), None)
    if ys is None:
        return 0
    y = [v + o for v, o in zip(ys[0].tolist(), offset)]
    seed = tuple(pairing(y, root) for root in rs.positive_roots)
    seen, queue = {seed}, [seed]
    phase = f"{rs.type_label}{rs.rank} alcove walk"
    while queue:
        for q in geometry.neighbors(rs, queue.pop()):
            if q not in seen and P.contains_alcove([v // h for v in q]):
                charge(phase, len(seen) + 1, "alcoves", budget)
                seen.add(q)
                queue.append(q)
    return len(seen)


def lattice_point_count(P: AlcovedPolytope, budget: int = DEFAULT_BUDGET) -> int:
    """The number of integral coweights in P."""
    return sum(_scan(P, 1, budget, count_only=True)[1])


def volume_identity_check(
    P: AlcovedPolytope, W: WeylGroup, budget: int = DEFAULT_BUDGET
) -> dict:
    """Both sides of Vol(P) = sum over cosets of lattice points of P_(w).

    The left side is ``volume``; the right one comes from one scan of P
    at scale 1.  P_(w) is ``k_a + i_a <= (lambda, a) <= K_a + i_a - 1``
    with ``i_a = 1`` at the inversions of w^-1, so a lattice point of P
    is in it when w^-1 inverts no root where ``(lambda, a) = k_a`` and
    every root where ``(lambda, a) = K_a``.  The points are counted per
    such boundary pattern, and a bool product with the inversion table
    finds the representatives each pattern fits.  ``per_coset`` follows
    ``W.coset_indices()``.  W must be the Weyl group of P's root system.
    """
    rs = P.rs
    if W.rs != rs:
        raise UserInputError(f"W is the Weyl group of {W.rs}, P a polytope of {rs}")
    vol = volume(P, budget)
    reps = W.coset_indices()
    inverted = W.z[W.inverse[reps]] @ rs.root_array.T < 0  # w(rho) is the z of w^-1
    forbidden = np.hstack([inverted, ~inverted]).T  # the roots each side may not meet
    per_coset = np.zeros(len(reps), dtype=np.int64)
    offset, chunks = _scan(P, 1, budget)
    lo, hi = np.array(_shifted_bounds(P, offset, 1, _INT64_HEADROOM), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // len(reps))  # patterns x reps cells per product
    for ys in chunks:
        pairings = ys @ rs.root_array.T
        bits = np.hstack([pairings == lo, pairings == hi])
        packed = np.packbits(bits, axis=1)  # one void key of whole bytes per row
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        patterns = bits[first]
        for s in range(0, len(patterns), step):
            per_coset += counts[s : s + step] @ ~(patterns[s : s + step] @ forbidden)
    per_coset = per_coset.tolist()
    total = sum(per_coset)
    return {
        "volume": vol,
        "coset_lattice_sum": total,
        "per_coset": per_coset,
        "identity_holds": vol == total,
    }


def parallelepiped(rs: RootSystemData) -> AlcovedPolytope:
    """The fundamental coweight box: 0..1 on every simple root."""
    return make_polytope(rs, [(s, 0, 1) for s in rs.simple_roots])


def adjacent_star(rs: RootSystemData) -> AlcovedPolytope:
    """All alcoves adjacent to the origin: -1..1 on every positive root."""
    return AlcovedPolytope(rs, tuple((-1, 1) for _ in rs.positive_roots))


def hypersimplex(rs: RootSystemData, k: int) -> AlcovedPolytope:
    """The k-th slice of the fundamental parallelepiped along theta."""
    k = integer(k, "hypersimplex index")
    if not 1 <= k <= rs.h_star - 1:
        raise UserInputError(f"hypersimplex index {k} out of range 1..{rs.h_star - 1}")
    constraints = [(s, 0, 1) for s in rs.simple_roots]
    constraints.append((rs.theta, k - 1, k))
    return make_polytope(rs, constraints)


def thick_hypersimplex(rs: RootSystemData, b, k: int, K: int) -> AlcovedPolytope:
    """Simple-root bounds 0..b_i with theta sliced to k..K."""
    b = tuple(integer(x, f"b_{i}") for i, x in enumerate(b, 1))
    k, K = integer(k, "k"), integer(K, "K")
    if len(b) != rs.rank or any(x < 0 for x in b):
        raise UserInputError("need one nonnegative bound per simple root")
    constraints = [(s, 0, bi) for s, bi in zip(rs.simple_roots, b)]
    if k > K:
        # empty slice; represent via an infeasible theta bound
        return AlcovedPolytope(
            rs, tuple((1, 0) for _ in rs.positive_roots)
        )
    constraints.append((rs.theta, k, K))
    return make_polytope(rs, constraints)


def _theta_slices(rs: RootSystemData, boxes, scale: int, walls: bool, budget: int) -> list:
    """Entry i lists, for box i of ``boxes``, the counts t of the points y
    of the box ``0..b_i`` with ``(y, theta) // scale = t``: at scale h
    with ``walls``, the central points with ``m_theta = t``; at scale 1,
    the lattice points with ``(lambda, theta) = t``.  All come from one
    scan of the bounding box of ``boxes``, charged once: its points with
    ``y_j <= b_j * scale`` are the points of b's own scan, since every
    root pairing grows with y."""
    top = [max((b[i] for b in boxes), default=0) for i in range(rs.rank)]
    P = make_polytope(rs, [(s, 0, t) for s, t in zip(rs.simple_roots, top)])
    chunks = _scan(P, scale, budget, walls)[1]
    marks, tops = np.array(rs.marks, dtype=np.int64), np.array(boxes, dtype=np.int64)
    counts = [np.zeros(pairing(b, rs.theta) + 1, dtype=np.int64) for b in boxes]
    for ys in chunks:
        t = (ys @ marks) // scale
        for counts_b, top_b in zip(counts, tops * scale):
            counts_b += np.bincount(t[(ys <= top_b).all(axis=1)], minlength=len(counts_b))
    return [counts_b.tolist() for counts_b in counts]


def hypersimplex_volumes(rs: RootSystemData, budget: int = DEFAULT_BUDGET) -> list:
    """``volume(hypersimplex(rs, k))`` for k = 1..h - 1 from one scan of
    the parallelepiped: Delta_k holds its alcoves with m_theta = k - 1,
    and none has m_theta = h - 1, the last slice."""
    return _theta_slices(rs, [(1,) * rs.rank], rs.h_star, True, budget)[0][:-1]


def thick_identity_check(
    rs: RootSystemData, boxes, budget: int = DEFAULT_BUDGET
) -> dict:
    """Volume of a thick hypersimplex against its slice decomposition, for
    every box b in ``boxes`` and window ``0 <= k <= K <= (b, theta)``,
    keyed by ``(b, k, K)``.

    An alcove of the layer-l hypersimplex translated by a coweight mu
    lies in the thick hypersimplex exactly when mu fits the shrunken box
    with theta between k - l + 1 and K - l; summing the lattice counts
    over the layers therefore reproduces the volume.  The sides come
    from different scans, three in all: the volumes from the central
    points of the bounding box of the boxes ``0..b_i``, the layers from
    those of the parallelepiped and from the lattice points of the
    bounding box of the boxes ``0..b_i - 1``.  The budget bounds each
    bounding box, so it may refuse boxes that it admits one by one.
    """
    boxes = [tuple(integer(x, f"b_{i}") for i, x in enumerate(b, 1)) for b in boxes]
    if any(len(b) != rs.rank or any(x < 1 for x in b) for b in boxes):
        raise UserInputError(
            "thick-hypersimplex identity needs one b_i >= 1 per simple root"
        )
    thick = _theta_slices(rs, boxes, rs.h_star, True, budget)
    inner = _theta_slices(rs, [[x - 1 for x in b] for b in boxes], 1, False, budget)
    layer_volumes = hypersimplex_volumes(rs, budget)
    reports = {}
    for b, thick_b, inner_b in zip(boxes, thick, inner):
        # window k..K sums slices k..K - 1 of thick and k - l + 1..K - l of
        # inner: differences of prefix sums, row K less row k
        thick_sums = list(itertools.accumulate(thick_b, initial=0))
        padded = inner_b + [0] * (len(thick_b) - len(inner_b))
        inner_sums = list(itertools.accumulate(padded, initial=0))
        rows = [
            [vol * inner_sums[max(j - i, 0)] for i, vol in enumerate(layer_volumes)]
            for j in range(len(thick_b))
        ]
        row_sums = [sum(row) for row in rows]
        for k, K in itertools.combinations_with_replacement(range(len(thick_b)), 2):
            lhs = thick_sums[K] - thick_sums[k]
            total = row_sums[K] - row_sums[k]
            reports[b, k, K] = {
                "volume": lhs,
                "slice_sum": total,
                "per_layer": [x - y for x, y in zip(rows[K], rows[k])],
                "identity_holds": lhs == total,
            }
    return reports


def _fields(obj, keys: tuple, what: str) -> list:
    """The values of ``keys`` in the JSON object ``obj``; an object that
    holds any other key is malformed."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} is not a JSON object")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"unknown {what} key {', '.join(map(repr, unknown))}")
    return [obj[k] for k in keys]


def spec_to_polytope(spec: dict) -> AlcovedPolytope:
    """Parse a PolytopeSpec JSON object {type, rank, constraints}, each
    constraint {root, min, max}; any other key is a UserInputError."""
    try:
        type_label, rank, cons = _fields(spec, ("type", "rank", "constraints"), "spec")
        rs = build(type_label, rank)
        constraints = []
        for c in cons:
            root, lo, hi = _fields(c, ("root", "min", "max"), "constraint")
            root = tuple(integer(x, "root coordinate") for x in root)
            constraints.append((root, lo, hi))
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed polytope spec: {exc}") from exc
    return make_polytope(rs, constraints)
