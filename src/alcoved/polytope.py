"""Alcoved polytopes: volume, lattice points and the volume identity.

A polytope is a pair of integer bounds ``(k, K)`` per positive root;
its normalized volume is the number of alcove central points inside it,
and ``lattice_point_count`` is the number of integral coweights.  Both
enumerations run over integer boxes with numpy; a box whose pairings
could leave int64 is refused, so every count is exact or raises.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import geometry
from .errors import BudgetExceededError, UserInputError
from .rootsys import RootSystemData, build, pairing
from .weyl import WeylElement, inv

DEFAULT_POINT_BUDGET = 10**8


@dataclass(frozen=True)
class AlcovedPolytope:
    """Bounds ``k_a <= (lambda, a) <= K_a`` per positive root of ``rs``."""

    rs: RootSystemData
    bounds: tuple  # tuple of (k, K) pairs aligned with rs.positive_roots

    @property
    def is_empty(self) -> bool:
        return any(k > K for k, K in self.bounds)

    def bound(self, root) -> tuple:
        return self.bounds[self.rs.root_index(root)]

    def simple_bounds(self) -> tuple:
        return tuple(self.bounds[self.rs.root_index(s)] for s in self.rs.simple_roots)

    def contains_coweight(self, point) -> bool:
        return all(
            k <= pairing(point, root) <= K
            for root, (k, K) in zip(self.rs.positive_roots, self.bounds)
        )

    def contains_alcove(self, m) -> bool:
        """Whether an alcove with the given m-vector lies in the polytope."""
        return all(k <= mi <= K - 1 for mi, (k, K) in zip(m, self.bounds))


def _integer(value, what: str) -> int:
    """``value`` as an int; bools, strings and non-integral numbers raise."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise UserInputError(f"{what} must be an integer, got {value!r}")


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
        lo = _integer(lo, f"bound min for root {root}")
        hi = _integer(hi, f"bound max for root {root}")
        if lo > hi:
            raise UserInputError(f"bound min {lo} > max {hi} for root {root}")
        if idx in user:
            prev_lo, prev_hi = user[idx]
            lo, hi = max(lo, prev_lo), min(hi, prev_hi)
        user[idx] = (lo, hi)
    simple_idx = [rs.root_index(s) for s in rs.simple_roots]
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


def _scan_arrays(P: AlcovedPolytope, scale: int) -> tuple:
    """The box of a scan (simple bounds times ``scale``), the root matrix
    (rank x nroots) and the bound vectors of P, as int64 arrays.

    Raises UserInputError unless every pairing of a box point with a
    root stays below 2^62 in absolute value: a wrapped int64 would give
    a wrong count silently.
    """
    rs = P.rs
    box = P.simple_bounds()
    top = max(max(abs(k), abs(K)) for k, K in box)
    if top * rs.h_star * sum(rs.theta) >= _INT64_HEADROOM:
        raise UserInputError(
            f"bounds up to {top} in absolute value are too large to scan "
            "exactly in int64"
        )
    lo_hi = [(k * scale, K * scale) for k, K in box]
    roots = np.array(rs.positive_roots, dtype=np.int64).T
    k_vec = np.array([k for k, _ in P.bounds], dtype=np.int64)
    K_vec = np.array([K for _, K in P.bounds], dtype=np.int64)
    return lo_hi, roots, k_vec, K_vec


def _box_iter(ranges, budget, chunk_rows=1 << 21):
    """Yield int64 arrays of all integer points of a box, in chunks."""
    sizes = [hi - lo + 1 for lo, hi in ranges]
    total = 1
    for s in sizes:
        total *= s
    if total > budget:
        raise BudgetExceededError(
            f"box of {total} candidate points exceeds budget {budget}"
        )
    if total == 0:
        return
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges]
    tail_size = total // sizes[0]
    if tail_size == 0:
        return
    per_chunk = max(1, chunk_rows // max(tail_size, 1))
    tail = axes[1:]
    for start in range(0, sizes[0], per_chunk):
        head = axes[0][start : start + per_chunk]
        grids = np.meshgrid(head, *tail, indexing="ij")
        yield np.stack([g.ravel() for g in grids], axis=1)


def volume(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """Number of alcoves in P, counted through their central points."""
    if P.is_empty:
        return 0
    h = P.rs.h_star
    lo_hi, roots, k_vec, K_vec = _scan_arrays(P, h)
    count = 0
    for ys in _box_iter(lo_hi, budget):
        pairings = ys @ roots
        m = pairings // h
        mask = (pairings % h != 0).all(axis=1)
        mask &= (m >= k_vec).all(axis=1) & (m <= K_vec - 1).all(axis=1)
        count += int(mask.sum())
    return count


def central_points(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET):
    """Central points of the alcoves of P (as geometry.CentralPoint)."""
    if P.is_empty:
        return
    h = P.rs.h_star
    lo_hi, roots, k_vec, K_vec = _scan_arrays(P, h)
    for ys in _box_iter(lo_hi, budget):
        pairings = ys @ roots
        m = pairings // h
        mask = (pairings % h != 0).all(axis=1)
        mask &= (m >= k_vec).all(axis=1) & (m <= K_vec - 1).all(axis=1)
        for y in ys[mask]:
            yield geometry.CentralPoint(P.rs, tuple(int(v) for v in y))


def alcove_count_bfs(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """Independent volume oracle: BFS over the facet-adjacency graph.

    Seeds at the first central point found by enumeration and walks the
    neighbor graph restricted to P.  For a convex (alcoved) polytope the
    count equals ``volume(P)``.
    """
    seed = next(central_points(P, budget), None)
    if seed is None:
        return 0
    seen = {seed.y}
    queue = [seed]
    while queue:
        z = queue.pop()
        for nb in geometry.neighbors(z):
            if nb.y in seen:
                continue
            if P.contains_alcove(geometry.alcove_of(nb).m):
                if len(seen) >= budget:
                    raise BudgetExceededError("BFS exceeded the point budget")
                seen.add(nb.y)
                queue.append(nb)
    return len(seen)


def lattice_point_count(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """The number of integral coweights in P."""
    if P.is_empty:
        return 0
    lo_hi, roots, k_vec, K_vec = _scan_arrays(P, 1)
    count = 0
    for lams in _box_iter(lo_hi, budget):
        pairings = lams @ roots
        mask = (pairings >= k_vec).all(axis=1) & (pairings <= K_vec).all(axis=1)
        count += int(mask.sum())
    return count


def translated_polytope(P: AlcovedPolytope, w: WeylElement) -> AlcovedPolytope:
    """The polytope whose lattice points index the w-translates of alcoves in P."""
    winv = w.inverse()
    bounds = []
    for root, (k, K) in zip(P.rs.positive_roots, P.bounds):
        d = inv(winv, root)
        bounds.append((k + d, K + d - 1))
    return AlcovedPolytope(P.rs, tuple(bounds))


def volume_identity_check(P: AlcovedPolytope, budget: int = DEFAULT_POINT_BUDGET) -> dict:
    """Both sides of Vol(P) = sum over cosets of lattice points of P_(w)."""
    from .statistics import coset_representatives  # circular at module level

    vol = volume(P, budget)
    per_coset = []
    for w in coset_representatives(P.rs):
        per_coset.append(lattice_point_count(translated_polytope(P, w), budget))
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
    if not 1 <= k <= rs.h_star - 1:
        raise UserInputError(
            f"hypersimplex index {k} out of range 1..{rs.h_star - 1}"
        )
    constraints = [(s, 0, 1) for s in rs.simple_roots]
    constraints.append((rs.theta, k - 1, k))
    return make_polytope(rs, constraints)


def thick_hypersimplex(rs: RootSystemData, b, k: int, K: int) -> AlcovedPolytope:
    """Simple-root bounds 0..b_i with theta sliced to k..K."""
    b = tuple(int(x) for x in b)
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


def thick_identity_check(
    rs: RootSystemData, b, k: int, K: int, budget: int = DEFAULT_POINT_BUDGET
) -> dict:
    """Volume of a thick hypersimplex against its slice decomposition.

    An alcove of the layer-l hypersimplex translated by a coweight mu
    lies in the thick hypersimplex exactly when mu fits the shrunken box
    with theta between k - l + 1 and K - l; summing the lattice counts
    over the layers therefore reproduces the volume.
    """
    lhs = volume(thick_hypersimplex(rs, b, k, K), budget)
    b_minus = [x - 1 for x in b]
    if any(x < 0 for x in b_minus):
        raise UserInputError("thick-hypersimplex identity needs all b_i >= 1")
    terms = []
    for layer in range(1, rs.h_star):
        vol_layer = volume(hypersimplex(rs, layer), budget)
        inner = thick_hypersimplex(rs, b_minus, k - layer + 1, K - layer)
        terms.append(vol_layer * lattice_point_count(inner, budget))
    total = sum(terms)
    return {
        "volume": lhs,
        "slice_sum": total,
        "per_layer": terms,
        "identity_holds": lhs == total,
    }


def spec_to_polytope(spec: dict) -> AlcovedPolytope:
    """Parse a PolytopeSpec JSON object {type, rank, constraints}."""
    try:
        rs = build(spec["type"], _integer(spec["rank"], "rank"))
        constraints = [
            (tuple(_integer(x, "root coordinate") for x in c["root"]), c["min"], c["max"])
            for c in spec["constraints"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed polytope spec: {exc}") from exc
    return make_polytope(rs, constraints)
