"""Spans and computed work counts at the layer boundaries of alcoved.

``install()`` wraps the public functions listed in ``WRAPS`` in every
alcoved namespace that binds them (``statistics`` does ``from .weyl
import enumerate_weyl`` while ``cli`` calls ``weyl.enumerate_weyl``, so
both bindings must change).  Spans stay in memory as ``[name, start,
end, parent, op]`` lists; self time is a span's duration minus that of
its child spans.  Counts are computed from arguments and return values,
not read from the library.
"""

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# Spans whose time is self-check cost rather than compute cost.
CHECK_SPANS = frozenset({"statistics.checks", "polytope.identity", "groebner.validate"})


def _volume_counts(counts, result, P, *args, **kwargs):
    if not P.is_empty:
        h = P.rs.h_star
        counts["polytope.volume.points"] += math.prod((K - k) * h + 1 for k, K in P.simple_bounds())
    counts["polytope.volume.hits"] += result


def _lattice_counts(counts, result, P, *args, **kwargs):
    if not P.is_empty:
        counts["polytope.lattice.points"] += math.prod(K - k + 1 for k, K in P.simple_bounds())
    counts["polytope.lattice.hits"] += result


def _enumerate_counts(counts, result, *args, **kwargs):
    counts["weyl.enumerate.elements"] += len(result)


def _coset_counts(counts, result, *args, **kwargs):
    n = len(result)
    counts["statistics.coset_reps.count"] += n
    counts["statistics.coset_reps.pair_checks"] += n * (n - 1) // 2


def _vertex_counts(counts, result, P, *args, **kwargs):
    # Candidates come from the simple-root box scaled by the denominator
    # of the vertex-lattice basis: lcm of the marks in types A and C, 2 in D4.
    rs = P.rs
    denom = 2 if rs.type_label == "D" else math.lcm(*rs.marks)
    if not P.is_empty:
        counts["groebner.vertices.box_points"] += math.prod(
            (K - k) * denom + 1 for k, K in P.simple_bounds()
        )
    counts["groebner.vertices.count"] += len(result)


def _rule_counts(counts, result, rewriter, *args, **kwargs):
    counts["groebner.rules.count"] += len(rewriter.rules)


def _simplex_counts(counts, result, *args, **kwargs):
    counts["groebner.simplices"] += len(result)


# (module, attribute, span name, counter).  A class attribute is given
# as "Class.method".  Hot inner helpers (cdes, descents, mat_mul,
# alcove_of) are left alone.
WRAPS = (
    ("cli", "run", "cli", None),
    ("rootsys", "build", "rootsys.build", None),
    ("weyl", "enumerate_weyl", "weyl.enumerate", _enumerate_counts),
    ("statistics", "group_C", "statistics.group_C", None),
    ("statistics", "coset_representatives", "statistics.coset_reps", _coset_counts),
    ("statistics", "qweyl_check", "statistics.checks", None),
    ("statistics", "double_coset_check", "statistics.checks", None),
    ("statistics", "cmaj_twist_check", "statistics.checks", None),
    ("statistics", "hypersimplex_statistic_check", "statistics.checks", None),
    ("statistics", "cmaj_cross_table", "statistics.checks", None),
    ("polytope", "volume", "polytope.volume", _volume_counts),
    ("polytope", "lattice_point_count", "polytope.lattice", _lattice_counts),
    ("polytope", "volume_identity_check", "polytope.identity", None),
    ("polytope", "thick_identity_check", "polytope.identity", None),
    ("geometry", "neighbors", "geometry.neighbors", None),
    ("geometry", "reduce_to_fundamental", "geometry.reduce", None),
    ("groebner", "polytope_vertices", "groebner.vertices", _vertex_counts),
    ("groebner", "Rewriter.__init__", "groebner.rules", _rule_counts),
    ("groebner", "groebner_basis", "groebner.rules", None),
    ("groebner", "triangulate", "groebner.cliques", _simplex_counts),
    ("groebner", "Rewriter._validate_triangulation", "groebner.validate", None),
)


class Recorder:
    """In-memory spans and counts for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.op = -1
        self.active = True

    def wrap(self, fn, name, counter):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op]
            rec.spans.append(span)
            rec.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if counter is not None:
                counter(rec.counts, result, *args, **kwargs)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self time and inclusive check time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        check_s = 0.0
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            if name in CHECK_SPANS and not self._under_check(parent):
                check_s += end - start
        return {"calls": calls, "self_s": self_s, "check_s": check_s}

    def _under_check(self, sid) -> bool:
        while sid >= 0:
            if self.spans[sid][0] in CHECK_SPANS:
                return True
            sid = self.spans[sid][3]
        return False


def install(package) -> Recorder:
    """Wrap every function in WRAPS wherever alcoved binds it."""
    rec = Recorder()
    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(package.__name__ + ".")]
    for mod_name, attr, name, counter in WRAPS:
        owner = getattr(package, mod_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, rec.wrap(getattr(cls, method), name, counter))
            continue
        original = getattr(owner, attr)
        wrapped = rec.wrap(original, name, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return rec
