"""The op lists of the three workloads.

An op is one CLI invocation (``alcoved.cli.run(argv)``) or one direct
library call.  Each workload is a fixed list, run in the same order in
every pass, and every op has a digest recorded in ``digests.json``.
"""

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Spec:
    """A polytope: every simple root lies between ``lo`` and ``hi``."""

    type: str
    rank: int
    lo: int
    hi: int

    @property
    def label(self) -> str:
        return f"{self.type}{self.rank}[{self.lo}..{self.hi}]"

    def as_json(self) -> dict:
        constraints = [
            {"root": [1 if j == i else 0 for j in range(self.rank)],
             "min": self.lo, "max": self.hi}
            for i in range(self.rank)
        ]
        return {"type": self.type, "rank": self.rank, "constraints": constraints}


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` is ``cli``, ``bfs`` or ``reduce``.

    ``cli`` ops run ``argv``, with the literal ``SPEC`` standing for the
    path of ``spec`` written to disk.  ``bfs`` runs
    ``polytope.alcove_count_bfs`` on ``spec``; ``reduce`` runs
    ``geometry.reduce_to_fundamental`` on ``point`` (``(num, den)``
    pairs) in the root system ``type``/``rank``.  A ``known_defect`` op
    fails at the seed commit; it is checked by its theorem, not by digest.
    """

    kind: str
    argv: tuple = ()
    spec: Spec = None
    type: str = None
    rank: int = None
    point: tuple = None
    known_defect: bool = False

    @property
    def key(self) -> str:
        if self.kind == "cli":
            words = [self.spec.label if w == "SPEC" else w for w in self.argv]
            return " ".join(words)
        if self.kind == "bfs":
            return f"alcove_count_bfs {self.spec.label}"
        coords = ",".join(f"{n}/{d}" for n, d in self.point)
        return f"reduce_to_fundamental {self.type}{self.rank} ({coords})"


def cli(*words, spec=None) -> Op:
    return Op("cli", argv=tuple(words), spec=spec)


def typed(cmd, type_, rank, *extra) -> Op:
    return cli(cmd, "--type", type_, "--rank", str(rank), *extra)


def on_spec(cmd, spec, *extra) -> Op:
    return cli(cmd, "--spec", "SPEC", *extra, spec=spec)


# -- the workloads ---------------------------------------------------------
#
# Every op takes a few to a few tens of milliseconds, so that a pass is short,
# a run holds dozens of passes, and each op's fastest pass is one timed in a
# quiet moment of the host (see run.end_to_end).  The larger instances that
# these stand in for are named in the README.

GROUP = (
    typed("info", "E", 8, "--json"),
    typed("enumerate", "A", 4),
    typed("enumerate", "B", 3),
    typed("enumerate", "D", 4),
    typed("enumerate", "G", 2),
    typed("stats", "B", 2),
    typed("stats", "C", 2),
    typed("stats", "G", 2),
    typed("selfcheck", "A", 2),
    typed("selfcheck", "C", 2),
    typed("selfcheck", "G", 2),
    typed("qweyl", "A", 4),
    typed("qweyl", "B", 3),
    typed("qweyl", "D", 4),
    typed("cross-table", "B", 3),
    typed("cross-table", "C", 3),
    typed("cross-table", "A", 3, "--json"),
)


def _reduce_points(types):
    """Four fixed rational points per root system, as (num, den) pairs."""
    rng = random.Random(1202_4015)
    out = []
    for t, r in types:
        for _ in range(4):
            point = tuple((rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r))
            out.append(Op("reduce", type=t, rank=r, point=point))
    return out


SCAN = (
    typed("hypersimplex", "B", 4),
    typed("hypersimplex", "D", 4),
    typed("hypersimplex", "F", 4, "--k", "2"),
    typed("thick-check", "B", 2),
    typed("thick-check", "C", 2),
    on_spec("volume", Spec("B", 4, 0, 2)),
    on_spec("volume", Spec("D", 5, 0, 1)),
    on_spec("volume", Spec("A", 5, 0, 1)),
    on_spec("volume", Spec("C", 4, 0, 1), "--json"),
    on_spec("vol-identity", Spec("A", 3, 0, 2)),
    on_spec("vol-identity", Spec("B", 3, 0, 1)),
    on_spec("vol-identity", Spec("C", 3, 0, 1), "--json"),
    *(Op("bfs", spec=s) for s in (
        Spec("A", 2, 0, 2), Spec("A", 3, 0, 1), Spec("B", 2, 0, 2), Spec("C", 2, 0, 1),
        Spec("C", 2, -1, 1), Spec("G", 2, 0, 1))),
    *_reduce_points([("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                     ("G", 2), ("D", 4)]),
)

# Exits 2 at the seed commit: "414 simplices for a polytope of volume 48".
D4_DEFECT = replace(
    on_spec("triangulate", Spec("D", 4, 0, 1), "--json"), known_defect=True
)

TRIANGULATE = (
    on_spec("triangulate", Spec("A", 2, 0, 4)),
    on_spec("triangulate", Spec("A", 2, 0, 6)),
    on_spec("triangulate", Spec("C", 2, 0, 3)),
    on_spec("triangulate", Spec("C", 2, 0, 4), "--json"),
    on_spec("triangulate", Spec("A", 3, 0, 2)),
    on_spec("triangulate", Spec("A", 4, 0, 1), "--json"),
    on_spec("triangulate", Spec("C", 3, 0, 1)),
    on_spec("groebner", Spec("A", 3, 0, 2)),
    on_spec("groebner", Spec("A", 4, 0, 1)),
    on_spec("groebner", Spec("C", 3, 0, 1), "--json"),
    on_spec("groebner", Spec("C", 2, 0, 4)),
    D4_DEFECT,
)

WORKLOADS = {"group": GROUP, "scan": SCAN, "triangulate": TRIANGULATE}


def ops_for(workload: str, seed: int) -> list:
    """The ops of one pass.  The lists are fixed, so every seed gives the
    same ops: module caches then fill in the same order in every pass."""
    return list(WORKLOADS[workload])


def catalog() -> list:
    """Every op any workload runs, each once, known defects excluded."""
    return [op for ops in WORKLOADS.values() for op in ops if not op.known_defect]
