"""One pass of one workload, in a fresh interpreter started by run.py.

The worker imports alcoved from ``src/`` of the current directory,
writes the workload's inputs and prints ``ready``; that is the end of
set-up.  It then runs every op in order through ``alcoved.cli.run`` or
the library, checks every output against ``digests.json`` and against
the theorem the output carries, and prints one JSON line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK = ".bench_work"


def import_alcoved():
    import alcoved

    expected = os.path.join(os.getcwd(), "src", "alcoved")
    if os.path.dirname(os.path.abspath(alcoved.__file__)) != expected:
        raise SystemExit(f"alcoved was imported from {alcoved.__file__}, not {expected}")
    return alcoved


def prepare(ops, workdir) -> list:
    """Write each spec once and return the input of every op."""
    paths = {}
    inputs = []
    for op in ops:
        if op.kind == "cli":
            if op.spec is not None and op.spec not in paths:
                path = os.path.join(workdir, f"spec{len(paths)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op.spec.as_json(), fh)
                paths[op.spec] = path
            inputs.append([paths[op.spec] if w == "SPEC" else w for w in op.argv])
        elif op.kind == "bfs":
            inputs.append(op.spec.as_json())
        else:
            inputs.append(tuple(Fraction(n, d) for n, d in op.point))
    return inputs


def execute(alcoved, op, inp) -> tuple:
    """Run one op; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.kind == "cli":
                code = alcoved.cli.run(inp)
            elif op.kind == "bfs":
                P = alcoved.polytope.spec_to_polytope(inp)
                print(alcoved.polytope.alcove_count_bfs(P))
                code = 0
            else:
                rs = alcoved.rootsys.build(op.type, op.rank)
                sigma, image = alcoved.geometry.reduce_to_fundamental(rs, inp)
                print(json.dumps({
                    "linear": [[str(x) for x in row] for row in sigma.linear],
                    "translation": [str(x) for x in sigma.translation],
                    "image": [str(x) for x in image],
                }))
                code = 0
        except Exception:  # one failing op must not stop the pass
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_output(text: str) -> dict:
    """Read ``--json`` output, or the ``key: value`` lines of plain output."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if value in ("True", "False"):
            report[key] = value == "True"
            continue
        try:
            report[key] = json.loads(value)
        except json.JSONDecodeError:
            report[key] = value
    return report


def theorem_problem(alcoved, op, inp, text):
    """The theorem an op's output carries, checked; None when it holds."""
    if op.kind == "bfs":
        P = alcoved.polytope.spec_to_polytope(inp)
        expected = alcoved.polytope.volume(P)
        return None if int(text) == expected else f"BFS found {text.strip()} alcoves, volume {expected}"
    if op.kind == "reduce":
        return reduction_problem(alcoved, op, inp, json.loads(text))
    cmd = op.argv[0]
    report = parse_output(text)
    if cmd == "enumerate" and report["count"] != report["order_formula"]:
        return f"|W| = {report['count']}, order formula {report['order_formula']}"
    if cmd == "selfcheck" and False in report["checks"].values():
        return "selfcheck reports a failed check"
    if cmd == "triangulate" and len(report["simplices"]) != report["volume"]:
        return f"{len(report['simplices'])} simplices for volume {report['volume']}"
    if cmd == "vol-identity" and report["volume"] != report["coset_lattice_sum"]:
        return "volume differs from the coset lattice-point sum"
    if cmd == "qweyl" and not (report["identity_holds"] and report["scalar_holds"]):
        return "q-Weyl identity does not hold"
    if cmd == "thick-check" and not report["identity_holds"]:
        return "thick hypersimplex identity does not hold"
    return None


def reduction_problem(alcoved, op, point, report):
    """sigma(point) must equal the image, and the image lie in the closed A_o."""
    linear = [[Fraction(x) for x in row] for row in report["linear"]]
    translation = [Fraction(x) for x in report["translation"]]
    image = [Fraction(x) for x in report["image"]]
    moved = [sum(a * p for a, p in zip(row, point)) + t for row, t in zip(linear, translation)]
    if moved != image:
        return "sigma does not map the point onto its image"
    theta = alcoved.rootsys.build(op.type, op.rank).theta
    if min(image) < 0 or sum(y * c for y, c in zip(image, theta)) > 1:
        return "image lies outside the closed fundamental alcove"
    return None


def layer_values(rec, latencies, output_bytes) -> dict:
    """Per-layer self times and computed counts of one traced pass."""
    summary = rec.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    counts = dict(rec.counts)
    counts["rootsys.build.calls"] = calls["rootsys.build"]
    counts["polytope.volume.calls"] = calls["polytope.volume"]
    counts["polytope.lattice.calls"] = calls["polytope.lattice"]
    counts["geometry.neighbors.calls"] = calls["geometry.neighbors"]
    counts["cli.output_bytes"] = output_bytes
    times = {
        f"{name}.self_s": self_s[name]
        for name in ("rootsys.build", "weyl.enumerate", "statistics.group_C",
                     "statistics.coset_reps", "statistics.checks", "polytope.volume",
                     "polytope.lattice", "polytope.identity", "groebner.vertices",
                     "groebner.rules", "groebner.cliques", "groebner.validate", "cli")
    }
    times["geometry.self_s"] = self_s["geometry.neighbors"] + self_s["geometry.reduce"]
    times["check.self_s"] = summary["check_s"]
    times["compute.self_s"] = sum(latencies) - summary["check_s"]
    return {"counts": counts, "times": times}


def run_pass(alcoved, ops, inputs, rec) -> dict:
    results, latencies = [], []
    for i, (op, inp) in enumerate(zip(ops, inputs)):
        if rec is not None:
            rec.op = i
        t0 = time.perf_counter()
        results.append(execute(alcoved, op, inp))
        latencies.append(time.perf_counter() - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.active = False

    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    failures, wrong = [], []
    output_bytes = 0
    for op, inp, (code, out, err) in zip(ops, inputs, results):
        if op.kind == "cli":
            output_bytes += len(out.encode("utf-8"))
        if code != 0:
            first = err.strip().splitlines()[-1:] or [""]
            failures.append(f"{op.key}: exit {code}: {first[0]}")
            continue
        if not op.known_defect:
            got, want = digest(out), expected.get(op.key, "not recorded")
            if got != want:
                wrong.append(f"{op.key}: output digest {got}, expected {want}")
                continue
        try:
            problem = theorem_problem(alcoved, op, inp, out)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"unreadable output ({exc!r})"
        if problem:
            wrong.append(f"{op.key}: {problem}")
    report = {
        "latencies_ms": [x * 1000.0 for x in latencies],
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "wrong": wrong,
    }
    if rec is not None:
        report["layers"] = layer_values(rec, latencies, output_bytes)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    alcoved = import_alcoved()
    ops = workloads.ops_for(args.workload, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = prepare(ops, workdir)
        rec = tracing.install(alcoved) if args.trace else None
        print("ready", flush=True)
        if args.setup_only:
            return 0
        report = run_pass(alcoved, ops, inputs, rec)
        if rec is not None:
            spans = os.path.join(WORK, f"spans-{args.workload}.json")
            with open(spans, "w", encoding="utf-8") as fh:
                json.dump({"ops": [op.key for op in ops], "spans": rec.spans}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
