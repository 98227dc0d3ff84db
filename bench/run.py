"""Benchmark of alcoved: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload group --seed 1 --seconds 40 --trace 0

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (bench/worker.py) with one client issuing ops in a closed
loop; passes repeat until ``--seconds`` is spent.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of traced
passes plus the tracing overhead against untraced passes of the same run.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("rootsys.build.calls", "count"), ("rootsys.build.self_s", "s"),
    ("weyl.enumerate.self_s", "s"), ("weyl.enumerate.elements", "count"),
    ("weyl.enumerate.elements_per_s", "1/s"),
    ("statistics.group_C.self_s", "s"),
    ("statistics.coset_reps.self_s", "s"), ("statistics.coset_reps.count", "count"),
    ("statistics.coset_reps.pair_checks", "count"),
    ("statistics.checks.self_s", "s"),
    ("polytope.volume.calls", "count"), ("polytope.volume.self_s", "s"),
    ("polytope.volume.points", "count"), ("polytope.volume.hits", "count"),
    ("polytope.volume.hit_ratio", "ratio"),
    ("polytope.lattice.calls", "count"), ("polytope.lattice.self_s", "s"),
    ("polytope.lattice.points", "count"), ("polytope.lattice.hits", "count"),
    ("polytope.identity.self_s", "s"),
    ("geometry.neighbors.calls", "count"), ("geometry.self_s", "s"),
    ("groebner.vertices.self_s", "s"), ("groebner.vertices.count", "count"),
    ("groebner.vertices.box_points", "count"),
    ("groebner.rules.self_s", "s"), ("groebner.rules.count", "count"),
    ("groebner.cliques.self_s", "s"), ("groebner.simplices", "count"),
    ("groebner.validate.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"),
    ("check.self_s", "s"), ("compute.self_s", "s"),
    ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # numpy must start no idle thread pools; alcoved's int64 @ uses no BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, root: str, trace: int = 0, setup_only: bool = False) -> dict:
    """Start one worker; returns its report with ``setup_s`` added.

    ``setup_s`` runs from just before the process is started until it
    reports ``ready``, after importing alcoved and writing its inputs.
    """
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {code}")
    report = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    report["setup_s"] = ready - start
    report["duration_s"] = time.perf_counter() - start
    return report


def run_passes(args, root, kinds, start) -> list:
    """Passes cycling through ``kinds`` (trace flags) until time is spent.

    A new cycle starts only when it still fits into ``--seconds``, counted
    from ``start`` and at the pace of the slowest pass so far; one cycle
    always runs.
    """
    passes = []
    while True:
        for trace in kinds:
            report = spawn(args, root, trace)
            report["traced"] = bool(trace)
            passes.append(report)
        elapsed = time.perf_counter() - start
        slowest = max(p["duration_s"] for p in passes)
        if elapsed + slowest * len(kinds) > args.seconds:
            return passes


def fastest_ops(passes) -> list:
    """Each op's fastest latency (ms) over the passes, in op order."""
    return [min(samples) for samples in zip(*(p["latencies_ms"] for p in passes))]


def end_to_end(passes, setups) -> dict:
    """Run-level figures from the passes of one run.

    The CPU speed of a shared host changes from one moment to the next,
    and for minutes at a time, so a pass that overlaps a slow moment is
    slower as a whole.  Each op is therefore taken at its fastest pass
    (best of N, as timeit does), and ``wall_s`` is the sum of these
    fastest op latencies: the time of one pass in which no op was slowed.
    """
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": sum(fastest_ops(passes)) / 1000.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes, problems) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [p["layers"]["counts"] for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("computed counts differ between traced passes")
    values = {name: 0 for name, _ in PER_LAYER}
    values.update(counts[0])
    for name in traced[0]["layers"]["times"]:
        values[name] = statistics.fmean(p["layers"]["times"][name] for p in traced)
    enum_s = values["weyl.enumerate.self_s"]
    if enum_s > 0:
        values["weyl.enumerate.elements_per_s"] = values["weyl.enumerate.elements"] / enum_s
    if values["polytope.volume.points"]:
        values["polytope.volume.hit_ratio"] = (
            values["polytope.volume.hits"] / values["polytope.volume.points"])
    values["trace.overhead"] = sum(fastest_ops(traced)) / sum(fastest_ops(plain)) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()

    start = time.perf_counter()
    try:
        if args.trace:
            passes = run_passes(args, root, (0, 1), start)
            setups = []
        else:
            spawn(args, root, setup_only=True)  # warm-up: bytecode and file cache
            setups = [spawn(args, root, setup_only=True)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            passes = run_passes(args, root, (0,), start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [msg for p in passes for msg in p["wrong"]]
    if args.trace:
        metrics, units = per_layer(passes, problems), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(passes, setups), dict(END_TO_END)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) + len(p["wrong"]) for p in passes)

    ops = passes[0]["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"of {ops} ops ({len(passes) * ops} latency samples)"
          + ("" if args.trace else f", {len(setups) + len(passes)} set-up samples"))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for msg in sorted(set(m for p in passes for m in p["failures"])):
        print(f"  failed: {msg}")
    for msg in sorted(set(problems)):
        print(f"  WRONG: {msg}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
