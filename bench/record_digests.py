"""Record the stdout digest of every op any workload can run.

    PYTHONPATH=src python3 bench/record_digests.py

Run from the repository root at the commit whose outputs are the
reference.  Every output must also pass its theorem check.  Writes
bench/digests.json.
"""

import json
import os
import sys
import tempfile

import worker
import workloads


def main() -> int:
    alcoved = worker.import_alcoved()
    ops = workloads.catalog()
    digests = {}
    os.makedirs(worker.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as workdir:
        inputs = worker.prepare(ops, workdir)
        for op, inp in zip(ops, inputs):
            code, out, err = worker.execute(alcoved, op, inp)
            problem = f"exit {code}: {err.strip()}" if code else (
                worker.theorem_problem(alcoved, op, inp, out))
            if problem:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = worker.digest(out)
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {worker.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
