"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Run from the root of a checkout.  Makes one pass of every workload at the
default and the held-out seed and writes perfbench/references.json.  Record
again only for a change that is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DEFAULT_SEED, HELD_OUT_SEED, workloads


def main() -> int:
    root = os.getcwd()
    wf = run.load_weakfactor(root)
    references = {}
    for name, invocations in workloads().items():
        outdir = os.path.join(root, "perfbench", "out", name)
        os.makedirs(outdir, exist_ok=True)
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            bench = run.Run(wf, invocations, seed, outdir, reference=None)
            bench.do_pass()
            if bench.problems:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                inv.name: {"call": inv.record(), "summary": bench.first[inv.name]}
                for inv in invocations
            }
            print(f"recorded {name} at seed {seed}", file=sys.stderr)
    with open(run.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
