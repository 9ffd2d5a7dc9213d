"""Benchmark of weakfactor: one workload, end to end or traced.

    python3 perfbench/run.py --workload entrywise-n100 --seed 20260823 \\
        --seconds 20 --trace 0

Run it from the root of a checkout.  The package is imported from ./src and
driven in-process through ``weakfactor.cli.main`` (workloads.py says what
each workload runs and why).  A run makes one warm-up pass and then repeats
the workload's pass until --seconds of passes have been measured; every
pass's outputs are checked (checks.py).

With --trace 0 the last line reports the end-to-end metrics: replications
per second, set-up time (a fresh interpreter importing weakfactor.cli, the
median of SETUP_PROBES), peak resident memory, CPU seconds per replication,
and the share of replications that completed and passed the checks.  With
--trace 1 it reports the per-layer metrics of passes traced through
tracing.py, alternated with untraced passes to give the tracing overhead,
plus timings of the SVD kernel, and writes the spans of the last traced pass
to perfbench/out/<workload>/spans.jsonl.  Lines before the last start with
'#' and record the environment and each invocation's worker count and output
hash.

The benchmark sets no BLAS thread variables; it reports what it inherited.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import checks
import tracing
from workloads import DEFAULT_SEED, workloads

SETUP_PROBES = 3
KERNEL_SIZES = (100, 200, 400)
KERNEL_CALLS = 15
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_weakfactor(root: str):
    """Import weakfactor from `root`/src, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "weakfactor", "cli.py")):
        raise FileNotFoundError(f"no weakfactor sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import weakfactor.cli

    if not os.path.abspath(weakfactor.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"weakfactor was imported from {weakfactor.cli.__file__}, not {src}")
    return weakfactor


def setup_seconds(root: str) -> float:
    """Wall time of a fresh interpreter that imports weakfactor.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import weakfactor.cli"], cwd=root, env=env, check=True, timeout=60)
    return time.perf_counter() - start


def blas_threads(numpy) -> int | None:
    """Threads the bundled OpenBLAS uses, read through its own getter."""
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def kernel_timings(linalg, seed: int) -> dict:
    """Median time of svd_truncated(a, 1) on a rank-one-plus-noise matrix."""
    import numpy as np

    rng = np.random.default_rng(seed)
    metrics = {}
    for m in KERNEL_SIZES:
        u, v = rng.standard_normal(m), rng.standard_normal(m)
        a = m * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)) + rng.standard_normal((m, m))
        linalg.svd_truncated(a, 1)  # warm-up
        times = []
        for _ in range(KERNEL_CALLS):
            start = time.perf_counter()
            linalg.svd_truncated(a, 1)
            times.append(time.perf_counter() - start)
        metrics[f"linalg.svd_truncated_ms_n{m}"] = (1e3 * statistics.median(times), "ms")
    return metrics


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Run:
    """Passes of one workload at one seed, every output checked."""

    def __init__(self, wf, invocations, seed: int, outdir: str, reference: dict | None):
        self.wf = wf
        self.invocations = invocations
        self.seed = seed
        self.outdir = outdir
        self.reference = reference  # invocation name -> recorded call and summary
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}  # summaries of the first pass, the reference for later passes
        self.hashes = defaultdict(list)

    def do_pass(self, tracer=None) -> tuple[float, float]:
        """Run every invocation once; returns the pass's (wall, CPU) seconds."""
        paths = []
        for inv in self.invocations:
            for stale in glob.glob(os.path.join(glob.escape(self.outdir), inv.name + "*")):
                os.remove(stale)
            paths.append(os.path.join(self.outdir, inv.name + inv.suffix))
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            cpu = _cpu_seconds()
            start = time.perf_counter()
            codes = [self._invoke(inv, path) for inv, path in zip(self.invocations, paths)]
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
        for inv, path, code in zip(self.invocations, paths, codes):
            self._check(inv, path, code)
        return wall, cpu

    def _invoke(self, inv, path: str) -> int:
        try:
            if inv.is_library_call:
                module, function = inv.command.split(".")
                call = getattr(getattr(self.wf, module), function)
                result = call(**inv.options, reps=inv.reps, seed=self.seed)
                with open(path, "w") as fh:
                    json.dump(result, fh)
                return 0
            with contextlib.redirect_stdout(io.StringIO()):
                return self.wf.cli.main(inv.argv(self.seed, path))
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code
        except Exception:  # a crash fails this invocation, not the whole run
            traceback.print_exc()
            return -1

    def _check(self, inv, path: str, code: int) -> None:
        self.attempted += inv.replications
        if code != 0:
            problems, errored = [f"exit code {code}"], inv.replications
        else:
            out = checks.check(inv, path)
            self.hashes[inv.name].append(out.sha256)
            problems, errored = list(out.problems), out.errored
            if out.summary is not None:
                expected = self.first.setdefault(inv.name, out.summary)
                problems += checks.compare(out.summary, expected, "first pass")
                if self.reference is not None:
                    recorded = self.reference.get(inv.name)
                    if recorded is None or recorded["call"] != inv.record():
                        problems.append("no recorded reference for this call")
                    else:
                        problems += checks.compare(out.summary, recorded["summary"], "reference")
            if problems:
                errored = inv.replications
        self.failed += errored
        self.problems += [f"{inv.name}: {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured pass time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; no recorded references apply")
    args = parser.parse_args(argv)
    table = workloads(args.tiny)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(table)}")
    invocations = table[args.workload]

    root = os.getcwd()
    try:
        wf = load_weakfactor(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = os.path.join(root, "perfbench", "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    reference = None
    if not args.tiny:
        with open(REFERENCES) as fh:
            reference = json.load(fh).get(args.workload, {}).get(str(args.seed))

    env = environment()
    setup = [] if args.trace else [setup_seconds(root) for _ in range(SETUP_PROBES)]
    micro = kernel_timings(wf.linalg, args.seed) if args.trace else {}
    run = Run(wf, invocations, args.seed, outdir, reference)
    run.do_pass()  # warm-up: lazy imports, thread start-up, caches
    plain, traced = [], []  # (wall, cpu) and (spans, wall) per pass
    while (
        not plain or (args.trace and not traced)
        or sum(w for w, _ in plain) + sum(w for _, w in traced) < args.seconds
    ):
        if args.trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            wall, _ = run.do_pass(tracer)
            traced.append((tracer.spans, wall))
        else:
            plain.append(run.do_pass())

    reps = sum(inv.replications for inv in invocations)
    if args.trace:
        metrics = tracing.layer_metrics(traced, reps)
        metrics.update(micro)
        overhead = statistics.median(w for _, w in traced) - statistics.median(w for w, _ in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        with open(os.path.join(outdir, "spans.jsonl"), "w") as fh:  # the last traced pass
            for span in traced[-1][0]:
                fh.write(json.dumps(span._asdict(), default=repr) + "\n")
    else:
        metrics = {
            "reps_per_s": (statistics.median(reps / w for w, _ in plain), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cpu_s_per_rep": (statistics.median(c / reps for _, c in plain), "s"),
            "ok_frac": (1.0 - run.failed / run.attempted, "fraction"),
        }

    print("# environment " + json.dumps(env, sort_keys=True))
    print("# seed", args.seed, "reference", "recorded" if reference else "none",
          "setup_s", [round(s, 4) for s in setup])
    print("# pass wall s", [round(w, 4) for w, _ in plain], "traced", [round(w, 4) for _, w in traced])
    for inv in invocations:
        hashes = run.hashes[inv.name]
        print(f"# invocation {inv.name}: {inv.command} workers={inv.workers} "
              f"replications={inv.replications} sha256={hashes[0] if hashes else None} "
              f"identical_across_passes={len(set(hashes)) == 1}")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
