"""The benchmark's workloads: the weakfactor calls one pass makes.

A workload is a fixed list of invocations, so its input size is fixed: the
replications of a pass are each invocation's declared ``reps`` times its grid
points, summed.  Most invocations are ``weakfactor.cli.main`` subcommands;
``noise_norm_check`` and ``calibrate_c0`` have no subcommand and are called
through the library.

Why each workload exists:

- ``entrywise-n100``: the paper's design size, where one cell takes a few
  milliseconds, so per-cell fixed costs dominate (instance rebuild and
  validation in ``model``, a two-point pair per replication in
  ``adversarial``, repeated SVDs in ``entrywise``, thread dispatch and BLAS
  oversubscription in ``montecarlo``).  Runs with one worker per core.
- ``panel-n100``: the ``panel`` layer, alternating least squares and the trace
  estimator.  ``weak_d`` because a weak regressor spectrum is where an
  iterative top-k solver converges slowest.  One worker per core.
- ``n400``: plain single-threaded baseline, kernel bound (one dense SVD at
  400 x 400 is tens of milliseconds).  The bypass workload for per-cell
  overhead changes and the main one for ``linalg`` kernel changes.
- ``checks``: the private replication loops outside ``run_experiment``
  (likelihood-ratio power, oracle cross-checks, noise-norm concentration,
  C0 calibration).  ``oracle-check`` sets the memory peak, so work moved from
  time into memory shows here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

DEFAULT_SEED = 20260823  # the acceptance seed of the test suite
HELD_OUT_SEED = 1  # references are recorded for this seed too, never tuned on

# Subcommands whose default output format is JSON rather than a CSV table.
JSON_COMMANDS = ("lower-bound-check", "oracle-check")


@dataclass(frozen=True)
class Invocation:
    """One call of a pass.

    ``command`` is a CLI subcommand with ``options`` its flags (a tuple), or
    a library function as ``module.function`` with ``options`` its keyword
    arguments (a dict).  The replication count, seed and output path are
    added when the call is made.
    """

    name: str  # unique within its workload; names the output file
    command: str
    reps: int
    grid_points: int
    options: tuple | dict

    @property
    def replications(self) -> int:
        return self.reps * self.grid_points

    @property
    def is_library_call(self) -> bool:
        return "." in self.command

    @property
    def workers(self) -> int:
        if self.is_library_call or "--threads" not in self.options:
            return 1
        return int(self.options[self.options.index("--threads") + 1])

    @property
    def suffix(self) -> str:
        if self.is_library_call or self.command in JSON_COMMANDS:
            return ".json"
        return ".csv"

    def record(self) -> dict:
        """The invocation as plain JSON values, stored beside its reference."""
        return json.loads(json.dumps(asdict(self)))

    def argv(self, seed: int, out: str) -> list[str]:
        return [
            self.command, *self.options, "--reps", str(self.reps),
            "--seed", str(seed), "--out", out,
        ]


def workloads(tiny: bool = False) -> dict[str, list[Invocation]]:
    """The workload table; ``tiny`` shrinks every size for the smoke test."""
    nproc = str(len(os.sched_getaffinity(0)))
    n = 30 if tiny else 100
    big = 40 if tiny else 400

    def reps(full: int) -> int:
        return 2 if tiny else full

    def square(m: int, threads: str) -> tuple:
        return ("--n", str(m), "--T", str(m), "--threads", threads)

    return {
        "entrywise-n100": [
            Invocation("coverage", "entrywise-coverage", reps(40), 4, square(n, nproc)),
            Invocation("adaptivity", "adaptivity-demo", reps(40), 2, square(n, nproc)),
        ],
        "panel-n100": [
            Invocation("tradeoff", "panel-tradeoff", reps(20), 2, square(n, nproc)),
            # panel-rate fixes its own sizes (n = T = 50, 100, 200).
            Invocation(
                "rate-weak_d", "panel-rate", reps(20), 3,
                ("--panel-config", "weak_d", "--threads", nproc),
            ),
        ],
        "n400": [
            Invocation("coverage", "entrywise-coverage", reps(4), 4, square(big, "1")),
            Invocation("tradeoff", "panel-tradeoff", reps(2), 2, square(big, "1")),
        ],
        "checks": [
            # Null and alternative arms: two streams of `reps` draws each.
            Invocation(
                "lower-bound", "lower-bound-check", reps(1000), 2,
                ("--n", str(n), "--T", str(n)),
            ),
            # The KL draws and the likelihood-ratio draws.
            Invocation(
                "oracle", "oracle-check", 200 if tiny else 100_000, 2,
                ("--n", "8", "--T", "8"),
            ),
            Invocation(
                "noise-norm", "experiments.noise_norm_check", reps(200), 1, {"n": n, "t": n},
            ),
            # The reference grid `entrywise-coverage --calibrate` uses.
            Invocation(
                "calibrate", "entrywise.calibrate_c0", reps(100), 3,
                {
                    "n": n, "t": n, "kappa": 1.0,
                    "tau_grid": [f * math.sqrt(n * n) for f in (0.3, 0.5, 1.0)],
                },
            ),
        ],
    }
