"""Spans around the calls into weakfactor's layers, installed from outside.

While :func:`installed` is active, every public function of every weakfactor
module, the validation of ``FactorInstance`` and ``PanelInstance``, each
registered generator and procedure, and the dense decompositions
(``numpy.linalg.svd``, also on the path ``np.linalg.norm(a, 2)`` takes,
``numpy.linalg.eigh``, ``scipy.linalg.svd``/``eigh`` and
``scipy.sparse.linalg.svds``) record a span: name, start, end, the span that
caused it, and the thread.  Spans stay in memory; :func:`layer_metrics` turns
the spans of traced passes into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

WEAKFACTOR_MODULES = (
    "linalg", "model", "entrywise", "panel", "adversarial", "montecarlo",
    "experiments", "cli",
)

# (module, attribute, span name); both numpy entries hold the same function.
DECOMPOSITIONS = (
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg._linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("scipy.linalg", "svd", "scipy.linalg.svd"),
    ("scipy.linalg", "eigh", "scipy.linalg.eigh"),
    ("scipy.sparse.linalg", "svds", "scipy.sparse.linalg.svds"),
)
DECOMPOSITION_NAMES = {name for _, _, name in DECOMPOSITIONS}
PAIRS = {
    "adversarial.rank_one_testing_pair",
    "adversarial.entry_perturbation_pair",
    "adversarial.panel_shift_pair",
}
# Calls inside cli.main that are the experiment's work, not front-end cost.
CLI_WORK = {
    "montecarlo.run_experiment", "experiments.lr_power_check",
    "experiments.oracle_checks", "experiments.noise_norm_check",
    "entrywise.calibrate_c0",
}
# What a span keeps of its call: (args, kwargs, result) -> note.
NOTES = {
    "entrywise.adaptive_estimate_m11": lambda a, k, r: r.truncated,
    "panel.ls_estimator": lambda a, k, r: r[2],  # converged
    "montecarlo.run_experiment": lambda a, k, r: k.get("workers", a[1] if len(a) > 1 else 1),
}


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int
    note: object


class Tracer:
    """The spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, note=None):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            kept = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    kept = note(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, parent, start, end, threading.get_ident(), kept))

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced calls through `tracer`; restores everything on exit."""
    wrappers = {}  # id(original) -> its traced replacement
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for modname, attr, name in DECOMPOSITIONS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            wrappers.setdefault(id(fn), tracer.wrap(fn, name))
            patch(module, attr, wrappers[id(fn)])

        montecarlo = sys.modules["weakfactor.montecarlo"]
        for attr, name in (("get_generator", "experiments.generate"),
                           ("get_procedure", "experiments.procedure")):
            lookup = getattr(montecarlo, attr)
            wrappers[id(lookup)] = _traced_lookup(tracer, lookup, name)

        model = sys.modules["weakfactor.model"]
        for cls in (model.FactorInstance, model.PanelInstance):
            patch(cls, "__post_init__", tracer.wrap(cls.__post_init__, f"model.{cls.__name__}"))

        for short in WEAKFACTOR_MODULES:
            module = sys.modules[f"weakfactor.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers.setdefault(id(fn), tracer.wrap(fn, name, NOTES.get(name)))

        # Modules bind imported functions under their own names, so replace
        # every binding of a traced function, not only its definition.
        for modname, module in list(sys.modules.items()):
            if modname == "weakfactor" or modname.startswith("weakfactor."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        patch(module, attr, wrappers[id(value)])
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _traced_lookup(tracer, lookup, name):
    return lambda key: tracer.wrap(lookup(key), name)


def _cells(spans) -> list[tuple[float, float]]:
    """(start, end) of each replication: a generate span and the procedure
    span that follows it on the same thread."""
    by_thread = defaultdict(list)
    for s in spans:
        if s.name in ("experiments.generate", "experiments.procedure"):
            by_thread[s.thread].append(s)
    cells = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s.start)
        gen = None
        for s in seq:
            if s.name == "experiments.generate":
                if gen is not None:  # the generator raised; no procedure ran
                    cells.append((gen.start, gen.end))
                gen = s
            elif gen is not None:
                cells.append((gen.start, s.end))
                gen = None
        if gen is not None:
            cells.append((gen.start, gen.end))
    return cells


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` inside [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _percentile(values, q: int) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(passes, reps: int) -> dict:
    """Per-layer metrics; `passes` holds (spans, wall seconds) per traced pass
    and `reps` the declared replications of one pass."""
    pooled = defaultdict(list)  # span name -> durations over every pass
    per_pass = defaultdict(list)  # metric -> its value in each pass
    cells, ls_iters, truncated = [], [], []
    for spans, wall in passes:
        by_id = {s.id: s for s in spans}

        def nearest(s, names):
            while s.parent is not None:
                s = by_id[s.parent]
                if s.name in names:
                    return s
            return None

        total, count = Counter(), Counter()
        for s in spans:
            pooled[s.name].append(s.end - s.start)
            total[s.name] += s.end - s.start
            count[s.name] += 1

        pass_cells = _cells(spans)
        cell_time = sum(end - start for start, end in pass_cells)
        cells += [end - start for start, end in pass_cells]
        runs = [s for s in spans if s.name == "montecarlo.run_experiment"]
        capacity = sum((s.end - s.start) * (s.note or 1) for s in runs)
        per_pass["montecarlo.worker_busy_frac"].append(cell_time / capacity if capacity else 0.0)
        per_pass["montecarlo.outside_cells_s"].append(
            sum(s.end - s.start - _covered(pass_cells, s.start, s.end) for s in runs)
        )
        per_pass["montecarlo.write_s"].append(
            total["montecarlo.write_csv"] + total["montecarlo.write_json_summary"]
        )
        for name in ("experiments.lr_power_check", "experiments.oracle_checks",
                     "experiments.noise_norm_check", "entrywise.calibrate_c0"):
            per_pass[f"{name}_s"].append(total[name])

        decomps = [
            s for s in spans
            if s.name in DECOMPOSITION_NAMES and nearest(s, DECOMPOSITION_NAMES) is None
        ]
        per_pass["linalg.decomp_per_rep"].append(len(decomps) / reps)
        # Thread-seconds of work: the pass outside the engine plus every cell.
        work = wall - sum(s.end - s.start for s in runs) + cell_time
        per_pass["linalg.decomp_share"].append(sum(s.end - s.start for s in decomps) / work)

        per_pass["model.instances_per_rep"].append(
            (count["model.FactorInstance"] + count["model.PanelInstance"]) / reps
        )
        pairs = [s for s in spans if s.name in PAIRS and nearest(s, PAIRS) is None]
        per_pass["adversarial.pairs_per_rep"].append(len(pairs) / reps)

        ls_calls = {s.id: 0 for s in spans if s.name == "panel.ls_estimator"}
        for s in spans:
            if s.name == "linalg.svd_truncated":
                owner = nearest(s, {"panel.ls_estimator"})
                if owner is not None:
                    ls_calls[owner.id] += 1
        ls_iters += ls_calls.values()
        per_pass["panel.ls_unconverged"].append(
            sum(1 for s in spans if s.name == "panel.ls_estimator" and s.note is False)
        )
        truncated += [
            s.note for s in spans
            if s.name == "entrywise.adaptive_estimate_m11" and s.note is not None
        ]
        per_pass["cli.overhead_s"].append(total["cli.main"] - sum(
            s.end - s.start for s in spans
            if s.name in CLI_WORK and nearest(s, {"cli.main"}) is not None
        ))

    def p50_ms(*names, scale=1e3):
        return scale * _percentile([d for n in names for d in pooled[n]], 50)

    metrics = {name: (statistics.median(values), _unit(name)) for name, values in per_pass.items()}
    metrics.update({
        "montecarlo.cell_ms_p50": (1e3 * _percentile(cells, 50), "ms"),
        "montecarlo.cell_ms_p99": (1e3 * _percentile(cells, 99), "ms"),
        "experiments.generate_ms_p50": (p50_ms("experiments.generate"), "ms"),
        "experiments.procedure_ms_p50": (p50_ms("experiments.procedure"), "ms"),
        "model.instance_build_ms_p50": (p50_ms("model.FactorInstance", "model.PanelInstance"), "ms"),
        "model.sample_ms_p50": (p50_ms("model.sample_observation", "model.sample_panel"), "ms"),
        "adversarial.pair_build_ms_p50": (p50_ms(*PAIRS), "ms"),
        "adversarial.lr_stat_us_p50": (p50_ms("adversarial.likelihood_ratio_stat", scale=1e6), "us"),
        "entrywise.adaptive_ci_ms_p50": (p50_ms("entrywise.adaptive_ci"), "ms"),
        "entrywise.naive_pretest_ci_ms_p50": (p50_ms("entrywise.naive_pretest_ci"), "ms"),
        "entrywise.truncated_frac": (sum(truncated) / len(truncated) if truncated else 0.0, "fraction"),
        "panel.estimate_beta_ms_p50": (p50_ms("panel.estimate_beta"), "ms"),
        "panel.ls_estimator_ms_p50": (p50_ms("panel.ls_estimator"), "ms"),
        "panel.ls_iters_p50": (_percentile(ls_iters, 50), "count"),
    })
    return metrics


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_share"):
        return "fraction"
    return "count"
