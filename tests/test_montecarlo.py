import csv
import glob
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from weakfactor import entrywise, experiments, linalg, montecarlo
from weakfactor.montecarlo import (
    ExperimentError,
    ExperimentSpec,
    rate_slope,
    register_generator,
    register_procedure,
    run_experiment,
    write_csv,
    write_json_summary,
)


BUILT = []  # grid points the "_test_trivial" generator was called with
PROCEDURE_CALLS = []  # data the "_test_recorded" procedure was called with
BLAS_THREADS_SEEN = []  # OpenBLAS thread counts the "_test_blas_threads" procedure saw


@register_generator("_test_trivial")
def _gen_trivial(**grid_point):
    if grid_point.get("unbuildable"):
        raise ValueError("no instance at this grid point")
    BUILT.append(grid_point)
    return 0.0, lambda rng: rng.standard_normal(3)


@register_procedure("_test_trivial_interval")
def _proc_trivial(data, kappa_bar=1.0):
    return {"estimate": 0.0, "lower": -kappa_bar, "upper": kappa_bar}


@register_procedure("_test_noisy_point")
def _proc_noisy(data):
    return {"estimate": float(np.mean(data))}


@register_procedure("_test_recorded")
def _proc_recorded(data):
    PROCEDURE_CALLS.append(data)
    return {"estimate": 0.0}


@register_procedure("_test_blas_threads")
def _proc_blas_threads(data):
    BLAS_THREADS_SEEN.append(_pool_threads())
    return {"estimate": 0.0}


@register_procedure("_test_non_finite")
def _proc_non_finite(data, cutoff, field, value):
    result = {"estimate": 0.0, "lower": -1.0, "upper": 1.0}
    if data[0] > cutoff:
        result[field] = value
    return result


@register_procedure("_test_flaky")
def _proc_flaky(data, cutoff):
    if data[0] > cutoff:
        raise RuntimeError("synthetic failure")
    return {"estimate": 0.0}


def _spec(**kw):
    base = dict(
        name="test", generator="_test_trivial", procedure="_test_trivial_interval",
        replications=5, master_seed=1, grid=({"n": 3, "T": 3},),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(replications=0)
    with pytest.raises(ValueError):
        _spec(grid=())


def test_trivial_interval_coverage_and_width():
    table = run_experiment(_spec(replications=1,
                                 procedure_params={"kappa_bar": 2.0}))
    s = table.summaries[0]
    assert s.coverage == 1.0 and s.coverage_se == 0.0
    assert s.mean_width == 4.0
    assert s.n_ok == 1 and s.n_error == 0


def test_determinism_across_worker_counts():
    spec = _spec(procedure="_test_noisy_point", replications=8,
                 grid=({"n": 3, "T": 3}, {"n": 4, "T": 3}))
    t1 = run_experiment(spec, workers=1)
    t4 = run_experiment(spec, workers=4)
    assert t1.rows == t4.rows
    assert t1.summaries == t4.summaries
    # And a second run is bitwise identical.
    assert run_experiment(spec, workers=3).rows == t1.rows


def test_error_rows_recorded_and_fatal_threshold():
    # cutoff 10: essentially no failures.
    ok = run_experiment(_spec(procedure="_test_flaky", replications=20,
                              procedure_params={"cutoff": 10.0}))
    assert ok.summaries[0].n_error == 0
    # cutoff 0: about half the replications fail, exceeding the 10% budget.
    with pytest.raises(ExperimentError):
        run_experiment(_spec(procedure="_test_flaky", replications=20,
                             procedure_params={"cutoff": 0.0}))


def test_error_tag_contents():
    spec = _spec(procedure="_test_flaky", replications=50,
                 procedure_params={"cutoff": 1.8})
    table = run_experiment(spec)
    tagged = [r for r in table.rows if r.error_tag]
    assert tagged, "expected at least one synthetic failure"
    assert len(tagged) <= 5  # within the 10% budget
    assert all("RuntimeError" in r.error_tag for r in tagged)
    assert all(r.estimate is None for r in tagged)


@pytest.mark.parametrize("field", ["estimate", "lower", "upper"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_result_is_an_error_row(field, value):
    params = {"cutoff": 1.8, "field": field, "value": value}
    table = run_experiment(_spec(procedure="_test_non_finite", replications=50,
                                 procedure_params=params))
    tagged = [r for r in table.rows if r.error_tag]
    assert tagged, "expected at least one non-finite result"
    assert all(r.error_tag.startswith(f"FloatingPointError: non-finite {field}")
               for r in tagged)
    assert all(r.estimate is None and r.covered is None for r in tagged)
    assert table.summaries[0].n_error == len(tagged)
    assert table.summaries[0].coverage == 1.0  # the finite rows all cover
    # Every replication non-finite: the error budget trips.
    with pytest.raises(ExperimentError):
        run_experiment(_spec(procedure="_test_non_finite", replications=5,
                             procedure_params=dict(params, cutoff=-math.inf)))


def test_overflowing_width_is_an_error_row():
    # Finite bounds whose difference overflows are not an infinitely wide cover.
    with pytest.raises(ExperimentError, match="non-finite width inf"):
        run_experiment(_spec(procedure_params={"kappa_bar": 1e308}))


def test_generator_called_once_per_grid_point():
    grid = ({"n": 3, "T": 3}, {"n": 4, "T": 3}, {"n": 5, "T": 3})
    BUILT.clear()
    table = run_experiment(_spec(procedure="_test_noisy_point", replications=7,
                                 grid=grid), workers=2)
    assert BUILT == list(grid)
    assert len(table.rows) == 21


def test_unbuildable_grid_point_raises_before_any_replication():
    grid = ({"n": 3, "T": 3}, {"n": 3, "T": 3, "unbuildable": True})
    PROCEDURE_CALLS.clear()
    with pytest.raises(ExperimentError, match="grid point 1 .* cannot be built: "
                       "ValueError: no instance at this grid point"):
        run_experiment(_spec(procedure="_test_recorded", grid=grid), workers=2)
    assert PROCEDURE_CALLS == []


def _pool_threads():
    return linalg._openblas_threads()[0]()


@pytest.fixture
def two_blas_threads():
    """Set the bundled OpenBLAS to 2 threads; restore its count afterwards.

    Yields a function that reads the pool's thread count.
    """
    pool = linalg._openblas_threads()
    if pool is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, set_ = pool
    previous = get()
    set_(2)
    try:
        yield get
    finally:
        set_(previous)


def test_every_bundled_openblas_found():
    # numpy's is the only pool: every BLAS and LAPACK call runs in it.
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                     "*openblas*"))
    pool = linalg._openblas_threads()
    assert (pool is not None) == bool(bundled)
    assert pool is None or len(pool) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_replications_run_on_one_blas_thread(workers, two_blas_threads):
    BLAS_THREADS_SEEN.clear()
    run_experiment(_spec(procedure="_test_blas_threads", replications=6,
                         grid=({"n": 3, "T": 3}, {"n": 4, "T": 3})), workers=workers)
    assert BLAS_THREADS_SEEN == [1] * 12
    assert two_blas_threads() == 2


def test_blas_threads_restored_after_experiment_error(two_blas_threads):
    with pytest.raises(ExperimentError):
        run_experiment(_spec(grid=({"n": 3, "T": 3, "unbuildable": True},)), workers=2)
    assert two_blas_threads() == 2


def test_top_k_kernels_cap_blas_threads(two_blas_threads, monkeypatch):
    seen = []

    def recording(name):
        original = getattr(linalg, name)

        def record(*args, **kwargs):
            seen.append((name, _pool_threads()))
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, record)

    recording("_subset_eigh")
    recording("_krylov_norm")
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 9))
    linalg.svd_truncated(a, 2)
    linalg.svd_truncated(a.T, 2)
    linalg.spectral_norm(a)
    # Large enough for the Krylov route, and with a signal it certifies.
    big = 100.0 * np.outer(rng.standard_normal(200), rng.standard_normal(210)) / 200.0
    linalg.spectral_norm(big + rng.standard_normal((200, 210)))
    assert seen == [("_subset_eigh", 1)] * 3 + [("_krylov_norm", 1)]
    assert two_blas_threads() == 2


def test_kernels_called_from_plain_threads_cap_and_restore_blas_threads(two_blas_threads,
                                                                         monkeypatch):
    # No enclosing single_blas_thread: each call's cap overlaps the other
    # thread's, and the pool must end where it began.
    seen = []
    original = linalg._subset_eigh

    def record(*args, **kwargs):
        seen.append(_pool_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "_subset_eigh", record)
    a = np.random.default_rng(4).standard_normal((300, 300))

    def worker():
        for _ in range(5):
            linalg.svd_truncated(a, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert two_blas_threads() == 2
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 100


# Each check is recorded where it draws: the engine draws the replications of
# the three checks that run through run_experiment.  lr_power_check also
# builds its testing pair outside the engine, so that build is recorded too.
@pytest.mark.parametrize("module, attr, call", [
    (montecarlo, "replication_rng", lambda: experiments.lr_power_check(n=4, t=4, reps=2)),
    (experiments, "rank_one_testing_pair", lambda: experiments.lr_power_check(n=4, t=4, reps=2)),
    (montecarlo, "replication_rng", lambda: experiments.noise_norm_check(n=4, t=4, reps=2)),
    (experiments, "replication_rng", lambda: experiments.oracle_checks(reps=2, n=2, t=2)),
    (montecarlo, "replication_rng",
     lambda: entrywise.calibrate_c0(4, 4, kappa=1.0, tau_grid=[1.0], reps=2)),
], ids=["lr_power_check", "lr_power_check_pair", "noise_norm_check", "oracle_checks",
        "calibrate_c0"])
def test_standalone_checks_run_on_one_blas_thread(module, attr, call, two_blas_threads,
                                                  monkeypatch):
    seen = []
    original = getattr(module, attr)

    def recording(*args):
        seen.append(_pool_threads())
        return original(*args)

    monkeypatch.setattr(module, attr, recording)
    call()
    assert seen and seen == [1] * len(seen)
    assert two_blas_threads() == 2


@pytest.mark.parametrize("requested, cpus, reps, expected", [
    (8, 16, 4, 4),      # more workers than cells
    (64, 3, 10, 3),     # more workers than usable CPUs
    (64, None, 10, None),  # no affinity and CPU count unknown: one worker, no pool
    (2, 16, 10, 2),     # within both limits
])
def test_worker_count_clamped_to_cells_and_cores(requested, cpus, reps, expected, monkeypatch):
    # The clamp counts the CPUs in the affinity mask, not all of the machine's.
    started = []

    class RecordingExecutor(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    spec = _spec(procedure="_test_noisy_point", replications=reps)
    table = run_experiment(spec, workers=requested)
    assert started == ([] if expected is None else [expected])
    assert table.rows == run_experiment(spec).rows


def test_rate_slope_exact_cases():
    class FakeSummary:
        def __init__(self, gp, med):
            self.grid_index = 0
            self.grid_point = gp
            self.median_abs_error = med

    class FakeTable:
        pass

    t = FakeTable()
    t.summaries = [FakeSummary({"tau": x}, x) for x in (1.0, 2.0, 4.0)]
    assert rate_slope(t, "tau", "median_abs_error") == pytest.approx(1.0, abs=1e-12)
    t.summaries = [FakeSummary({"tau": x}, 3.0 / math.sqrt(x)) for x in (1, 4, 16)]
    assert rate_slope(t, "tau", "median_abs_error") == pytest.approx(-0.5, abs=1e-12)
    t.summaries = t.summaries[:2]
    with pytest.raises(ValueError):
        rate_slope(t, "tau", "median_abs_error")
    t.summaries = [FakeSummary({"tau": x}, -1.0) for x in (1, 2, 4)]
    with pytest.raises(ValueError):
        rate_slope(t, "tau", "median_abs_error")


def test_write_csv_schema_and_roundtrip(tmp_path):
    spec = _spec(procedure="_test_noisy_point", replications=3,
                 grid=({"n": 3, "T": 3, "tau": 1.5},))
    table = run_experiment(spec)
    path = tmp_path / "out.csv"
    write_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["experiment", "n", "T", "params", "grid_index", "rep",
                       "estimate", "truth", "covered", "width", "error_tag"]
    assert len(rows) == 4
    assert rows[1][3] == "params" or rows[1][3] == "tau=1.5"
    # Floats round-trip exactly through repr.
    assert float(rows[1][6]) == table.rows[0].estimate


def test_write_json_summary(tmp_path):
    table = run_experiment(_spec())
    path = tmp_path / "out.json"
    write_json_summary(table, path, config={"threads": 2})
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "test"
    assert doc["spec"]["master_seed"] == 1
    assert doc["config"] == {"threads": 2}
    assert doc["summaries"][0]["coverage"] == 1.0
    assert "library_version" in doc


def test_write_json_summary_is_strict_json(tmp_path):
    # NaN and Infinity are not JSON: the write fails and leaves no file.
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json_summary(run_experiment(_spec()), path, config={"c0": math.nan})
    assert not path.exists()


def test_unknown_generator_errors():
    spec = _spec(generator="_nope")
    with pytest.raises(KeyError):
        run_experiment(spec)
