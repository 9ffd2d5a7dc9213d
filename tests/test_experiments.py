import dataclasses
import inspect
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfactor import entrywise, linalg, montecarlo
from weakfactor import experiments as ex
from weakfactor.adversarial import entry_perturbation_pair, panel_shift_pair
from weakfactor.model import (
    FactorInstance,
    PanelInstance,
    replication_rng,
    sample_observation,
    sample_panel,
)
from weakfactor.montecarlo import (
    ExperimentError,
    ExperimentSpec,
    InvalidGridPoint,
    get_generator,
    get_procedure,
    run_experiment,
    write_csv,
)


def test_flat_instance_strength():
    inst = ex.flat_rank_one_instance(20, 30, tau=12.0)
    s = np.linalg.svd(inst.mean, compute_uv=False)
    assert s[0] == pytest.approx(12.0, rel=1e-10)
    with pytest.raises(ValueError):
        ex.flat_rank_one_instance(20, 30, tau=0.0)


def test_spiked_instance_strength_and_spike():
    n, t = 100, 100
    inst = ex.spiked_rank_one_instance(n, t, tau=20.0, spike_frac=0.75)
    s = np.linalg.svd(inst.mean, compute_uv=False)
    assert s[0] == pytest.approx(20.0, rel=1e-10)
    assert inst.mean[0, 0] == pytest.approx(0.75, rel=1e-10)
    assert np.max(np.abs(inst.mean)) <= 1.0 + 1e-12


def test_spiked_instance_caps():
    # Small tau: the spike is capped by the loading norm.
    inst = ex.spiked_rank_one_instance(50, 50, tau=5.0, spike_frac=0.75)
    s = np.linalg.svd(inst.mean, compute_uv=False)
    assert s[0] == pytest.approx(5.0, rel=1e-10)
    assert inst.mean[0, 0] == pytest.approx(0.75 * 5.0 / math.sqrt(50), rel=1e-10)
    # Max tau: degenerates to the flat instance at the entry bound.
    inst = ex.spiked_rank_one_instance(50, 50, tau=50.0, spike_frac=0.75)
    assert np.allclose(inst.mean, 1.0)
    with pytest.raises(ValueError):
        ex.spiked_rank_one_instance(50, 50, tau=5.0, spike_frac=1.5)


def test_spiked_instance_refuses_one_row_and_accepts_one_column():
    # n = 1 leaves no rows 2..n to carry the rest of the loading norm.
    with pytest.raises(ValueError, match="n=1"):
        ex.spiked_rank_one_instance(1, 10, 1.0)
    inst = ex.spiked_rank_one_instance(5, 1, 1.0)
    assert np.linalg.norm(inst.mean) == pytest.approx(1.0, rel=1e-12)


def test_orthogonal_unit_pair():
    for m in (10, 50, 101):
        a, c = ex.orthogonal_unit_pair(m)
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-12)
        assert abs(a @ c) < 1e-12


def test_panel_means_orthogonality():
    m, d = ex.panel_means(40, 60, 7.0, 11.0)
    assert np.linalg.svd(m, compute_uv=False)[0] == pytest.approx(7.0, rel=1e-10)
    assert np.linalg.svd(d, compute_uv=False)[0] == pytest.approx(11.0, rel=1e-10)
    assert np.max(np.abs(m.T @ d)) < 1e-10
    assert np.max(np.abs(m @ d.T)) < 1e-10


def test_registered_names_resolve():
    for name in ("rank_one_entrywise", "perturbation_pair_arm", "panel_config",
                 "panel_pair_arm", "testing_pair_arm", "pure_noise"):
        get_generator(name)
    for name in ("pca_point", "adaptive_interval",
                 "naive_interval", "panel_trace", "panel_ci_star",
                 "lr_stat", "spectral_norm"):
        get_procedure(name)


BUILDERS = {
    "rate_in_tau": ex.rate_in_tau_spec,
    "rate_in_size": ex.rate_in_size_spec,
    "adaptive_coverage": ex.adaptive_coverage_spec,
    "pretest_control": ex.pretest_control_spec,
    "panel_rate": ex.panel_rate_spec,
    "panel_tradeoff": ex.panel_tradeoff_spec,
}


class _Captured(Exception):
    pass


def _spec_of(source, monkeypatch):
    """The spec `source` returns, or the one it hands to run_experiment."""
    specs = []

    def capture(spec, workers=1):
        specs.append(spec)
        raise _Captured

    monkeypatch.setattr(ex, "run_experiment", capture)
    try:
        return source()
    except _Captured:
        return specs[0]


# The engine calls gen(**grid_point, **generator_params) and
# proc(data, **procedure_params): every spec the package builds, at the
# builders' and checks' defaults, binds to its plugins' signatures.
@pytest.mark.parametrize("source", [
    *BUILDERS.values(),
    ex.lr_power_check,
    ex.noise_norm_check,
    lambda: entrywise.calibrate_c0(100, 100, 1.0, [10.0, 50.0]),
], ids=[*BUILDERS, "lr_power_check", "noise_norm_check", "calibrate_c0"])
def test_every_spec_binds_to_its_plugins_by_keyword(source, monkeypatch):
    spec = _spec_of(source, monkeypatch)
    gen = inspect.signature(get_generator(spec.generator))
    proc = inspect.signature(get_procedure(spec.procedure))
    for gp in spec.grid:
        gen.bind(**gp, **spec.generator_params)
    proc.bind(None, **spec.procedure_params)


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
def test_a_generator_param_no_generator_reads_is_refused(builder, monkeypatch):
    spec = builder(reps=2)
    spec = dataclasses.replace(spec, generator_params={**spec.generator_params, "bogus": 1.0})
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    with pytest.raises(InvalidGridPoint, match="grid point 0 .*unexpected keyword .*'bogus'"):
        run_experiment(spec)
    assert draws == []


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
def test_a_procedure_param_the_procedure_does_not_read_is_refused(builder, monkeypatch):
    spec = builder(reps=2)
    spec = dataclasses.replace(spec, procedure_params={**spec.procedure_params, "bogus": 1.0})
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    with pytest.raises(InvalidGridPoint, match=f"procedure '{spec.procedure}' .*'bogus'"):
        run_experiment(spec)
    assert draws == []


def test_generator_outputs():
    rng = replication_rng(1, 0, 0)
    truth, draw = get_generator("rank_one_entrywise")(
        n=20, T=20, tau=10.0, kappa=1.0, spike_frac=0.75
    )
    assert draw(rng).shape == (20, 20)
    assert 0.0 < truth <= 1.0

    truth, draw = get_generator("panel_config")(
        n=10, T=12, beta=0.5, weak_m=False, weak_d=False
    )
    x, y = draw(rng)
    assert truth == 0.5 and x.shape == (10, 12) and y.shape == (10, 12)

    params = {"kappa2": 10.0, "c": 3.9}
    t_null, _ = get_generator("panel_pair_arm")(n=10, T=10, arm="null", **params)
    t_alt, _ = get_generator("panel_pair_arm")(n=10, T=10, arm="alt", **params)
    assert t_null == 0.0 and t_alt == pytest.approx(3.9 / 10.0)


def _build_rank_one(gp, params):
    n, t, tau = gp["n"], gp["T"], gp["tau"]
    if params.get("spike_frac") is None:
        inst = ex.flat_rank_one_instance(n, t, tau, params["kappa"])
    else:
        inst = ex.spiked_rank_one_instance(n, t, tau, params["kappa"], params["spike_frac"])
    return inst.mean[0, 0], inst, sample_observation


def _build_perturbation_arm(gp, params):
    n, t, kappa, eta = gp["n"], gp["T"], params["kappa"], params["eta"]
    base = FactorInstance(np.full((n, t), kappa * (1.0 - eta)), kappa)
    pair = entry_perturbation_pair(base, eta=eta, tau0=math.sqrt(n * t) / 24.0,
                                   tau2=params["tau2"])
    inst = pair.null_instance if gp["arm"] == "base" else pair.alt_instance
    return inst.mean[0, 0], inst, sample_observation


def _build_panel(gp, params):
    n, t = gp["n"], gp["T"]
    sigma_m = math.sqrt(n + t) if params["weak_m"] else math.sqrt(n * t)
    sigma_d = math.sqrt(n + t) if params["weak_d"] else math.sqrt(n * t)
    m, d = ex.panel_means(n, t, sigma_m, sigma_d)
    inst = PanelInstance(mean=m, regressor_mean=d, sigma_eps=1.0, sigma_u=1.0,
                         beta=params["beta"], r0=1, r1=1, kappa=10.0)
    return params["beta"], inst, sample_panel


def _build_panel_arm(gp, params):
    n, t = gp["n"], gp["T"]
    m1, d1 = ex.panel_means(n, t, math.sqrt(n * t), params["kappa2"] * math.sqrt(n * t))
    pair = panel_shift_pair(m1, d1, params["c"])
    inst = pair.null_instance if gp["arm"] == "null" else pair.alt_instance
    return inst.beta, inst, sample_panel


@pytest.mark.parametrize("spec, build", [
    (ex.rate_in_tau_spec(n=30, t=30, reps=3, seed=5), _build_rank_one),
    (ex.adaptive_coverage_spec(n=30, t=30, reps=3, seed=5), _build_rank_one),
    (ex.pretest_control_spec(n=30, t=30, reps=3, seed=5), _build_perturbation_arm),
    (ex.panel_rate_spec("weak_d", sizes=(20, 30), reps=3, seed=5), _build_panel),
    (ex.panel_tradeoff_spec(n=30, t=30, reps=3, seed=5), _build_panel_arm),
], ids=["spiked", "flat", "perturbation-pair", "panel", "panel-pair"])
def test_rows_match_a_loop_that_rebuilds_every_replication(spec, build):
    proc = get_procedure(spec.procedure)
    expected = []
    for gi, gp in enumerate(spec.grid):
        for rep in range(spec.replications):
            truth, inst, sample = build(gp, spec.generator_params)
            data = sample(inst, replication_rng(spec.master_seed, gi, rep))
            result = proc(data, **spec.procedure_params)
            covered = width = None
            if "lower" in result:
                covered = bool(result["lower"] <= truth <= result["upper"])
                width = float(result["upper"] - result["lower"])
            aux = {k: v for k, v in result.items() if k not in ("estimate", "lower", "upper")}
            expected.append((gi, rep, float(result["estimate"]), float(truth), covered, width, aux))
    rows = run_experiment(spec, workers=2).rows
    assert all(not r.error_tag for r in rows)
    assert [(r.grid_index, r.rep, r.estimate, r.truth, r.covered, r.width, r.aux)
            for r in rows] == expected


def test_spec_builders_run_small():
    table = run_experiment(ex.rate_in_tau_spec(n=30, t=30, reps=3, seed=5,
                                               tau_fracs=(0.2, 0.4, 0.8)))
    assert len(table.summaries) == 3
    table = run_experiment(ex.pretest_control_spec(n=30, t=30, reps=3, seed=5))
    assert {s.grid_point["arm"] for s in table.summaries} == {"base", "alt"}
    table = run_experiment(ex.panel_rate_spec(sizes=(20, 30), reps=3, seed=5))
    assert all(s.n_error == 0 for s in table.summaries)
    table = run_experiment(ex.panel_tradeoff_spec(n=20, t=20, reps=3, seed=5))
    assert table.summaries[0].mean_width == pytest.approx(
        3.92 / 20.0 / math.sqrt(101.0), rel=1e-12
    )


def test_panel_configs_cover_cases():
    assert set(ex.PANEL_CONFIGS) == {"strong", "weak_m", "weak_d", "overstated"}
    assert ex.PANEL_CONFIGS["overstated"]["r0"] == 2
    assert ex.PANEL_CONFIGS["weak_m"]["weak_m"] is True


def test_lr_power_check_small():
    result = ex.lr_power_check(n=20, t=20, kappa=1.0, alpha=0.05, reps=200, seed=9)
    assert 0.0 <= result["power"] <= 1.0
    assert result["tv_upper"] <= 0.05
    assert abs(result["size"] - 0.05) < 0.05


def test_oracle_checks_rejects_one_rep():
    with pytest.raises(ValueError, match="reps must be >= 2"):
        ex.oracle_checks(reps=1)


def test_oracle_checks_independent_of_block_size(monkeypatch):
    # One block of 2000 against 286 blocks of 7, the last one short.  The
    # per-replication values must agree too, not only the results: a change
    # in the last bit of a log likelihood ratio near 0 rarely reaches the
    # ratio, so each array handed to np.exp and np.mean is recorded.
    def run(block):
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(ex, "_ORACLE_BLOCK", block)
            for name in ("exp", "mean"):
                original = getattr(np, name)
                patch.setattr(np, name, lambda a, *args, _f=original, **kwargs:
                              seen.append(np.array(a)) or _f(a, *args, **kwargs))
            return ex.oracle_checks(reps=2000, seed=4), seen

    whole, seen_whole = run(ex._ORACLE_BLOCK)
    blocked, seen_blocked = run(7)
    assert blocked == whole
    assert len(seen_blocked) == len(seen_whole)
    assert all(np.array_equal(a, b) for a, b in zip(seen_whole, seen_blocked))


def _oracle_checks_peak(reps):
    tracemalloc.start()
    try:
        ex.oracle_checks(reps=reps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_checks_memory_peak():
    # The draws go through one reused set of block buffers, about 2.5 MB
    # here at n = T = 8.  All draws at once took about 147 MB, and fresh
    # 8192-replication blocks about 27 MB.
    assert _oracle_checks_peak(50_000) <= 8e6


def test_oracle_checks_memory_grows_by_per_replication_values_only():
    # 150 000 more replications may add a few float arrays of one value per
    # replication (about 2 measured), but no buffer that scales with the
    # block count: one block-sized array per replication would add 150 MB.
    per_array = 8 * (200_000 - 50_000)
    assert _oracle_checks_peak(200_000) - _oracle_checks_peak(50_000) <= 3 * per_array


_ALPHA, _FACTOR = r"alpha must be in \(0, 1\)", "factor must be positive"


@pytest.mark.parametrize("check, message", [
    (lambda: entrywise.calibrate_c0(20, 20, 1.0, [10.0], alpha=1.5, reps=2), _ALPHA),
    (lambda: entrywise.calibrate_c0(20, 20, 1.0, [10.0], alpha=math.nan, reps=2), _ALPHA),
    (lambda: ex.noise_norm_check(n=10, t=10, factor=math.nan, reps=3), _FACTOR),
    (lambda: ex.noise_norm_check(n=10, t=10, factor=0.0, reps=3), _FACTOR),
], ids=["calibrate_c0-alpha-1.5", "calibrate_c0-alpha-nan", "noise_norm_check-factor-nan",
        "noise_norm_check-factor-0"])
def test_checks_refuse_out_of_range_arguments_before_any_replication(check, message,
                                                                     monkeypatch):
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    with pytest.raises(ValueError, match=message):
        check()
    assert draws == []


@pytest.mark.parametrize("reps", [0, -1])
@pytest.mark.parametrize("check", [
    lambda reps: ex.lr_power_check(n=4, t=4, reps=reps),
    lambda reps: ex.noise_norm_check(n=4, t=4, reps=reps),
    lambda reps: entrywise.calibrate_c0(4, 4, kappa=1.0, tau_grid=[1.0], reps=reps),
], ids=["lr_power_check", "noise_norm_check", "calibrate_c0"])
def test_standalone_checks_reject_reps_below_one(check, reps, monkeypatch):
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    with pytest.raises(ValueError, match="reps must be >= 1"):
        check(reps)
    assert draws == []


@pytest.mark.parametrize("arm", ["nul", "bogus"])
@pytest.mark.parametrize("generator, params", [
    ("perturbation_pair_arm", {"kappa": 1.0, "eta": 0.5, "tau2": 1.0}),
    ("panel_pair_arm", {"kappa2": 10.0, "c": 3.9}),
    ("testing_pair_arm", {"tau": 2.0, "kappa": 1.0, "alpha": 0.05}),
], ids=["perturbation_pair_arm", "panel_pair_arm", "testing_pair_arm"])
def test_pair_generators_reject_unknown_arm(generator, params, arm, monkeypatch):
    grid_point = {"n": 30, "T": 30, "arm": arm}
    with pytest.raises(ValueError, match="arm must be"):
        get_generator(generator)(**grid_point, **params)
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    spec = ExperimentSpec(name="bad-arm", generator=generator, procedure="pca_point",
                          replications=2, master_seed=1, grid=(grid_point,),
                          generator_params=params)
    with pytest.raises(ExperimentError, match=f"grid point 0 .*arm must be .*{arm!r}"):
        run_experiment(spec)
    assert draws == []


@pytest.mark.parametrize("spec", [
    ex.pretest_control_spec(n=30, t=30),
    ex.panel_tradeoff_spec(n=30, t=30),
    ExperimentSpec(name="lr-power", generator="testing_pair_arm", procedure="lr_stat",
                   replications=1, master_seed=1, grid=({"n": 30, "T": 30, "arm": "null"},),
                   generator_params={"tau": 2.0, "kappa": 1.0, "alpha": 0.05}),
], ids=["perturbation_pair_arm", "panel_pair_arm", "testing_pair_arm"])
def test_pair_generators_check_the_arm_before_building_the_pair(spec, svd_values_calls):
    grid_point = dict(spec.grid[0], arm="bogus")
    with pytest.raises(ValueError, match="arm must be"):
        get_generator(spec.generator)(**grid_point, **spec.generator_params)
    assert svd_values_calls == []


# Every registered generator with a ground truth, on non-square sizes: each
# truth has rank at most 2, so the rank-4 sketch certifies its spectrum and no
# values-only SVD is larger than 4 x T.
@pytest.mark.parametrize("spec", [
    ex.rate_in_tau_spec(n=30, t=26),
    ex.adaptive_coverage_spec(n=30, t=26),
    ex.pretest_control_spec(n=30, t=26),
    ex.panel_rate_spec(config="weak_m", sizes=(26, 30)),
    ex.panel_rate_spec(config="weak_d", sizes=(26, 30)),
    ex.panel_tradeoff_spec(n=30, t=26),
    ExperimentSpec(name="lr-power", generator="testing_pair_arm", procedure="lr_stat",
                   replications=1, master_seed=1,
                   grid=({"n": 30, "T": 26, "arm": "null"}, {"n": 30, "T": 26, "arm": "alt"}),
                   generator_params={"tau": 2.0, "kappa": 1.0, "alpha": 0.05}),
], ids=["rank_one_entrywise_spiked", "rank_one_entrywise_flat", "perturbation_pair_arm",
        "panel_config_weak_m",
        "panel_config_weak_d", "panel_pair_arm", "testing_pair_arm"])
def test_generators_validate_ground_truths_without_a_full_svd(spec, svd_values_calls):
    for grid_point in spec.grid:
        get_generator(spec.generator)(**grid_point, **spec.generator_params)
    assert svd_values_calls
    assert all(min(shape) <= 4 for shape in svd_values_calls), svd_values_calls


@given(n=st.integers(4, 12), t=st.integers(4, 12), reps=st.integers(1, 6),
       seed=st.integers(0, 2**63 - 1))
@settings(max_examples=10, deadline=None)
def test_checks_identical_at_one_and_two_workers(n, t, reps, seed):
    taus = [0.5 * math.sqrt(n * t), math.sqrt(n * t)]
    for check in (
        lambda workers: ex.lr_power_check(n=n, t=t, reps=reps, seed=seed, workers=workers),
        lambda workers: ex.noise_norm_check(n=n, t=t, reps=reps, seed=seed, workers=workers),
        lambda workers: entrywise.calibrate_c0(n, t, 1.0, taus, reps=reps, seed=seed,
                                               workers=workers),
    ):
        assert check(1) == check(2)


def test_calibrate_c0_identical_at_one_and_two_workers_above_threshold():
    # At n = T = 1000 the strongest flat instance lies above the detection
    # threshold, so replications are calibrated rather than truncated.
    # (At n = T = 400 no flat instance is: the threshold is 620 and tau <= 400.)
    n = 1000
    assert entrywise.spectral_threshold(1.0, n, n) < n
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a calibrating grid does not warn
        c0 = [entrywise.calibrate_c0(n, n, 1.0, [float(n)], reps=3, seed=1, workers=workers)
              for workers in (1, 2)]
    assert c0[0] == c0[1] != entrywise.DEFAULT_C0


def test_calibrate_c0_matches_the_width_formula_it_reads():
    # The reference applies the adaptive interval's width rule itself: each
    # non-truncated replication requires 2 |m_hat - m| / min{sqrt(n + T) /
    # sigma_1, 1}, and the constant is the (1 - alpha) quantile of those.
    # The draws come from the held-out master seed the docstring states.
    n, reps, seed, alpha = 1000, 2, 1, 0.05
    held_out = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    inst = ex.flat_rank_one_instance(n, n, float(n))
    needs = []
    for rep in range(reps):
        est = entrywise.adaptive_estimate_m11(
            sample_observation(inst, replication_rng(held_out, 0, rep)), 1.0)
        if not est.truncated:
            width_at_one = min(math.sqrt(2 * n) / est.spectral_stat, 1.0)
            needs.append(2.0 * abs(est.value - inst.mean[0, 0]) / width_at_one)
    assert needs  # at least one replication calibrated
    reference = float(np.quantile(needs, 1.0 - alpha))
    c0 = entrywise.calibrate_c0(n, n, 1.0, [float(n)], alpha=alpha, reps=reps, seed=seed)
    assert c0 == pytest.approx(reference, rel=1e-13)


def test_noise_norm_check_small():
    result = ex.noise_norm_check(n=30, t=30, reps=30, seed=9)
    assert 0.0 <= result["frequency"] <= 1.0
    assert result["bound"] == pytest.approx(3.0 * math.sqrt(60), rel=1e-12)


# Builders with small grids; the hidden-entry pair needs n T >= 576.
CSV_BUILDERS = {
    "rate_in_tau": ex.rate_in_tau_spec,
    "adaptive_coverage": ex.adaptive_coverage_spec,
    "pretest_control": ex.pretest_control_spec,
    "panel_tradeoff": ex.panel_tradeoff_spec,
}


def _csv_bytes(spec, workers=1) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write_csv(run_experiment(spec, workers=workers), path)
        with open(path, "rb") as fh:
            return fh.read()


@given(builder=st.sampled_from(sorted(CSV_BUILDERS)), n=st.integers(24, 40),
       t=st.integers(24, 40), reps=st.integers(1, 4), seed=st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_csv_bytes_identical_at_one_and_two_workers(builder, n, t, reps, seed):
    spec = CSV_BUILDERS[builder](n=n, t=t, reps=reps, seed=seed)
    assert _csv_bytes(spec, workers=1) == _csv_bytes(spec, workers=2)


@pytest.mark.skipif(linalg._openblas_threads() is None,
                    reason="numpy has no bundled OpenBLAS")
@given(builder=st.sampled_from(sorted(CSV_BUILDERS)), n=st.integers(24, 40),
       t=st.integers(24, 40), reps=st.integers(1, 3), seed=st.integers(0, 2**63 - 1))
@settings(max_examples=10, deadline=None)
def test_csv_bytes_identical_whatever_blas_threads_the_caller_set(builder, n, t, reps, seed):
    spec = CSV_BUILDERS[builder](n=n, t=t, reps=reps, seed=seed)
    get, set_ = linalg._openblas_threads()
    previous = get()
    files = []
    try:
        for threads in (1, 2):
            set_(threads)
            files.append(_csv_bytes(spec))
    finally:
        set_(previous)
    assert files[0] == files[1]


# Each ground truth is decomposed once, when its instance is built, and the
# two-point pairs read the spectra and ranks their instances keep.  Every
# ground truth has rank at most 2, so each spectrum is one values-only SVD of
# the (4, T) rank-4 sketch, and none is a full SVD.  One build of a testing
# pair takes 2 spectra (its two means), of a hidden-entry grid point 2 (the
# base and the alternative), of a panel pair 3 (M of each arm and the D they
# share).
@pytest.mark.parametrize("generator, params, spectra", [
    ("testing_pair_arm", {"tau": 2.0, "kappa": 1.0, "alpha": 0.05}, 2),
    ("perturbation_pair_arm", {"kappa": 1.0, "eta": 0.25, "tau2": 1.0}, 2),
    ("panel_pair_arm", {"kappa2": 10.0, "c": 3.9}, 3),
], ids=["testing_pair", "hidden_entry", "panel_pair"])
def test_spectra_per_pair_build(generator, params, spectra, svd_values_calls):
    get_generator(generator)(n=24, T=24, arm="alt", **params)
    assert svd_values_calls == [(4, 24)] * spectra


# Each grid point builds its pair once; lr_power_check builds one more
# testing pair after its two grid points.
@pytest.mark.parametrize("run, spectra", [
    (lambda: run_experiment(ex.panel_tradeoff_spec(n=24, t=24, reps=1)), 2 * 3),
    (lambda: run_experiment(ex.pretest_control_spec(n=24, t=24, reps=1)), 2 * 2),
    (lambda: ex.lr_power_check(n=24, t=24, reps=2), 3 * 2),
], ids=["panel_tradeoff", "pretest_control", "lr_power_check"])
def test_each_distinct_ground_truth_decomposed_once_per_call(run, spectra, svd_values_calls):
    run()
    assert svd_values_calls == [(4, 24)] * spectra
