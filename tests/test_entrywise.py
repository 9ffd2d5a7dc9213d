import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from weakfactor import entrywise, linalg
from weakfactor.entrywise import (
    DEFAULT_C0,
    DegenerateLoadingError,
    EntrywiseEstimate,
    Interval,
    adaptive_ci,
    adaptive_estimate_m11,
    calibrate_c0,
    _ratio_khat,
    estimate_m11,
    naive_pretest_ci,
    spectral_threshold,
)
from weakfactor.experiments import spiked_rank_one_instance
from weakfactor.linalg import spectral_norm, svd_truncated, zero_entry_11
from weakfactor.model import (
    FactorInstance,
    replication_rng,
    sample_observation,
)

RNG = np.random.default_rng(3)


def random_rank_one(n=12, t=9, rng=RNG):
    l = rng.standard_normal(n)
    f = rng.standard_normal(t)
    l[1:] += np.sign(l[1:]) * 0.1  # keep mass off row 1
    return np.outer(l, f)


def test_interval_basics():
    iv = Interval(-1.0, 2.0)
    assert iv.width == 3.0
    assert iv.contains(0.0) and not iv.contains(2.5)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    for bounds in [(math.nan, math.nan), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            Interval(*bounds)


def test_estimate_m11_noiseless_exact():
    for _ in range(20):
        m = random_rank_one()
        assert estimate_m11(m) == pytest.approx(m[0, 0], abs=1e-9)


def test_estimate_m11_never_reads_missing_entry():
    m = random_rank_one()
    x = m + RNG.standard_normal(m.shape)
    before = estimate_m11(x)
    x2 = x.copy()
    x2[0, 0] = 1e6
    assert estimate_m11(x2) == before  # bitwise identical


@given(n=st.integers(4, 12), t=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
       missing=st.floats())
@example(n=5, t=6, seed=0, missing=math.nan)  # st.floats() seldom draws these
@example(n=6, t=5, seed=1, missing=math.inf)
@example(n=4, t=4, seed=2, missing=-math.inf)
@example(n=12, t=4, seed=3, missing=math.nan)
@example(n=4, t=12, seed=4, missing=math.inf)
@example(n=12, t=12, seed=5, missing=-math.inf)
@settings(max_examples=50, deadline=None)
def test_estimators_never_read_missing_entry_fuzzed(n, t, seed, missing):
    rng = np.random.default_rng(seed)
    x = 3.0 * random_rank_one(n, t, rng) + rng.standard_normal((n, t))
    fuzzed = x.copy()
    fuzzed[0, 0] = missing  # any float, NaN and infinities included
    assert estimate_m11(fuzzed) == estimate_m11(x)  # bitwise identical
    assert naive_pretest_ci(fuzzed) == naive_pretest_ci(x)
    assert adaptive_estimate_m11(fuzzed, 1.0) == adaptive_estimate_m11(x, 1.0)


def test_estimate_m11_loading_sign_invariance():
    x = random_rank_one() + RNG.standard_normal((12, 9))
    lhat = svd_truncated(x[:, 1:], 1).U[:, 0]
    vals = []
    for orient in (lhat, -lhat):
        rest = orient[1:]
        vals.append(orient[0] * (rest @ x[1:, 0]) / (rest @ rest))
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert estimate_m11(x) == pytest.approx(vals[0], rel=1e-12)


def test_estimate_m11_degenerate_loading():
    x = np.zeros((4, 4))
    x[0, :] = [0.0, 5.0, 5.0, 5.0]  # loading concentrates on row 1
    with pytest.raises(DegenerateLoadingError):
        estimate_m11(x)
    with pytest.raises(ValueError):
        estimate_m11(np.ones((1, 5)))


@given(k=st.sampled_from([1, 2]), n=st.integers(4, 12), t=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fit_entry_11_exact_on_any_basis_of_a_rank_k_mean(k, n, t, seed):
    # The least-squares fit that estimate_m11 (k = 1) and naive_pretest_ci
    # share recovers m11 of a noiseless rank-k mean from any orthonormal basis
    # of col(L), given L on rows 2..n and F on columns 2..T of full rank k.
    rng = np.random.default_rng(seed)
    loadings, scores = rng.standard_normal((n, k)), rng.standard_normal((k, t))
    assume(np.linalg.cond(loadings[1:]) < 10 and np.linalg.cond(scores[:, 1:]) < 10)
    m = loadings @ scores
    rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
    basis = svd_truncated(m[:, 1:], k).U @ rotation
    value, f1 = entrywise._fit_entry_11(m, basis)
    assert value == pytest.approx(m[0, 0], abs=1e-9)
    hidden = m.copy()
    hidden[0, 0] = math.nan
    value_nan, f1_nan = entrywise._fit_entry_11(hidden, basis)
    assert value_nan == value and np.array_equal(f1_nan, f1)  # bitwise identical


def test_spectral_threshold_reference_value():
    # kappa_bar = 1, n = T = 50: 4 sqrt(10) sqrt(300).
    assert spectral_threshold(1.0, 50, 50) == pytest.approx(219.089, abs=1e-3)
    # Small kappa_bar hits the floor max{., 2}.
    assert spectral_threshold(0.1, 50, 50) == pytest.approx(8 * math.sqrt(300), rel=1e-12)
    with pytest.raises(ValueError):
        spectral_threshold(0.0, 50, 50)
    with pytest.raises(ValueError, match="kappa_bar must be positive"):
        spectral_threshold(math.nan, 50, 50)


def test_adaptive_truncation_logic():
    n = t = 20
    weak = RNG.standard_normal((n, t))  # pure noise: far below threshold
    est = adaptive_estimate_m11(weak, kappa_bar=1.0)
    assert est.truncated and est.value == 0.0
    assert est.spectral_stat <= est.threshold

    # Crafted high-signal input (not an in-space instance: the threshold is a
    # worst-case constant that in-space desk-scale instances cannot clear).
    strong = 1000.0 * random_rank_one(n, t)
    est = adaptive_estimate_m11(strong, kappa_bar=1.0)
    assert not est.truncated
    assert est.spectral_stat > est.threshold
    assert est.value == pytest.approx(estimate_m11(strong), rel=1e-12)


def test_adaptive_ci_branches_and_width():
    n = t = 20
    kappa_bar = 1.0
    weak = RNG.standard_normal((n, t))
    est, iv = adaptive_ci(weak, kappa_bar)
    assert est.truncated and (iv.lower, iv.upper) == (-kappa_bar, kappa_bar)

    strong = 1000.0 * random_rank_one(n, t)
    est, iv = adaptive_ci(strong, kappa_bar, c0=4.0)
    expected = 4.0 * min(math.sqrt(n + t) / est.spectral_stat, 1.0)
    assert iv.width == pytest.approx(expected, rel=1e-12)
    assert iv.contains(est.value)
    # Width bound holds in both branches.
    assert iv.width <= max(4.0, 2 * kappa_bar) + 1e-12

    stronger = 10.0 * strong
    assert adaptive_ci(stronger, kappa_bar, c0=4.0)[1].width < iv.width

    # The interval comes with the adaptive estimate it is centered on.
    for x in (weak, strong):
        assert adaptive_ci(x, kappa_bar, 4.0)[0] == adaptive_estimate_m11(x, kappa_bar)

    with pytest.raises(ValueError):
        adaptive_ci(strong, kappa_bar, c0=0.0)
    # A NaN c0 is refused on the truncated branch too, where the width
    # never reads it.
    with pytest.raises(ValueError, match="c0 must be positive"):
        adaptive_ci(weak, kappa_bar, c0=math.nan)


def _adaptive_unscreened(x, kappa_bar):
    # adaptive_estimate_m11 without its Frobenius screen: sigma_1 decides.
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    stat = spectral_norm(zero_entry_11(x))
    thr = spectral_threshold(kappa_bar, n, t)
    if stat <= thr:
        return EntrywiseEstimate(0.0, stat, thr, truncated=True)
    return EntrywiseEstimate(estimate_m11(x), stat, thr, truncated=False)


def _assert_decides_as_unscreened(x, kappa_bar):
    est = adaptive_estimate_m11(x, kappa_bar)
    ref = _adaptive_unscreened(x, kappa_bar)
    assert est.truncated == ref.truncated
    if not est.truncated:
        assert est == ref  # bitwise: value, sigma_1 and threshold
        return est
    assert est.value == 0.0 and est.threshold == ref.threshold
    assert est.spectral_stat <= est.threshold
    # sigma_1 itself, or the Frobenius norm that screened it (>= sigma_1
    # up to rounding).
    assert est.spectral_stat >= ref.spectral_stat * (1.0 - 1e-12)
    return est


@given(n=st.integers(2, 60), t=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       signal=st.floats(0.0, 2.0), noise=st.sampled_from([0.0, 1e-3, 1.0]),
       j=st.integers(-600, 600))
@example(n=60, t=60, seed=0, signal=1.0, noise=1.0, j=300)  # sum of squares overflows
@example(n=60, t=60, seed=0, signal=1.0, noise=1.0, j=-300)
@example(n=40, t=7, seed=1, signal=0.9, noise=1e-3, j=-540)  # squares underflow
@example(n=7, t=40, seed=2, signal=1.1, noise=1e-3, j=520)
@settings(max_examples=200, deadline=None)
def test_adaptive_screen_decides_as_sigma_1(n, t, seed, signal, noise, j):
    # A rank-one signal at `signal` times the threshold plus noise, all
    # scaled by 2**j; kappa_bar scales along for j >= 0, so that the
    # threshold does too and both branches occur at every such scale.
    rng = np.random.default_rng(seed)
    kappa_bar = 1.0
    thr = spectral_threshold(kappa_bar, n, t)
    lu, f = rng.standard_normal(n), rng.standard_normal(t)
    x = signal * thr * np.outer(lu / np.linalg.norm(lu), f / np.linalg.norm(f))
    x += noise * rng.standard_normal((n, t))
    _assert_decides_as_unscreened(np.ldexp(x, j), np.ldexp(kappa_bar, max(j, 0)))


@pytest.mark.parametrize("shape", [(2, 2), (3, 50), (60, 5), (100, 100)])
@pytest.mark.parametrize("rel", [-1e-11, -1e-13, 0.0, 1e-13, 1e-11])
def test_adaptive_screen_tight_on_rank_one(shape, rel):
    # For a rank-one z, |z|_F = sigma_1: the screen's bound is tight, and
    # sigma_1 within its allowance of the threshold must fall through.
    n, t = shape
    rng = np.random.default_rng(n * t)
    thr = spectral_threshold(1.0, n, t)
    lu, f = rng.standard_normal(n), rng.standard_normal(t)
    lu[0] = 0.0  # z = x with (1,1) zeroed is exactly the rank-one matrix
    x = thr * (1.0 + rel) * np.outer(lu / np.linalg.norm(lu), f / np.linalg.norm(f))
    x[0, 0] = 5.0
    est = _assert_decides_as_unscreened(x, 1.0)
    if rel:  # at rel = 0 rounding decides, the same way on both paths
        assert est.truncated == (rel < 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scale", [1.0, 1e3])  # truncated, then not
def test_adaptive_screen_non_finite_entries(bad, scale):
    x = scale * random_rank_one(30, 20) + RNG.standard_normal((30, 20))
    fuzzed = x.copy()
    fuzzed[0, 0] = bad
    assert adaptive_estimate_m11(fuzzed, 1.0) == _assert_decides_as_unscreened(x, 1.0)
    for i, j in [(0, 1), (1, 0), (29, 19)]:
        fuzzed = x.copy()
        fuzzed[i, j] = bad
        for estimate in (adaptive_estimate_m11, _adaptive_unscreened):
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                estimate(fuzzed, 1.0)


def test_screened_call_makes_no_decomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decomposed a screened matrix")

    monkeypatch.setattr(entrywise, "spectral_norm", refuse)
    monkeypatch.setattr(linalg, "_subset_eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    weak = RNG.standard_normal((100, 100))
    est = adaptive_estimate_m11(weak, kappa_bar=1.0)
    assert est.truncated
    assert est.spectral_stat == pytest.approx(np.linalg.norm(zero_entry_11(weak)), rel=1e-13)
    assert adaptive_ci(weak, kappa_bar=1.0) == (est, Interval(-1.0, 1.0))
    with pytest.raises(AssertionError, match="decomposed"):
        adaptive_estimate_m11(1000.0 * random_rank_one(100, 100), kappa_bar=1.0)


def test_eigenvalue_ratio_khat_noiseless():
    m = random_rank_one(10, 10)
    assert _ratio_khat(svd_truncated(m, 4).s ** 2, 3) == 1
    with pytest.raises(ValueError):
        _ratio_khat(svd_truncated(m, 11).s ** 2, 10)


def test_eigenvalue_ratio_khat_one_strong_factor():
    n = t = 100
    inst = FactorInstance(np.full((n, t), 1.0), 1.0)
    hits = 0
    for r in range(200):
        x = sample_observation(inst, replication_rng(102, 0, r))
        hits += _ratio_khat(svd_truncated(x, 3).s ** 2, 2) == 1
    assert hits >= 190


def test_eigenvalue_ratio_khat_two_strong_factors():
    n = t = 100
    l2 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    f2 = np.where(np.arange(t) % 2 == 0, 1.0, -1.0)
    m = np.outer(np.full(n, 0.9), np.ones(t)) + np.outer(0.7 * l2, f2)
    inst = FactorInstance(m, kappa=1.6)
    hits = 0
    for r in range(200):
        x = sample_observation(inst, replication_rng(103, 0, r))
        hits += _ratio_khat(svd_truncated(x, 3).s ** 2, 2) == 2
    assert hits >= 190


def test_naive_pretest_ci_noiseless():
    m = random_rank_one(10, 10)
    iv = naive_pretest_ci(m)
    center = 0.5 * (iv.lower + iv.upper)
    assert center == pytest.approx(estimate_m11(m), abs=1e-9)
    assert iv.width == pytest.approx(0.0, abs=1e-9)


def test_naive_pretest_ci_nominal_coverage_strong_factor():
    n = t = 100
    inst = FactorInstance(np.full((n, t), 1.0), 1.0)
    covered = 0
    for r in range(500):
        x = sample_observation(inst, replication_rng(104, 0, r))
        iv = naive_pretest_ci(x)
        covered += iv.contains(inst.mean[0, 0])
    assert covered / 500 >= 0.90


def _naive_pretest_reference(x, alpha=0.05, k_max=2):
    # The pipeline that decomposes the submatrix three times with full SVDs:
    # ratio rule, loadings, and noise variance from the tail singular values.
    n, t = x.shape
    w = x[:, 1:]
    lam = np.linalg.svd(w, compute_uv=False) ** 2
    khat, best = 1, -np.inf
    for j in range(1, k_max + 1):
        if lam[j] <= 1e-12 * lam[0]:
            khat = j
            break
        if lam[j - 1] / lam[j] > best:
            khat, best = j, lam[j - 1] / lam[j]
    lhat = np.linalg.svd(w, full_matrices=False)[0][:, :khat]
    l_rest = lhat[1:, :]
    f1 = np.linalg.solve(l_rest.T @ l_rest, l_rest.T @ x[1:, 0])
    value = float(lhat[0, :] @ f1)
    scores = w.T @ lhat
    h_col = float(f1 @ np.linalg.solve(scores.T @ scores / t, f1)) / t
    sigma2 = np.sum(lam[khat:]) / w.size
    se = math.sqrt(sigma2 * (float(lhat[0, :] @ lhat[0, :]) + h_col))
    z = stats.norm.ppf(1.0 - alpha / 2.0)
    return value - z * se, value + z * se


@pytest.mark.parametrize("alpha", [1e-6, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9])
def test_normal_quantile_equals_scipy_stats(alpha):
    # naive_pretest_ci takes z from the standard library's NormalDist
    # (Wichura's AS241), not from scipy, so it equals stats.norm.ppf to a
    # few ulp rather than exactly; 3 ulp is the largest gap at these alphas.
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    ref = stats.norm.ppf(1.0 - alpha / 2.0)
    assert abs(z - ref) <= 4 * np.spacing(ref)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_naive_pretest_ci_matches_full_svd_pipeline(seed):
    n = t = 60
    l2 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    f2 = np.where(np.arange(t) % 2 == 0, 1.0, -1.0)
    # One strong factor plus a second whose strength varies with the seed, so
    # that both one and two factors are detected across seeds.
    m = np.outer(np.full(n, 0.9), np.ones(t)) + np.outer(0.3 * seed * l2, f2)
    x = sample_observation(FactorInstance(m, kappa=2.0), replication_rng(105, 0, seed))
    iv = naive_pretest_ci(x)
    lower, upper = _naive_pretest_reference(x)
    assert iv.lower == pytest.approx(lower, abs=1e-12)
    assert iv.upper == pytest.approx(upper, abs=1e-12)


def test_naive_pretest_ci_validation():
    with pytest.raises(ValueError):
        naive_pretest_ci(np.ones((5, 5)), alpha=1.5)


def test_calibrate_c0_runs_and_positive():
    # At desk scale every in-space draw truncates, so the calibration falls
    # back to the default constant, and says so.
    match = r"calibrated 0 of 40 replications on the grid n=30, T=30, tau=\[10.0, 20.0\]"
    with pytest.warns(RuntimeWarning, match=match):
        c0 = calibrate_c0(30, 30, kappa=1.0, tau_grid=[10.0, 20.0], reps=20)
    assert c0 > 0
    assert c0 == DEFAULT_C0


def _normal_exponents(x):
    # Powers of two j for which every entry of 2**j x stays a normal float,
    # with 8 bits of headroom below overflow for the sums of n products.
    finfo = np.finfo(float)
    lo = int(np.frexp(np.min(np.abs(x)))[1])
    hi = int(np.frexp(np.max(np.abs(x)))[1])
    return finfo.minexp + 1 - lo, finfo.maxexp - 8 - hi


@given(n=st.integers(3, 12), t=st.integers(3, 12), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0, 30), data=st.data())
@settings(max_examples=100, deadline=None)
def test_estimate_m11_scale_and_sign_equivariant(n, t, seed, tau, data):
    rng = np.random.default_rng(seed)
    x = tau * random_rank_one(n, t, rng) + rng.standard_normal((n, t))
    j = data.draw(st.integers(*_normal_exponents(x)), label="j")
    base = estimate_m11(x)
    assert estimate_m11(np.ldexp(x, j)) == pytest.approx(np.ldexp(base, j), rel=1e-12)
    assert estimate_m11(-x) == pytest.approx(-base, rel=1e-12)


# Invariances of the entrywise estimators.  Relative bounds are 1e-12; for
# m_hat the bound is relative to max(|m_hat|, max|x|), since the fit's inner
# product L'x[1:, 0] may cancel to near zero and then carries rounding of
# the data's size.  Over 20 000 draws the largest moves were 4.9e-13 of
# |m_hat| and 4.5e-13 of the pre-test width under permutation.


def _entrywise_draw(n, t, seed, tau):
    rng = np.random.default_rng(seed)
    return rng, tau * random_rank_one(n, t, rng) + rng.standard_normal((n, t))


def _assert_m11_moved_at_most(moved, base, x):
    assert abs(moved - base) <= 1e-12 * max(abs(base), np.max(np.abs(x)))


def _assert_endpoints_moved_at_most(moved, base, rel):
    # Each endpoint within rel of the base interval's width.
    assert max(abs(moved.lower - base.lower), abs(moved.upper - base.upper)) <= rel * base.width


# At n = T = 50, kappa = 5 and tau = 200 the spiked instance lies well above
# the detection threshold 138.6 at kappa_bar = 0.5, so the adaptive interval
# is not the trivial one; at kappa_bar = 5 the threshold is 1095 and it is.
_SPIKED_50 = spiked_rank_one_instance(50, 50, 200.0, kappa=5.0)


@given(n=st.integers(4, 12), t=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0, 30))
@settings(max_examples=100, deadline=None)
def test_pretest_flips_with_the_global_sign_bitwise(n, t, seed, tau):
    _, x = _entrywise_draw(n, t, seed, tau)
    assert estimate_m11(-x) == -estimate_m11(x)
    iv, flipped = naive_pretest_ci(x), naive_pretest_ci(-x)
    assert (flipped.lower, flipped.upper) == (-iv.upper, -iv.lower)


@given(rep=st.integers(0, 10**6), kappa_bar=st.sampled_from([0.5, 5.0]))
@settings(max_examples=40, deadline=None)
def test_adaptive_ci_flips_with_the_global_sign_bitwise(rep, kappa_bar):
    x = sample_observation(_SPIKED_50, replication_rng(3, 0, rep))
    est, iv = adaptive_ci(x, kappa_bar)
    est_f, iv_f = adaptive_ci(-x, kappa_bar)
    assert est_f.truncated == est.truncated == (kappa_bar == 5.0)
    assert est_f.value == -est.value and est_f.spectral_stat == est.spectral_stat
    assert (iv_f.lower, iv_f.upper) == (-iv.upper, -iv.lower)


@given(n=st.integers(4, 12), t=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0, 30))
@settings(max_examples=100, deadline=None)
def test_estimators_invariant_to_signs_and_order_of_rows_and_columns_2_on(n, t, seed, tau):
    # Flipping or permuting rows 2..n and columns 2..T leaves entry (1,1),
    # its row and its column in place.
    rng, x = _entrywise_draw(n, t, seed, tau)
    rows = np.r_[1.0, rng.choice([-1.0, 1.0], n - 1)]
    cols = np.r_[1.0, rng.choice([-1.0, 1.0], t - 1)]
    row_order = np.r_[0, 1 + rng.permutation(n - 1)]
    col_order = np.r_[0, 1 + rng.permutation(t - 1)]
    m, iv = estimate_m11(x), naive_pretest_ci(x)
    for y in (rows[:, None] * x * cols, x[row_order][:, col_order]):
        _assert_m11_moved_at_most(estimate_m11(y), m, x)
        _assert_endpoints_moved_at_most(naive_pretest_ci(y), iv, 1e-12)


@given(rep=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_adaptive_ci_invariant_to_order_of_rows_and_columns_2_on(rep, seed):
    # Over 200 draws the endpoints moved by at most 1.9e-14 of the width.
    x = sample_observation(_SPIKED_50, replication_rng(3, 0, rep))
    rng = np.random.default_rng(seed)
    y = x[np.r_[0, 1 + rng.permutation(49)]][:, np.r_[0, 1 + rng.permutation(49)]]
    (est, iv), (est_p, iv_p) = adaptive_ci(x, 0.5), adaptive_ci(y, 0.5)
    assert not est.truncated and not est_p.truncated
    _assert_endpoints_moved_at_most(iv_p, iv, 1e-12)


@given(n=st.integers(4, 12), t=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0, 30))
@settings(max_examples=100, deadline=None)
def test_pretest_endpoints_scale_with_the_data(n, t, seed, tau):
    _, x = _entrywise_draw(n, t, seed, tau)
    iv = naive_pretest_ci(x)
    for j in (-30, -7, 9, 30):  # powers of two scale every step exactly
        scaled = naive_pretest_ci(np.ldexp(x, j))
        assert (scaled.lower, scaled.upper) == (np.ldexp(iv.lower, j), np.ldexp(iv.upper, j))
    for c in (1e-4, 1e4):
        scaled = Interval(c * iv.lower, c * iv.upper)
        _assert_endpoints_moved_at_most(naive_pretest_ci(c * x), scaled, 1e-12)


# The adaptive interval does not scale with the data, not even with kappa_bar
# scaled alike, so no such property is tested: its half-width
# (c0/2) min{sqrt(n + T)/sigma_1, 1} assumes unit noise, so x -> c x divides
# it by c, and the threshold's max{sqrt(10) kappa_bar, 2} is not homogeneous
# in kappa_bar.
