import ctypes
import functools
import sys
import threading
import tracemalloc
import types
import unittest.mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakfactor import linalg
from weakfactor.entrywise import (
    adaptive_ci,
    adaptive_estimate_m11,
    estimate_m11,
    naive_pretest_ci,
    spectral_threshold,
)
from weakfactor.model import FactorInstance
from weakfactor.panel import ci_star, estimate_beta, ls_estimator

from weakfactor.linalg import (
    max_abs_entry,
    numerical_rank,
    singular_values,
    spectral_norm,
    svd_truncated,
    zero_entry_11,
)

RNG = np.random.default_rng(1)


small_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


def _spectral_case(shape, tau, scale, rng):
    # tau times a random unit rank-one matrix plus standard noise, times scale.
    l = rng.standard_normal(shape[0])
    f = rng.standard_normal(shape[1])
    signal = tau * np.outer(l / np.linalg.norm(l), f / np.linalg.norm(f))
    return (signal + rng.standard_normal(shape)) * scale


def _spectral_cases():
    # Wide, tall and square shapes, no signal and a signal at the detection
    # threshold at n=T=100, and scales whose Gram matrix would overflow or
    # underflow unscaled; one more case has a subnormal largest entry.
    rng = np.random.default_rng(7)
    cases = []
    for n, t in [(8, 5), (5, 8), (100, 99), (100, 100)]:
        for tau_name, tau in [("0", 0.0), ("thr", spectral_threshold(1.0, 100, 100))]:
            for scale_name, scale in [("1", 1.0), ("2^-600", 2.0**-600), ("2^600", 2.0**600)]:
                case_id = f"{n}x{t}-tau{tau_name}-scale{scale_name}"
                cases.append(pytest.param(_spectral_case((n, t), tau, scale, rng), id=case_id))
    subnormal = _spectral_case((8, 5), 0.0, 1e-310, rng)
    assert 0.0 < np.max(np.abs(subnormal)) < np.finfo(float).tiny
    cases.append(pytest.param(subnormal, id="8x5-subnormal"))
    return cases


SPECTRAL_CASES = _spectral_cases()


@pytest.mark.parametrize("a", SPECTRAL_CASES)
def test_svd_truncated_matches_full_svd(a):
    uf, sf, vft = np.linalg.svd(a, full_matrices=False)
    for k in range(1, min(4, *a.shape) + 1):
        u, s, v = svd_truncated(a, k)
        assert np.max(np.abs(s - sf[:k])) <= 1e-12 * sf[0]
        # Best rank-k approximation agrees with the full-SVD oracle.
        oracle = (uf[:, :k] * sf[:k]) @ vft[:k]
        assert np.max(np.abs((u * s) @ v.T - oracle)) <= 1e-12 * sf[0]
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12


@given(n=st.integers(2, 12), t=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0, 20), exponent=st.integers(-600, 600))
@settings(max_examples=100, deadline=None)
def test_svd_truncated_matches_full_svd_drawn(n, t, seed, tau, exponent):
    a0 = _spectral_case((n, t), tau, 1.0, np.random.default_rng(seed))
    a = np.ldexp(a0, exponent)
    uf, sf, vft = np.linalg.svd(a, full_matrices=False)
    for k in range(1, min(n, t) + 1):
        u, s, v = svd_truncated(a, k)
        # Exactly scale-equivariant: the same factors as the unscaled case.
        u0, s0, v0 = svd_truncated(a0, k)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)
        assert np.array_equal(s, np.ldexp(s0, exponent))
        assert np.max(np.abs(s - sf[:k])) <= 1e-12 * sf[0]
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
        # The best rank-k approximation is unique, and so comparable with
        # the oracle, only where sigma_k stands clear of sigma_{k+1}.
        if k == min(n, t) or sf[k - 1] - sf[k] > 1e-3 * sf[0]:
            oracle = (uf[:, :k] * sf[:k]) @ vft[:k]
            assert np.max(np.abs((u * s) @ v.T - oracle)) <= 1e-12 * sf[0]


@given(n=st.integers(2, 12), t=st.integers(2, 12), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), tau=st.floats(0, 20), exponent=st.integers(-500, 500))
@settings(max_examples=200, deadline=None)
def test_svd_truncated_scores_are_v_times_s(n, t, k, seed, tau, exponent):
    # a'U = V S, which lets naive_pretest_ci read its scores from s and V.
    # The wide branch gets it from the Rayleigh-Ritz step Q'a = U_b S V' up
    # to the rounding of products.  The tall branch forms U = a Q U_b S^-1,
    # so a'U - V S is the Gram eigensolver's residual, of order eps s_1^2,
    # divided by s_k.  The bounds are about 10 times the worst of 30 000
    # draws at n, T <= 40: 5.2e-15 s_1 wide and 5.4e-15 s_1^2 / s_k tall.
    k = min(k, n, t)
    a = np.ldexp(_spectral_case((n, t), tau, 1.0, np.random.default_rng(seed)), exponent)
    u, s, v = svd_truncated(a, k)
    bound = 5e-14 * s[0] * (s[0] / s[k - 1] if n > t else 1.0)
    assert np.max(np.abs(a.T @ u - v * s)) <= bound


def test_svd_truncated_orthonormal_and_deterministic_sign():
    a = RNG.standard_normal((6, 6))
    u, s, v = svd_truncated(a, 4)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)
    for j in range(4):
        i = int(np.argmax(np.abs(u[:, j])))
        assert u[i, j] > 0
    # Sign flips of the input columns cannot change the reconstruction.
    u2, s2, v2 = svd_truncated(a, 4)
    assert np.array_equal(u, u2) and np.array_equal(v, v2)
    # A numpy integer k is the same k.
    assert all(np.array_equal(x, y) for x, y in zip(svd_truncated(a, np.int64(4)), (u, s, v)))


def test_svd_truncated_rejects_bad_k():
    a = RNG.standard_normal((4, 3))
    with pytest.raises(ValueError):
        svd_truncated(a, 0)
    with pytest.raises(ValueError):
        svd_truncated(a, 4)


def test_norms_against_numpy():
    a = RNG.standard_normal((6, 9))
    s = np.linalg.svd(a, compute_uv=False)
    assert spectral_norm(a) == pytest.approx(s[0], rel=1e-12)
    assert max_abs_entry(a) == np.max(np.abs(a))
    for case in SPECTRAL_CASES:
        b = case.values[0]
        assert spectral_norm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)


@given(a=arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5))))
@settings(max_examples=200, deadline=None)
def test_max_abs_entry_is_the_largest_absolute_entry(a):
    # Drawn floats include -0.0, subnormals, both infinities and NaN.
    want = np.max(np.abs(a)) if a.size else 0.0
    if not np.isfinite(want):
        with pytest.raises(ValueError, match="non-finite"):
            max_abs_entry(a)
    else:
        got = max_abs_entry(a)
        assert got == want and not np.signbit(got)


def _krylov_cases():
    # Shapes at and above the Krylov route's crossover, wide and tall; no
    # signal, a signal at the detection threshold at n=T=100, and a strong
    # one; scales whose squares would overflow or underflow unscaled.
    cases = []
    for n, t in [(200, 200), (400, 400), (400, 250), (250, 400)]:
        for tau_name, tau in [("0", 0.0), ("thr", spectral_threshold(1.0, 100, 100)),
                              ("half", 0.5 * np.sqrt(n * t))]:
            for scale_name, scale in [("1", 1.0), ("2^-600", 2.0**-600), ("2^600", 2.0**600)]:
                cases.append(pytest.param((n, t), tau, scale,
                                          id=f"{n}x{t}-tau{tau_name}-scale{scale_name}"))
    cases.append(pytest.param((200, 200), spectral_threshold(1.0, 100, 100), 1e-310,
                              id="200x200-tauthr-subnormal"))
    return cases


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the spectral_norm routes taken during the test, in order."""
    calls = []

    def recording(name, original):
        def record(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return record

    for name in ("_krylov_norm", "_subset_eigh"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    return calls


@pytest.mark.parametrize("shape, tau, scale", _krylov_cases())
def test_spectral_norm_krylov_route_matches_full_svd(shape, tau, scale, kernel_calls):
    a = _spectral_case(shape, tau, scale, np.random.default_rng(shape[0] + shape[1]))
    if scale < 1e-300:
        assert 0.0 < np.max(np.abs(a)) < np.finfo(float).tiny
    s = spectral_norm(a)
    assert s == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert kernel_calls[0] == "_krylov_norm"
    if tau > 0:
        assert kernel_calls == ["_krylov_norm"]  # certified: no fallback
    # Bitwise deterministic: a repeat, a copy and, on the certified route,
    # a Fortran-order copy give the same value.
    assert spectral_norm(a) == s
    assert spectral_norm(a.copy()) == s
    if tau > 0:
        assert spectral_norm(np.asfortranarray(a)) == s


def test_krylov_certificate_is_computed_from_the_matrix(monkeypatch):
    # A Ritz solve that reports a zero residual at every step is not
    # trusted: the certificate is checked against the matrix itself.
    ritz_top = linalg._ritz_top

    def overconfident(alpha, beta):
        theta, y, _ = ritz_top(alpha, beta)
        return theta, y, 0.0

    monkeypatch.setattr(linalg, "_ritz_top", overconfident)
    a = _spectral_case((300, 300), 100.0, 1.0, np.random.default_rng(6))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_spectral_norm_pure_noise_falls_back_exactly(kernel_calls):
    # sigma_1 and sigma_2 of pure noise nearly tie, so no certificate holds
    # within the step cap; the Gram route gives the value.
    a = np.random.default_rng(4).standard_normal((400, 400))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert kernel_calls == ["_krylov_norm", "_subset_eigh"]


def test_spectral_norm_gram_route_below_crossover(kernel_calls):
    a = _spectral_case((199, 400), 300.0, 1.0, np.random.default_rng(5))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert spectral_norm(a.T) == spectral_norm(a)
    assert kernel_calls == ["_subset_eigh"] * 3


def test_krylov_start_vector_fixed_and_read_only():
    v = linalg._krylov_start(300)
    assert not v.flags.writeable
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
    linalg._krylov_start.cache_clear()
    assert np.array_equal(linalg._krylov_start(300), v)


def test_spectral_norm_power_iteration_oracle():
    a = RNG.standard_normal((30, 20))
    v = RNG.standard_normal(20)
    for _ in range(500):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    oracle = np.linalg.norm(a @ v)
    assert spectral_norm(a) == pytest.approx(oracle, rel=1e-8)


def test_zero_entry_11_copies():
    a = np.arange(6.0).reshape(2, 3)
    b = zero_entry_11(a)
    assert b[0, 0] == 0.0
    assert a[0, 0] == 0.0  # unchanged original (it was 0 already)
    a2 = a + 1
    b2 = zero_entry_11(a2)
    assert a2[0, 0] == 1.0 and b2[0, 0] == 0.0
    assert np.array_equal(b2.ravel()[1:], a2.ravel()[1:])
    # The hidden entry is zeroed before the finiteness check reads it.
    for hidden in (np.nan, np.inf, -np.inf):
        a3 = a2.copy()
        a3[0, 0] = hidden
        assert np.array_equal(zero_entry_11(a3), b2)
    a2[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        zero_entry_11(a2)


def test_numerical_rank():
    u = RNG.standard_normal((6, 2))
    v = RNG.standard_normal((5, 2))
    assert numerical_rank(u @ v.T) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4


def _low_rank(shape, rank, seed, exponent=0):
    # A random rank-`rank` matrix times 2**exponent.
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1])),
                    exponent)


def _full_size(calls):
    # Values-only SVDs larger than the sketch's 4 x T.
    return [shape for shape in calls if min(shape) > linalg._SKETCH_WIDTH]


# Within 2 * _SKETCH_RTOL * sigma_1 of the full SVD: the certificate allows
# rho <= _SKETCH_RTOL * sigma_1, and rounding in either decomposition adds a
# few eps * sigma_1.
@given(n=st.integers(1, 60), t=st.integers(1, 50), rank=st.integers(0, 4),
       exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_singular_values_sketch_matches_full_svd(n, t, rank, exponent, seed):
    a = _low_rank((n, t), rank, seed, exponent)
    ref = np.linalg.svd(a, compute_uv=False)
    calls = []
    svd = np.linalg.svd

    def counting_svd(x, *args, **kwargs):
        calls.append(np.shape(x))
        return svd(x, *args, **kwargs)

    with unittest.mock.patch.object(np.linalg, "svd", counting_svd):
        s = singular_values(a)
    assert s.shape == ref.shape
    assert np.all(np.abs(s - ref) <= 2 * linalg._SKETCH_RTOL * (ref[0] if ref.size else 0.0))
    assert np.all(np.diff(s) <= 0)
    # Both sides above 4: the sketch's 4 x t SVD certifies and no full SVD
    # follows.  Otherwise the full SVD is taken directly.
    assert calls == ([(4, t)] if min(n, t) > 4 else [(n, t)])


@pytest.mark.parametrize("a", [
    np.random.default_rng(6).standard_normal((30, 20)),
    _low_rank((30, 20), 5, 7),
], ids=["gaussian", "rank5"])
def test_singular_values_falls_back_to_the_full_svd(a, svd_values_calls):
    s = singular_values(a)
    assert svd_values_calls == [(4, 20), (30, 20)]
    assert np.array_equal(s, np.linalg.svd(a, compute_uv=False))


def test_singular_values_non_finite_raises_before_any_svd(svd_values_calls):
    a = _low_rank((10, 8), 1, 8)
    for bad in (np.nan, np.inf):
        a[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(a)
    assert svd_values_calls == []
    with pytest.raises(ValueError, match="non-finite"):
        numerical_rank(a)


def test_numerical_rank_sketch_and_fallback(svd_values_calls):
    for rank in range(5):
        assert numerical_rank(_low_rank((40, 30), rank, rank)) == rank
    assert _full_size(svd_values_calls) == []
    assert numerical_rank(_low_rank((40, 30), 5, 9)) == 5
    assert numerical_rank(np.eye(30)) == 30
    assert _full_size(svd_values_calls) == [(40, 30), (30, 30)]


@pytest.mark.parametrize("ratio, accepted", [(1e-7, False), (1e-10, True)])
def test_factor_instance_rank_decision_at_the_edges(ratio, accepted, svd_values_calls):
    # sigma = (1, 0.5, ratio) on orthonormal factors: sigma_3 is 10 times
    # RANK_RTOL * sigma_1 above the cutoff, or 100 times below it.
    rng = np.random.default_rng(10)
    u = np.linalg.qr(rng.standard_normal((50, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((40, 3)))[0]
    m = 30.0 * (u * [1.0, 0.5, ratio]) @ v.T
    if accepted:
        FactorInstance(m, kappa=10.0)
    else:
        with pytest.raises(ValueError, match="numerical rank > 2"):
            FactorInstance(m, kappa=10.0)
    assert svd_values_calls == [(4, 40)]


def test_singular_values_holds_one_copy_of_the_matrix():
    # The sketch writes b - QB over b, _scaled's copy of the input, 64 rows
    # at a time: its traced peak is that copy and a 64 x T block, about
    # 1.2 n T doubles at 400 x 400; an n x T product q @ c would make it 2.
    a = _low_rank((400, 400), 2, 13)
    tracemalloc.start()
    try:
        s = singular_values(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not s[linalg._SKETCH_WIDTH:].any()  # certified by the sketch
    assert peak <= 1.5 * a.size * a.itemsize


_PUBLIC_KERNELS = {
    "svd_truncated": lambda a: svd_truncated(a, 1),
    "spectral_norm": spectral_norm,
    "max_abs_entry": max_abs_entry,
    "zero_entry_11": zero_entry_11,
    "numerical_rank": numerical_rank,
    "singular_values": singular_values,
}


def _bad_input(kind):
    if kind == "1-D":
        return np.ones(6)
    if kind == "3-D":
        return np.ones((2, 6, 6))
    a = np.ones((6, 6))
    a[2, 3] = np.nan if kind == "nan" else np.inf  # off (1,1), which zero_entry_11 drops
    return a


@pytest.mark.parametrize("kind, message", [("nan", "non-finite"), ("inf", "non-finite"),
                                           ("1-D", "2-D"), ("3-D", "2-D")])
@pytest.mark.parametrize("name", sorted(_PUBLIC_KERNELS))
def test_public_kernels_refuse_invalid_input(name, kind, message):
    with pytest.raises(ValueError, match=message):
        _PUBLIC_KERNELS[name](_bad_input(kind))


# Every public estimator, with the number of data matrices it reads: the
# entrywise ones take X, the panel ones X and Y.
_ESTIMATORS = {
    "estimate_m11": (estimate_m11, 1),
    "adaptive_estimate_m11": (lambda x: adaptive_estimate_m11(x, kappa_bar=1.0), 1),
    "adaptive_ci": (lambda x: adaptive_ci(x, kappa_bar=1.0), 1),
    "naive_pretest_ci": (naive_pretest_ci, 1),
    "estimate_beta-r0=1-r1=1": (lambda x, y: estimate_beta(x, y, r0=1, r1=1), 2),
    "estimate_beta-r0=0-r1=1": (lambda x, y: estimate_beta(x, y, r0=0, r1=1), 2),
    "estimate_beta-r0=1-r1=0": (lambda x, y: estimate_beta(x, y, r0=1, r1=0), 2),
    "ls_estimator-rank0": (lambda x, y: ls_estimator(x, y, rank=0), 2),
    "ls_estimator-rank2": (lambda x, y: ls_estimator(x, y, rank=2), 2),
    "ci_star": (lambda x, y: ci_star(x, y, kappa2=1.0), 2),
}
_ESTIMATOR_OPERANDS = [(name, operand) for name, (_, arity) in sorted(_ESTIMATORS.items())
                       for operand in range(arity)]


def _estimator_data():
    # X: a rank-one signal plus noise; Y = X / 2 + a rank-one signal + noise.
    rng = np.random.default_rng(12)
    x = 5.0 * np.outer(rng.standard_normal(8), rng.standard_normal(8))
    x += rng.standard_normal((8, 8))
    y = 0.5 * x + 5.0 * np.outer(rng.standard_normal(8), rng.standard_normal(8))
    return [x, y + rng.standard_normal((8, 8))]


def _refuse_decompositions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decomposed invalid data")

    monkeypatch.setattr(linalg, "_subset_eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_public_estimators_accept_the_clean_data(name):
    estimator, arity = _ESTIMATORS[name]
    estimator(*_estimator_data()[:arity])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (-1, -1)], ids=["01", "10", "last"])
@pytest.mark.parametrize("name, operand", _ESTIMATOR_OPERANDS)
def test_public_estimators_refuse_non_finite_data_before_decomposing(
        name, operand, entry, bad, monkeypatch):
    estimator, arity = _ESTIMATORS[name]
    data = _estimator_data()[:arity]
    data[operand][entry] = bad
    _refuse_decompositions(monkeypatch)
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        estimator(*data)


@pytest.mark.parametrize("kind", ["1-D", "3-D"])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_public_estimators_refuse_data_that_are_not_2d(name, kind, monkeypatch):
    estimator, arity = _ESTIMATORS[name]
    data = [a.ravel() if kind == "1-D" else a[None] for a in _estimator_data()[:arity]]
    _refuse_decompositions(monkeypatch)
    with pytest.raises(ValueError, match="expected a 2-D array"):
        estimator(*data)


def test_non_finite_rejected():
    a = np.ones((3, 3))
    a[1, 1] = np.nan
    with pytest.raises(ValueError):
        spectral_norm(a)


def _scaled(a):
    # The matrix whose Gram matrix svd_truncated asks the subset eigensolver for.
    return linalg._scaled(a, np.max(np.abs(a)))[0]


def _assert_subset_eigh_matches_scipy(b, k):
    m = b.shape[0]
    w, z = linalg._subset_eigh(b, k, vectors=True)
    w_ref, z_ref = scipy.linalg.eigh(b @ b.T, subset_by_index=[m - k, m - 1],
                                     check_finite=False)
    assert np.array_equal(w, w_ref) and np.array_equal(z, z_ref)
    w, z = linalg._subset_eigh(b, k, vectors=False)
    w_ref = scipy.linalg.eigh(b @ b.T, eigvals_only=True, subset_by_index=[m - k, m - 1],
                              check_finite=False)
    assert np.array_equal(w, w_ref) and z is None


@pytest.mark.parametrize("m", [1, 2, 5, 100, 257])
def test_subset_eigh_equals_scipy_eigh(m):
    b = _scaled(_spectral_case((m, m + 3), 3.0 * m, 1.0, np.random.default_rng(m)))
    for k in range(1, min(4, m) + 1):
        _assert_subset_eigh_matches_scipy(b, k)


@given(m=st.integers(1, 30), extra=st.integers(-5, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_subset_eigh_equals_scipy_eigh_drawn(m, extra, seed, data):
    rng = np.random.default_rng(seed)
    b = _scaled(rng.standard_normal((m, max(1, m + extra))))
    _assert_subset_eigh_matches_scipy(b, data.draw(st.integers(1, m), label="k"))


def test_subset_eigh_releases_the_gil():
    if linalg._lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    assert not type(linalg._lapack())._flags_ & ctypes._FUNCFLAG_PYTHONAPI


@pytest.mark.parametrize("shape, k", [((5, 5), 0), ((5, 5), -1), ((5, 5), 6), ((4, 5), 5),
                                      ((5,), 1)])
def test_subset_eigh_rejects_bad_arguments(shape, k):
    with pytest.raises(ValueError):
        linalg._subset_eigh(np.ones(shape), k, vectors=True)


def test_dsyevr_signature_checked(monkeypatch):
    # Every integer argument is passed at 64 bits, so an OpenBLAS whose
    # configuration does not report 64-bit integers must be refused, not
    # called, even though it exports dsyevr; the numpy routes run.
    if linalg._lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    lib = types.SimpleNamespace(scipy_dsyevr_64_=linalg._openblas().scipy_dsyevr_64_)
    lib.scipy_openblas_get_config64_ = lambda: b"OpenBLAS 0.3.31 DYNAMIC_ARCH MAX_THREADS=64"
    monkeypatch.setattr(linalg, "_openblas", lambda: lib)
    monkeypatch.setattr(linalg, "_lapack", functools.cache(linalg._lapack.__wrapped__))
    assert linalg._lapack() is None
    a = _spectral_case((300, 300), 100.0, 1.0, np.random.default_rng(8))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_dsyevr_argument_types_declared():
    if linalg._lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    c, s = ctypes.c_char_p, ctypes.c_size_t
    i, d = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    f = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    j = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS")
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
    # isuppz, work, lwork, iwork, liwork, info, and the three lengths.
    assert list(linalg._lapack().argtypes) == [c, c, c, i, f, i, d, d, i, i, d, i, f, f, i, j,
                                               f, i, j, i, i, s, s, s]


@pytest.mark.parametrize("bad", ["float32 w", "int32 iwork", "C-order z", "int lwork"])
def test_dsyevr_refuses_arguments_of_another_type(bad):
    # ctypes refuses each before dsyevr runs, so nothing is written.
    if linalg._lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    m, k = 6, 2
    lwork, liwork = linalg._dsyevr_workspace(m, b"V")
    gram = np.eye(m, order="F")
    args = {"w": np.empty(m), "z": np.empty((m, k), order="F"), "work": np.empty(lwork),
            "lwork": lwork, "iwork": np.empty(liwork, dtype=np.int64), "liwork": liwork}
    assert linalg._call_dsyevr(b"V", m, gram, k, ldz=m, **args) == (k, 0)
    if bad == "int lwork":
        # _call_dsyevr wraps its integers itself, so pass one to the routine.
        with pytest.raises(ctypes.ArgumentError):
            linalg._lapack()(b"V", b"I", b"L", m, gram, m, 0.0, 0.0, 1, m, 0.0, 0,
                             args["w"], args["z"], m, np.empty(2 * k, dtype=np.int64),
                             args["work"], lwork, args["iwork"], liwork, 0, 1, 1, 1)
        return
    replaced = {"float32 w": ("w", np.empty(m, dtype=np.float32)),
                "int32 iwork": ("iwork", np.empty(liwork, dtype=np.int32)),
                "C-order z": ("z", np.empty((m, k)))}
    name, value = replaced[bad]
    with pytest.raises(ctypes.ArgumentError):
        linalg._call_dsyevr(b"V", m, gram, k, ldz=m, **{**args, name: value})


@pytest.mark.parametrize("shape", [(200, 200), (300, 250), (90, 400), (1000, 1000)])
def test_numpy_routes_match_lapack_routes(shape, monkeypatch, kernel_calls):
    # Without numpy's bundled OpenBLAS, dsyevr's site slices numpy's eigh.
    # The Krylov route binds no LAPACK routine, so from a shorter side of
    # _KRYLOV_MIN on spectral_norm certifies there all the same, with no
    # Gram fallback.  svd_truncated's own _subset_eigh call is not counted.
    rng = np.random.default_rng(shape[0] + shape[1])
    a = _spectral_case(shape, 4.0 * np.sqrt(max(shape)), 1.0, rng)
    routes = []
    for lapack in (linalg._lapack, lambda: None):
        monkeypatch.setattr(linalg, "_lapack", lapack)
        triplets = svd_truncated(a, 3)
        kernel_calls.clear()
        routes.append((*triplets, spectral_norm(a)))
        if min(shape) >= linalg._KRYLOV_MIN:
            assert kernel_calls == ["_krylov_norm"]
    for got, want in zip(*routes):  # U, s, V, sigma_1
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_decades = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)


@given(data=st.data(), k=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_ritz_top_is_the_top_singular_triplet_of_the_bidiagonal(data, k):
    alpha = np.array(data.draw(st.lists(_decades, min_size=k, max_size=k), label="alpha"))
    beta = np.array(data.draw(st.lists(st.one_of(st.just(0.0), _decades),
                                       min_size=k - 1, max_size=k - 1), label="beta"))
    bidiagonal = np.diag(alpha) + np.diag(beta, 1)
    theta, y, x_last = linalg._ritz_top(alpha, beta)
    assert theta == pytest.approx(np.linalg.svd(bidiagonal, compute_uv=False)[0], rel=1e-13)
    residual = bidiagonal.T @ (bidiagonal @ y) - theta**2 * y
    assert np.linalg.norm(residual) <= 1e-13 * theta**2
    assert x_last == (bidiagonal @ y)[-1] / theta


def test_kernels_concurrent_calls_match_sequential():
    rng = np.random.default_rng(11)
    mats = [_spectral_case((60 + 7 * i, 50 + 3 * i), 40.0, 1.0, rng) for i in range(8)]
    mats.append(_spectral_case((210, 200), 100.0, 1.0, rng))  # on the Krylov route

    def call(a):
        return svd_truncated(a, 3), spectral_norm(a)

    sequential = [call(a) for a in mats]
    barrier = threading.Barrier(4)
    results = [None] * len(mats)

    def worker(w):
        barrier.wait()
        for _ in range(5):
            for i in range(w, len(mats), 4):
                results[i] = call(mats[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with linalg.single_blas_thread():
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (svd, norm), (svd_ref, norm_ref) in zip(results, sequential):
        assert norm == norm_ref
        assert all(np.array_equal(x, y) for x, y in zip(svd, svd_ref))
