import ctypes
import functools
import sys
import threading
import types
import unittest.mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakfactor import linalg
from weakfactor.entrywise import spectral_threshold
from weakfactor.model import FactorInstance

from weakfactor.linalg import (
    max_abs_entry,
    numerical_rank,
    singular_values,
    spectral_norm,
    svd_truncated,
    trace_product,
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
    a = np.ldexp(_spectral_case((n, t), tau, 1.0, np.random.default_rng(seed)), exponent)
    uf, sf, vft = np.linalg.svd(a, full_matrices=False)
    for k in range(1, min(n, t) + 1):
        u, s, v = svd_truncated(a, k)
        assert np.max(np.abs(s - sf[:k])) <= 1e-12 * sf[0]
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
        # The best rank-k approximation is unique, and so comparable with
        # the oracle, only where sigma_k stands clear of sigma_{k+1}.
        if k == min(n, t) or sf[k - 1] - sf[k] > 1e-3 * sf[0]:
            oracle = (uf[:, :k] * sf[:k]) @ vft[:k]
            assert np.max(np.abs((u * s) @ v.T - oracle)) <= 1e-12 * sf[0]


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
        theta, z = ritz_top(alpha, beta)
        z = z.copy()
        z[-1] = 0.0
        return theta, z

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


def test_trace_product_identity():
    a = RNG.standard_normal((4, 5))
    b = RNG.standard_normal((4, 5))
    assert trace_product(a, b) == pytest.approx(np.trace(a.T @ b), rel=1e-12)
    with pytest.raises(ValueError):
        trace_product(a, b.T)


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


_PUBLIC_KERNELS = {
    "svd_truncated": lambda a: svd_truncated(a, 1),
    "spectral_norm": spectral_norm,
    "max_abs_entry": max_abs_entry,
    "zero_entry_11": zero_entry_11,
    "trace_product": lambda a: trace_product(a, a),
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


def test_non_finite_rejected():
    a = np.ones((3, 3))
    a[1, 1] = np.nan
    with pytest.raises(ValueError):
        spectral_norm(a)


def _scaled_gram(a):
    # The Gram matrix svd_truncated hands the subset eigensolver.
    b = linalg._scaled(a, np.max(np.abs(a)))[0]
    return b @ b.T


def _assert_subset_eigh_matches_scipy(gram, lo, hi):
    w, z = linalg._subset_eigh(gram, lo, hi, vectors=True)
    w_ref, z_ref = scipy.linalg.eigh(gram, subset_by_index=[lo, hi], check_finite=False)
    assert np.array_equal(w, w_ref) and np.array_equal(z, z_ref)
    w, z = linalg._subset_eigh(gram, lo, hi, vectors=False)
    w_ref = scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=[lo, hi],
                              check_finite=False)
    assert np.array_equal(w, w_ref) and z is None


@pytest.mark.parametrize("m", [1, 2, 5, 100, 257])
def test_subset_eigh_equals_scipy_eigh(m):
    gram = _scaled_gram(_spectral_case((m, m + 3), 3.0 * m, 1.0, np.random.default_rng(m)))
    for k in range(1, min(4, m) + 1):
        _assert_subset_eigh_matches_scipy(gram, m - k, m - 1)


@given(m=st.integers(1, 30), extra=st.integers(-5, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_subset_eigh_equals_scipy_eigh_drawn(m, extra, seed, data):
    rng = np.random.default_rng(seed)
    gram = _scaled_gram(rng.standard_normal((m, max(1, m + extra))))
    lo = data.draw(st.integers(0, m - 1), label="lo")
    hi = data.draw(st.integers(lo, m - 1), label="hi")
    _assert_subset_eigh_matches_scipy(gram, lo, hi)


def test_subset_eigh_releases_the_gil():
    assert not type(linalg._lapack()["dsyevr"])._flags_ & ctypes._FUNCFLAG_PYTHONAPI


@pytest.mark.parametrize("shape, lo, hi", [((5, 5), 3, 2), ((5, 5), -1, 2), ((5, 5), 3, 5),
                                           ((5, 4), 0, 1), ((5,), 0, 1)])
def test_subset_eigh_rejects_bad_arguments(shape, lo, hi):
    with pytest.raises(ValueError):
        linalg._subset_eigh(np.ones(shape), lo, hi, vectors=True)


def test_dsyevr_signature_checked(monkeypatch):
    # Every integer argument is passed at 64 bits, so an OpenBLAS whose
    # configuration does not report 64-bit integers must be refused, not
    # called, even though it exports every routine; the numpy routes run.
    if linalg._lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    real = linalg._openblas()
    lib = types.SimpleNamespace(**{f"scipy_{name}_64_": getattr(real, f"scipy_{name}_64_")
                                   for name in linalg._ROUTINES})
    lib.scipy_openblas_get_config64_ = lambda: b"OpenBLAS 0.3.31 DYNAMIC_ARCH MAX_THREADS=64"
    monkeypatch.setattr(linalg, "_openblas", lambda: lib)
    monkeypatch.setattr(linalg, "_lapack", functools.cache(linalg._lapack.__wrapped__))
    assert linalg._lapack() is None
    a = _spectral_case((300, 300), 100.0, 1.0, np.random.default_rng(8))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


@pytest.mark.parametrize("shape", [(200, 200), (300, 250), (90, 400), (1000, 1000)])
def test_numpy_routes_match_lapack_routes(shape, monkeypatch):
    # Without numpy's bundled OpenBLAS each of the three ctypes routines'
    # sites takes a numpy route: eigh for dsyevr, the Gram route for the
    # Krylov steps' dstemr, and numpy's b - q c for dgemm.
    rng = np.random.default_rng(shape[0] + shape[1])
    a = _spectral_case(shape, 4.0 * np.sqrt(max(shape)), 1.0, rng)
    low = _low_rank(shape, 2, shape[0])
    routes = []
    for lapack in (linalg._lapack, lambda: None):
        monkeypatch.setattr(linalg, "_lapack", lapack)
        routes.append((*svd_truncated(a, 3), spectral_norm(a), singular_values(low)))
    for got, want in zip(*routes):  # U, s, V, sigma_1, the low-rank spectrum
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
