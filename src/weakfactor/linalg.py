"""Dense matrix utilities: truncated SVD, spectral norm and validation spectra.

Everything here operates on plain 2-D numpy arrays of floats.  These are the
building blocks for the factor-model estimators; all functions are pure and
none mutate their inputs.

The estimators need only their leading k <= 4 singular triplets, so
:func:`svd_truncated` and :func:`spectral_norm` take the top k eigenpairs of
the Gram matrix of the shorter side from LAPACK's subset eigensolver
(``dsyevr``) instead of a full SVD, and :func:`svd_truncated` recovers the
triplets with one small k x T SVD (a Rayleigh-Ritz step).  The solver is
``dsyevr`` from the OpenBLAS that numpy bundles, the one routine called
through ctypes, with the arguments ``scipy.linalg.eigh`` passes it (so with
results equal to scipy's bit for bit), and without the GIL: worker threads
solve concurrently instead of queueing on the interpreter lock.  The rank
checks keep the full SVD, because their 1e-8 relative cutoff lies below the
sqrt(eps) that Gram eigenvalues resolve.

:func:`spectral_norm` needs sigma_1 alone.  From a shorter side of 200 on
it first tries Golub-Kahan-Lanczos bidiagonalization with full
reorthogonalization from a fixed start vector: a few matrix-vector products
instead of the O(n^3) Gram product and tridiagonalization.  It returns that
value only under an explicit residual certificate, |b'u - sigma v| <= 1e-12
sigma, and otherwise (no certificate within 30 steps, as on pure noise,
where sigma_1 and sigma_2 nearly tie) falls back to the Gram route.  Each
step's Ritz solve is numpy's eigh of a small tridiagonal, so the route needs
no ctypes routine and runs on every numpy.  Below 200 the Gram route is as
fast as the Krylov steps' fixed costs, and :func:`svd_truncated` stays on it
at every size: its callers need triplets inside or near the noise bulk,
where Lanczos converges slowly.

Ground-truth validation (instance construction and the two-point pairs)
takes every singular-value spectrum it needs from
:func:`singular_values`.  Every ground truth built here has rank at most 2,
so that function first tries a randomized range finder of width 4 with an
explicit residual certificate: O(nT) work instead of the O(nT min(n, T)) of
a full SVD.  Any matrix it cannot certify, among them every matrix of
rank 5 or more, gets the full values-only SVD, so the rank decisions built
on these spectra are those of the full SVD.

Every public function refuses input that is not 2-D or has a non-finite
entry (outside entry (1,1) for :func:`zero_entry_11`) with ``ValueError``
before any decomposition.

Every BLAS and LAPACK call here (through numpy, or through ctypes for
``dsyevr``) runs in the one thread pool of numpy's bundled OpenBLAS.
:func:`single_blas_thread` caps it at one thread; replications run under it
in parallel, and the kernels cap themselves.  Without a bundled OpenBLAS the
Gram route takes numpy's full eigh instead of ``dsyevr``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import NamedTuple

import numpy as np

__all__ = [
    "SvdResult",
    "svd_truncated",
    "spectral_norm",
    "max_abs_entry",
    "zero_entry_11",
    "numerical_rank",
    "singular_values",
    "single_blas_thread",
    "RANK_RTOL",
]

# Relative tolerance used both for numerical-rank decisions
# (sigma_{k+1} <= RANK_RTOL * sigma_1 counts as rank <= k) and for
# inequality slack in the two-point pairs' space checks.
RANK_RTOL = 1e-8


class SvdResult(NamedTuple):
    """Top-k singular triplets: U (n x k), s (k,), V (T x k)."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def _as_matrix(a) -> tuple[np.ndarray, float]:
    """(a, max|a|) for `a` as a 2-D float array, checked through max|a|.

    max|a| = |max(max a, -min a)| needs no temporary the size of `a`, and the
    abs clears an all-zero matrix's -0.0.  A NaN or an infinity makes it
    non-finite; an empty matrix has max 0.  It is also the scale _scaled takes.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    top = abs(np.maximum(a.max(), -a.min())) if a.size else 0.0
    if not np.isfinite(top):
        raise ValueError("matrix contains non-finite entries")
    return a, top


def _orient_columns(u: np.ndarray, v: np.ndarray) -> None:
    # Deterministic sign convention: make the largest-magnitude entry of each
    # left singular vector positive; flip the paired right vector to match.
    # Both are flipped in place, so the caller passes arrays of its own.
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(peak < 0, -1.0, 1.0)
    u *= signs
    v *= signs


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None.

    Looked up on first use, not at import.  numpy wheels ship OpenBLAS in
    numpy.libs with 64-bit-integer symbols; ctypes.CDLL returns the copy
    numpy has already loaded.  A numpy built against another BLAS has none.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    paths = sorted(glob.glob(pattern))
    return ctypes.CDLL(paths[0]) if paths else None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    get = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The uses of single_blas_thread under way in this process, and the pool's
# thread count that the first of them saved; both guarded by _CAP_LOCK.
_CAP_LOCK = threading.Lock()
_cap_users = _cap_saved = 0


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread.

    The count is process-wide, so the body's worker threads run on one BLAS
    thread each instead of competing with BLAS threads for the cores.  Uses
    are counted across threads: the first to enter saves the pool's thread
    count and sets 1, and the last to leave restores the saved count, so
    nested and concurrent uses, from any threads, all run on one thread and
    leave the pool as they found it.  Without a bundled OpenBLAS nothing
    changes.
    """
    global _cap_users, _cap_saved
    pool = _openblas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    with _CAP_LOCK:
        if _cap_users == 0:
            _cap_saved = get()
            set_(1)
        _cap_users += 1
    try:
        yield
    finally:
        with _CAP_LOCK:
            _cap_users -= 1
            if _cap_users == 0:
                set_(_cap_saved)


def _scaled(a: np.ndarray, top: float) -> tuple[np.ndarray, int]:
    """(b, e) with b = a 2**-e, e the frexp exponent of top = max|a|.

    The largest entry of b lies in [1/2, 1), so neither b b' nor a Krylov
    recurrence on b overflows or underflows whatever the scale of `a`; the
    singular values of b are those of `a` times 2**-e.  Scaled with ldexp
    rather than by 2.0**-e, which overflows when max|a| is subnormal.  Every
    caller has already scanned `a` for max|a| and passes it as `top`.
    """
    e = int(np.frexp(top)[1])
    return np.ldexp(a, -e), e


@functools.cache
def _lapack():
    """dsyevr from numpy's bundled OpenBLAS as a ctypes routine, or None.

    Only a library reporting 64-bit integers, the width every integer is
    passed at, is used.  Each of the routine's arguments has its type
    declared here, so ctypes refuses a wrong one (an array of another dtype
    or layout, a Python number or an integer of another width where a
    pointer to an int64 or a double belongs) with ctypes.ArgumentError
    before the routine runs, and passes a c_int64 or c_double by reference.
    ctypes releases the GIL during each call.  gfortran appends each
    character argument's length, a size_t, which a routine in C ignores.
    """
    config = getattr(_openblas(), "scipy_openblas_get_config64_", None)
    routine = getattr(_openblas(), "scipy_dsyevr_64_", None)
    if config is None or routine is None:
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    if b"USE64BITINT" not in config().split():
        return None
    # One type per argument, in order: jobz, range, uplo (c); n, a, lda, vl,
    # vu, il, iu, abstol, m, w, z, ldz, isuppz, work, lwork, iwork, liwork,
    # info (i an int64 and d a double by reference, f and j float64 and
    # int64 arrays); and the three lengths (s).
    i, d = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    f, j = (np.ctypeslib.ndpointer(t, flags="F_CONTIGUOUS") for t in (np.float64, np.int64))
    c, s = ctypes.c_char_p, ctypes.c_size_t
    routine.argtypes = [c, c, c, i, f, i, d, d, i, i, d, i, f, f, i, j, f, i, j, i, i, s, s, s]
    routine.restype = None
    return routine


def _call_dsyevr(jobz, m, a, k, w, z, ldz, work, lwork, iwork, liwork):
    # The top k eigenvalues: range "I" (il = m - k + 1, iu = m), uplo "L" and
    # abstol 0, as scipy.linalg.eigh(subset_by_index=[m - k, m - 1]) passes
    # them, then the three characters' hidden lengths.  Returns (number of
    # eigenvalues found, info).
    n, zero = ctypes.c_int64(m), ctypes.c_double(0.0)
    found, info = ctypes.c_int64(), ctypes.c_int64()
    _lapack()(jobz, b"I", b"L", n, a, n, zero, zero, ctypes.c_int64(m - k + 1), n, zero, found,
              w, z, ctypes.c_int64(ldz), np.empty(2 * k, dtype=np.int64), work,
              ctypes.c_int64(lwork), iwork, ctypes.c_int64(liwork), info, 1, 1, 1)
    return found.value, info.value


@functools.cache
def _dsyevr_workspace(m: int, jobz: bytes) -> tuple[int, int]:
    """Optimal (lwork, liwork) of dsyevr at order m, from a workspace query."""
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    a, w, z = np.empty((m, m), order="F"), np.empty(m), np.empty((m, 1), order="F")
    _, info = _call_dsyevr(jobz, m, a, 1, w, z, m, work, -1, iwork, -1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr workspace query failed: info={info}")
    return int(work[0]), int(iwork[0])


def _subset_eigh(b: np.ndarray, k: int, vectors: bool):
    """Top k eigenpairs of the Gram matrix b b' of the m x t float `b`.

    Returns (w, z): the k largest eigenvalues, ascending, and, if `vectors`,
    their eigenvectors as columns (else None).  Bitwise equal to
    scipy.linalg.eigh(b @ b.T, subset_by_index=[m - k, m - 1],
    check_finite=False), but the solve runs without the GIL.  The Gram
    matrix is formed here, under the caller's BLAS cap: numpy's b @ b.T is a
    fresh C-order buffer and exactly symmetric, so dsyevr decomposes it in
    place, reading the lower triangle of the Fortran matrix gram.T.  Like
    check_finite=False, it assumes finite entries (its callers check them).
    Without dsyevr (_lapack() is None) it slices numpy's full eigh.
    """
    if b.ndim != 2 or not 1 <= k <= b.shape[0]:
        raise ValueError(f"need a 2-D matrix and 1 <= k <= m, got shape {b.shape}, k={k}")
    m = b.shape[0]
    gram = b @ b.T
    if _lapack() is None:
        w, z = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
        return w[m - k:], (z[:, m - k:] if vectors else None)
    jobz = b"V" if vectors else b"N"
    lwork, liwork = _dsyevr_workspace(m, jobz)
    w = np.empty(m)
    z = np.empty((m, k) if vectors else (1, 1), order="F")
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    found, info = _call_dsyevr(jobz, m, gram.T, k, w, z, z.shape[0], work, lwork, iwork, liwork)
    if info != 0 or found != k:
        raise np.linalg.LinAlgError(f"dsyevr failed: info={info}, found {found} of {k} eigenvalues")
    return w[:k], (z if vectors else None)


def svd_truncated(a, k: int) -> SvdResult:
    """Best rank-k factors of `a` from the Gram eigenproblem.

    The top-k eigenvectors Q of the Gram matrix of the shorter side, from
    the subset eigensolver on one BLAS thread, span the leading singular
    subspace; the SVD of the k x T matrix Q'a then gives s, V and U = Q U_b.
    That step works on the unscaled `a`, so V is orthonormal to machine
    precision and s does not inherit the squared condition number of the
    Gram matrix.

    Returns orthonormal U, V and nonincreasing singular values.  k may equal
    min(n, T), in which case the full decomposition is returned.
    """
    a, top = _as_matrix(a)
    kmax = min(a.shape)
    if not 1 <= k <= kmax:
        raise ValueError(f"k={k} out of range [1, {kmax}]")
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    with single_blas_thread():
        b = _scaled(a, top)[0]
        q = _subset_eigh(b, k, vectors=True)[1]
        ub, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
    # Both in C order: the layout moves the last bits of products that read them.
    u, v = q @ ub, np.ascontiguousarray(vt.T)
    if tall:
        u, v = v, u
    _orient_columns(u, v)
    return SvdResult(U=u, s=s, V=v)


# spectral_norm's Krylov route: the shorter side from which it is taken, its
# step cap, the residual tolerance of its certificate, and the seed of its
# start vector (also that of singular_values' sketch).
_KRYLOV_MIN = 200
_KRYLOV_STEPS = 30
_KRYLOV_RTOL = 1e-12
_KRYLOV_SEED = 20191023


@functools.lru_cache(maxsize=8)
def _krylov_start(t: int, k: int = 1) -> np.ndarray:
    """Read-only k x t block of fixed-seed Gaussian rows, each of unit norm.

    Row 0 is spectral_norm's Krylov start vector and the same for every k;
    singular_values' sketch takes the transpose of the k = 4 block.
    """
    v = np.random.default_rng(_KRYLOV_SEED).standard_normal((k, t))
    for row in v:
        row /= np.linalg.norm(row)
    v.flags.writeable = False
    return v


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> float:
    """Orthogonalize w in place against the orthonormal rows of basis.

    Two passes of classical Gram-Schmidt (the second restores what rounding
    lost in the first); returns the norm of the remainder, which is left
    unnormalized.
    """
    for _ in range(2):
        w -= (basis @ w) @ basis
    return float(np.linalg.norm(w))


def _ritz_top(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray, float] | None:
    """Largest singular value theta of the upper-bidiagonal B and its vectors.

    B is k x k with diagonal alpha and superdiagonal beta.  The top
    eigenpair (theta^2, y) of the tridiagonal B'B, whose diagonal is
    alpha_i^2 + beta_{i-1}^2 and whose subdiagonal is alpha_i beta_i, comes
    from numpy's eigh of its lower triangle; y is the right singular vector.
    The left one is x = B y / theta, of which only its last entry,
    alpha_{k-1} y_{k-1} / theta, is needed.  Returns (theta, y, x_last);
    None if eigh fails.
    """
    gram = np.diag(alpha**2 + np.append(0.0, beta**2)) + np.diag(alpha[:-1] * beta, -1)
    try:
        lam, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None
    theta, y = float(np.sqrt(lam[-1])), vecs[:, -1]
    return theta, y, float(alpha[-1] * y[-1] / theta)


def _krylov_norm(b: np.ndarray) -> float | None:
    """Certified largest singular value of b (_KRYLOV_STEPS < m <= t), or None.

    Golub-Kahan-Lanczos bidiagonalization b V = U B from _krylov_start, with
    full reorthogonalization of both bases, for at most _KRYLOV_STEPS steps.
    After each step the top singular pair of B gives a Ritz vector v; once
    the recurrence's own residual estimate falls below tolerance, the
    certificate is computed explicitly from b: with v normalized,
    sigma = |b v| and u = b v / sigma, it holds when
    |b'u - sigma v| <= _KRYLOV_RTOL sigma.  Returns sigma if it holds, None
    if it does not within the cap or the recurrence or the Ritz solve
    breaks down.  The Ritz pair comes from B'B (_ritz_top), which squares
    the condition number of B; that is harmless here, because whether sigma
    is returned rests on the certificate computed from b alone.  The route
    binds no LAPACK routine, so it runs whether or not _lapack() has one.
    """
    b = np.ascontiguousarray(b)
    m, t = b.shape
    steps = _KRYLOV_STEPS
    us, vs = np.empty((steps, m)), np.empty((steps + 1, t))
    alpha, beta = np.empty(steps), np.empty(steps)
    vs[0] = _krylov_start(t)[0]
    for j in range(steps):
        p = b @ vs[j]
        if j:
            p -= beta[j - 1] * us[j - 1]
        alpha[j] = _orthogonalize(p, us[:j])
        if alpha[j] == 0.0:
            return None
        us[j] = p / alpha[j]
        q = us[j] @ b - alpha[j] * vs[j]
        beta[j] = _orthogonalize(q, vs[:j + 1])
        ritz = _ritz_top(alpha[:j + 1], beta[:j])
        if ritz is None:
            return None
        theta, y, x_last = ritz
        # b'U x - theta V y = beta_j x_last v_{j+1}.
        if beta[j] * abs(x_last) <= _KRYLOV_RTOL * theta:
            v = y @ vs[:j + 1]
            v /= np.linalg.norm(v)
            u = b @ v
            sigma = float(np.linalg.norm(u))
            if np.linalg.norm(u @ b / sigma - sigma * v) <= _KRYLOV_RTOL * sigma:
                return sigma
        if beta[j] == 0.0:
            return None
        vs[j + 1] = q / beta[j]
    return None


def spectral_norm(a) -> float:
    """Largest singular value of `a`.

    From a shorter side of _KRYLOV_MIN on, the Krylov route (_krylov_norm)
    is tried first.  Its explicit certificate bounds the distance from the
    returned sigma to a singular value of `a` by _KRYLOV_RTOL sigma /
    sqrt(2), and sigma = |a v| for a unit v never exceeds sigma_1.  That the
    singular value found is sigma_1 rests on the start vector having a
    component along the top right singular vector, as a Gaussian has with
    probability one; Lanczos then finds sigma_1 first.  Each step costs two
    matrix-vector products and two reorthogonalizations.  For a rank-one
    signal tau plus standard noise at n = T it certifies in 7-9 steps at
    tau = n / 2, 15-17 at tau = 2.85 sqrt(n) and about 30 at
    tau = 1.6 sqrt(n); on pure noise sigma_1 and sigma_2 nearly tie and it
    does not certify within the cap.

    Otherwise, and below that size, sigma_1 is the root of the largest
    eigenvalue of the Gram matrix of the shorter side, from the subset
    eigensolver.  Where the crossover sits, measured on one BLAS thread: at
    n = T = 100 the Krylov route is slower even with a signal (its
    per-step costs are fixed); at 200 it is 1.0-2.1 times faster with a
    signal and a fallback costs 3.0-3.4 times the Gram route; at 400 it is
    3-6 times faster and a fallback costs 1.7 times; at 2000, 14-31 times
    faster.  Both routes run on one BLAS thread on the power-of-two-scaled
    b of _scaled, so the result is a fixed function of the entries.
    """
    a, top = _as_matrix(a)
    if top == 0.0:
        return 0.0
    if a.shape[0] > a.shape[1]:
        a = a.T
    with single_blas_thread():
        b, e = _scaled(a, top)
        top = _krylov_norm(b) if b.shape[0] >= _KRYLOV_MIN else None
        if top is None:
            top = np.sqrt(_subset_eigh(b, 1, vectors=False)[0][0])
    return float(np.ldexp(top, e))


def max_abs_entry(a) -> float:
    """Entrywise sup norm."""
    return float(_as_matrix(a)[1])


def zero_entry_11(a) -> np.ndarray:
    """Copy of `a` with its (1,1) entry (index [0, 0]) replaced by zero.

    The entry is zeroed before the finiteness check, so whatever it held,
    NaN or an infinity included, is never read.
    """
    out = np.array(a, dtype=float, order="C")
    if out.ndim == 2:
        out[0, 0] = 0.0
    return _as_matrix(out)[0]


# singular_values' sketch: its width, the largest rank it certifies, and the
# residual tolerance of its certificate.
_SKETCH_WIDTH = 4
_SKETCH_RTOL = 1e-12


def singular_values(a) -> np.ndarray:
    """All min(n, T) singular values of `a`, nonincreasing.

    When both sides exceed _SKETCH_WIDTH, a randomized range finder is
    tried first (Halko, Martinsson and Tropp, arXiv:0909.4061, section 4.3),
    on the power-of-two-scaled b of _scaled, whose scale is the max|a| that
    validated the input: with Omega the fixed-seed T x 4 block of
    _krylov_start, Q = qr(b Omega) and B = Q'b, the residual
    rho = |b - QB|_F is formed explicitly (the shortcut |b|_F^2 - |B|_F^2
    cancels to about RANK_RTOL), in blocks of 64 rows over b itself, so the
    sketch holds one n x T array besides `a`.  Weyl's inequality and
    Eckart-Young give sigma_i(B) <= sigma_i(b) <= sigma_i(B) + rho for
    i <= 4, and sigma_i(b) <= rho for i > 4.  When
    rho <= _SKETCH_RTOL sigma_1(B), the result is sigma_1..4(B) followed by
    zeros: every value, a tail zero included, lies at most rho below the
    true one, so a zero in the tail means "at most rho", not exactly zero.
    A matrix of rank 4 or less is certified with rho at rounding level, a
    zero matrix with rho = 0.

    Otherwise (rank 5 or more, or a side of 4 or less) the result is
    np.linalg.svd(a, compute_uv=False).  Input that is not 2-D or has a
    non-finite entry raises ValueError, as in the other kernels.
    """
    a, top = _as_matrix(a)
    if min(a.shape) > _SKETCH_WIDTH:
        with single_blas_thread():
            b, e = _scaled(a, top)
            q = np.linalg.qr(b @ _krylov_start(b.shape[1], _SKETCH_WIDTH).T)[0]
            c = q.T @ b
            s = np.linalg.svd(c, compute_uv=False)
            # b - QB written over b, _scaled's own copy, 64 rows at a time:
            # the product's temporary is 64 x T, not a second n x T.
            for i in range(0, b.shape[0], 64):
                b[i:i + 64] -= q[i:i + 64] @ c
            rho = np.linalg.norm(b)
        if rho <= _SKETCH_RTOL * s[0]:
            out = np.zeros(min(a.shape))
            out[:_SKETCH_WIDTH] = np.ldexp(s, e)
            return out
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(a) -> int:
    """Number of singular values above RANK_RTOL * sigma_1."""
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
