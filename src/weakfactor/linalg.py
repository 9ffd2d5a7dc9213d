"""Dense matrix utilities: truncated SVD, spectral norm and validation spectra.

Everything here operates on plain 2-D numpy arrays of floats.  These are the
building blocks for the factor-model estimators; all functions are pure and
none mutate their inputs.

The estimators need only their leading k <= 4 singular triplets, so
:func:`svd_truncated` and :func:`spectral_norm` take the top k eigenpairs of
the Gram matrix of the shorter side from LAPACK's subset eigensolver
(``dsyevr``) instead of a full SVD, and :func:`svd_truncated` recovers the
triplets with one small k x T SVD (a Rayleigh-Ritz step).  The solver is
``dsyevr`` from the OpenBLAS that numpy bundles, called through ctypes with
the arguments ``scipy.linalg.eigh`` passes it (so with results equal to
scipy's bit for bit), and without the GIL: worker threads solve
concurrently instead of queueing on the interpreter lock.  The rank checks
keep the full SVD, because their 1e-8 relative cutoff lies below the
sqrt(eps) that Gram eigenvalues resolve.

:func:`spectral_norm` needs sigma_1 alone.  From a shorter side of 200 on
it first tries Golub-Kahan-Lanczos bidiagonalization with full
reorthogonalization from a fixed start vector: a few matrix-vector products
instead of the O(n^3) Gram product and tridiagonalization.  It returns that
value only under an explicit residual certificate, |b'u - sigma v| <= 1e-12
sigma, and otherwise (no certificate within 30 steps, as on pure noise,
where sigma_1 and sigma_2 nearly tie) falls back to the Gram route.  Below
200 the Gram route is as fast as the Krylov steps' fixed costs, and
:func:`svd_truncated` stays on it at every size: its callers need triplets
inside or near the noise bulk, where Lanczos converges slowly.

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
``dsyevr``, ``dstemr`` and ``dgemm``) runs in the thread pool of numpy's
bundled OpenBLAS.  :func:`single_blas_thread` caps it at one thread;
replications run under it in parallel, and the kernels cap themselves.
Without a bundled OpenBLAS each ctypes routine's site takes a numpy route.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SvdResult",
    "svd_truncated",
    "spectral_norm",
    "max_abs_entry",
    "zero_entry_11",
    "trace_product",
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


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _as_matrix_top(a) -> tuple[np.ndarray, float]:
    """(a, max|a|) with the checks of _as_matrix, from one scan of max|a|.

    A NaN or an infinity makes the maximum non-finite; an empty matrix has
    max 0.  The maximum is also the scale that _scaled takes.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    top = np.max(np.abs(a)) if a.size else 0.0
    if not np.isfinite(top):
        raise ValueError("matrix contains non-finite entries")
    return a, top


def _orient_columns(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic sign convention: make the largest-magnitude entry of each
    # left singular vector positive; flip the paired right vector to match.
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


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
    """((get, set),) of the thread count of numpy's bundled OpenBLAS, or ()."""
    get = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return ((get, set_),)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread.

    The pool's previous thread count is restored on exit, so a nested use
    changes nothing.  Without a bundled OpenBLAS nothing changes.  The count
    is process-wide, so the body's worker threads run on one BLAS thread
    each instead of competing with BLAS threads for the cores.  Threads that
    enter it concurrently without an enclosing use may restore each other's
    counts out of order; start them inside one use, as run_experiment does.
    """
    pools = _openblas_threads()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)


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


# The Fortran arguments of each routine taken from numpy's OpenBLAS, each a
# pointer: c to a character, i to a 64-bit integer, d to a double.
_ROUTINES = {
    "dsyevr": "cccididdiididdiidiiii",
    "dstemr": "cciddddiiiddiiiidiiii",
    "dgemm": "cciiiddididdi",
}


@functools.cache
def _lapack() -> dict | None:
    """{name: routine} of _ROUTINES in numpy's bundled OpenBLAS, or None.

    Only a library reporting 64-bit integers, the width every integer is
    passed at, is used.  Pointers are c_void_p (all 64 bits of an address);
    ctypes releases the GIL during each call.  gfortran appends each
    character argument's length, a size_t, which a routine in C ignores.
    """
    config = getattr(_openblas(), "scipy_openblas_get_config64_", None)
    if config is None:
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    if b"USE64BITINT" not in config().split():
        return None
    routines = {}
    for name, codes in _ROUTINES.items():
        routine = getattr(_openblas(), f"scipy_{name}_64_", None)
        if routine is None:
            return None
        routine.argtypes = ([ctypes.c_char_p if code == "c" else ctypes.c_void_p for code in codes]
                            + [ctypes.c_size_t] * codes.count("c"))
        routine.restype = None
        routines[name] = routine
    return routines


# How _bind passes each type of Fortran argument.
_PASS = {
    bytes: lambda arg: arg,
    np.ndarray: lambda arg: arg.ctypes.data,
    int: lambda arg: ctypes.byref(ctypes.c_int64(arg)),
    float: lambda arg: ctypes.byref(ctypes.c_double(arg)),
    ctypes.c_int64: ctypes.byref,
}


def _bind(name: str, *args) -> Callable[[], None]:
    """_lapack()[name] with its Fortran arguments bound: bytes as characters,
    arrays by address, ints and floats by reference to an int64 or a double,
    a c_int64 (an output) by reference, and each character's hidden length.
    The arrays and outputs must outlive every call."""
    refs = [_PASS[type(arg)](arg) for arg in args]
    return functools.partial(_lapack()[name], *refs, *[1] * _ROUTINES[name].count("c"))


def _call_dsyevr(jobz, m, a, lo, hi, w, z, ldz, work, lwork, iwork, liwork):
    # range "I" (il = lo + 1, iu = hi + 1), uplo "L" and abstol 0, as
    # scipy.linalg.eigh(subset_by_index=[lo, hi]) passes them.  Returns
    # (number of eigenvalues found, info).
    found, info = ctypes.c_int64(), ctypes.c_int64()
    isuppz = np.empty(2 * (hi - lo + 1), dtype=np.int64)
    _bind("dsyevr", jobz, b"I", b"L", m, a, m, 0.0, 0.0, int(lo) + 1, int(hi) + 1, 0.0, found,
          w, z, ldz, isuppz, work, lwork, iwork, liwork, info)()
    return found.value, info.value


@functools.cache
def _dsyevr_workspace(m: int, jobz: bytes) -> tuple[int, int]:
    """Optimal (lwork, liwork) of dsyevr at order m, from a workspace query."""
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    a, w, z = np.empty((m, m), order="F"), np.empty(m), np.empty((m, 1), order="F")
    _, info = _call_dsyevr(jobz, m, a, 0, 0, w, z, m, work, -1, iwork, -1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr workspace query failed: info={info}")
    return int(work[0]), int(iwork[0])


def _subset_eigh(gram: np.ndarray, lo: int, hi: int, vectors: bool):
    """Eigenvalues lo..hi (0-based, ascending) of the symmetric `gram`.

    Returns (w, z): the eigenvalues and, if `vectors`, their eigenvectors as
    columns (else None).  Bitwise equal to scipy.linalg.eigh(gram,
    subset_by_index=[lo, hi], check_finite=False), but the solve runs
    without the GIL.  Reads the lower triangle of a Fortran-order copy; like
    check_finite=False, it assumes finite entries (its callers check them).
    Without dsyevr (_lapack() is None) it slices numpy's full eigh.
    """
    m = gram.shape[0]
    if gram.shape != (m, m) or not 0 <= lo <= hi < m:
        raise ValueError(f"need a square matrix and 0 <= lo <= hi < m, got shape "
                         f"{gram.shape}, lo={lo}, hi={hi}")
    if _lapack() is None:
        w, z = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
        return w[lo:hi + 1], (z[:, lo:hi + 1] if vectors else None)
    count = hi - lo + 1
    jobz = b"V" if vectors else b"N"
    lwork, liwork = _dsyevr_workspace(m, jobz)
    a = np.array(gram, dtype=float, order="F")
    w = np.empty(m)
    z = np.empty((m, count) if vectors else (1, 1), order="F")
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    found, info = _call_dsyevr(jobz, m, a, lo, hi, w, z, z.shape[0], work, lwork, iwork, liwork)
    if info != 0 or found != count:
        raise np.linalg.LinAlgError(
            f"dsyevr failed: info={info}, found {found} of {count} eigenvalues")
    return w[:count], (z if vectors else None)


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
    a, top = _as_matrix_top(a)
    kmax = min(a.shape)
    if not 1 <= k <= kmax:
        raise ValueError(f"k={k} out of range [1, {kmax}]")
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    m = a.shape[0]
    with single_blas_thread():
        b = _scaled(a, top)[0]
        q = _subset_eigh(b @ b.T, m - k, m - 1, vectors=True)[1]
        ub, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
    u, v = q @ ub, vt.T
    if tall:
        u, v = v, u
    u, v = _orient_columns(u, v)
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


@functools.lru_cache(maxsize=256)
def _dstemr(thread: int, n: int):
    """(call, d, e, w, z, flags): dstemr at order n, with the arguments of
    scipy.linalg.lapack.dstemr bound once per order and per thread (threads
    solve concurrently), so that a Krylov step pays for the solve alone.
    flags are found, tryrac and info; the views keep both buffers alive."""
    x, ints = np.empty(22 * n), np.empty(10 * n + 5, dtype=np.int64)
    d, e, w, z, work = x[:n], x[n:2 * n], x[2 * n:3 * n], x[3 * n:4 * n], x[4 * n:]
    call = _bind("dstemr", b"V", b"I", n, d, e, 0.0, 0.0, n, n, ints[0:], w, z, n, n, ints[3:],
                 ints[1:], work, 18 * n, ints[5:], 10 * n, ints[2:])
    return call, d, e, w, z, ints[:3]


def _ritz_top(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Largest singular value of the upper-bidiagonal B and its vectors.

    B is k x k with diagonal alpha and superdiagonal beta.  The symmetric
    2k x 2k tridiagonal with zero diagonal and off-diagonal (alpha_0,
    beta_0, alpha_1, ..., alpha_{k-1}) has eigenvalues +-sigma_i(B); the
    eigenvector z of its largest interleaves the right and left singular
    vectors, y = z[0::2] and x = z[1::2], each of norm 1/sqrt(2).  Solved by
    LAPACK's dstemr for that one eigenpair; None if it fails.
    """
    call, d, e, w, z, flags = _dstemr(threading.get_ident(), 2 * alpha.size)
    d[:] = 0.0  # dstemr overwrites d and e
    e[-1] = 0.0  # it takes the off-diagonal padded to length 2k
    e[0::2] = alpha
    e[1:-1:2] = beta
    flags[1] = 1  # tryrac, which dstemr may clear
    call()
    if flags[2] != 0 or flags[0] != 1:
        return None
    return float(w[0]), z.copy()


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
    breaks down, and None without dstemr (_lapack() is None).
    """
    if _lapack() is None:
        return None
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
        theta, z = ritz
        # b'U x - theta V y = beta_j x_last v_{j+1}, with |x| = sqrt(2) |z[1::2]|.
        if beta[j] * np.sqrt(2.0) * abs(z[-1]) <= _KRYLOV_RTOL * theta:
            v = z[0::2] @ vs[:j + 1]
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
    per-step costs are fixed); at 200 it is 1.3-2.2 times faster with a
    signal and a fallback costs 2.4 times the Gram route; at 400 it is 3-6
    times faster and a fallback costs 1.5 times; at 2000, 12-19 times
    faster.  Both routes run on one BLAS thread on the power-of-two-scaled
    b of _scaled, so the result is a fixed function of the entries.
    """
    a, top = _as_matrix_top(a)
    if top == 0.0:
        return 0.0
    if a.shape[0] > a.shape[1]:
        a = a.T
    m = a.shape[0]
    with single_blas_thread():
        b, e = _scaled(a, top)
        top = _krylov_norm(b) if m >= _KRYLOV_MIN else None
        if top is None:
            top = np.sqrt(_subset_eigh(b @ b.T, m - 1, m - 1, vectors=False)[0][0])
    return float(np.ldexp(top, e))


def max_abs_entry(a) -> float:
    """Entrywise sup norm."""
    return float(_as_matrix_top(a)[1])


def zero_entry_11(a) -> np.ndarray:
    """Copy of `a` with its (1,1) entry (index [0, 0]) replaced by zero.

    The entry is zeroed before the finiteness check, so whatever it held,
    NaN or an infinity included, is never read.
    """
    out = np.array(a, dtype=float, order="C")
    if out.ndim == 2:
        out[0, 0] = 0.0
    return _as_matrix(out)


def trace_product(a, b) -> float:
    """trace(A'B), i.e. the entrywise inner product of A and B."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


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
    cancels to about RANK_RTOL).  Weyl's
    inequality and Eckart-Young give sigma_i(B) <= sigma_i(b) <=
    sigma_i(B) + rho for i <= 4, and sigma_i(b) <= rho for i > 4.  When
    rho <= _SKETCH_RTOL sigma_1(B), the result is sigma_1..4(B) followed by
    zeros: every value, a tail zero included, lies at most rho below the
    true one, so a zero in the tail means "at most rho", not exactly zero.
    A matrix of rank 4 or less is certified with rho at rounding level, a
    zero matrix with rho = 0.

    Otherwise (rank 5 or more, or a side of 4 or less) the result is
    np.linalg.svd(a, compute_uv=False).  Input that is not 2-D or has a
    non-finite entry raises ValueError, as in the other kernels.
    """
    a, top = _as_matrix_top(a)
    if min(a.shape) > _SKETCH_WIDTH:
        with single_blas_thread():
            b, e = _scaled(a, top)
            q = np.linalg.qr(b @ _krylov_start(b.shape[1], _SKETCH_WIDTH).T)[0]
            c = q.T @ b
            s = np.linalg.svd(c, compute_uv=False)
            if _lapack() is None:
                b = b - q @ c
            else:  # b - QB written over b, a copy: b' - c'q' by dgemm in column-major terms
                b, q, c = (np.ascontiguousarray(x) for x in (b, q, c))
                _bind("dgemm", b"N", b"N", b.shape[1], b.shape[0], _SKETCH_WIDTH, -1.0, c,
                      b.shape[1], q, _SKETCH_WIDTH, 1.0, b, b.shape[1])()
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
