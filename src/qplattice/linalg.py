"""Shared numerical kernels: banded products, shifted solves and eigenvalues, subspaces.

Everything here is plain linear algebra with no knowledge of lattice
operators; the operator modules feed it banded Hermitian data.
Banded storage follows the LAPACK upper convention used by
``scipy.linalg.eig_banded``: ``ab[u + i - j, j] == a[i, j]`` for
``max(0, j - u) <= i <= j``.
"""

import numpy as np
import scipy.linalg as sla

__all__ = [
    "ArgumentError",
    "ConvergenceError",
    "InvariantError",
    "banded_to_full_band",
    "banded_matmul",
    "solve_shifted_banded",
    "eigenvalues_banded",
    "counts_below_banded",
    "nearest_eigenpair",
    "orthonormal_columns",
    "principal_angles",
    "restriction_norm",
]


# Rayleigh iteration in nearest_eigenpair: relative residual and step budget
EIGENPAIR_TOL = 1e-10
EIGENPAIR_MAX_ITER = 60
# orthonormal_columns: smallest |r_ii| relative to the largest
RANK_TOL = 1e-12
# counts_below_banded: a sweep of a band wider than one is certified when
# no pivot-to-be exceeds GROWTH_BOUND times the largest entry of H - E
GROWTH_BOUND = 1e8


class ArgumentError(ValueError):
    """Inconsistent or malformed input data."""


class ConvergenceError(RuntimeError):
    """An iterative or direct solve failed its accuracy contract."""


class InvariantError(RuntimeError):
    """A structural property that the algorithms rely on was violated."""


# ── storage helpers ──────────────────────────────────────────────────────────

def banded_to_full_band(ab_upper):
    """Expand Hermitian upper-banded storage to the full band used by solvers.

    Returns ``(band, bw)`` where ``band`` has shape ``(2*bw + 1, n)`` in the
    ``scipy.linalg.solve_banded`` layout.
    """
    ab_upper = np.asarray(ab_upper)
    bw = ab_upper.shape[0] - 1
    n = ab_upper.shape[1]
    band = np.zeros((2 * bw + 1, n), dtype=ab_upper.dtype)
    band[:bw + 1] = ab_upper
    # mirror the strict upper diagonals into the lower half (conjugate)
    for k in range(1, bw + 1):
        band[bw + k, : n - k] = np.conj(ab_upper[bw - k, k:])
    return band, bw


def banded_matmul(ab_upper, x):
    """Product of a Hermitian matrix in upper-banded storage with a vector
    or a column block."""
    bw = ab_upper.shape[0] - 1
    n = ab_upper.shape[1]
    x2 = x if x.ndim == 2 else x[:, None]
    y = ab_upper[bw][:, None] * x2
    for k in range(1, min(bw, n - 1) + 1):
        up = ab_upper[bw - k, k:][:, None]
        y[: n - k] += up * x2[k:]
        y[k:] += np.conj(up) * x2[: n - k]
    return y if x.ndim == 2 else y[:, 0]


# ── shifted solves ───────────────────────────────────────────────────────────

def solve_shifted_banded(ab_upper, z, rhs, tol=1e-10):
    """Solve ``(h - z) x = rhs`` for Hermitian ``h`` in upper-banded storage.

    ``rhs`` is a vector or a column block.  The solution is residual
    checked against ``tol * ||rhs||`` and a failure raises
    :class:`ConvergenceError`.
    """
    ab_upper = np.asarray(ab_upper)
    band, bw = banded_to_full_band(ab_upper)
    band = band.astype(np.result_type(band.dtype, type(z), np.complex128), copy=True)
    band[bw] -= z
    rhs = np.asarray(rhs)
    x = sla.solve_banded((bw, bw), band, rhs)
    residual = np.linalg.norm(banded_matmul(ab_upper, x) - z * x - rhs)
    rhs_norm = np.linalg.norm(rhs)
    if residual > tol * max(rhs_norm, 1e-300):
        raise ConvergenceError(
            "banded shifted solve residual %.3e exceeds %.1e * ||rhs|| = %.3e"
            % (residual, tol, tol * rhs_norm)
        )
    return x


# ── eigenvalue helpers ───────────────────────────────────────────────────────

def eigenvalues_banded(ab_upper):
    """All eigenvalues, ascending, of a Hermitian matrix in banded upper
    storage.  A one-row band is its real diagonal: scipy's ``eig_banded``
    returns 0 for it."""
    if np.shape(ab_upper)[-1] == 1:
        return np.real(ab_upper[-1]).astype(float)
    return sla.eig_banded(ab_upper, lower=False, eigvals_only=True)


def counts_below_banded(bands, energies):
    """Number of eigenvalues strictly below each energy, for each matrix of
    a stack of Hermitian matrices in banded upper storage.

    ``bands`` has shape ``(phases, b + 1, n)``; returns integer counts of
    shape ``(phases, energies)``.  By Sylvester's law of inertia a count
    is the number of negative pivots of an LDLᴴ factorisation of H − E
    without pivoting.  A sweep's row step takes a real pivot and updates
    the b(b+1)/2 upper entries of its window: n·b²·m/2 products per matrix
    for m energies, and an eigensolve about n²·b, so the stack is swept
    only when b·m <= n; otherwise, and for a matrix whose sweep fails its
    certificate, the counts are read off :func:`eigenvalues_banded`.  A
    non-finite band or energy raises.
    """
    bands = np.asarray(bands)
    energies = np.asarray(energies, dtype=float)
    if bands.ndim != 3 or energies.ndim != 1:
        raise ArgumentError("need a stack of bands and a 1-d energy array")
    if not (np.isfinite(bands).all() and np.isfinite(energies).all()):
        raise ArgumentError("non-finite band or energy")
    bw, n = bands.shape[1] - 1, bands.shape[2]
    if 0 < bw * energies.size <= n:
        counts, certified = _inertia_sweep(bands, energies)
    else:
        counts = np.empty((bands.shape[0], energies.size), dtype=np.int64)
        certified = np.zeros(bands.shape[0], dtype=bool)
    for p in np.flatnonzero(~certified):
        counts[p] = np.searchsorted(eigenvalues_banded(bands[p]), energies)
    return counts


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _inertia_sweep(bands, energies):
    # Negative pivots of H - E at every (phase, energy), one row per step.
    # A window, the Schur complement of rows k .. k+b-1, is its real
    # diagonal d and its strict upper triangle s.  Step k takes the pivot
    # d[0], appends column k + b as (phases, 1) views of the band and writes
    # the b(b+1)/2 updated upper entries to the other window.  A pivot
    # below pivmin in magnitude becomes +pivmin (LAPACK's dstebz takes
    # -pivmin, which counts an energy on an eigenvalue), so the counts are
    # strictly below E, as searchsorted gives them.
    # Returns the counts and, per phase, whether every value stayed finite
    # and, for b > 1, every pivot-to-be within GROWTH_BOUND times the
    # largest entry of H - E.  That bounds each term of |L| |D| |L^H|, and
    # with it the backward error of the factorisation, by about
    # 2 GROWTH_BOUND eps times that entry.  A tridiagonal band needs no
    # certificate: its Sturm count is backward stable (Kahan 1966).
    n_phases, bw, n = bands.shape[0], bands.shape[1] - 1, bands.shape[2]
    shape = (n_phases, energies.size)
    # largest off-diagonal entry per phase; storage left of the band
    # (row r of column j with r + j < b) is not part of the matrix
    stored = np.arange(bw)[:, None] + np.arange(n) >= bw
    off = np.where(stored, np.abs(bands[:, :bw]), 0.0).max(axis=(1, 2))
    pivmin = np.finfo(float).tiny * np.maximum(1.0, off[:, None]) ** 2
    diag = bands[:, bw].real
    scale = np.maximum(off[:, None],
                       np.maximum(diag.max(axis=1)[:, None] - energies,
                                  energies - diag.min(axis=1)[:, None]))
    diagonals = np.empty((2, bw + 1) + shape)  # slot b: the next corner's a - E
    windows = np.empty((2, bw, bw) + shape, dtype=np.result_type(bands.dtype, float))
    updates = np.einsum("wii...->wi...", windows).real  # the diagonal slots: d's update
    diagonals[0, :bw] = diag[:, :bw].T[..., None] - energies
    for i, j in zip(*np.triu_indices(bw, 1)):
        windows[0, i, j] = bands[:, bw + i - j, j, None]
    cols = bands.transpose(2, 1, 0)[..., None]
    heads = cols[:, 0].conj()
    edge = np.zeros_like(cols[0])
    w, conj_u = np.empty((2, bw) + shape, dtype=windows.dtype)
    recip = np.zeros(shape, dtype=windows.dtype)  # 1 / d[0], imaginary part 0
    small, negative = np.empty((2,) + shape, dtype=bool)
    size, peak = np.zeros((2, bw) + shape)
    counts = np.zeros(shape, dtype=np.int64)
    for k in range(n):
        d, s, dt, t = diagonals[k % 2], windows[k % 2], diagonals[1 - k % 2], windows[1 - k % 2]
        np.copyto(d[0], pivmin, where=np.less(np.abs(d[0], out=size[0]), pivmin, out=small))
        counts += np.less(d[0], 0.0, out=negative)
        np.divide(1.0, d[0], out=recip.real)
        # past the last column: a decoupled zero row and column
        col, head, shift = ((cols[k + bw], heads[k + bw], energies) if k + bw < n
                            else (edge, edge[0], 0.0))
        # t[i, j] = s[i+1, j+1] - conj(u_i) (u_j (1/d[0])), i <= j; u = s[0, 1:], head
        np.multiply(col[0], recip, out=w[-1])
        np.multiply(head, w[-1], out=t[-1, -1])
        if bw > 1:
            np.multiply(s[0, 1:], recip, out=w[:-1])
            conj = np.conj(s[0, 1:], out=conj_u[:-1]) if windows.dtype.kind == "c" else s[0, 1:]
            for i in range(bw - 1):
                np.multiply(conj[i], w[i:], out=t[i, i:])
                np.subtract(s[i + 1, i + 2:], t[i, i + 1:-1], out=t[i, i + 1:-1])
                np.subtract(col[i + 1], t[i, -1], out=t[i, -1])
        # the new corner as (a - E) - |u|^2 / d, Kahan's order
        np.subtract(col[bw].real, shift, out=d[bw])
        np.subtract(d[1:], updates[1 - k % 2], out=dt[:bw])
        np.maximum(peak, np.abs(dt[:bw], out=size), out=peak)
    peak = peak.max(axis=0)
    certified = np.isfinite(peak) & (bw == 1 or peak <= GROWTH_BOUND * scale)
    # an off-diagonal entry past 1e154 overflows pivmin
    return counts, (certified & np.isfinite(pivmin)).all(axis=1)


def nearest_eigenpair(ab_upper, sigma):
    """Eigenpair of a banded Hermitian matrix nearest to the shift ``sigma``.

    Rayleigh-quotient iteration seeded with an inverse-iteration step; each
    step is a banded shifted solve, so the cost stays linear in the matrix
    size.  Bisection (Sturm counts) certifies the result: when an eigenvalue
    lies strictly closer to ``sigma``, the iteration restarts from the
    nearest one.  The residual must fall below EIGENPAIR_TOL within
    EIGENPAIR_MAX_ITER steps.  Returns ``(eigenvalue, eigenvector)``.
    """
    ab_upper = np.asarray(ab_upper)
    n = ab_upper.shape[1]
    rng = np.random.default_rng(n)  # fixed seed: reproducible deterministic start
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = float(sigma)
    shift = lam
    for it in range(EIGENPAIR_MAX_ITER):
        try:
            y = solve_shifted_banded(ab_upper, shift, x, tol=np.inf)
        except np.linalg.LinAlgError:
            shift += 1e-12 * max(1.0, abs(shift))
            continue
        x = y / np.linalg.norm(y)
        hx = banded_matmul(ab_upper, x)
        lam = float(np.real(np.vdot(x, hx)))
        res = np.linalg.norm(hx - lam * x)
        if res <= EIGENPAIR_TOL * max(1.0, abs(lam)):
            d = abs(lam - sigma) - 2 * EIGENPAIR_TOL * max(1.0, abs(lam))
            closer = sla.eig_banded(ab_upper, lower=False, eigvals_only=True, select="v",
                                    select_range=(sigma - d, sigma + d)) if d > 0 else []
            if not len(closer):
                return lam, x
            # restart from a fresh vector: a localized x can miss the nearer
            # eigenvector to machine precision
            lam = sigma = float(closer[np.argmin(np.abs(closer - sigma))])
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
        shift = lam
    raise ConvergenceError(
        "Rayleigh iteration stalled near shift %.6g (residual %.3e)" % (sigma, res)
    )


# ── subspace helpers ─────────────────────────────────────────────────────────

def orthonormal_columns(a):
    """Orthonormal basis for the column span, of one frame or of each in a
    stack (frames on the last two axes); raises on a rank-deficient frame."""
    a = np.atleast_2d(np.asarray(a))
    if a.shape[-1] == 0:
        return a.copy()
    q, r = np.linalg.qr(a)
    d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    low = d.min(axis=-1)
    bad = low <= RANK_TOL * np.maximum(d.max(axis=-1), 1.0)
    if bad.any():
        raise ArgumentError("rank-deficient frame (min |r_ii| = %.2e)" % low[bad][0])
    return q


def principal_angles(a, b):
    """Principal angles between the column spans of ``a`` and ``b``, ascending.

    Uses the sine-based formulation, which stays accurate for angles far
    below sqrt(machine epsilon); an arccos of singular values would bottom
    out near 1e-8.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    return np.sort(sla.subspace_angles(a, b))


def restriction_norm(a, frame):
    """Operator norm of ``a`` restricted to the span of an orthonormal frame."""
    frame = np.atleast_2d(np.asarray(frame))
    if frame.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(a @ frame, 2))
