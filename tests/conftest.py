"""Shared random factories for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so each test owns
its seed and the suite stays order-independent.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qplattice import cocycle, splitting
from qplattice.operators import (
    GOLDEN_MEAN,
    Hopping,
    LineOperator,
    Potential,
    fold_to_strip,
)
from qplattice.linalg import orthonormal_columns
from qplattice.symplectic import pairing_matrix


def random_phase(rng, lo=0.15, hi=1.2):
    r = rng.uniform(lo, hi)
    a = rng.uniform(0.0, 2.0 * np.pi)
    return r * np.exp(1j * a)


def random_line(rng, k_max=3):
    """Finite-range self-adjoint line operator with analytic potential.

    The leading hopping coefficient stays away from zero so the operator
    folds to a strip with a well-conditioned coupling block.
    """
    coeffs = {k: random_phase(rng) for k in range(1, k_max)}
    coeffs[k_max] = random_phase(rng, lo=0.5)
    pot = {0: rng.uniform(-1.0, 1.0), 1: random_phase(rng, lo=0.1, hi=0.8)}
    return LineOperator(
        Hopping(coeffs),
        Potential("fourier", pot),
        alpha=GOLDEN_MEAN,
        theta=rng.uniform(0.0, 1.0),
        epsilon=rng.uniform(0.2, 1.0),
    )


def random_strip(rng, k_max=3):
    return fold_to_strip(random_line(rng, k_max=k_max))


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def random_form_preserving(rng, coupling, scale=0.5):
    """Random matrix preserving the pairing of ``coupling`` exactly.

    ``exp(S^{-1} H)`` with Hermitian ``H``: since ``S* = -S`` the generator
    ``G = S^{-1} H`` satisfies ``G* S + S G = 0``, so the exponential
    conjugates the form to itself.
    """
    s = pairing_matrix(coupling)
    h = scale * random_hermitian(rng, s.shape[0])
    return expm(np.linalg.solve(s, h))


def random_hsp_cocycle(rng, m, scale=0.6):
    """Random pairing-preserving cocycle: a fixed exp(S^-1 H) link twisted
    by the symplectic rotation of the phase."""
    s = pairing_matrix(np.eye(m))
    b = random_form_preserving(rng, np.eye(m), scale=scale)

    def matrix_fn(phases):
        ang = 2.0 * np.pi * np.asarray(phases, dtype=float)
        c, sn = np.cos(ang), np.sin(ang)
        eye = np.eye(m)
        out = np.zeros(np.shape(ang) + (2 * m, 2 * m), dtype=complex)
        out[..., :m, :m] = c[..., None, None] * eye
        out[..., :m, m:] = -sn[..., None, None] * eye
        out[..., m:, :m] = sn[..., None, None] * eye
        out[..., m:, m:] = c[..., None, None] * eye
        return b @ out

    return cocycle.Cocycle(GOLDEN_MEAN, matrix_fn, 2 * m, form=s)


def reference_frame(cocycle, theta, n_window, n_cols, seed, backward):
    """A seeded random frame carried across the window ending at ``theta``
    (``backward``: pulled back across the window starting there), one QR
    per step: the reference for every frame the library converges."""
    rng = np.random.default_rng(seed)
    dim = cocycle.dim
    q = orthonormal_columns(
        rng.standard_normal((dim, n_cols)) + 1j * rng.standard_normal((dim, n_cols))
    )
    # the window's matrices from one call, in the order they act
    steps = np.arange(n_window - 1, -1, -1) if backward else np.arange(-n_window, 0)
    for a in cocycle.matrices(theta + cocycle.alpha * steps):
        q, _ = np.linalg.qr(np.linalg.solve(a, q) if backward else a @ q)
    return q


def reference_growth_constant(records):
    """Bisection for the smallest c with value <= c g exp(c g eps n) over
    the records, each c in [1e-12, 1e12]."""
    worst = 1e-12
    for value, g, eps, n in records:
        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            bound = np.log(mid) + np.log(g) + mid * g * eps * n
            if bound >= np.log(max(value, 1e-300)):
                hi = mid
            else:
                lo = mid
        worst = max(worst, hi)
    return float(worst)


@pytest.fixture
def rate_windows(monkeypatch):
    """Arguments of every finite_window_rates call the splitting module
    makes during the test: one entry per converged rate window."""
    calls = []
    real = splitting.finite_window_rates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(splitting, "finite_window_rates", counted)
    return calls


@pytest.fixture
def converged_frames(monkeypatch):
    """Arguments of every _carried_frames call the splitting module makes
    during the test: one entry per frame swept by subspace iteration."""
    calls = []
    real = splitting._carried_frames

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(splitting, "_carried_frames", counted)
    return calls


@pytest.fixture
def block_certificates(monkeypatch):
    """Counts of the block certificates the QR engine checks during the
    test: blocks accepted, and blocks that gave way to their halves."""
    counts = {"accepted": 0, "failed": 0}
    real = cocycle._certified_qr

    def counted(*args):
        out = real(*args)
        counts["failed" if out is None else "accepted"] += 1
        return out

    monkeypatch.setattr(cocycle, "_certified_qr", counted)
    return counts


@pytest.fixture
def segment_carries(monkeypatch):
    """Frames carried across a cached product tree during the test: one
    entry, the frame's column count, per ``_Segment.carry`` call."""
    carries = []
    real = cocycle._Segment.carry

    def counted(self, q):
        carries.append(q.shape[-1])
        return real(self, q)

    monkeypatch.setattr(cocycle._Segment, "carry", counted)
    return carries


@pytest.fixture
def growth_fits(monkeypatch):
    """Checks every growth-constant fit the splitting module makes during
    the test against the bisection reference (1e-14 relative); one
    (fitted, reference) pair per fit."""
    fits = []
    real = splitting._fit_growth_constant

    def checked(records):
        fitted = real(records)
        reference = reference_growth_constant(records)
        assert abs(fitted - reference) <= 1e-14 * reference
        fits.append((fitted, reference))
        return fitted

    monkeypatch.setattr(splitting, "_fit_growth_constant", checked)
    return fits
