"""Shared random factories for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so each test owns
its seed and the suite stays order-independent.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qplattice import splitting
from qplattice.operators import (
    GOLDEN_MEAN,
    Hopping,
    LineOperator,
    Potential,
    fold_to_strip,
)
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
