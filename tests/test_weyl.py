"""Boundary matrices, whole-line kernel, resolvent oracle, measure bounds."""

from dataclasses import fields

import numpy as np
import pytest

import qplattice.weyl
from conftest import random_line, random_strip, reference_frame
from test_acceptance import kernel_suite
from qplattice.cocycle import transfer_cocycle
from qplattice.corpus import spectrum_sample
from qplattice.linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    eigenvalues_banded,
    principal_angles,
)
from qplattice.operators import (
    almost_mathieu,
    fold_to_strip,
    free_laplacian,
    operator_from_config,
)
from qplattice.weyl import (
    GRAPH_STABLE_TOL,
    GRAPH_WINDOW_MAX,
    GRAPH_WINDOW_START,
    _graph_slope,
    _stabilized_frame,
    green_oracle,
    im_m_trace,
    m_matrix,
    m_minus,
    m_plus,
    spectral_bound,
)

SQRT5 = np.sqrt(5.0)
FREE = fold_to_strip(free_laplacian())


# ── free-operator closed forms ───────────────────────────────────────────────

def test_right_boundary_matrix_free():
    # decaying solution x^n with x + 1/x = i: x = i (1 - sqrt 5)/2
    value = m_plus(FREE, 1j)
    assert abs(complex(value[0, 0]) - 1j * (SQRT5 - 1) / 2) < 1e-6


def test_left_boundary_matrix_free():
    value = m_minus(FREE, 1j)
    assert abs(complex(value[0, 0]) - 1j * (SQRT5 + 1) / 2) < 1e-6


def test_boundary_sum_free():
    total = complex(m_plus(FREE, 1j)[0, 0] + m_minus(FREE, 1j)[0, 0])
    assert abs(total - 1j * SQRT5) < 1e-6


def test_right_boundary_matrix_real_energy():
    # off the spectrum the contracting eigenvalue of [[5, -1], [1, 0]]
    value = m_plus(FREE, 5.0)
    assert abs(complex(value[0, 0]) + (5 - np.sqrt(21.0)) / 2) < 1e-8


def test_whole_line_kernel_free():
    data = m_matrix(FREE, 1j)
    assert abs(complex(data.block(1, 1)[0, 0]) - 1j / SQRT5) < 1e-6
    # constant operator: both center sites carry the same kernel value
    assert abs(complex(data.block(0, 0)[0, 0]) - 1j / SQRT5) < 1e-6
    assert abs(im_m_trace(data) - 2 / SQRT5) < 1e-6


# ── structural properties on random strips ───────────────────────────────────

def test_boundary_matrices_are_herglotz():
    rng = np.random.default_rng(71)
    for _ in range(5):
        strip = random_strip(rng, k_max=2)
        z = rng.uniform(-1, 1) + 1j * 10 ** rng.uniform(-2, 0)
        for value in (m_plus(strip, z), m_minus(strip, z)):
            im = np.linalg.eigvalsh((value - value.conj().T) / 2j)
            assert im.min() > 0


def test_trace_expansion_matches_direct():
    rng = np.random.default_rng(72)
    for _ in range(3):
        strip = random_strip(rng, k_max=2)
        data = m_matrix(strip, 0.2 + 0.05j)
        direct = float(np.real(np.trace(
            (data.matrix - data.matrix.conj().T) / 2j)))
        assert abs(im_m_trace(data) - direct) < 1e-8 * max(1.0, abs(direct))


def test_kernel_blocks_match_truncated_resolvent():
    rng = np.random.default_rng(73)
    z = 0.3 + 0.01j
    for strip in [fold_to_strip(almost_mathieu(0.5, theta=0.2)),
                  random_strip(rng, k_max=2)]:
        data = m_matrix(strip, z)
        for i in (0, 1):
            for j in (0, 1):
                block = np.atleast_2d(data.block(i, j))
                oracle = np.atleast_2d(
                    green_oracle(strip, z, i - 1, j - 1, n_sites=4001,
                                 verify=False))
                err = np.abs(block - oracle).max() / np.abs(oracle).max()
                assert err < 1e-2


# ── window doubling over cached products vs the restart loop ─────────────────

AMO_HALF = fold_to_strip(almost_mathieu(0.5))
# the 40 % and 60 % eigenvalue quantiles of AMO(0.5)'s 987-site truncation
AMO_LOW, AMO_HIGH = -0.32505865259836064, 0.3239709367437753
AMO_POINTS = ([AMO_LOW + 1j * eps for eps in (1e-1, 3e-2, 1e-2, 5e-3)]
              + [AMO_HIGH + 1j * eps for eps in (1e-1, 3e-2, 1e-2, 5e-3, 3e-3)])
# A range-3 line whose transfer exponents are about 1.38, 0.006 and 0.004
# per step: block products longer than a few steps lose the small
# directions of the three-column frame to rounding.
K3_STRIP = fold_to_strip(operator_from_config({
    "hopping": [[1, -0.5576903997016569, -0.05887608658612613],
                [2, -0.5148069451276732, -0.31236161427280124],
                [3, 0.9783526153751235, -0.27580947276643897]],
    "potential": {"type": "fourier",
                  "coefficients": [[0, -0.4315976725024171, 0.0],
                                   [1, -0.183667240426493, -0.5226505131468855]]},
    "alpha": 0.6180339887498949,
    "theta": 0.2927207490124871,
    "epsilon": 0.20119206680706894,
}))
K3_ENERGY = 1.787822883576401 + 0.01j


def _restarted_frame(cocycle, theta, n_cols):
    # The loop the cached products replaced: every window converges the
    # seed-11 frame from scratch, one QR step at a time.
    prev = None
    n = GRAPH_WINDOW_START
    while n <= GRAPH_WINDOW_MAX:
        frame = reference_frame(cocycle, theta, n, n_cols, seed=11, backward=False)
        if prev is not None and np.sin(principal_angles(prev, frame)[-1]) < GRAPH_STABLE_TOL:
            return frame, n
        prev = frame
        n *= 2
    raise ConvergenceError("half-line solution space did not stabilize")


@pytest.mark.parametrize(
    "strip, z",
    list(kernel_suite()) + [(AMO_HALF, z) for z in AMO_POINTS] + [(K3_STRIP, K3_ENERGY)],
)
def test_boundary_matrices_match_the_restart_loop(strip, z):
    cocycle = transfer_cocycle(strip, z)
    for right, value in ((True, m_plus(strip, z)), (False, m_minus(strip, z))):
        directed = cocycle.inverse() if right else cocycle
        frame, window = _restarted_frame(directed, 0.0, strip.width)
        coupling = -strip.coupling if right else strip.coupling
        np.testing.assert_allclose(value, coupling @ _graph_slope(frame),
                                   rtol=1e-10, atol=0)
        assert _stabilized_frame(directed, 0.0, strip.width)[1] == window


def test_certified_blocks_keep_a_three_column_frame():
    data = m_matrix(K3_STRIP, K3_ENERGY)
    for i in (0, 1):
        for j in (0, 1):
            oracle = green_oracle(K3_STRIP, K3_ENERGY, i - 1, j - 1, n_sites=8001,
                                  verify=False)
            err = np.abs(data.block(i, j) - oracle).max() / np.abs(oracle).max()
            assert err < 1e-10


def test_boundary_matrix_raises_inside_the_spectrum():
    # a real energy in the spectrum: no decaying solutions, so the window
    # doubling runs to GRAPH_WINDOW_MAX without settling
    energy = float(spectrum_sample(almost_mathieu(0.5), 8)[4])
    with pytest.raises(ConvergenceError):
        m_plus(AMO_HALF, energy)


# ── the resolvent oracle itself ──────────────────────────────────────────────

def test_green_oracle_free_value():
    value = green_oracle(free_laplacian(), 1j, 0, 0)
    assert abs(complex(value) - 1j / SQRT5) < 1e-4


def test_green_oracle_checks_input():
    with pytest.raises(ArgumentError):
        green_oracle(free_laplacian(), 2.0, 0, 0)  # real spectral parameter
    with pytest.raises(ArgumentError, match="index 5000 outside"):
        green_oracle(free_laplacian(), 1j, 5000, 0, n_sites=101)
    with pytest.raises(ArgumentError, match="index -51 outside"):
        green_oracle(free_laplacian(), 1j, 0, -51, n_sites=101)


def test_green_oracle_detects_unconverged_window():
    # tiny Im z, tiny window: the doubled window must move the answer
    with pytest.raises(ConvergenceError):
        green_oracle(free_laplacian(), 1e-8j, 0, 0, n_sites=51)


def test_green_oracle_solve_identity_can_fail(monkeypatch):
    # a solve off by a relative 1e-6 keeps the window converged and the
    # kernel Hermitian, and breaks Im<v, e_q> = Im z ||v||^2
    solve = qplattice.weyl.solve_shifted_banded
    monkeypatch.setattr(qplattice.weyl, "solve_shifted_banded",
                        lambda ab, z, rhs: solve(ab, z, rhs) * (1 + 1e-6))
    with pytest.raises(InvariantError, match="solve identity"):
        green_oracle(free_laplacian(), 1j, 0, 0)


# ── fitted measure bounds ────────────────────────────────────────────────────

def test_spectral_bound_subcritical_cosine():
    report = spectral_bound(
        fold_to_strip(almost_mathieu(0.5, theta=0.1)),
        -0.0011684844606349998,  # truncation eigenvalue: on-spectrum energy
        eps_grid=(1e-2, 3e-2, 1e-1),
    )
    assert report.dims == (0, 2, 0)
    assert np.all(report.trace_im > 0)
    assert np.all(report.mu_bound <= report.jl_rhs * (1 + 1e-9))
    assert np.all(report.criterion_lhs >= report.criterion_rhs * (1 - 1e-9))
    assert report.jl_constant > 0 and report.criterion_constant > 0


def test_spectral_bound_mixed_splitting_stays_finite():
    # hyperbolic and neutral directions together: the neutral-frame sups
    # must not pick up rounding noise at the top exponent
    line = random_line(np.random.default_rng(0), 2)
    energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
    report = spectral_bound(fold_to_strip(line), energy, eps_grid=(1e-1, 3e-2, 1e-2))
    assert report.dims == (1, 2, 1)
    assert np.all(np.isfinite(report.jl_rhs))
    assert np.all(report.mu_bound <= report.jl_rhs * (1 + 1e-9))
    assert np.all(report.criterion_rhs > 0)
    assert np.all(report.criterion_lhs >= report.criterion_rhs * (1 - 1e-9))


def test_spectral_bound_powers_do_not_overflow():
    # near-critical coupling: at eps 1e-3 the neutral growth C^21 is about
    # 1e358, past the float range, while jl_rhs there is about 1.1e210
    report = spectral_bound(fold_to_strip(almost_mathieu(1.004)), 0.1443766826359531,
                            eps_grid=(1e-2, 1e-3))
    assert np.all(np.isfinite(report.jl_rhs))
    assert report.jl_rhs.max() > 1e200
    assert np.all(report.mu_bound <= report.jl_rhs * (1 + 1e-9))
    assert np.all(report.criterion_lhs >= report.criterion_rhs * (1 - 1e-9))


def test_spectral_bound_converges_one_splitting(rate_windows):
    report = spectral_bound(FREE, 0.0, eps_grid=(1e-1, 3e-2))
    assert report.dims == (0, 2, 0)
    assert len(rate_windows) == 1


def test_spectral_bound_with_declared_dims_matches_detection():
    # the dims path converges the declared splitting instead of detecting one
    line = almost_mathieu(0.5)
    strip, energy = fold_to_strip(line), spectrum_sample(line, 8)[4]
    detected = spectral_bound(strip, energy, eps_grid=(1e-1, 3e-2))
    declared = spectral_bound(strip, energy, eps_grid=(1e-1, 3e-2), dims=(0, 2, 0))
    assert detected.dims == (0, 2, 0)
    for field in fields(detected):
        np.testing.assert_array_equal(getattr(declared, field.name),
                                      getattr(detected, field.name))


def test_spectral_bound_needs_an_offset():
    with pytest.raises(ArgumentError):
        spectral_bound(FREE, 0.0, eps_grid=())


def test_spectral_bound_needs_neutral_energy():
    with pytest.raises(ArgumentError):
        spectral_bound(FREE, 3.0, eps_grid=(1e-1,))
    with pytest.raises(ArgumentError):
        spectral_bound(FREE, 0.0, eps_grid=(0.0, 1e-1))
