"""Cocycle products: exponents, rotation numbers, complexified growth."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_line, random_strip
from qplattice.cocycle import (
    ORBIT_CHUNK_ENTRIES,
    Cocycle,
    acceleration,
    companion_cocycle,
    energy_monotonicity,
    finite_window_rates,
    iterate,
    lyapunov_spectrum,
    orbit_matrices,
    phase_lattice,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
    upper_lyapunov_sum,
)
from qplattice.linalg import (
    ArgumentError,
    eigenvalues_banded,
    orthonormal_columns,
    principal_angles,
)
from qplattice.operators import (
    GOLDEN_MEAN,
    StripOperator,
    almost_mathieu,
    fold_to_strip,
    free_laplacian,
)
from qplattice.splitting import (
    _converged_frame,
    _frames_at,
    center_growth,
    detect_splitting,
)
from qplattice.symplectic import form_defect

# arccosh(3/2): top exponent of the free operator at energy 3
FREE_TOP_AT_3 = 0.9624236501192069


def rotation_cocycle(phi):
    r = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])

    def matrix_fn(phases):
        return np.broadcast_to(r, np.shape(phases) + (2, 2)).copy()

    return Cocycle(0.1234, matrix_fn, 2)


def test_phase_lattice_midpoints():
    np.testing.assert_allclose(phase_lattice(4), [0.125, 0.375, 0.625, 0.875])


def test_transfer_state_solves_difference_equation():
    rng = np.random.default_rng(41)
    strip = random_strip(rng)
    m = strip.width
    energy = 0.6
    cocycle = transfer_cocycle(strip, energy)
    theta = 0.21
    state = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
    states = [state]
    for n in range(6):
        states.append(cocycle.matrix(theta + n * strip.alpha) @ states[-1])
    c = strip.coupling
    # step n maps (u(n), u(n-1)) -> (u(n+1), u(n)) through the site-n row
    for n in range(5):
        u_next = states[n + 1][:m]
        u_here, u_prev = states[n][:m], states[n][m:]
        v = strip.potential(strip.theta + theta + n * strip.alpha)
        lhs = c @ u_next + v @ u_here + c.conj().T @ u_prev
        np.testing.assert_allclose(lhs, energy * u_here, atol=1e-10)


def test_companion_product_reproduces_strip_step():
    rng = np.random.default_rng(42)
    op = random_line(rng, k_max=2)
    comp = companion_cocycle(op, 0.4)
    tr = transfer_cocycle(fold_to_strip(op), 0.4)
    for x in [0.0, 0.3, 0.77]:
        np.testing.assert_allclose(iterate(comp, x, 2), tr.matrix(x),
                                   atol=1e-12)


def test_companion_determinant_modulus_one():
    rng = np.random.default_rng(43)
    op = random_line(rng, k_max=3)
    comp = companion_cocycle(op, -0.2)
    dets = np.linalg.det(comp.matrices(phase_lattice(8)))
    np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-12)


def test_iterate_cocycle_property():
    rng = np.random.default_rng(44)
    cocycle = transfer_cocycle(random_strip(rng), 0.9)
    theta = 0.37
    full = iterate(cocycle, theta, 7)
    split = iterate(cocycle, theta + 4 * cocycle.alpha, 3) @ iterate(
        cocycle, theta, 4)
    np.testing.assert_allclose(full, split, atol=1e-10)
    back = iterate(cocycle, theta, -4)
    np.testing.assert_allclose(back @ iterate(cocycle, theta - 4 * cocycle.alpha, 4),
                               np.eye(cocycle.dim), atol=1e-10)
    np.testing.assert_allclose(iterate(cocycle, theta, 0), np.eye(cocycle.dim))


# ── the inverse cocycle ──────────────────────────────────────────────────────

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def strip_cocycles(draw, real=False):
    # transfer cocycles of random strips of width 1-3, at energies inside
    # and outside the spectrum, real or complex
    strip = random_strip(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         k_max=draw(st.integers(1, 3)))
    bound = strip.norm_bound() + 1.0
    energy = draw(st.floats(-bound, bound))
    if not real and draw(st.booleans()):
        energy += 1j * draw(st.floats(-1.0, 1.0))
    return transfer_cocycle(strip, energy)


@PROPERTY
@given(cocycle=strip_cocycles(), x=st.floats(0.0, 1.0), n=st.integers(1, 40))
def test_inverse_cocycle_undoes_the_forward_steps(cocycle, x, n):
    inverse = cocycle.inverse()
    assert inverse.inverse() is cocycle
    assert inverse.alpha == -cocycle.alpha
    back = iterate(inverse, x, n)
    forward = iterate(cocycle, x - n * cocycle.alpha, n)
    # both products grow at the top exponent, and the rounding error of
    # their product grows with both norms
    scale = np.linalg.norm(back, 2) * np.linalg.norm(forward, 2)
    np.testing.assert_allclose(back @ forward, np.eye(cocycle.dim),
                               rtol=0, atol=1e-10 * scale)
    np.testing.assert_array_equal(iterate(cocycle, x, -n), back)


@PROPERTY
@given(cocycle=strip_cocycles(real=True), x=st.floats(0.0, 1.0), n=st.integers(1, 40))
def test_inverse_steps_preserve_the_pairing(cocycle, x, n):
    inverse = cocycle.inverse()
    assert inverse.form is cocycle.form
    for a in orbit_matrices(inverse, x + inverse.alpha * np.arange(n)):
        assert form_defect(a, cocycle.form) <= 1e-12


def test_free_operator_top_exponent():
    cocycle = transfer_cocycle(fold_to_strip(free_laplacian()), 3.0)
    top, spread = top_lyapunov(cocycle, 4000, samples=8)
    assert abs(top - FREE_TOP_AT_3) < 2e-3
    assert spread < 1e-12  # constant cocycle: no phase dependence at all


def test_exponents_come_in_opposite_pairs():
    rng = np.random.default_rng(45)
    strip = random_strip(rng, k_max=2)
    est = lyapunov_spectrum(transfer_cocycle(strip, 0.3), 3000, samples=8)
    ex = est.exponents
    assert all(ex[i] >= ex[i + 1] - 1e-12 for i in range(len(ex) - 1))
    pair_defect = np.abs(ex + ex[::-1]).max()
    assert pair_defect < max(5 * est.spread, 1e-8)


def test_exponent_sum_is_log_determinant():
    rng = np.random.default_rng(46)
    op = random_line(rng, k_max=2)
    comp = companion_cocycle(op, 0.1)
    total, total_spread = upper_lyapunov_sum(comp, comp.dim, 1500, samples=4)
    # unit-modulus determinant: all exponents cancel exactly
    assert abs(total) < 1e-12


def test_strip_exponent_is_fold_width_times_line_exponent():
    rng = np.random.default_rng(47)
    op = random_line(rng, k_max=2)
    energy = 0.5
    comp_top, comp_spread = top_lyapunov(companion_cocycle(op, energy), 6000,
                                         samples=8)
    strip_top, strip_spread = top_lyapunov(
        transfer_cocycle(fold_to_strip(op), energy), 3000, samples=8)
    assert abs(strip_top - 2 * comp_top) < 10 * (strip_spread + comp_spread) + 5e-3


def test_finite_window_rates_descending():
    rng = np.random.default_rng(48)
    cocycle = transfer_cocycle(random_strip(rng, k_max=2), 0.25)
    rates = finite_window_rates(cocycle, 0.11, 400)
    assert len(rates) == cocycle.dim
    assert all(rates[i] >= rates[i + 1] for i in range(len(rates) - 1))


def test_rotation_number_of_constant_rotation():
    for phi in [0.3, 2.0, 5.5]:
        rho, spread = rotation_number(rotation_cocycle(phi), 500)
        assert abs((rho - phi / (2 * np.pi)) % 1.0) < 1e-10 or \
            abs((rho - phi / (2 * np.pi)) % 1.0 - 1.0) < 1e-10
        assert spread < 1e-8


def test_rotation_number_free_band_center():
    cocycle = transfer_cocycle(fold_to_strip(free_laplacian()), 0.0)
    rho, _ = rotation_number(cocycle, 4000)
    assert abs(rho - 0.25) < 1e-3


def test_rotation_number_input_checks():
    rng = np.random.default_rng(49)
    big = transfer_cocycle(random_strip(rng, k_max=2), 0.0)
    with pytest.raises(ArgumentError):
        rotation_number(big, 10)
    # complex-valued 2x2 cocycles carry no projective lift
    bad = transfer_cocycle(fold_to_strip(free_laplacian()), 1j)
    with pytest.raises(ArgumentError):
        rotation_number(bad, 10)


def test_acceleration_supercritical_cosine():
    strip = fold_to_strip(almost_mathieu(2.0))
    est = acceleration(strip, 0.5, n_steps=4000, samples=8, fit_tol=5e-3)
    assert est.rounded == 1
    assert abs(est.value - 1.0) < 0.05
    assert est.residual < 5e-3


def test_energy_monotonicity_sign_and_reference():
    rng = np.random.default_rng(50)
    for _ in range(20):
        strip = random_strip(rng, k_max=2)
        v = rng.normal(size=2 * strip.width) + 1j * rng.normal(size=2 * strip.width)
        value, reference = energy_monotonicity(strip, rng.normal(), rng.uniform(),
                                               v)
        assert abs(value.imag) < 1e-10 * max(1.0, abs(value))
        assert value.real < 0
        assert abs(value - reference) < 1e-10 * max(1.0, abs(reference))


# ── the orbit kernel against the per-step loops it replaced ──────────────────
#
# The references below evaluate the cocycle once per step, as every orbit
# loop did before the chunked kernel; the kernel must reproduce them.


def reference_qr_engine(cocycle, phases, n_steps, top):
    ns = len(phases)
    d = cocycle.dim
    q = np.broadcast_to(np.eye(d, dtype=complex)[:, :top], (ns, d, top)).copy()
    acc = np.zeros((ns, top))
    for s in range(n_steps):
        mats = cocycle.matrices(phases + s * cocycle.alpha)
        q = mats @ q
        q, r = np.linalg.qr(q)
        acc += np.log(np.abs(np.einsum("sii->si", r)))
    return acc


def reference_frame(cocycle, theta, n_window, n_cols, seed, backward):
    rng = np.random.default_rng(seed)
    dim = cocycle.dim
    q = orthonormal_columns(
        rng.standard_normal((dim, n_cols)) + 1j * rng.standard_normal((dim, n_cols))
    )
    if backward:
        for j in range(n_window, 0, -1):
            a = cocycle.matrix(theta + (j - 1) * cocycle.alpha)
            q, _ = np.linalg.qr(np.linalg.solve(a, q))
    else:
        for j in range(-n_window, 0):
            q, _ = np.linalg.qr(cocycle.matrix(theta + j * cocycle.alpha) @ q)
    return q


def reference_neutral_growth(cocycle, splitting, n_max, backward,
                             rebase_every, fresh_window):
    theta = splitting.theta
    alpha = -cocycle.alpha if backward else cocycle.alpha
    q = splitting.center
    rprod = np.eye(splitting.dims[1], dtype=complex)
    log_scale = 0.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        if backward:
            step = np.linalg.solve(cocycle.matrix(theta + n * alpha), q)
        else:
            step = cocycle.matrix(theta + (n - 1) * alpha) @ q
        q, r = np.linalg.qr(step)
        rprod = r @ rprod
        scale = np.linalg.norm(rprod)
        log_scale += np.log(scale)
        rprod = rprod / scale
        log_norm = log_scale + np.log(np.linalg.norm(rprod, 2))
        out[n] = max(out[n - 1], float(np.exp(2.0 * log_norm)))
        if n % rebase_every == 0 or n == n_max:
            _, fresh, _ = _frames_at(cocycle, theta + n * alpha, splitting.dims,
                                     fresh_window)
            rprod = (fresh.conj().T @ q) @ rprod
            q = fresh
    return out


def chunk_edges(samples, dim):
    chunk = ORBIT_CHUNK_ENTRIES // (samples * dim**2)
    return (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)


@pytest.mark.parametrize("samples", [1, 32])
def test_orbit_matrices_match_per_step_evaluation(samples):
    cocycle = transfer_cocycle(random_strip(np.random.default_rng(51)), 0.4)
    # one phase steps as scalars (the frame loops), many as a row each
    start = 0.3 if samples == 1 else phase_lattice(samples)
    for n_steps in chunk_edges(samples, cocycle.dim):
        steps = np.arange(n_steps) if samples == 1 else np.arange(n_steps)[:, None]
        orbit = start + cocycle.alpha * steps
        mats = list(orbit_matrices(cocycle, orbit))
        assert len(mats) == n_steps
        for phase, a in zip(orbit, mats):
            np.testing.assert_array_equal(a, cocycle.matrix(phase))


def test_orbit_matrices_broadcast_a_phase_independent_map():
    # a strip potential that ignores its phases yields one transfer matrix
    strip = StripOperator(np.eye(2), lambda x: np.diag([3.0, 0.0]), alpha=GOLDEN_MEAN)
    cocycle = transfer_cocycle(strip, 0.0)
    orbit = phase_lattice(4) + cocycle.alpha * np.arange(3)[:, None]
    mats = list(orbit_matrices(cocycle, orbit))
    assert len(mats) == 3
    for a in mats:
        np.testing.assert_array_equal(a, np.broadcast_to(cocycle.matrix(0.0), (4, 4, 4)))


def test_lyapunov_spectrum_matches_per_step_engine():
    cocycle = transfer_cocycle(random_strip(np.random.default_rng(52)), 0.2)
    assert cocycle.dim == 6
    for phases in (np.array([0.3]), phase_lattice(32)):
        for n_steps in chunk_edges(len(phases), cocycle.dim):
            est = lyapunov_spectrum(cocycle, n_steps, phases=phases)
            reference = reference_qr_engine(cocycle, phases, n_steps, cocycle.dim)
            np.testing.assert_array_equal(est.per_sample, reference / n_steps)


def test_converged_frames_match_per_step_loops():
    strip = random_strip(np.random.default_rng(53), k_max=2)
    # off the spectrum every exponent is nonzero, so both frames attract
    cocycle = transfer_cocycle(strip, strip.norm_bound() + 1.0)
    n_window = chunk_edges(1, cocycle.dim)[-1]
    for backward in (False, True):
        frame = _converged_frame(cocycle.inverse() if backward else cocycle,
                                 0.37, n_window, 2, seed=3)
        reference = reference_frame(cocycle, 0.37, n_window, 2, seed=3,
                                    backward=backward)
        assert principal_angles(frame, reference).max() < 1e-12


def test_neutral_growth_matches_per_step_loop_on_mixed_splitting():
    line = random_line(np.random.default_rng(0), 2)
    energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
    cocycle = transfer_cocycle(fold_to_strip(line), energy)
    split = detect_splitting(cocycle, 0.0)
    assert split.dims == (1, 2, 1)
    # the rebasing schedule of center_growth on a mixed splitting
    spread = float(split.rates[0] - split.rates[-1])
    rebase_every = int(np.clip(8.0 / max(spread, 1e-2), 1, 256))
    gap_rate = float(np.log(min(split.certificates)))
    fresh_window = int(np.clip(40.0 / max(gap_rate, 1e-6), 16, split.window))
    n_max = 5 * rebase_every + 3
    for backward in (False, True):
        values = center_growth(cocycle.inverse() if backward else cocycle,
                               split, n_max)
        reference = reference_neutral_growth(cocycle, split, n_max, backward,
                                             rebase_every, fresh_window)
        np.testing.assert_allclose(values, reference, rtol=1e-10, atol=0)
