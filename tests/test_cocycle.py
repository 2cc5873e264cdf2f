"""Cocycle products: exponents, rotation numbers, complexified growth."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_hsp_cocycle,
    random_line,
    random_strip,
    reference_center_growth,
    reference_frame,
    reference_rotation_number,
)
from qplattice.cocycle import (
    BLOCK_STEPS,
    ORBIT_CHUNK_ENTRIES,
    SWEEP_BLOCK,
    Cocycle,
    _orbit_chunks,
    _state_sweep,
    acceleration,
    companion_cocycle,
    energy_monotonicity,
    finite_window_rates,
    iterate,
    lyapunov_spectrum,
    phase_lattice,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
    upper_lyapunov_sum,
)
from qplattice.corpus import spectrum_sample
from qplattice.linalg import (
    ArgumentError,
    ConvergenceError,
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
    _carried_frames,
    _frames_along,
    center_growth,
    compute_splitting,
    detect_splitting,
)
from qplattice.symplectic import form_defect
from qplattice.weyl import m_plus

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
    for a in inverse.matrices(x + inverse.alpha * np.arange(n)):
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


def test_rotation_number_needs_a_step_and_a_phase():
    cocycle = rotation_cocycle(0.3)
    for n_steps, samples, phases in [(0, 8, None), (10, 0, None), (10, 8, [])]:
        with pytest.raises(ArgumentError):
            rotation_number(cocycle, n_steps, samples=samples, phases=phases)


def test_acceleration_needs_two_distinct_shifts():
    strip = fold_to_strip(almost_mathieu(2.0))
    for y_grid in ([], [0.0], [0.01, 0.01]):
        with pytest.raises(ArgumentError):
            acceleration(strip, 0.5, y_grid=y_grid, n_steps=10, samples=2)


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
            fresh = _frames_along(cocycle, theta + n * alpha, splitting.dims,
                                  fresh_window)[1][0]
            rprod = (fresh.conj().T @ q) @ rprod
            q = fresh
    return out


def chunk_edges(samples, dim):
    chunk = ORBIT_CHUNK_ENTRIES // (samples * dim**2)
    return (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)


@pytest.mark.parametrize("samples", [1, 32])
def test_orbit_chunks_match_per_step_evaluation(samples):
    cocycle = transfer_cocycle(random_strip(np.random.default_rng(51)), 0.4)
    # one phase steps as scalars (the frame loops), many as a row each
    start = 0.3 if samples == 1 else phase_lattice(samples)
    for n_steps in chunk_edges(samples, cocycle.dim):
        steps = np.arange(n_steps) if samples == 1 else np.arange(n_steps)[:, None]
        orbit = start + cocycle.alpha * steps
        mats = np.concatenate(list(_orbit_chunks(cocycle, orbit)))
        assert len(mats) == n_steps
        for phase, a in zip(orbit, mats):
            np.testing.assert_array_equal(a, cocycle.matrix(phase))


def test_matrices_broadcast_only_a_map_that_ignores_its_phases():
    step = rotation_cocycle(0.3).matrices(0.0)
    phases = phase_lattice(4)
    stack = np.stack([step] * 4)
    # one matrix per phase: the map's own array, still writable
    own = Cocycle(GOLDEN_MEAN, lambda x: stack, 2).matrices(phases)
    assert own is stack and own.flags.writeable
    # one matrix for every phase: a read-only broadcast over the phases
    mats = Cocycle(GOLDEN_MEAN, lambda x: step, 2).matrices(phases)
    assert mats.shape == (4, 2, 2) and not mats.flags.writeable
    np.testing.assert_array_equal(mats, stack)
    assert Cocycle(GOLDEN_MEAN, lambda x: step, 2).matrix(0.5) is step


def test_orbit_chunks_broadcast_a_phase_independent_map():
    # a strip potential that ignores its phases yields one transfer matrix
    strip = StripOperator(np.eye(2), lambda x: np.diag([3.0, 0.0]), alpha=GOLDEN_MEAN)
    cocycle = transfer_cocycle(strip, 0.0)
    orbit = phase_lattice(4) + cocycle.alpha * np.arange(3)[:, None]
    mats = np.concatenate(list(_orbit_chunks(cocycle, orbit)))
    assert len(mats) == 3
    for a in mats:
        np.testing.assert_array_equal(a, np.broadcast_to(cocycle.matrix(0.0), (4, 4, 4)))


# The engine crosses certified blocks of steps with one QR each, so its
# per-sample exponents differ from one QR per step by rounding alone: at
# most 1.0e-10 below, on an 8-step window.
BLOCK_TOL = 1e-9


def test_lyapunov_spectrum_matches_per_step_engine():
    cocycle = transfer_cocycle(random_strip(np.random.default_rng(52)), 0.2)
    assert cocycle.dim == 6
    for phases in (np.array([0.3]), phase_lattice(32)):
        for n_steps in chunk_edges(len(phases), cocycle.dim):
            est = lyapunov_spectrum(cocycle, n_steps, phases=phases)
            reference = reference_qr_engine(cocycle, phases, n_steps, cocycle.dim)
            np.testing.assert_allclose(est.per_sample, reference / n_steps,
                                       rtol=0, atol=BLOCK_TOL)


def test_block_engine_keeps_the_longest_blocks_on_a_pairing_cocycle(
        block_certificates):
    # test_02's first draw: every block crosses BLOCK_STEPS steps at once
    rng = np.random.default_rng(7)
    cocycle = random_hsp_cocycle(rng, int(rng.integers(1, 4)))
    lyapunov_spectrum(cocycle, 10000)
    assert block_certificates == {"accepted": 10000 // BLOCK_STEPS, "failed": 0}


def test_block_engine_shrinks_blocks_off_the_spectrum(block_certificates):
    # exponents near +-1.9: the first 8-step block fails its certificate,
    # and the 4-step blocks that replace it carry on to the end
    strip = random_strip(np.random.default_rng(1))
    cocycle = transfer_cocycle(strip, strip.norm_bound() + 1.0)
    assert cocycle.dim == 6
    phases = phase_lattice(32)
    est = lyapunov_spectrum(cocycle, 1000, phases=phases)
    assert block_certificates == {"accepted": 250, "failed": 1}
    reference = reference_qr_engine(cocycle, phases, 1000, cocycle.dim)
    np.testing.assert_allclose(est.per_sample, reference / 1000,
                               rtol=0, atol=BLOCK_TOL)


def test_block_engine_falls_back_when_a_block_overflows(block_certificates):
    # the 8-step product of diag(1e60, 1e-60) overflows and the 4-step one
    # has no finite Frobenius norm: both are refused before their QR, the
    # 2-step one fails its certificate, and single steps take over
    cocycle = Cocycle(GOLDEN_MEAN, lambda x: np.diag([1e60, 1e-60]).astype(complex), 2)
    phases = phase_lattice(4)
    est = lyapunov_spectrum(cocycle, 64, phases=phases)
    assert block_certificates == {"accepted": 0, "failed": 3}
    assert np.isfinite(est.per_sample).all()
    np.testing.assert_allclose(est.exponents, [np.log(1e60), -np.log(1e60)],
                               rtol=1e-12)
    reference = reference_qr_engine(cocycle, phases, 64, cocycle.dim)
    np.testing.assert_allclose(est.per_sample, reference / 64, rtol=0, atol=BLOCK_TOL)


def test_block_engine_crosses_a_step_whose_norm_overflows(block_certificates):
    # every entry of diag(1e200, 1e-200) is finite, but its Frobenius norm
    # (an unscaled sum of squares) overflows: blocks are refused, and the
    # single steps, which need finite entries only, carry the frame
    step = np.diag([1e200, 1e-200]).astype(complex)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(step))
    cocycle = Cocycle(GOLDEN_MEAN, lambda x: step, 2)
    phases = phase_lattice(4)
    est = lyapunov_spectrum(cocycle, 64, phases=phases)
    assert block_certificates == {"accepted": 0, "failed": 3}
    np.testing.assert_allclose(est.exponents, [np.log(1e200), -np.log(1e200)],
                               rtol=1e-12)
    reference = reference_qr_engine(cocycle, phases, 64, cocycle.dim)
    np.testing.assert_allclose(est.per_sample, reference / 64, rtol=0, atol=BLOCK_TOL)


def test_block_engine_raises_on_a_non_finite_step():
    # one NaN step in a 12-step orbit: the stack of steps holding it raises
    # as the orbit is built, instead of giving NaN exponents
    def matrix_fn(phases):
        bad = np.abs(np.asarray(phases) - 5 * GOLDEN_MEAN) < 1e-9
        return np.where(bad[..., None, None], np.nan, rotation_cocycle(0.3).matrices(phases))

    cocycle = Cocycle(GOLDEN_MEAN, matrix_fn, 2)
    with pytest.raises(ConvergenceError, match="non-finite"):
        lyapunov_spectrum(cocycle, 12, phases=[0.0])


def test_converged_frames_match_per_step_loops():
    strip = random_strip(np.random.default_rng(53), k_max=2)
    # off the spectrum every exponent is nonzero, so both frames attract
    cocycle = transfer_cocycle(strip, strip.norm_bound() + 1.0)
    n_window = chunk_edges(1, cocycle.dim)[-1]
    for backward in (False, True):
        frame = _carried_frames(cocycle.inverse() if backward else cocycle,
                                0.37, n_window, 0, 2, seed=3)[0]
        reference = reference_frame(cocycle, 0.37, n_window, 2, seed=3,
                                    backward=backward)
        assert principal_angles(frame, reference).max() < 1e-12


def test_converged_frames_match_per_step_loops_inside_the_spectrum():
    # near-neutral exponents of K=3 strips at a mid-spectrum energy: frames
    # of 1 to 5 columns crossing windows of one block (128 steps) and of
    # six (455 = 256 + ... + 1) agree with one QR per step (worst 1.5e-12;
    # 1.3e-8 when the certificate admits blocks with KAPPA = 1e8)
    for seed in range(60, 66):
        line = random_line(np.random.default_rng(seed), 3)
        energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
        cocycle = transfer_cocycle(fold_to_strip(line), energy)
        for n_window in (128, 455):
            for n_cols in range(1, 6):
                for backward in (False, True):
                    frame = _carried_frames(cocycle.inverse() if backward else cocycle,
                                            0.0, n_window, 0, n_cols, seed=3)[0]
                    reference = reference_frame(cocycle, 0.0, n_window, n_cols, seed=3,
                                                backward=backward)
                    assert principal_angles(frame, reference).max() <= 1e-10


def test_neutral_growth_matches_per_step_loop_on_mixed_splitting():
    line = random_line(np.random.default_rng(0), 2)
    energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
    cocycle = transfer_cocycle(fold_to_strip(line), energy)
    split = detect_splitting(cocycle, 0.0)
    assert split.dims == (1, 2, 1)
    # the reference rebases its carried frame onto freshly converged ones
    # on the schedule center_growth used before it stepped between swept
    # neutral frames
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


# ── the state sweep against the per-step loops it replaced ───────────────────


def gap_energy(op, n_sites=987):
    # midpoint of the widest gap between interior truncation eigenvalues
    eigs = np.sort(eigenvalues_banded(op.assemble_banded(n_sites)))[100:-100]
    k = np.argmax(np.diff(eigs))
    return 0.5 * (eigs[k] + eigs[k + 1])


def rotation_cases():
    free = fold_to_strip(free_laplacian())
    yield transfer_cocycle(free, 0.0)
    yield transfer_cocycle(free, 1.3)
    for lam in (0.5, 2.0):
        op = almost_mathieu(lam)
        for energy in list(spectrum_sample(op, 3)) + [gap_energy(op)]:
            yield transfer_cocycle(fold_to_strip(op), float(energy))


def test_rotation_number_matches_per_step_loop():
    # the free line, and AMO in the spectrum and in its widest gap
    for cocycle in rotation_cases():
        value = rotation_number(cocycle, 4000)
        reference = reference_rotation_number(cocycle, 4000)
        np.testing.assert_allclose(value, reference, rtol=0, atol=1e-12)


def test_rotation_number_of_a_map_that_ignores_its_phases():
    # a constant rotation by 0.7 given as one unwrapped 2x2 matrix
    step = rotation_cocycle(0.7).matrices(0.0)
    value, spread = rotation_number(Cocycle(GOLDEN_MEAN, lambda x: step, 2), 1000)
    assert value == pytest.approx(0.7 / (2 * np.pi), rel=1e-12)
    assert spread < 1e-12


def test_rotation_number_takes_one_sweep(orbit_sweeps):
    rotation_number(transfer_cocycle(fold_to_strip(free_laplacian()), 0.0), 4000)
    assert orbit_sweeps == [(8, 2)]


def overflowing_cocycle(diagonal=(1e60, 1e-60)):
    # 32 steps of a diagonal step with entries 1e60 and 1e-60 overflow an
    # unscaled block product
    step = np.diag(diagonal)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.matrix_power(step, SWEEP_BLOCK)).all()
    return Cocycle(GOLDEN_MEAN, lambda x: np.broadcast_to(step, np.shape(x) + (2, 2)), 2)


def test_state_sweep_carries_states_across_overflowing_blocks():
    cocycle = overflowing_cocycle()
    assert rotation_number(cocycle, 100) == reference_rotation_number(cocycle, 100) \
        == (0.0, 0.0)
    # started in the contracted direction, the state underflows in every
    # block's product, and the sweep steps the blocks one matrix at a time
    cocycle = overflowing_cocycle((1e-60, 1e60))
    assert rotation_number(cocycle, 100) == reference_rotation_number(cocycle, 100) \
        == (0.0, 0.0)
    n_steps = 3 * SWEEP_BLOCK + 5
    mats = cocycle.matrices(np.zeros(n_steps))
    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])):
        states, logs = map(np.concatenate, zip(*_state_sweep([mats], v)))
        log = 0.0
        for a, state, log_norm in zip(mats, states, logs):
            v = a @ v
            norm = np.linalg.norm(v)
            v, log = v / norm, log + np.log(norm)
            np.testing.assert_allclose(state, v, rtol=0, atol=1e-15)
            np.testing.assert_allclose(log_norm, log, rtol=1e-14)


def test_state_sweep_carries_a_frame_as_its_states_one_by_one():
    # a frame of three states crosses the overflowing blocks as each of
    # its rows does alone; started in the contracted direction, the first
    # row sends every block of the frame through one-step re-entry, so the
    # other rows' logs sum the steps one at a time and agree to rounding
    n_steps = 3 * SWEEP_BLOCK + 5
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    for diagonal in ((1e60, 1e-60), (1e-60, 1e60)):
        mats = overflowing_cocycle(diagonal).matrices(np.zeros(n_steps))
        states, logs = map(np.concatenate, zip(*_state_sweep([mats[:, None]], frame)))
        assert states.shape == (n_steps, 3, 2) and logs.shape == (n_steps, 3)
        for k, v in enumerate(frame):
            alone, alone_logs = map(np.concatenate, zip(*_state_sweep([mats], v)))
            np.testing.assert_allclose(states[:, k], alone, rtol=0, atol=1e-15)
            np.testing.assert_allclose(logs[:, k], alone_logs, rtol=1e-14)


def test_state_sweep_raises_on_a_vanishing_state():
    # a singular step maps the state to zero: stepping the block one
    # matrix at a time finds it, and the sweep raises instead of dividing
    # by a zero norm
    mats = np.broadcast_to(np.diag([1.0, 0.0]), (SWEEP_BLOCK, 2, 2))
    with pytest.raises(ConvergenceError, match="vanished"):
        list(_state_sweep([mats], np.array([0.0, 1.0])))


def test_state_sweep_raises_on_a_non_finite_step():
    def matrix_fn(phases):
        bad = np.asarray(phases) > 40 * GOLDEN_MEAN
        return np.where(bad[..., None, None], np.inf, rotation_cocycle(0.3).matrices(phases))

    cocycle = Cocycle(GOLDEN_MEAN, matrix_fn, 2)
    with pytest.raises(ConvergenceError, match="non-finite"):
        rotation_number(cocycle, 64, phases=[0.0])


def test_frame_kernels_raise_on_a_non_finite_step():
    # one NaN potential block, at strip site 5: the boundary frames cross
    # it inside cached block products, and raise instead of carrying NaN
    amo = fold_to_strip(almost_mathieu(2.0))

    def potential(x):
        bad = np.abs(np.asarray(x) - 5 * GOLDEN_MEAN) < 1e-9
        return np.where(bad[..., None, None], np.nan, amo.potential(x))

    strip = StripOperator(amo.coupling, potential, alpha=amo.alpha)
    with pytest.raises(ConvergenceError, match="non-finite"):
        _carried_frames(transfer_cocycle(strip, 0.3 + 0.5j), 64 * GOLDEN_MEAN, 64, 0, 1,
                        seed=1)
    with pytest.raises(ConvergenceError, match="non-finite"):
        m_plus(strip, 0.3 + 0.5j)


def amo_center_cases(n_max):
    # AMO(0.5) inside its spectrum, where the neutral frame is everything
    amo = almost_mathieu(0.5)
    for energy in spectrum_sample(amo, 3):
        cocycle = transfer_cocycle(fold_to_strip(amo), float(energy))
        yield cocycle, compute_splitting(cocycle, 0.0, (0, 2, 0)), n_max


def test_center_growth_matches_per_step_loop():
    # to 1e-12 (the sweep multiplies in blocks, the loop one step at a
    # time), across chunk boundaries, forward and on the inverse: the
    # mixed (1, 2, 1) strip and AMO(0.5) inside its spectrum
    line = random_line(np.random.default_rng(0), 2)
    energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
    cocycle = transfer_cocycle(fold_to_strip(line), energy)
    cases = [(cocycle, detect_splitting(cocycle, 0.0), 1100),
             *amo_center_cases(2100), *amo_center_cases(10000)]
    assert cases[0][1].dims == (1, 2, 1)
    for cocycle, split, n_max in cases:
        for c in (cocycle, cocycle.inverse()):
            np.testing.assert_allclose(center_growth(c, split, n_max),
                                       reference_center_growth(c, split, n_max),
                                       rtol=1e-12, atol=0)


def long_double_center_growth(c, split, n_max):
    # the running envelope of the product of the restricted steps between
    # the swept neutral frames, multiplied in np.clongdouble; the squared
    # 2-norm of a 2x2 product P is the larger root of
    # x^2 - ||P||_F^2 x + |det P|^2
    _, centers, _ = _frames_along(c, split.theta, split.dims, split.window, n_max)
    centers[0] = split.center
    mats = c.matrices(split.theta + c.alpha * np.arange(n_max))
    steps = centers[1:].conj().swapaxes(-2, -1) @ mats @ centers[:-1]
    product = np.eye(2, dtype=np.clongdouble)
    out = np.ones(n_max + 1, dtype=np.longdouble)
    for n, step in enumerate(steps.astype(np.clongdouble), start=1):
        product = step @ product
        frob = (np.abs(product) ** 2).sum()
        det = abs(product[0, 0] * product[1, 1] - product[0, 1] * product[1, 0]) ** 2
        out[n] = (frob + np.sqrt(frob * frob - 4 * det)) / 2
    return np.maximum.accumulate(out)


def test_center_growth_matches_a_long_double_product():
    # AMO(0.5) over 10^4 steps, both ways: rescaling the product without
    # moving its log scale, or the reverse, shows here
    for cocycle, split, n_max in amo_center_cases(10000):
        for c in (cocycle, cocycle.inverse()):
            exact = long_double_center_growth(c, split, n_max)
            values = center_growth(c, split, n_max)
            assert np.abs(values / exact - 1).max() <= 1e-12


def test_center_growth_raises_as_the_per_step_loop():
    # the first failing step, and what fails there: a tilted frame leaves
    # the neutral frame at step 1; declared neutral off the free spectrum,
    # the growth overflows at step 364, in the second batch of steps
    line = random_line(np.random.default_rng(0), 2)
    energy = np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]
    cocycle = transfer_cocycle(fold_to_strip(line), energy)
    split = compute_splitting(cocycle, 0.0, (1, 2, 1))
    tilted = replace(split, center=orthonormal_columns(split.center + 1e-3 * split.unstable))
    free = transfer_cocycle(fold_to_strip(free_laplacian()), 3.0)
    cases = [(cocycle, tilted), (free, compute_splitting(free, 0.0, (0, 2, 0)))]
    for base, splitting in cases:
        for c in (base, base.inverse()):
            with pytest.raises(ConvergenceError) as raised:
                center_growth(c, splitting, 1000)
            with pytest.raises(ConvergenceError) as expected:
                reference_center_growth(c, splitting, 1000)
            assert str(raised.value).startswith(str(expected.value))
