"""Dominated splittings, neutral growth, telescoping and variation bounds."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm, null_space

from conftest import random_form_preserving, random_hermitian, random_line, random_strip, \
    reference_frames_along, reference_growth_constant, reference_telescoping
from qplattice.cocycle import transfer_cocycle
from qplattice.corpus import spectrum_sample
from qplattice.linalg import ArgumentError, ConvergenceError, InvariantError, \
    eigenvalues_banded, orthonormal_columns, principal_angles
from qplattice.operators import GOLDEN_MEAN, StripOperator, almost_mathieu, \
    fold_to_strip, free_laplacian
from qplattice import splitting
from qplattice.splitting import (
    DEFAULT_WINDOW,
    INVARIANCE_TOL,
    _carried_frames,
    _fit_growth_constant,
    _frames_along,
    center_growth,
    center_variation_check,
    compute_splitting,
    critical_set_test,
    detect_splitting,
    horizontal_angle,
    telescoping_check,
    vertical_angle,
)
from qplattice.symplectic import canonical_basis, pairing_matrix

# at energy 3 the free transfer matrix has eigenvector slopes phi^2 and
# phi^-2 for the golden mean phi, hence these frozen frame values
GOLDEN_SQ = ((1 + np.sqrt(5.0)) / 2.0) ** 2
STABLE_ANGLE_AT_3 = 0.3648638281134832


def free_cocycle(energy):
    return transfer_cocycle(fold_to_strip(free_laplacian()), energy)


def rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def constant_strip():
    # constant blocks: one expanding, two neutral, one contracting direction
    return StripOperator(np.eye(2), lambda x: np.diag([3.0, 0.0]) + 0 * np.asarray(x)[..., None, None],
                         alpha=GOLDEN_MEAN)


def mixed_strip():
    # a folded range-2 line and a truncation eigenvalue at which its transfer
    # cocycle splits into one expanding, two neutral and one contracting
    # direction
    line = random_line(np.random.default_rng(0), 2)
    return fold_to_strip(line), np.sort(eigenvalues_banded(line.assemble_banded(400)))[200]


# ── computing splittings ─────────────────────────────────────────────────────

def test_hyperbolic_free_splitting():
    split = compute_splitting(free_cocycle(3.0), 0.0, (1, 0, 1))
    assert split.dims == (1, 0, 1)
    # frames are the constant eigendirections (x, 1) with slope 1/x
    un = split.unstable[:, 0]
    st = split.stable[:, 0]
    assert abs(un[0] / un[1] - GOLDEN_SQ) < 1e-10
    assert abs(st[0] / st[1] - 1.0 / GOLDEN_SQ) < 1e-10
    # the certified gap approaches the squared eigenvalue ratio (finite
    # window, so only to a few hundredths)
    assert abs(split.certificates[0] - GOLDEN_SQ**2) < 0.05
    assert abs(vertical_angle(split) - STABLE_ANGLE_AT_3) < 1e-10


def test_elliptic_energy_refuses_hyperbolic_dims():
    with pytest.raises(ConvergenceError):
        compute_splitting(free_cocycle(0.0), 0.0, (1, 0, 1))


def test_detect_splitting_picks_smallest_center():
    assert detect_splitting(free_cocycle(3.0)).dims == (1, 0, 1)
    assert detect_splitting(free_cocycle(0.0)).dims == (0, 2, 0)


def test_three_way_splitting_constant_strip():
    split = detect_splitting(transfer_cocycle(constant_strip(), 0.0), 0.0)
    assert split.dims == (1, 2, 1)
    assert all(c > 1.01 for c in split.certificates)


def test_detect_splitting_reads_one_rate_window(rate_windows):
    strip, in_spectrum = mixed_strip()
    cases = [
        (free_cocycle(3.0), (1, 0, 1)),
        (free_cocycle(0.0), (0, 2, 0)),
        (transfer_cocycle(constant_strip(), 0.0), (1, 2, 1)),
        (transfer_cocycle(strip, in_spectrum), (1, 2, 1)),
    ]
    for cocycle, dims in cases:
        rate_windows.clear()
        split = detect_splitting(cocycle, 0.0)
        assert len(rate_windows) == 1
        assert split.dims == dims
        # the same splitting compute_splitting converges at the detected dims
        reference = compute_splitting(cocycle, 0.0, dims)
        for field in fields(split):
            np.testing.assert_array_equal(getattr(split, field.name),
                                          getattr(reference, field.name))


def test_neutral_frame_matches_complement_and_four_frame_intersection():
    # two independent evaluators of the neutral frame: at a real energy
    # the pairing complement of the expanding and contracting frames; at
    # any energy the intersection of two frames of width dim - 1, each
    # converged from its own seed
    strip, energy = mixed_strip()
    cocycle = transfer_cocycle(strip, energy)
    for theta in (0.0, 0.37):
        split = compute_splitting(cocycle, theta, (1, 2, 1))
        joint = np.hstack([split.unstable, split.stable])
        reference = null_space(joint.conj().T @ cocycle.form)
        assert principal_angles(split.center, reference).max() < 1e-12
    shifted = transfer_cocycle(strip, energy + 1e-3j)
    split = compute_splitting(shifted, 0.0, (1, 2, 1))
    center_stable = _carried_frames(shifted.inverse(), 0.0, DEFAULT_WINDOW, 0, 3, seed=5)[0]
    center_unstable = _carried_frames(shifted, 0.0, DEFAULT_WINDOW, 0, 3, seed=6)[0]
    coeff = null_space(np.hstack([center_stable, -center_unstable]))
    reference = center_stable @ coeff[:3]
    assert principal_angles(split.center, reference).max() < 1e-12


def test_splitting_converges_one_frame_per_direction(converged_frames, segment_carries):
    # a forward and a backward frame at the base phase and at the next
    # phase of the invariance check, at real and complex energies alike;
    # each crosses its 128-step window as one cached block product
    strip, energy = mixed_strip()
    for shift in (0.0, 1e-3j):
        converged_frames.clear()
        segment_carries.clear()
        split = compute_splitting(transfer_cocycle(strip, energy + shift), 0.0, (1, 2, 1))
        assert split.center.shape == (4, 2)
        assert len(converged_frames) == 4
        assert segment_carries == [3] * 4


def test_swept_frames_match_frames_converged_at_each_phase():
    # one sweep each way gives, at every phase of the orbit, the frames a
    # window converges at that phase alone
    strip, energy = mixed_strip()
    for shift in (0.0, 1e-3j):
        cocycle = transfer_cocycle(strip, energy + shift)
        for c, steps in ((cocycle, (0, 1, 17, 128, 255, 256)), (cocycle.inverse(), (200,))):
            swept = _frames_along(c, 0.0, (1, 2, 1), DEFAULT_WINDOW, 256)
            assert [len(stack) for stack in swept] == [257] * 3
            for n in steps:
                single = _frames_along(c, n * c.alpha, (1, 2, 1), DEFAULT_WINDOW)
                for stack, reference in zip(swept, single):
                    assert principal_angles(stack[n], reference[0]).max() < 1e-11


def test_stacked_neutral_frames_equal_the_per_step_intersection():
    # one batched SVD for the whole sweep gives, bit for bit, the frames
    # of one null_space call per step
    strip, energy = mixed_strip()
    for shift in (0.0, 1e-3j):
        cocycle = transfer_cocycle(strip, energy + shift)
        for c in (cocycle, cocycle.inverse()):
            stacks = _frames_along(c, 0.0, (1, 2, 1), DEFAULT_WINDOW, 256)
            reference = reference_frames_along(c, 0.0, (1, 2, 1), DEFAULT_WINDOW, 256)
            for stack, expected in zip(stacks, reference):
                assert stack.shape == expected.shape
                assert np.array_equal(stack, expected)


def test_neutral_frame_of_a_hyperbolic_cocycle_is_refused():
    # off the spectrum of a K=2 strip every direction expands or
    # contracts, so two neutral directions are refused rather than
    # returned empty
    strip = random_strip(np.random.default_rng(61), k_max=2)
    cocycle = transfer_cocycle(strip, 1.2 * strip.norm_bound())
    with pytest.raises(ConvergenceError,
                       match="^neutral frame has dimension 0, expected 2$"):
        _frames_along(cocycle, 0.0, (0, 2, 0), DEFAULT_WINDOW)


def test_neutral_growth_sweeps_one_frame_per_direction(converged_frames):
    strip, energy = mixed_strip()
    cocycle = transfer_cocycle(strip, energy)
    split = compute_splitting(cocycle, 0.0, (1, 2, 1))
    converged_frames.clear()
    center_growth(cocycle, split, 256)
    assert len(converged_frames) == 2


def test_neutral_growth_raises_off_the_invariant_frame():
    # a neutral frame tilted toward the expanding direction leaves the swept
    # neutral frame at the first step
    strip, energy = mixed_strip()
    cocycle = transfer_cocycle(strip, energy)
    split = compute_splitting(cocycle, 0.0, (1, 2, 1))
    tilted = replace(split, center=orthonormal_columns(split.center + 1e-3 * split.unstable))
    for c in (cocycle, cocycle.inverse()):
        with pytest.raises(ConvergenceError, match="not invariant at step 1$"):
            center_growth(c, tilted, 64)


def test_splitting_frames_are_invariant():
    rng = np.random.default_rng(61)
    strip = random_strip(rng, k_max=2)
    energy = 1.1 * strip.norm_bound()  # far enough out to be hyperbolic
    cocycle = transfer_cocycle(strip, energy)
    split = compute_splitting(cocycle, 0.2, (2, 0, 2))
    nxt = compute_splitting(cocycle, 0.2 + cocycle.alpha, (2, 0, 2))
    a = cocycle.matrix(0.2)
    for frame, target in ((split.stable, nxt.stable),
                          (split.unstable, nxt.unstable)):
        pushed = a @ frame
        overlap = np.linalg.svd(np.linalg.qr(pushed)[0].conj().T @ target,
                                compute_uv=False)
        assert overlap.min() > 1 - INVARIANCE_TOL


def test_splitting_dims_validation():
    with pytest.raises(ArgumentError):
        compute_splitting(free_cocycle(3.0), 0.0, (1, 1, 0))
    with pytest.raises(ArgumentError):
        compute_splitting(free_cocycle(3.0), 0.0, (2, 0, 2))


# ── angles and critical phases ───────────────────────────────────────────────

def test_vertical_angle_reference_values():
    slope = 1.0 / GOLDEN_SQ  # about 0.382
    frame = np.array([[slope], [1.0]]) / np.hypot(slope, 1.0)
    assert abs(vertical_angle(frame) - 0.3648638281134832) < 1e-12
    assert vertical_angle(np.array([[0.0], [1.0]])) == pytest.approx(0.0)
    assert vertical_angle(np.array([[1.0], [0.0]])) == pytest.approx(np.pi / 2)
    assert vertical_angle(np.zeros((4, 0))) == pytest.approx(np.pi / 2)
    with pytest.raises(ArgumentError):
        vertical_angle(np.zeros((3, 1)))


def test_horizontal_angle_is_flipped_vertical():
    rng = np.random.default_rng(62)
    frame = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    flipped = np.concatenate([frame[2:], frame[:2]])
    assert abs(horizontal_angle(frame) - vertical_angle(flipped)) < 1e-12


def test_critical_set_test_on_free_operator():
    split = compute_splitting(free_cocycle(3.0), 0.0, (1, 0, 1))
    assert critical_set_test(split)
    assert not critical_set_test(split, floor=1.0)


# ── neutral growth ───────────────────────────────────────────────────────────

def test_center_growth_free_band_center():
    cocycle = free_cocycle(0.0)
    split = compute_splitting(cocycle, 0.0, (0, 2, 0))
    values = center_growth(cocycle, split, 2000)
    assert values[0] == 1.0
    assert np.all(np.diff(values) >= 0)
    assert abs(values[-1] - 1.0) < 1e-8


def test_center_growth_mixed_spectrum_bounded():
    strip = StripOperator(np.eye(2), lambda x: np.diag([3.0, 0.0]) + 0 * np.asarray(x)[..., None, None],
                          alpha=GOLDEN_MEAN)
    cocycle = transfer_cocycle(strip, 0.0)
    split = detect_splitting(cocycle, 0.0)
    values = center_growth(cocycle, split, 600)
    assert abs(values[-1] - 1.0) < 1e-6  # neutral block is a pure rotation


def test_center_growth_needs_neutral_directions():
    split = compute_splitting(free_cocycle(3.0), 0.0, (1, 0, 1))
    with pytest.raises(ArgumentError):
        center_growth(free_cocycle(3.0), split, 10)


def test_center_growth_step_count():
    # no step leaves the envelope at one; a negative count is refused
    cocycle = free_cocycle(0.0)
    split = compute_splitting(cocycle, 0.0, (0, 2, 0))
    for c in (cocycle, cocycle.inverse()):
        values = center_growth(c, split, 0)
        assert values.shape == (1,) and values[0] == 1.0
        for n_max in (-1, -3):
            with pytest.raises(ArgumentError, match="n_max must be non-negative"):
                center_growth(c, split, n_max)


def test_center_growth_raises_when_the_neutral_growth_overflows():
    # energy 3 lies off the free spectrum: declared all neutral, the frame
    # grows at the rate log(phi^2) per step, past e^350 at step 364
    cocycle = free_cocycle(3.0)
    split = compute_splitting(cocycle, 0.0, (0, 2, 0))
    for c in (cocycle, cocycle.inverse()):
        with pytest.raises(ConvergenceError, match="overflowed"):
            center_growth(c, split, 1000)


# ── telescoping bound ────────────────────────────────────────────────────────

def test_telescoping_pure_rotations():
    form = pairing_matrix(np.eye(1))
    rng = np.random.default_rng(63)
    angles = rng.uniform(0, 2 * np.pi, size=60)

    def family(t, j):
        return rotation(angles[j - 1])

    report = telescoping_check(form, family, np.eye(2), lip=1.0, t=0.01,
                               n_steps=60)
    assert report.ok
    assert report.norm == pytest.approx(1.0, abs=1e-10)
    assert report.inverse_norm == pytest.approx(1.0, abs=1e-10)


def test_telescoping_structured_perturbation():
    rng = np.random.default_rng(64)
    form = pairing_matrix(np.eye(1))
    base = [expm(np.linalg.solve(form, 0.4 * random_hermitian(rng, 2)))
            for _ in range(40)]
    gens = [np.linalg.solve(form, 0.3 * random_hermitian(rng, 2))
            for _ in range(40)]
    lip = 1.05 * max(np.linalg.norm(b, 2) * np.linalg.norm(g, 2)
                     for b, g in zip(base, gens))

    def family(t, j):
        return base[j - 1] @ expm(t * gens[j - 1])

    report = telescoping_check(form, family, np.eye(2), lip=lip, t=0.01,
                               n_steps=40, samples=8)
    assert report.ok
    assert report.norm <= report.bound
    assert report.inverse_norm <= report.bound


def test_telescoping_unperturbed_chain():
    form = pairing_matrix(np.eye(1))
    rng = np.random.default_rng(65)
    base = [expm(np.linalg.solve(form, 0.5 * random_hermitian(rng, 2)))
            for _ in range(25)]

    def family(t, j):
        return base[j - 1]

    report = telescoping_check(form, family, np.eye(2), lip=1.0, t=0.0,
                               n_steps=25)
    assert report.ok
    # with t = 0 the envelope collapses to constant times growth
    assert report.norm <= report.constant * report.growth + 1e-9


def test_telescoping_walks_the_chain_once():
    # one unperturbed and one perturbed link per step; the Lipschitz spot
    # checks reuse the perturbed links
    form = pairing_matrix(np.eye(1))
    rng = np.random.default_rng(66)
    angles = rng.uniform(0, 2 * np.pi, size=30)
    calls = []

    def family(t, j):
        calls.append((t, j))
        return rotation(angles[j - 1] + t)

    report = telescoping_check(form, family, np.eye(2), lip=1.0, t=0.01,
                               n_steps=30, samples=8)
    assert report.ok
    assert len(calls) == 2 * 30
    assert sorted(calls) == sorted([(0.0, j) for j in range(1, 31)]
                                   + [(0.01, j) for j in range(1, 31)])


def test_telescoping_on_a_balanced_subspace():
    # span(e1, e3) in C^4: a proper subspace, on which the reverse-norm
    # constant changes from link to link (on the whole space it stays 4)
    rng = np.random.default_rng(5)
    form = pairing_matrix(np.eye(2))
    base = [random_form_preserving(rng, np.eye(2), scale=0.3) for _ in range(30)]
    gens = [np.linalg.solve(form, 0.3 * random_hermitian(rng, 4)) for _ in range(30)]
    lip = 1.05 * max(np.linalg.norm(b, 2) * np.linalg.norm(g, 2)
                     for b, g in zip(base, gens))
    t = 0.01

    def family(s, j):
        return base[j - 1] @ expm(s * gens[j - 1])

    def constant(frame):
        # ||S|| sum_i ||xi_i|| ||xi_i*|| over the canonical basis
        xi, k = canonical_basis(form, frame)
        norms = np.linalg.norm(xi, axis=0)
        return np.linalg.norm(form, 2) * 2.0 * np.sum(norms[:k] * norms[k:])

    v = np.eye(4)[:, [0, 2]]
    report = telescoping_check(form, family, v, lip=lip, t=t, n_steps=30)

    # dense products of the unperturbed and the perturbed chain
    prefix = moved = np.eye(4)
    constants = [constant(v)]
    growth = 1.0
    for j in range(1, 31):
        prefix = family(0.0, j) @ prefix
        moved = family(t, j) @ moved
        constants.append(constant(prefix @ v))
        growth = max(growth, np.linalg.norm(prefix @ v, 2) ** 2)
    image = np.linalg.qr(moved @ v)[0]
    expected = {
        "norm": np.linalg.norm(moved @ v, 2),
        "inverse_norm": np.linalg.norm(np.linalg.solve(moved, image), 2),
        "constant": max(constants),
        "growth": growth,
    }
    assert report.ok
    assert max(constants) > 100.0
    for name, value in expected.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-12), name


def test_telescoping_input_validation():
    form = pairing_matrix(np.eye(1))

    def skewed(t, j):
        return np.diag([2.0, 2.0])  # scales the form: not compatible

    with pytest.raises(InvariantError):
        telescoping_check(form, skewed, np.eye(2), lip=1.0, t=0.1, n_steps=3)

    def family(t, j):
        return rotation(0.3) + t * np.ones((2, 2))

    with pytest.raises(ArgumentError):
        # declared Lipschitz bound far below the actual drift
        telescoping_check(form, family, np.eye(2), lip=1e-6, t=0.5, n_steps=3)
    with pytest.raises(InvariantError):
        telescoping_check(form, lambda t, j: rotation(0.1),
                          np.array([[1.0], [0.0]]), lip=1.0, t=0.0, n_steps=2)
    with pytest.raises(ArgumentError, match="at least one link"):
        telescoping_check(form, family, np.eye(2), lip=1.0, t=0.1, n_steps=0)


def test_telescoping_matches_the_per_link_walk():
    # the stacked links, product scan and frame constants against the walk
    # they replaced, on the first chains test_10 draws (m = 1 and 2, whole
    # space) and on chains of complex links on a proper balanced subspace
    def chains():
        rng = np.random.default_rng(99)
        for _ in range(4):
            m = int(rng.integers(1, 3))
            s = pairing_matrix(np.eye(m))
            n = int(rng.integers(50, 1001))
            t = float(rng.uniform(0.002, 0.01))
            bases = [np.linalg.solve(s, 0.9 / np.sqrt(n) * random_hermitian(rng, 2 * m))
                     for _ in range(n)]
            gens = [np.linalg.solve(s, 0.5 / np.sqrt(n) * random_hermitian(rng, 2 * m))
                    for _ in range(n)]
            lip = 1.05 * max(np.linalg.norm(g, 2) * np.exp(np.linalg.norm(b, 2)
                                                          + t * np.linalg.norm(g, 2))
                             for b, g in zip(bases, gens))
            yield s, np.eye(2 * m), bases, gens, lip, t
        rng = np.random.default_rng(67)
        for m in (1, 2):
            s = pairing_matrix(np.eye(m) + 0.3j * random_hermitian(rng, m))
            bases = [np.linalg.solve(s, 0.2 * random_hermitian(rng, 2 * m)) for _ in range(80)]
            gens = [np.linalg.solve(s, 0.3 * random_hermitian(rng, 2 * m)) for _ in range(80)]
            lip = 1.05 * max(np.linalg.norm(g, 2) * np.exp(np.linalg.norm(b, 2)
                                                          + 0.01 * np.linalg.norm(g, 2))
                             for b, g in zip(bases, gens))
            v = np.eye(2 * m)[:, [0, m]] + 0.2j * rng.standard_normal((2 * m, 2))
            yield s, v, bases, gens, lip, 0.01

    for s, v, bases, gens, lip, t in chains():
        links = {}

        def family(tt, j):
            if (tt, j) not in links:
                links[tt, j] = expm(bases[j - 1] + tt * gens[j - 1])
            return links[tt, j]

        n = len(bases)
        report = telescoping_check(s, family, v, lip, t, n, samples=6)
        reference = reference_telescoping(s, family, v, lip, t, n, samples=6)
        assert report.ok and report.constant == reference.constant
        for name, rel in (("norm", 1e-12), ("inverse_norm", 1e-12),
                          ("growth", 1e-12), ("bound", 1e-10)):
            assert getattr(report, name) == pytest.approx(getattr(reference, name), rel=rel)


def test_telescoping_raises_for_the_first_faulty_link():
    # two faulty links in one chain: whichever comes first along the chain
    # raises, as in the per-link walk; on one link the pairing comes first
    form = pairing_matrix(np.eye(1))
    for skewed, drifting, error, first in ((7, 3, ArgumentError, 3),
                                           (2, 3, InvariantError, 2),
                                           (4, 4, InvariantError, 4)):
        def family(t, j):
            link = rotation(0.1 * j) * (2.0 if j == skewed else 1.0)
            return link + (t * np.ones((2, 2)) if j == drifting else 0.0)

        for check in (telescoping_check, reference_telescoping):
            with pytest.raises(error, match="link %d " % first):
                check(form, family, np.eye(2), lip=1e-3, t=0.5, n_steps=8, samples=8)


# ── neutral variation under complex energy ───────────────────────────────────

def test_center_variation_free_band_center(growth_fits):
    report = center_variation_check(
        fold_to_strip(free_laplacian()), 0.0,
        eps_grid=(0.0, 1e-4, 1e-3), n_max=256,
    )
    assert report.dims == (0, 2, 0)
    assert report.c_growth <= 10.0
    assert len(growth_fits) == 1
    assert report.lipschitz_stable
    # real-energy envelope of the elliptic cocycle stays at one
    assert abs(report.envelope[-1] - 1.0) < 1e-8
    zero_shift = report.growth[0.0]
    for n, val in zero_shift.items():
        assert val**2 <= report.envelope[n] * (1 + 1e-10)


def test_center_variation_growth_constant_ignores_grid_order(growth_fits):
    # every shifted record is fitted against the real-energy envelope,
    # wherever the zero shift sits in the grid and whether it is there
    op = almost_mathieu(0.5)
    strip = fold_to_strip(op)
    energy = spectrum_sample(op, 8)[4]
    constants = [
        center_variation_check(strip, energy, eps_grid=grid, n_max=256).c_growth
        for grid in ((0.0, 1e-4, 1e-3), (1e-4, 0.0, 1e-3), (1e-4, 1e-3))
    ]
    assert constants[0] == constants[1] == constants[2]
    assert len(growth_fits) == 3


def test_center_variation_converges_each_splitting_once(rate_windows, growth_fits):
    # the detected splitting feeds the envelope; the stations and the
    # Lipschitz probes are read off sweeps, which converge no rate window:
    # 1 detected + 2 shifted
    op = almost_mathieu(0.5)
    report = center_variation_check(fold_to_strip(op), spectrum_sample(op, 8)[4],
                                    eps_grid=(0.0, 1e-4, 1e-3), n_max=256)
    assert report.checkpoints == (1, 2, 4, 8, 16, 32, 64, 128, 256)
    assert len(rate_windows) == 3
    assert len(growth_fits) == 1


def test_center_variation_on_mixed_splitting(converged_frames, growth_fits):
    # hyperbolic and neutral directions together: the shifted products step
    # between swept neutral frames like the envelope, so rounding noise at
    # the top rate neither breaks the zero-shift comparison nor inflates the
    # fitted constant
    strip, energy = mixed_strip()
    report = center_variation_check(strip, energy, eps_grid=(0.0, 1e-4, 1e-3),
                                    n_max=256)
    assert report.dims == (1, 2, 1)
    # 4 + 4 frames for detect_splitting (its (2, 0, 2) candidate converges
    # frames before failing the invariance check), 4 per splitting at the 2
    # shifted energies, and one sweep each way for the stations, for each
    # of the 8 Lipschitz probes, for the real-energy products (the envelope
    # and the zero shift) and for each nonzero eps
    assert len(converged_frames) == 40
    assert report.c_growth < 1.0
    assert len(growth_fits) == 1
    assert report.lipschitz_stable


def test_center_variation_rejects_tilted_stations(monkeypatch):
    # station frames tilted by 1e-3 toward the expanding direction must
    # break the zero-shift comparison with the restricted envelope
    real = splitting._frames_along

    def tilted(c, theta, dims, n_window, n_steps=0):
        fast, center, slow = real(c, theta, dims, n_window, n_steps)
        if n_window == 2 * DEFAULT_WINDOW:
            center = center.copy()
            center[..., 0] += 1e-3 * fast[..., 0]
            center = orthonormal_columns(center)
        return fast, center, slow

    monkeypatch.setattr(splitting, "_frames_along", tilted)
    strip, energy = mixed_strip()
    with pytest.raises(InvariantError, match="zero-shift projected growth disagrees"):
        center_variation_check(strip, energy, eps_grid=(0.0, 1e-4, 1e-3), n_max=256)


def test_center_variation_rejects_stations_that_lower_the_growth(monkeypatch):
    # the second station column tilted by -1e-3 toward the expanding
    # direction lowers the projected growth below the running envelope;
    # against the restricted norm at each checkpoint it must still raise
    real = splitting._frames_along

    def tilted(c, theta, dims, n_window, n_steps=0):
        fast, center, slow = real(c, theta, dims, n_window, n_steps)
        if n_window == 2 * DEFAULT_WINDOW:
            center = center.copy()
            center[..., 1] -= 1e-3 * fast[..., 0]
            center = orthonormal_columns(center)
        return fast, center, slow

    monkeypatch.setattr(splitting, "_frames_along", tilted)
    strip, energy = mixed_strip()
    with pytest.raises(InvariantError, match="zero-shift projected growth disagrees"):
        center_variation_check(strip, energy, eps_grid=(0.0, 1e-4, 1e-3), n_max=256)


def test_growth_constant_matches_the_bisection():
    # the closed form against the bisection it replaced, on records spread
    # over the ranges center_variation_check produces and beyond
    rng = np.random.default_rng(61)
    for _ in range(200):
        records = [(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(0, 3),
                    10.0 ** rng.uniform(-6, -1), int(rng.integers(1, 2049)))
                   for _ in range(int(rng.integers(1, 6)))]
        fitted = _fit_growth_constant(records)
        reference = reference_growth_constant(records)
        assert abs(fitted - reference) <= 1e-14 * reference


def test_center_variation_needs_neutral_frame():
    with pytest.raises(ArgumentError):
        center_variation_check(fold_to_strip(free_laplacian()), 3.0,
                               eps_grid=(0.0, 1e-4), n_max=64)


def test_center_variation_refuses_no_steps_and_negative_shifts():
    # the zero shift stays allowed: it checks the projection
    strip = fold_to_strip(almost_mathieu(0.5))
    for n_max, eps_grid in [(0, (0.0, 1e-4)), (-1, (0.0, 1e-4)), (256, (0.0, -1e-4))]:
        with pytest.raises(ArgumentError):
            center_variation_check(strip, 0.1, eps_grid=eps_grid, n_max=n_max)
