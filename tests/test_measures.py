"""State-density tables, log-energy quadrature, and local scaling probes."""

from dataclasses import replace

import numpy as np
import pytest

import qplattice.linalg as linalg
from conftest import random_line
from qplattice.cocycle import (
    companion_cocycle,
    phase_lattice,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
    upper_lyapunov_sum,
)
from qplattice.corpus import cubic_tail_operator
from qplattice.linalg import ArgumentError, eigenvalues_banded
from qplattice.measures import (
    IdsTable,
    holder_probe,
    ids,
    log_energy_integral,
    stieltjes,
    thouless_residual,
    upper_alpha_derivative,
)
from qplattice.operators import (
    Hopping,
    LineOperator,
    Potential,
    StripOperator,
    almost_mathieu,
    fold_to_strip,
    free_laplacian,
)

GOLDEN_MEAN = (np.sqrt(5.0) - 1) / 2
FREE = free_laplacian()

# closed form for the free line: log|E - x| integrated against the state
# density equals arccosh(|E|/2) outside the band
FREE_QUAD_AT_3 = float(np.arccosh(1.5))
FREE_QUAD_AT_HALF_I = 0.24746646154726346


@pytest.fixture(scope="module")
def fine_table():
    # fine grid past the band edge so the scaling probes can interpolate
    grid = np.linspace(-2.6, 3.2, 11601)
    return ids(FREE, grid, n_sites=2048, samples=32)


def range_two_line():
    return LineOperator(
        hopping=Hopping({1: 1.0, 2: 0.35}),
        potential=Potential("fourier", {0: 0.2, 1: 0.3 + 0.1j}),
        alpha=GOLDEN_MEAN,
        theta=0.0,
        epsilon=1.0,
    )


# ── tables ───────────────────────────────────────────────────────────────────

def test_free_table_values():
    table = ids(FREE, np.linspace(-2.5, 2.5, 257), n_sites=512, samples=8)
    # Dirichlet truncations of the free line are symmetric around zero
    assert table.value_at(0.0) == 0.5
    assert abs(table.value_at(1.0) - 2.0 / 3.0) < 1e-3
    assert table.value_at(-2.6) == 0.0
    assert table.value_at(2.6) == 1.0
    assert np.all(np.diff(table.values) >= 0)
    assert table.resolution() == 1.0 / (512 * 8)


def test_one_site_table_counts_each_phase_potential():
    # one site: a phase's truncation is its potential value 4 cos(2 pi x)
    # alone, below 1 at two of the four phases
    table = ids(almost_mathieu(2.0), [-5, 1, 5], n_sites=1, samples=4)
    np.testing.assert_array_equal(table.values, [0, 0.5, 1])


def test_table_validation():
    with pytest.raises(ArgumentError):
        IdsTable(np.array([1.0, 0.5]), np.array([0.0, 1.0]), 16, 1)
    with pytest.raises(ArgumentError):
        IdsTable(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]), 16, 1)
    with pytest.raises(ArgumentError):
        ids(FREE, [0.0], n_sites=64, samples=2)


def test_strip_table_matches_unfolded_line():
    # a folded strip is unitarily equivalent to its line on the same window
    for k_width, seed in ((2, 0), (2, 1), (3, 0), (3, 1)):
        line = random_line(np.random.default_rng(seed), k_width)
        strip = fold_to_strip(line)
        bound = line.norm_bound()
        grid = np.linspace(-bound, bound, 301)
        from_line = ids(line, grid, n_sites=128 * k_width, samples=8)
        from_strip = ids(strip, grid, n_sites=128, samples=8)
        np.testing.assert_array_equal(from_strip.values, from_line.values)
        assert from_strip.resolution() == from_line.resolution()
        assert np.all(np.diff(from_strip.values) >= 0)
        assert from_strip.values.min() >= 0.0 and from_strip.values.max() <= 1.0


def test_cli_sized_tables_sweep_without_eigenvalues(monkeypatch):
    # 2,048 sites and 257 energies (b m <= n): the real tridiagonal AMO and
    # a complex range-3 line are counted by inertia alone, and the values
    # are those of the eigenvalue counts.  (Not at phase 0.25: there AMO has
    # an eigenvalue within rounding of the grid energy 0, which LAPACK puts
    # at -3.0e-14 and the Sturm count in (0, 1e-15).)
    cases = [almost_mathieu(2.0), random_line(np.random.default_rng(4), 3)]
    expected = []
    for op in cases:
        grid = np.linspace(-1.05 * op.norm_bound(), 1.05 * op.norm_bound(), 257)
        counts = [np.searchsorted(eigenvalues_banded(replace(op, theta=theta)
                                                     .assemble_banded(2048)), grid)
                  for theta in phase_lattice(3)]
        expected.append((grid, (np.array(counts) / 2048).sum(axis=0) / 3))

    def refuse(ab_upper):
        raise AssertionError("eigenvalues_banded called")

    monkeypatch.setattr(linalg, "eigenvalues_banded", refuse)
    for op, (grid, values) in zip(cases, expected):
        np.testing.assert_array_equal(ids(op, grid, n_sites=2048, samples=3).values, values)


def test_cubic_tail_table_never_sweeps(monkeypatch):
    # the cut-64 tail on 1,024 sites and 257 energies: b m > n, so each
    # phase is counted from its eigenvalues
    def refuse(bands, energies):
        raise AssertionError("inertia sweep called")

    monkeypatch.setattr(linalg, "_inertia_sweep", refuse)
    table = ids(cubic_tail_operator(), np.linspace(-2.5, 2.5, 257), n_sites=1024, samples=1)
    assert table.values[0] == 0.0 and table.values[-1] == 1.0


def test_table_raises_on_a_non_finite_truncation():
    # one NaN potential block, at strip site 5 of the first phase sample,
    # as in the frame kernels' test; NaN < E is False, so a count would
    # silently miss it
    amo = fold_to_strip(almost_mathieu(2.0))
    bad_phase = phase_lattice(2)[0] + 5 * GOLDEN_MEAN

    def potential(x):
        bad = np.abs(np.asarray(x) - bad_phase) < 1e-9
        return np.where(bad[..., None, None], np.nan, amo.potential(x))

    strip = StripOperator(amo.coupling, potential, alpha=amo.alpha)
    with pytest.raises(ArgumentError, match="non-finite"):
        ids(strip, np.linspace(-5.0, 5.0, 9), n_sites=64, samples=2)


# ── log-energy quadrature ────────────────────────────────────────────────────

def test_log_quadrature_outside_the_band(fine_table):
    assert abs(log_energy_integral(fine_table, 3.0) - FREE_QUAD_AT_3) < 5e-4


def test_log_quadrature_complex_energy(fine_table):
    value = log_energy_integral(fine_table, 0.5j)
    assert abs(value - FREE_QUAD_AT_HALF_I) < 1e-3


def test_log_quadrature_refuses_near_mass():
    table = ids(FREE, np.linspace(-2.5, 2.5, 257), n_sites=512, samples=8)
    with pytest.raises(ArgumentError, match="grid step"):
        log_energy_integral(table, 0.0)


# ── exponent-sum identity ────────────────────────────────────────────────────

def test_thouless_identity_free(fine_table):
    for energy in (3.0, -4.0):
        comp = companion_cocycle(FREE, energy)
        lyap, _ = top_lyapunov(comp, n_steps=10000, samples=8)
        assert thouless_residual(FREE, energy, fine_table, lyap) < 1e-3


def test_thouless_identity_supercritical():
    op = almost_mathieu(coupling=2.0)
    table = ids(op, np.linspace(-6.5, 6.5, 513), n_sites=512, samples=8)
    comp = companion_cocycle(op, -10.0)
    lyap, _ = top_lyapunov(comp, n_steps=10000, samples=8)
    assert thouless_residual(op, -10.0, table, lyap) < 1e-3


def test_thouless_identity_strip_correction():
    # on a strip the identity picks up log|det C| and a width factor
    strip = fold_to_strip(range_two_line())
    table = ids(strip, np.linspace(-4.0, 4.0, 513), n_sites=256, samples=8)
    total, _ = upper_lyapunov_sum(transfer_cocycle(strip, 5.0), 2,
                                  n_steps=10000, samples=8)
    assert thouless_residual(strip, 5.0, table, total) < 1e-2


# ── Borel transform and rotation pairing ─────────────────────────────────────

def test_stieltjes_free(fine_table):
    assert abs(stieltjes(fine_table, 1j) - 1j / np.sqrt(5.0)) < 1e-3
    for z in (0.3 + 0.05j, -1.0 + 1j, 2.5 + 0.2j):
        assert stieltjes(fine_table, z).imag > 0
    with pytest.raises(ArgumentError):
        stieltjes(fine_table, 0.5)


def test_state_density_pairs_with_rotation(fine_table):
    strip = fold_to_strip(FREE)
    for energy in (0.0, 1.0):
        rho, _ = rotation_number(transfer_cocycle(strip, energy),
                                 n_steps=4000, samples=8)
        assert abs((1.0 - fine_table.value_at(energy)) - 2.0 * rho) < 5e-3


# ── local scaling probes ─────────────────────────────────────────────────────

def test_holder_probe_interior(fine_table):
    report = holder_probe(fine_table, 0.0)
    assert not report.gap
    assert abs(report.slope - 1.0) < 0.1
    assert report.upper_half_constant > 0
    assert report.lower_three_halves_constant > 0


def test_holder_probe_band_edge(fine_table):
    report = holder_probe(fine_table, 2.0)
    assert not report.gap
    assert abs(report.slope - 0.5) < 0.1


def test_holder_probe_gap(fine_table):
    report = holder_probe(fine_table, 3.0)
    assert report.gap
    assert np.isnan(report.slope)


def test_holder_probe_needs_three_windows(fine_table):
    # fewer windows than the slope fit needs are no evidence of a gap
    for eps_grid in ((), (1e-2, 1e-1)):
        with pytest.raises(ArgumentError):
            holder_probe(fine_table, 0.0, eps_grid=eps_grid)


def test_alpha_derivative_needs_an_offset(fine_table):
    with pytest.raises(ArgumentError):
        upper_alpha_derivative(fine_table, 0.0, 1.0, eps_grid=())


def test_alpha_derivative_trends(fine_table):
    # at a full-weight interior point the alpha=1 values settle at the
    # density of states times pi
    interior = upper_alpha_derivative(fine_table, 0.0, 1.0)
    assert interior.trend == "saturating"
    assert abs(interior.value - 0.5) < 0.02
    assert upper_alpha_derivative(fine_table, 0.0, 0.5).trend == "vanishing"
    assert upper_alpha_derivative(fine_table, 3.0, 1.0).trend == "vanishing"
