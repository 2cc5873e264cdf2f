"""Boundary pairings, subordinacy chain, duality, and growth probes."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qplattice.longrange
from qplattice.corpus import CUBIC_TAIL_CUT, cosine_root_state, cubic_tail_operator
from qplattice.linalg import ArgumentError, InvariantError, banded_matmul, \
    eigenvalues_banded, nearest_eigenpair, solve_shifted_banded
from qplattice.longrange import (
    DEFAULT_RADII,
    _running_sums,
    duality_transform,
    lagrange_form,
    lagrange_sum_bounds,
    solution_growth,
    subordinacy_probe,
)
from qplattice.operators import (
    Hopping,
    LineOperator,
    Potential,
    almost_mathieu,
    dual_operator,
    free_laplacian,
)

GOLDEN_MEAN = (np.sqrt(5.0) - 1) / 2
FREE = free_laplacian()

SITES = np.arange(-60, 61)
COS_HALF = np.cos(np.pi * SITES / 2)     # solves the free equation at 0
SIN_HALF = np.sin(np.pi * SITES / 2)
COS_THIRD = np.cos(np.pi * SITES / 3)    # solves the free equation at 1
# pure hopping: its cosine root state solves the equation at zero energy
PURE_HOPPING = LineOperator(Hopping({1: 1.0, 2: 0.1, 3: -0.05}), Potential.zero(),
                            epsilon=0.0)


def root_state(radii):
    n_max = 2 * max(radii) + PURE_HOPPING.hopping.range + 8
    return cosine_root_state(PURE_HOPPING, n_max)[0], -n_max


# ── windowed boundary pairing ────────────────────────────────────────────────

def test_pairing_of_same_energy_solutions_vanishes():
    for radius in (3, 10, 40):
        assert abs(lagrange_form(FREE, COS_HALF, SIN_HALF, radius)) < 1e-12


def test_pairing_of_split_energies_is_the_overlap():
    # (Hf) g - f (Hg) summed over the window collapses to
    # (E_f - E_g) * sum f g when both sequences solve their equations
    center = SITES.size // 2
    for radius in (3, 10, 25):
        value = lagrange_form(FREE, COS_HALF, COS_THIRD, radius)
        sl = slice(center - radius, center + radius + 1)
        overlap = -np.sum(COS_HALF[sl] * COS_THIRD[sl])
        assert abs(value - overlap) < 1e-12


def test_pairing_conjugate_antisymmetry():
    rng = np.random.default_rng(5)
    f = rng.normal(size=41) + 1j * rng.normal(size=41)
    g = rng.normal(size=41) + 1j * rng.normal(size=41)
    forward = lagrange_form(FREE, f, g, 7)
    assert abs(forward + np.conj(lagrange_form(FREE, g, f, 7))) < 1e-12


def test_pairing_window_validation():
    with pytest.raises(ArgumentError, match="window too short"):
        lagrange_form(FREE, COS_HALF, SIN_HALF, 60)
    with pytest.raises(ArgumentError, match="share one window"):
        lagrange_form(FREE, COS_HALF, SIN_HALF[:-1], 5)
    with pytest.raises(ArgumentError, match="share one window"):
        lagrange_sum_bounds(FREE, COS_HALF, SIN_HALF[:-1], 5)


def test_radius_summed_bounds_dominate():
    rng = np.random.default_rng(11)
    offsets = np.arange(-60, 61)
    decaying = (rng.normal(size=121) + 1j * rng.normal(size=121)) * np.exp(
        -np.abs(offsets) / 15
    )
    orbit = np.cos(2 * np.pi * (0.3 + offsets * GOLDEN_MEAN))
    lhs, window_bound, tail_bound = lagrange_sum_bounds(FREE, decaying, orbit, 30)
    assert 0 < lhs <= window_bound
    assert lhs <= tail_bound
    # single-neighbor hopping: the window envelope is 4 ||f|| ||g||
    lo, hi = 60 - 31, 60 + 32
    expected = 4.0 * np.linalg.norm(decaying[lo:hi]) * np.linalg.norm(orbit[lo:hi])
    assert abs(window_bound - expected) < 1e-12
    with pytest.raises(ArgumentError, match="sup norm"):
        lagrange_sum_bounds(FREE, decaying, 3.0 * orbit, 30)


def test_radius_sums_match_the_outward_loop():
    # reference: the running window sums accumulated one radius at a time
    rng = np.random.default_rng(12)
    for _ in range(50):
        r_max = int(rng.integers(1, 40))
        center = r_max + int(rng.integers(0, 3))
        values = rng.normal(size=2 * center + 3) + 1j * rng.normal(size=2 * center + 3)
        total = 0.0 + 0.0j
        running = values[center]
        for r in range(1, r_max + 1):
            running += values[center + r] + values[center - r]
            total += running
        assert np.cumsum(_running_sums(values, center, r_max))[-1] == total
    with pytest.raises(ArgumentError, match="at least one"):
        lagrange_sum_bounds(FREE, COS_HALF, COS_HALF, 0)


# ── subordinacy chain ────────────────────────────────────────────────────────

def test_subordinacy_chain_free_center():
    sites = np.arange(-513, 514)
    u = np.cos(np.pi * sites / 2)
    report = subordinacy_probe(FREE, 0.0, u, r_grid=(64, 128, 256))
    assert report.ok
    assert report.trend == "saturating"
    proxies = [rec["proxy"] for rec in report.records]
    # the scaled solve mass approximates pi times the state density
    assert all(0.5 < p < 0.8 for p in proxies)
    assert max(proxies) / min(proxies) < 1.1
    for rec in report.records:
        assert rec["lower"] <= rec["w_total"] + 1e-12
        assert rec["w_total"] <= rec["window_bound"] + 1e-12
        assert rec["w_total"] <= rec["tail_bound"] + 1e-12


def test_subordinacy_trends_on_the_cubic_tail_state():
    # alpha = 1 saturates here; a larger exponent makes the scaled mass
    # vanish, a smaller one over a wider grid makes it diverge, and one so
    # large that eps**alpha underflows leaves zero proxies
    op = cubic_tail_operator()
    u, _root = cosine_root_state(op, 2 * 1024 + CUBIC_TAIL_CUT + 8)
    for alpha, radii, trend in [(2.0, (256, 1024), "vanishing"),
                                (0.0, (64, 1024), "diverging"),
                                (200.0, (256, 1024), "vanishing")]:
        report = subordinacy_probe(op, 0.0, u, r_grid=radii, alpha=alpha)
        assert report.ok and report.trend == trend
    assert all(rec["proxy"] == 0.0 for rec in report.records)


def test_subordinacy_chain_fails_on_a_wrong_solve(monkeypatch):
    # solving at z + 0.5 keeps Im z, so the solve identity still holds; only
    # the lower half of the chain, against W read off H, can catch it
    solve = qplattice.longrange.solve_shifted_banded
    monkeypatch.setattr(qplattice.longrange, "solve_shifted_banded",
                        lambda ab, z, rhs: solve(ab, z + 0.5, rhs))
    radii = (64, 256, 1024)
    u, first = root_state(radii)
    report = subordinacy_probe(PURE_HOPPING, 0.0, u, r_grid=radii, first_site=first)
    assert report.ok is False


def test_subordinacy_chain_fails_at_every_radius_on_a_nearly_right_solve(monkeypatch):
    # a solve at z + 0.05 passes the lower bound built from the whole-window
    # norms at R = 64 and 1024; the radius-r norms catch it at every radius
    solve = qplattice.longrange.solve_shifted_banded
    monkeypatch.setattr(qplattice.longrange, "solve_shifted_banded",
                        lambda ab, z, rhs: solve(ab, z + 0.05, rhs))
    radii = (64, 256, 1024)
    u, first = root_state(radii)
    report = subordinacy_probe(PURE_HOPPING, 0.0, u, r_grid=radii, first_site=first)
    assert [rec["ok"] for rec in report.records] == [False, False, False]


def test_subordinacy_solve_identity_can_fail(monkeypatch):
    # a solve off by a relative 1e-6 breaks Im<phi, v> = Im z ||v||^2
    solve = qplattice.longrange.solve_shifted_banded
    monkeypatch.setattr(qplattice.longrange, "solve_shifted_banded",
                        lambda ab, z, rhs: solve(ab, z, rhs) * (1 + 1e-6))
    radii = (64, 256, 1024)
    u, first = root_state(radii)
    with pytest.raises(InvariantError, match="solve identity"):
        subordinacy_probe(PURE_HOPPING, 0.0, u, r_grid=radii, first_site=first)


def test_subordinacy_pairing_sum_is_read_off_the_operator():
    u, first = root_state(DEFAULT_RADII)
    report = subordinacy_probe(PURE_HOPPING, 0.0, u, r_grid=DEFAULT_RADII,
                               first_site=first)
    assert report.ok
    for r, rec in zip(DEFAULT_RADII, report.records):
        eps = 1.0 / r
        n_win = 4 * r + 1
        w_first = -(n_win // 2)
        phi_w = np.zeros(n_win, dtype=complex)
        phi_w[-w_first] = 1.0
        u_w = u[w_first - first : w_first - first + n_win]
        ab = PURE_HOPPING.assemble_banded(n_win, first_site=w_first)
        v = solve_shifted_banded(ab, 1j * eps, phi_w.reshape(-1, 1))[:, 0]
        assert rec["w_total"] == lagrange_sum_bounds(PURE_HOPPING, v, u_w, r,
                                                     first_site=w_first)[0]
        # reference: the same sum through the solve identity
        # W_r(v, u) = <phi, u>_r + i eps <v, u>_r
        run_b = _running_sums(phi_w * np.conj(u_w), -w_first, r)
        run_c = _running_sums(v * np.conj(u_w), -w_first, r)
        identity = abs(np.cumsum(run_b + 1j * eps * run_c)[-1])
        assert abs(rec["w_total"] - identity) <= 1e-12 * identity


def test_subordinacy_validation():
    sites = np.arange(-513, 514)
    u = np.cos(np.pi * sites / 2)
    with pytest.raises(ArgumentError, match="sup norm"):
        subordinacy_probe(FREE, 0.0, 5.0 * u, r_grid=(64,))
    with pytest.raises(ArgumentError, match="not a generalized solution"):
        subordinacy_probe(FREE, 0.5, u, r_grid=(64,))
    with pytest.raises(ArgumentError, match="window too short"):
        subordinacy_probe(FREE, 0.0, u, r_grid=(64, 512))
    # the candidate vanishes at every odd site, so a probe there pairs to zero
    phi = np.zeros(u.size, dtype=complex)
    phi[u.size // 2 + 1] = 1.0
    with pytest.raises(ArgumentError, match="orthogonal"):
        subordinacy_probe(FREE, 0.0, u, phi=phi, r_grid=(64,))


# ── duality ──────────────────────────────────────────────────────────────────

def test_duality_turns_dual_eigenvectors_into_solutions():
    op = almost_mathieu(coupling=0.5, theta=0.2)
    dual = replace(dual_operator(op), theta=0.0)
    value, vector = nearest_eigenpair(dual.assemble_banded(2001), 0.5)
    sites = np.arange(-512, 513)
    u = duality_transform(vector, -1000, 0.0, op.theta, op.alpha, sites)
    u = u / np.max(np.abs(u))
    hu = op.apply(u, first_site=-512)
    residual = float(np.max(np.abs(hu - value * u)[1:-1]))
    assert residual < 1e-8


def test_nearest_eigenpair_is_the_nearest():
    # Rayleigh iteration alone often settles on a farther eigenvalue
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        op = almost_mathieu(rng.uniform(0.3, 0.9), theta=rng.uniform())
        ab = replace(dual_operator(op), theta=0.0).assemble_banded(400)
        eigs = eigenvalues_banded(ab)
        for sigma in rng.uniform(-2.5, 2.5, 20):
            value, vector = nearest_eigenpair(ab, sigma)
            assert abs(value - eigs[np.argmin(np.abs(eigs - sigma))]) < 1e-9
            np.testing.assert_allclose(banded_matmul(ab, vector), value * vector,
                                       atol=1e-8)


def test_duality_profile_sampling():
    # a single Fourier coefficient produces a unimodular orbit sample
    sites = np.arange(-8, 9)
    out = duality_transform([1.0], 2, 0.25, 0.1, GOLDEN_MEAN, sites)
    expected = np.exp(2j * np.pi * 2 * (0.1 + sites * GOLDEN_MEAN))
    expected = expected * np.exp(2j * np.pi * sites * 0.25)
    assert np.max(np.abs(out - expected)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(coefficients=st.lists(st.complex_numbers(max_magnitude=1e3), min_size=1, max_size=64),
       first_index=st.integers(-64, 64),
       sites=st.lists(st.integers(-64, 64), min_size=1, max_size=16),
       theta=st.floats(0.0, 1.0, exclude_max=True), alpha=st.floats(0.0, 1.0),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_duality_transform_matches_the_dense_sum(coefficients, first_index, sites,
                                                 theta, alpha, x):
    coefficients, sites = np.array(coefficients), np.array(sites)
    js = first_index + np.arange(coefficients.size)
    dense = np.exp(2j * np.pi * np.outer(sites * alpha + theta, js)) @ coefficients
    dense = dense * np.exp(2j * np.pi * sites * x)
    out = duality_transform(coefficients, first_index, x, theta, alpha, sites)
    assert np.max(np.abs(out - dense)) <= 1e-11 * np.sum(np.abs(coefficients))


@pytest.mark.parametrize("j", [1000, -1000])
def test_duality_transform_of_a_far_coefficient(j):
    # one coefficient at |j| = 1000: the phase j (theta + n alpha), taken in
    # long double, is the reference; rounding n alpha in double sets the floor
    sites = np.arange(-512, 513)
    out = duality_transform([1.0], j, 0.0, 0.2, GOLDEN_MEAN, sites)
    phase = j * (np.longdouble(0.2) + sites.astype(np.longdouble) * np.longdouble(GOLDEN_MEAN))
    expected = np.exp(2j * np.pi * np.mod(phase, 1).astype(float))
    assert np.max(np.abs(out - expected)) < 1e-9


def test_duality_transform_memory_grows_as_sites_plus_coefficients():
    # 2,001 coefficients on 1,025 sites: a dense sites x coefficients
    # matrix and its phases take about 78 MB
    vector = np.random.default_rng(0).standard_normal((2001, 2)) @ [1.0, 1j]
    sites = np.arange(-512, 513)
    tracemalloc.start()
    try:
        duality_transform(vector, -1000, 0.3, 0.2, GOLDEN_MEAN, sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ── growth probe ─────────────────────────────────────────────────────────────

def test_solution_growth_trends():
    sites = np.arange(-513, 514)
    u = np.cos(np.pi * sites / 2)
    flat = solution_growth(u, (32, 64, 128, 256), 1.0)
    assert flat.trend == "saturating"
    assert abs(flat.minimum - 1.0) < 0.05
    assert solution_growth(u, (32, 64, 128, 256), 2.0).trend == "vanishing"
    assert solution_growth(u, (8, 32, 128, 512), 0.5).trend == "diverging"
    with pytest.raises(ArgumentError, match="window too short"):
        solution_growth(u, (1024,), 1.0)


def test_solution_growth_refuses_an_empty_grid_or_a_radius_below_one():
    u = np.ones(65)
    for r_grid in ((), (0,), (-1, 8), (0, 16)):
        with pytest.raises(ArgumentError, match="one or more radii, each at least one"):
            solution_growth(u, r_grid, 1.0)
    assert solution_growth(u, (8, 1), 1.0).values.tolist() == [3.0, 17 / 8]
