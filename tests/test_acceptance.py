"""Acceptance battery: twelve pass/fail gates, one test each.

Every test prints a single verdict line (visible with -r or on failure)
and asserts the stated tolerance; the slow gates also assert their
runtime budget.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import (
    random_hermitian,
    random_hsp_cocycle,
    random_line,
    random_strip,
)
from qplattice.cocycle import (
    acceleration,
    companion_cocycle,
    energy_monotonicity,
    lyapunov_spectrum,
    phase_lattice,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
)
from qplattice.corpus import (
    CUBIC_TAIL_CUT,
    cosine_root_state,
    cubic_tail_operator,
    run_corpus,
    spectrum_sample,
)
from qplattice.longrange import subordinacy_probe
from qplattice.measures import ids, thouless_residual
from qplattice.operators import (
    almost_mathieu,
    fold_to_strip,
    free_laplacian,
)
from qplattice.splitting import (
    center_growth,
    center_variation_check,
    compute_splitting,
    telescoping_check,
)
from qplattice.symplectic import pairing_matrix
from qplattice.weyl import green_oracle, im_m_trace, m_matrix, m_plus, spectral_bound


def _verdict(name, started):
    print("[acceptance] %-28s PASS (%.1fs)" % (name, time.time() - started))


def kernel_suite(count=20, seed=404):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        line = random_line(rng, k_max=int(rng.integers(1, 4)))
        yield fold_to_strip(line), rng.uniform(-1.0, 1.0) + 0.01j


# Draws of the two property gates, as hypothesis strategies so that a
# failure shrinks; derandomized, so every run checks the same draws.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=1000)
SEEDS = st.integers(0, 2**32 - 1)
WIDTHS = st.integers(1, 3)
PHASES = st.floats(0.0, 1.0)


@PROPERTY
@given(seed=SEEDS, width=WIDTHS, energy=st.floats(-5.0, 5.0), x=PHASES)
def _transfer_step_preserves_the_pairing(seed, width, energy, x):
    strip = random_strip(np.random.default_rng(seed), k_max=width)
    coc = transfer_cocycle(strip, energy)
    a = coc.matrix(x)
    defect = np.linalg.norm(a.conj().T @ coc.form @ a - coc.form, 2)
    assert defect < 1e-12


def test_01_transfer_steps_preserve_the_pairing():
    t0 = time.time()
    _transfer_step_preserves_the_pairing()
    assert time.time() - t0 < 5.0
    _verdict("pairing preserved", t0)


def test_02_exponents_pair_within_spread():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        est = lyapunov_spectrum(random_hsp_cocycle(rng, m), 10000)
        for j in range(m):
            total = abs(est.exponents[j] + est.exponents[2 * m - 1 - j])
            assert total < 3.0 * est.spread
    assert time.time() - t0 < 120.0
    _verdict("exponents pair", t0)


def test_03_free_closed_forms():
    t0 = time.time()
    strip = fold_to_strip(free_laplacian())
    top, _ = top_lyapunov(transfer_cocycle(strip, 3.0), n_steps=4000, samples=8)
    assert abs(top - 0.96242) < 5e-3
    assert abs(complex(m_plus(strip, 1j)[0, 0]) - 0.6180339887j) < 1e-6
    kernel = complex(m_matrix(strip, 1j).block(1, 1)[0, 0])
    assert abs(kernel - 0.4472135955j) < 1e-4
    table = ids(free_laplacian(), np.linspace(-2.5, 2.5, 257),
                n_sites=512, samples=8)
    assert abs(table.value_at(1.0) - 2.0 / 3.0) < 5e-3
    rho, _ = rotation_number(transfer_cocycle(strip, 0.0), n_steps=4000, samples=8)
    assert abs(rho - 0.25) < 1e-4
    assert time.time() - t0 < 60.0
    _verdict("free closed forms", t0)


def test_04_kernel_blocks_match_the_resolvent():
    t0 = time.time()
    for strip, z in kernel_suite():
        data = m_matrix(strip, z)
        for bi in (0, 1):
            for bj in (0, 1):
                block = np.atleast_2d(data.block(bi, bj))
                ref = np.atleast_2d(green_oracle(strip, z, bi - 1, bj - 1,
                                                 n_sites=4001, verify=False))
                rel = np.linalg.norm(block - ref) / np.linalg.norm(ref)
                assert rel < 1e-2
    assert time.time() - t0 < 300.0
    _verdict("kernel equals resolvent", t0)


def test_05_trace_expansion_on_the_same_suite():
    # im_m_trace itself asserts the expansion/direct agreement to 1e-8
    # and the conditioning bound; any violation raises out of the call
    t0 = time.time()
    for strip, z in kernel_suite():
        assert im_m_trace(m_matrix(strip, z)) > 0.0
    _verdict("trace expansion agrees", t0)


def test_06_state_density_quadrature_closes():
    t0 = time.time()
    suite = ((free_laplacian(), (-3.0, -2.5, 2.5, 3.0, 4.0)),
             (almost_mathieu(coupling=2.0), (-8.0, -6.5, 6.5, 7.0, 8.0)))
    for op, energies in suite:
        bound = 1.05 * op.norm_bound()
        table = ids(op, np.linspace(-bound, bound, 257),
                    n_sites=2048, samples=8)
        for energy in energies:
            lyap, _ = top_lyapunov(companion_cocycle(op, energy),
                                   n_steps=10000, samples=8)
            assert thouless_residual(op, energy, table, lyap) < 1e-2
    _verdict("quadrature closes", t0)


def test_07_subcritical_regime():
    t0 = time.time()
    op = almost_mathieu(coupling=0.5)
    strip = fold_to_strip(op)
    energies = spectrum_sample(op, 20)
    for energy in energies:
        top, _ = top_lyapunov(transfer_cocycle(strip, float(energy)),
                              n_steps=10000, samples=8)
        assert top < 5e-3
    # orbit envelope at the median sampled energy (resonant samples near
    # the band edges carry much larger, still finite, constants)
    coc = transfer_cocycle(strip, float(energies[len(energies) // 2]))
    split = compute_splitting(coc, 0.0, (0, 2, 0))
    assert float(np.max(center_growth(coc, split, 10000))) <= 50.0
    report = spectral_bound(strip, float(energies[len(energies) // 2]),
                            eps_grid=tuple(np.geomspace(1e-1, 1e-3, 7)))
    assert np.all(np.asarray(report.mu_bound)
                  <= np.asarray(report.jl_rhs) * (1 + 1e-9))
    assert time.time() - t0 < 600.0
    _verdict("subcritical regime", t0)


def test_08_supercritical_regime():
    t0 = time.time()
    op = almost_mathieu(coupling=2.0)
    strip = fold_to_strip(op)
    energies = spectrum_sample(op, 5)
    for energy in energies:
        top, _ = top_lyapunov(transfer_cocycle(strip, float(energy)),
                              n_steps=10000, samples=8)
        assert abs(top - np.log(2.0)) < 2e-2
    est = acceleration(strip, float(energies[2]), n_steps=10000, samples=16)
    assert abs(est.value - 1.0) < 0.05
    assert est.rounded == 1
    phases = phase_lattice(8)
    for energy in energies:
        base = lyapunov_spectrum(transfer_cocycle(strip, float(energy)),
                                 10000, top=1, phases=phases).exponents[0]
        for eps in (1e-3, 3e-3, 1e-2):
            lifted = lyapunov_spectrum(
                transfer_cocycle(strip, float(energy) + 1j * eps),
                10000, top=1, phases=phases,
            ).exponents[0]
            assert lifted - base >= 0.1 * eps
    _verdict("supercritical regime", t0)


@PROPERTY
@given(seed=SEEDS, width=WIDTHS, energy=st.floats(-4.0, 4.0), x=PHASES,
       v_seed=SEEDS)
def _energy_pairing_is_negative(seed, width, energy, x, v_seed):
    strip = random_strip(np.random.default_rng(seed), k_max=width)
    dim = 2 * strip.width
    rng = np.random.default_rng(v_seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    value, reference = energy_monotonicity(strip, energy, x, v)
    scale = max(1.0, abs(reference))
    assert abs(value.imag) < 1e-10 * scale
    assert value.real < 0.0
    assert abs(value - reference) < 1e-10 * scale


def test_09_energy_pairing_is_negative():
    t0 = time.time()
    _energy_pairing_is_negative()
    _verdict("energy pairing negative", t0)


def test_10_telescoping_families_and_center_variation(growth_fits):
    t0 = time.time()
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        s = pairing_matrix(np.eye(m))
        n = int(rng.integers(50, 1001))
        t = float(rng.uniform(0.002, 0.01))
        # diffusive generator scale keeps the n-link product representable
        bases = [np.linalg.solve(s, 0.9 / np.sqrt(n) * random_hermitian(rng, 2 * m))
                 for _ in range(n)]
        gens = [np.linalg.solve(s, 0.5 / np.sqrt(n) * random_hermitian(rng, 2 * m))
                for _ in range(n)]

        def family(tt, j):
            return expm(bases[j - 1] + tt * gens[j - 1])

        lip = 1.05 * max(
            np.linalg.norm(g, 2) * np.exp(np.linalg.norm(b, 2)
                                          + t * np.linalg.norm(g, 2))
            for b, g in zip(bases, gens)
        )
        report = telescoping_check(s, family, np.eye(2 * m), lip, t, n)
        assert report.ok
        assert report.norm <= report.bound
    variation = center_variation_check(fold_to_strip(free_laplacian()), 0.0,
                                       eps_grid=(0.0, 1e-5, 1e-4, 1e-3),
                                       n_max=1000)
    assert variation.c_growth <= 10.0
    assert len(growth_fits) == 1
    assert variation.lipschitz_stable
    _verdict("telescoping families", t0)


def test_11_infinite_range_subordinacy_chain():
    t0 = time.time()
    op = cubic_tail_operator()
    radii = (256, 512, 1024, 2048, 4096)
    u, _root = cosine_root_state(op, 2 * max(radii) + CUBIC_TAIL_CUT + 8)
    report = subordinacy_probe(op, 0.0, u, r_grid=radii)
    assert report.ok
    anchor = report.records[0]["proxy"]
    for rec in report.records:
        assert anchor / 4.0 < rec["proxy"] < 4.0 * anchor
    assert time.time() - t0 < 600.0
    _verdict("subordinacy chain", t0)


def test_12_reference_battery_identities():
    t0 = time.time()
    manifest = run_corpus()
    assert manifest["ok"]
    strict = [check
              for entry in manifest["entries"]
              for check in entry["checks"]
              if "pairing constancy" in check["label"]
              or "fold round trip" in check["label"]]
    assert len(strict) >= 5
    for check in strict:
        assert check["limit"] <= 1e-10
        assert check["ok"]
    _verdict("battery identities", t0)
