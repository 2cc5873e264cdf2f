"""Line and strip operators, folding, duality, config round trips."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_line, random_strip
from qplattice.cocycle import lyapunov_spectrum, transfer_cocycle
from qplattice.linalg import ArgumentError
from qplattice.measures import ids
from qplattice.operators import (
    GOLDEN_MEAN,
    HermitianTrigPoly,
    Hopping,
    LineOperator,
    Potential,
    StripOperator,
    almost_mathieu,
    config_digest,
    dual_operator,
    fold_to_strip,
    fold_vector,
    free_laplacian,
    operator_from_config,
    unfold_vector,
)


# ── hopping and potential ────────────────────────────────────────────────────

def test_hopping_conjugate_symmetry():
    w = Hopping({1: 1 + 2j, 3: -0.5})
    assert w.coefficient(-1) == 1 - 2j
    assert w.coefficient(-3) == -0.5
    assert w.coefficient(2) == 0
    assert w.range == 3
    assert abs(w.norm_l1() - (2 * abs(1 + 2j) + 1.0)) < 1e-14
    assert abs(w.tail_sum(1) - 1.0) < 1e-14
    x = np.linspace(0, 1, 7)
    assert np.isrealobj(w.symbol(x))


def test_hopping_rejects_bad_input():
    with pytest.raises(ArgumentError):
        Hopping({1: 1j, -1: 1j})  # mirror must be the conjugate
    with pytest.raises(ArgumentError):
        Hopping({0: 1j})


def test_hopping_triples_round_trip():
    w = Hopping({1: 0.5 - 0.25j, 2: 1.0})
    assert Hopping.from_triples(w.as_triples()) == w


def test_hopping_stores_a_real_w0():
    # an imaginary part below the tolerance is dropped, not conjugated:
    # rebuilds keep w_0, and the truncation stays a real band
    w = Hopping({0: 1 + 1e-15j, 1: 0.5})
    assert w.coefficient(0).imag == 0
    assert Hopping.from_triples(w.as_triples()) == w
    assert LineOperator(w, Potential.zero()).assemble_banded(8).dtype == float


def test_potential_sampling():
    v = Potential("fourier", {0: 0.5, 1: 0.25j})
    x = np.linspace(0, 1, 11)
    direct = 0.5 + 0.25j * np.exp(2j * np.pi * x) - 0.25j * np.exp(-2j * np.pi * x)
    np.testing.assert_allclose(v.value(x), direct.real, atol=1e-14)
    sites = np.arange(-3, 4)
    np.testing.assert_allclose(
        v.sample(sites, GOLDEN_MEAN, 0.2),
        v.value(0.2 + sites * GOLDEN_MEAN),
        atol=1e-14,
    )
    assert abs(v.sup_norm() - 1.0) < 1e-14


def test_sequence_potential_window():
    v = Potential("sequence", [1.0, 2.0, 3.0], first_site=-1)
    np.testing.assert_allclose(v.sample([-1, 0, 1], 0.0, 0.0), [1, 2, 3])
    with pytest.raises(ArgumentError):
        v.sample([2], 0.0, 0.0)
    with pytest.raises(ArgumentError):
        v.value(0.0)


# ── line operators ───────────────────────────────────────────────────────────

def test_assemble_matches_banded():
    rng = np.random.default_rng(21)
    op = random_line(rng)
    h = op.assemble(33)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    u = rng.normal(size=33) + 1j * rng.normal(size=33)
    np.testing.assert_allclose(op.apply(u), h @ u, atol=1e-12)
    assert np.linalg.norm(h, 2) <= op.norm_bound() + 1e-12


def test_free_laplacian_spectrum():
    # Dirichlet truncation of the free operator has the classical cosine modes
    n = 64
    h = free_laplacian().assemble(n)
    expected = 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)),
                               np.sort(expected), atol=1e-12)


def test_almost_mathieu_potential():
    op = almost_mathieu(0.7, theta=0.3)
    sites = np.arange(5)
    np.testing.assert_allclose(
        op.site_potential(sites),
        2 * 0.7 * np.cos(2 * np.pi * (0.3 + sites * GOLDEN_MEAN)),
        atol=1e-14,
    )


# ── folding ──────────────────────────────────────────────────────────────────

def test_fold_preserves_spectrum():
    rng = np.random.default_rng(22)
    op = random_line(rng, k_max=3)
    strip = fold_to_strip(op)
    assert strip.width == 3
    assert abs(strip.alpha - 3 * op.alpha) < 1e-15
    blocks = 10
    line_eigs = np.linalg.eigvalsh(op.assemble(3 * blocks, first_site=0))
    strip_eigs = np.linalg.eigvalsh(strip.assemble(blocks, first_block=0))
    np.testing.assert_allclose(np.sort(strip_eigs), np.sort(line_eigs),
                               atol=1e-10)


def test_strip_assemble_is_block_tridiagonal():
    rng = np.random.default_rng(24)
    for k_width in (1, 2, 3, 5):
        strip = random_strip(rng, k_max=k_width)
        m = strip.width
        for n_blocks in (1, 2, 7):
            v = strip.blocks(np.arange(-3, -3 + n_blocks))
            h = np.zeros((m * n_blocks, m * n_blocks), dtype=complex)
            for b in range(n_blocks):
                here = slice(b * m, (b + 1) * m)
                h[here, here] = v[b]
                if b + 1 < n_blocks:
                    there = slice((b + 1) * m, (b + 2) * m)
                    h[here, there] = strip.coupling
                    h[there, here] = strip.coupling.conj().T
            np.testing.assert_array_equal(strip.assemble(n_blocks, -3), h)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(k_width=st.integers(1, 4), n_blocks=st.integers(1, 8),
       first_block=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
def test_fold_vector_round_trip(k_width, n_blocks, first_block, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=k_width * n_blocks) + 1j * rng.normal(size=k_width * n_blocks)
    blocks, first = fold_vector(u, k_width, first_site=k_width * first_block)
    assert first == first_block
    assert blocks.shape == (n_blocks, k_width)
    assert blocks[0, 0] == u[k_width - 1]  # top component = latest site
    assert np.linalg.norm(blocks) == pytest.approx(np.linalg.norm(u))
    back, first_site = unfold_vector(blocks, k_width, first)
    assert first_site == k_width * first_block
    np.testing.assert_array_equal(back, u)
    if k_width > 1:
        with pytest.raises(ArgumentError):
            fold_vector(u, k_width, first_site=k_width * first_block + 1)
        with pytest.raises(ArgumentError):
            fold_vector(u[1:], k_width, first_site=k_width * first_block)


def test_fold_requires_leading_coefficient():
    op = LineOperator(Hopping({1: 1.0}), Potential.zero())
    with pytest.raises(ArgumentError):
        fold_to_strip(op, k_width=0)
    with pytest.raises(ArgumentError):
        # padding past the range would give a singular coupling block
        fold_to_strip(op, k_width=2)


def test_strip_blocks_hermitian():
    rng = np.random.default_rng(24)
    strip = fold_to_strip(random_line(rng))
    v = strip.blocks(np.arange(5))
    assert v.shape == (5, strip.width, strip.width)
    np.testing.assert_allclose(v, v.conj().swapaxes(-2, -1), atol=1e-12)


def test_strip_potential_that_ignores_its_phases():
    # a constant block map may return one m x m block for any phases; it
    # must act as the same map written to broadcast
    rng = np.random.default_rng(25)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    block = h + h.conj().T
    coupling = np.array([[1.0, 0.3 - 0.2j], [0.0, 0.8]])
    constant = StripOperator(coupling, lambda x: block, alpha=GOLDEN_MEAN)
    broadcast = StripOperator(coupling, lambda x: np.broadcast_to(
        block, np.shape(x) + block.shape), alpha=GOLDEN_MEAN)
    assert np.array_equal(constant.assemble_banded(9, first_block=-2),
                          broadcast.assemble_banded(9, first_block=-2))
    energies = np.linspace(-6.0, 6.0, 25)
    assert np.array_equal(ids(constant, energies, n_sites=40, samples=3).values,
                          ids(broadcast, energies, n_sites=40, samples=3).values)
    for energy in (-0.4, 5.0):
        exponents = [lyapunov_spectrum(transfer_cocycle(s, energy), 200, samples=4).exponents
                     for s in (constant, broadcast)]
        np.testing.assert_allclose(exponents[0], exponents[1], rtol=0, atol=1e-12)


def test_trig_poly_blocks():
    h0 = np.diag([1.0, -1.0])
    h1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    v = HermitianTrigPoly(h0, [h1])
    x = 0.37
    expected = h0 + h1 * np.exp(2j * np.pi * x) + h1.T * np.exp(-2j * np.pi * x)
    np.testing.assert_allclose(v(x), expected, atol=1e-14)
    np.testing.assert_allclose(v(x), v(x).conj().T, atol=1e-14)
    with pytest.raises(ArgumentError):
        HermitianTrigPoly(np.array([[1j]]))


def test_strip_rejects_singular_coupling():
    with pytest.raises(ArgumentError):
        StripOperator(np.zeros((2, 2)), lambda x: np.eye(2), alpha=GOLDEN_MEAN)


def test_strip_width_is_the_coupling_size():
    # the width is the coupling's size, also after a replace, and cannot
    # be set apart from it
    strip = StripOperator(np.eye(2), lambda x: np.zeros(np.shape(x) + (2, 2)),
                          alpha=GOLDEN_MEAN)
    assert strip.width == replace(strip, theta=0.3).width == 2
    assert fold_to_strip(random_line(np.random.default_rng(26), 3)).width == 3
    with pytest.raises(TypeError):
        StripOperator(np.eye(2), lambda x: np.eye(2), alpha=GOLDEN_MEAN, width=1)


# ── duality ──────────────────────────────────────────────────────────────────

def test_dual_swaps_hopping_and_potential():
    op = almost_mathieu(0.5, theta=0.3)
    dual = dual_operator(op)
    assert dual.hopping.coefficient(1) == 0.5
    assert dual.potential.fourier.coefficient(1) == 1.0
    assert dual.theta == op.theta
    assert dual.epsilon == 1.0
    # applying duality twice returns to the original coefficients
    again = dual_operator(dual)
    assert again.hopping == op.hopping
    series = op.potential.fourier
    assert again.potential.fourier == Hopping(
        {k: op.epsilon * series.coefficient(k) for k in series.offsets})


def test_dual_requires_analytic_potential():
    op = LineOperator(Hopping({1: 1.0}), Potential("sequence", [0.0]))
    with pytest.raises(ArgumentError):
        dual_operator(op)


# ── config files ─────────────────────────────────────────────────────────────

def test_config_round_trip():
    rng = np.random.default_rng(25)
    op = random_line(rng)
    back = operator_from_config(op.to_config())
    assert back.hopping == op.hopping
    assert back.potential.fourier == op.potential.fourier
    assert back.alpha == op.alpha and back.theta == op.theta
    assert back.epsilon == op.epsilon


def test_sequence_config_round_trip():
    cfg = {
        "hopping": [[1, 1.0, 0.0]],
        "alpha": GOLDEN_MEAN,
        "theta": 0.0,
        "epsilon": 0.5,
        "potential": {"type": "sequence", "values": [0.5, -2.0, 1.0], "first_site": -1},
    }
    op = operator_from_config(cfg)
    np.testing.assert_array_equal(op.potential.sample([-1, 0, 1], 0.0, 0.0), [0.5, -2.0, 1.0])
    assert op.to_config() == cfg
    # the sup is the largest modulus, not the largest value
    assert op.potential.sup_norm() == 2.0
    assert op.norm_bound() == 2.0 + 0.5 * 2.0
    assert np.linalg.norm(op.assemble(3, first_site=-1), 2) <= op.norm_bound()


def test_config_digest_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 12
    assert config_digest(a) != config_digest({"x": 1, "y": [2, 1]})


def test_config_rejects_missing_fields():
    with pytest.raises(ArgumentError):
        operator_from_config({"hopping": [[1, 1.0, 0.0]]})
    with pytest.raises(ArgumentError):
        operator_from_config({
            "hopping": [],
            "potential": {"type": "fourier", "coefficients": []},
        })
