"""Indefinite pairing, Wronskians, paired bases, norm reversal."""

import numpy as np
import pytest

from conftest import random_form_preserving, random_strip
from qplattice.cocycle import transfer_cocycle
from qplattice.linalg import ArgumentError, InvariantError, orthonormal_columns
from qplattice.symplectic import (
    canonical_basis,
    direct_sum,
    form_defect,
    form_value,
    krein_matrix,
    pairing_matrix,
    preserves_form,
    reverse_norm_check,
    reverse_norm_constant,
    signature,
    wronskian,
)


def test_pairing_matrix_structure():
    rng = np.random.default_rng(31)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = pairing_matrix(c)
    np.testing.assert_allclose(s, -s.conj().T, atol=1e-14)
    np.testing.assert_allclose(s[3:, :3], c, atol=1e-14)
    np.testing.assert_allclose(s[:3, 3:], -c.conj().T, atol=1e-14)
    with pytest.raises(ArgumentError):
        pairing_matrix(np.zeros((2, 3)))


def test_form_value_sesquilinearity():
    rng = np.random.default_rng(32)
    s = pairing_matrix(rng.normal(size=(2, 2)))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    # conjugate linear in the first slot, linear in the second
    assert np.isclose(form_value(s, 2j * x, y), -2j * form_value(s, x, y))
    assert np.isclose(form_value(s, x, 2j * y), 2j * form_value(s, x, y))
    # skew symmetry of the pairing
    assert np.isclose(form_value(s, y, x), -np.conj(form_value(s, x, y)))


def test_wronskian_matches_pairing():
    rng = np.random.default_rng(33)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = pairing_matrix(c)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.isclose(wronskian(c, x, y), form_value(s, x, y))
    # stacks of states pair entry by entry
    xs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    ys = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    np.testing.assert_allclose(wronskian(c, xs, ys),
                               [form_value(s, a, b) for a, b in zip(xs, ys)], rtol=1e-14)


def test_transfer_step_preserves_form():
    rng = np.random.default_rng(34)
    strip = random_strip(rng)
    s = pairing_matrix(strip.coupling)
    cocycle = transfer_cocycle(strip, 0.37)
    for theta in rng.uniform(0, 1, size=5):
        a = cocycle.matrix(theta)
        assert preserves_form(a, s, tol=1e-12)
    # complex energy breaks the symmetry
    a = transfer_cocycle(strip, 0.37 + 0.05j).matrix(0.1)
    assert form_defect(a, s) > 1e-6


def test_random_generated_form_matrices():
    rng = np.random.default_rng(35)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = pairing_matrix(c)
    for _ in range(10):
        a = random_form_preserving(rng, c)
        assert form_defect(a, s) < 1e-12


def test_signature_counts():
    g = np.diag([2.0, -1.0, 0.5])
    assert signature(g) == (2, 1)
    assert signature(np.zeros((0, 0))) == (0, 0)
    with pytest.raises(InvariantError):
        signature(np.diag([1.0, 0.0]))


def test_krein_matrix_is_hermitian():
    rng = np.random.default_rng(36)
    s = pairing_matrix(rng.normal(size=(2, 2)))
    frame = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    g = krein_matrix(s, frame)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


def test_canonical_basis_pairings():
    rng = np.random.default_rng(37)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = pairing_matrix(c)
    xi, p = canonical_basis(s, np.eye(4))
    assert p == 2
    g = krein_matrix(s, xi)
    expected = np.block([[np.zeros((2, 2)), 1j * np.eye(2)],
                         [-1j * np.eye(2), np.zeros((2, 2))]])
    np.testing.assert_allclose(g, expected, atol=1e-10)


def test_canonical_basis_rejects_bad_spans():
    s = pairing_matrix(np.eye(1))
    with pytest.raises(InvariantError):
        canonical_basis(s, np.array([[1.0], [0.0]]))  # odd dimension
    # a definite (unbalanced) plane inside a 2m=4 space
    s4 = pairing_matrix(np.eye(2))
    xi, _ = canonical_basis(s4, np.eye(4))
    definite = xi[:, [0, 1]] @ np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    g = krein_matrix(s4, orthonormal_columns(definite))
    if signature(g) in ((2, 0), (0, 2)):
        with pytest.raises(InvariantError):
            canonical_basis(s4, definite)


def test_reverse_norm_constant_scalar_coupling():
    # one-channel full space: both canonical vectors have unit norm and
    # ||S|| = 1, so the constant is exactly 2
    s = pairing_matrix(np.eye(1))
    assert reverse_norm_constant(s, np.eye(2)) == pytest.approx(2.0)


def test_stacked_evaluators_equal_their_per_frame_values():
    # frames on the last two axes: each entry bit for bit the single-frame
    # value, and a single frame keeps its scalar return types
    rng = np.random.default_rng(40)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = pairing_matrix(c)
    maps = np.stack([random_form_preserving(rng, c) for _ in range(12)])
    for v in (np.eye(4), np.eye(4)[:, [0, 2]]):
        frames = np.linalg.qr(maps @ v)[0]
        defects = form_defect(maps, s)
        krein = krein_matrix(s, frames)
        xi, p = canonical_basis(s, frames)
        constants = reverse_norm_constant(s, frames)
        assert defects.shape == constants.shape == (12,)
        for k in range(12):
            single = form_defect(maps[k], s)
            assert type(single) is float and defects[k] == single
            assert np.array_equal(krein[k], krein_matrix(s, frames[k]))
            xi_k, p_k = canonical_basis(s, frames[k])
            assert np.array_equal(xi[k], xi_k) and p == p_k == v.shape[1] // 2
            single = reverse_norm_constant(s, frames[k])
            assert type(single) is float and constants[k] == single


def test_stacked_evaluators_raise_for_a_bad_frame():
    # one frame of a stack whose restricted pairing is degenerate, or has
    # nonzero signature, raises as it does alone
    s = pairing_matrix(np.eye(2))
    rng = np.random.default_rng(41)
    frames = np.linalg.qr(np.stack([random_form_preserving(rng, np.eye(2), scale=0.3)
                                    for _ in range(5)]) @ np.eye(4)[:, [0, 2]])[0]
    isotropic = np.eye(4)[:, :2]  # span(e1, e2): the pairing vanishes on it
    definite = np.array([[1, 0], [0, 1], [1j, 0], [0, 1j]]) / np.sqrt(2.0)  # p = 2
    for bad, message in ((isotropic, "degenerate"), (definite, "nonzero signature")):
        stack = frames.copy()
        stack[3] = bad
        for evaluator in (canonical_basis, reverse_norm_constant):
            with pytest.raises(InvariantError, match=message):
                evaluator(s, stack)
            with pytest.raises(InvariantError, match=message):
                evaluator(s, bad)
        reverse_norm_constant(s, np.delete(stack, 3, axis=0))


def test_reverse_norm_check_on_form_preserving_maps():
    rng = np.random.default_rng(38)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = pairing_matrix(c)
    for _ in range(5):
        a = random_form_preserving(rng, c)
        report = reverse_norm_check(s, a, np.eye(4))
        assert report["ok"]
        assert report["norm"] > 0 and report["inverse_norm"] > 0


def test_direct_sum_block_layout():
    rng = np.random.default_rng(39)
    c1 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
    c2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = direct_sum(pairing_matrix(c1), pairing_matrix(c2))
    # the interleaved sum is again the pairing of the block-diagonal coupling
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = c1[0, 0]
    c[1:, 1:] = c2
    np.testing.assert_allclose(s, pairing_matrix(c), atol=1e-14)
    # and form-compatible maps sum to a form-compatible map
    a = direct_sum(random_form_preserving(rng, c1),
                   random_form_preserving(rng, c2))
    assert preserves_form(a, s, tol=1e-12)
    with pytest.raises(ArgumentError):
        direct_sum(np.zeros((3, 3)), np.zeros((2, 2)))
