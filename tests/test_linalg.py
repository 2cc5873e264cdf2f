"""Banded products, shifted solves and eigenvalues, and subspace helpers."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import qplattice.linalg as linalg
from conftest import random_hermitian
from qplattice.linalg import (
    ArgumentError,
    ConvergenceError,
    banded_matmul,
    banded_to_full_band,
    counts_below_banded,
    eigenvalues_banded,
    nearest_eigenpair,
    orthonormal_columns,
    principal_angles,
    restriction_norm,
    solve_shifted_banded,
)


def banded_hermitian(rng, n, bw):
    """A random Hermitian matrix of half-bandwidth ``bw``, dense and in
    upper-banded storage (``ab[bw + i - j, j] == h[i, j]``)."""
    h = random_hermitian(rng, n)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= bw
    h = h * mask
    ab = np.zeros((bw + 1, n), dtype=h.dtype)
    for k in range(bw + 1):
        ab[bw - k, k:] = np.diagonal(h, offset=k)
    return h, ab


def test_banded_round_trip():
    rng = np.random.default_rng(2)
    h, ab = banded_hermitian(rng, 40, 4)
    band, bw = banded_to_full_band(ab)
    assert bw == 4
    full = np.zeros_like(h)
    for k in range(-bw, bw + 1):
        idx = np.arange(40 - abs(k))
        if k >= 0:
            full[idx, idx + k] = band[bw - k, k:]
        else:
            full[idx - k, idx] = band[bw - k, : 40 + k]
    np.testing.assert_allclose(full, h, atol=1e-14)


def test_banded_matmul_vector_and_block():
    rng = np.random.default_rng(10)
    h, ab = banded_hermitian(rng, 30, 3)
    x = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    np.testing.assert_allclose(banded_matmul(ab, x), h @ x, atol=1e-12)
    np.testing.assert_allclose(banded_matmul(ab, x[:, 0]), h @ x[:, 0], atol=1e-12)
    y = banded_matmul(np.real(ab), x[:, 0].real)
    assert np.isrealobj(y)
    np.testing.assert_allclose(y, np.real(h) @ x[:, 0].real, atol=1e-12)


@pytest.mark.parametrize("z", [0.3, 2.0 + 0.5j, -1.0 + 1e-3j])
def test_shifted_solve_matches_dense(z):
    rng = np.random.default_rng(3)
    h, ab = banded_hermitian(rng, 60, 2)
    rhs = rng.normal(size=60) + 1j * rng.normal(size=60)
    y = np.linalg.solve(h - z * np.eye(60), rhs)
    np.testing.assert_allclose(solve_shifted_banded(ab, z, rhs), y, atol=1e-9)


def test_shifted_solve_column_block():
    rng = np.random.default_rng(4)
    h, ab = banded_hermitian(rng, 50, 3)
    rhs = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    z = 0.4 + 0.2j
    y = np.linalg.solve(h - z * np.eye(50), rhs)
    x = solve_shifted_banded(ab, z, rhs)
    assert x.shape == (50, 2)
    np.testing.assert_allclose(x, y, atol=1e-9)


def test_shifted_solve_residual_check_fires():
    rng = np.random.default_rng(11)
    _, ab = banded_hermitian(rng, 40, 2)
    rhs = rng.normal(size=40) + 1j * rng.normal(size=40)
    with pytest.raises(ConvergenceError):
        solve_shifted_banded(ab, 0.3 + 0.1j, rhs, tol=1e-30)


def test_eigenvalues_banded_matches_dense():
    rng = np.random.default_rng(5)
    h, ab = banded_hermitian(rng, 50, 3)
    np.testing.assert_allclose(eigenvalues_banded(ab), np.linalg.eigvalsh(h), atol=1e-10)
    # real tridiagonal: the band reduction copies the two diagonals and runs
    # the same LAPACK routine as the tridiagonal solver, bit for bit
    t, tb = banded_hermitian(rng, 50, 1)
    t, tb = np.real(t), np.real(tb)
    np.testing.assert_array_equal(eigenvalues_banded(tb),
                                  sla.eigvalsh_tridiagonal(tb[1], tb[0, 1:]))
    np.testing.assert_allclose(eigenvalues_banded(tb), np.linalg.eigvalsh(t), atol=1e-10)


@pytest.mark.parametrize("bw", [1, 2, 3])
@pytest.mark.parametrize("dtype", [float, complex])
def test_eigenvalues_banded_of_one_row(bw, dtype):
    # the eigenvalue of a 1x1 band is its diagonal entry; the rows above
    # it lie outside the matrix (scipy's eig_banded returns 0 here)
    ab = np.full((bw + 1, 1), 7.0, dtype=dtype)
    ab[bw, 0] = 1.512
    np.testing.assert_array_equal(eigenvalues_banded(ab), [1.512])
    assert eigenvalues_banded(ab).dtype == float


def eigenvalue_counts(bands, energies):
    return np.stack([np.searchsorted(eigenvalues_banded(ab), energies) for ab in bands])


def refuse(*args):
    raise AssertionError("called")


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), bw=st.integers(1, 4), real=st.booleans(),
       n_phases=st.integers(1, 3), n_energies=st.integers(1, 6), extra=st.integers(0, 12))
@example(seed=0, bw=1, real=True, n_phases=2, n_energies=1, extra=0)
@example(seed=0, bw=1, real=False, n_phases=2, n_energies=1, extra=0)
@example(seed=0, bw=3, real=False, n_phases=3, n_energies=6, extra=0)
@example(seed=0, bw=4, real=True, n_phases=3, n_energies=6, extra=0)
def test_counts_below_banded_match_eigenvalue_counts(seed, bw, real, n_phases, n_energies,
                                                     extra):
    # b m <= n, so every stack is swept, one-row bands too; half the
    # energies are diagonal entries, the first of them row 0's, which
    # makes an exact zero pivot.  The explicit wide rows (b m = n) run the
    # upper-triangle update and the per-phase column views on every run.
    rng = np.random.default_rng(seed)
    n = bw * n_energies + extra
    bands = np.stack([banded_hermitian(rng, n, bw)[1] for _ in range(n_phases)])
    if real:
        bands = bands.real.copy()
    energies = rng.uniform(-4.0, 4.0, n_energies)
    diagonal = bands[rng.integers(n_phases), bw].real
    energies[: (n_energies + 1) // 2] = rng.choice(diagonal, (n_energies + 1) // 2)
    energies[0] = bands[0, bw, 0].real
    np.testing.assert_array_equal(counts_below_banded(bands, energies),
                                  eigenvalue_counts(bands, energies))


@pytest.mark.parametrize("bw", [1, 3])
def test_counts_below_banded_read_only_the_real_diagonal(monkeypatch, bw):
    # the imaginary part of a stored diagonal entry is not part of the
    # Hermitian matrix: the sweep (b m = n) and the eigenvalue counts
    # (b m > n) count the tilted stack as its real-diagonal copy
    rng = np.random.default_rng(13)
    bands = np.stack([banded_hermitian(rng, 24, bw)[1] for _ in range(3)])
    tilted = bands.copy()
    tilted[:, bw] += 1j * rng.uniform(-2.0, 2.0, (3, 24))
    swept, solved = (np.linspace(-3.0, 3.0, m) for m in (24 // bw, 24 // bw + 1))
    monkeypatch.setattr(linalg, "eigenvalues_banded", refuse)
    np.testing.assert_array_equal(counts_below_banded(tilted, swept),
                                  counts_below_banded(bands, swept))
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_inertia_sweep", refuse)
    np.testing.assert_array_equal(counts_below_banded(tilted, solved),
                                  counts_below_banded(bands, solved))


def band_with_singular_minor(seed, n=24, n_energies=9):
    # a complex width-2 band, then one diagonal entry moved so that a
    # leading minor of H - E is singular at a grid energy E
    rng = np.random.default_rng(seed)
    h, ab = banded_hermitian(rng, n, 2)
    energies = np.linspace(-4.0, 4.0, n_energies)
    e = energies[rng.integers(n_energies)]
    k = int(rng.integers(1, n - 1))
    shifted = h - e * np.eye(n)
    pivot = shifted[k, k] - shifted[k, :k] @ np.linalg.solve(shifted[:k, :k], shifted[:k, k])
    ab[2, k] -= pivot.real
    return ab, energies


def test_counts_below_banded_certify_a_singular_leading_minor():
    # the near-zero pivot grows the Schur complement by about 1e15: without
    # the growth certificate 26 of seeds 0-299 count wrong at a grid
    # energy, and these are the first four
    seeds = (7, 15, 23, 31)
    bands = np.stack([band_with_singular_minor(seed)[0] for seed in seeds])
    energies = band_with_singular_minor(seeds[0])[1]
    np.testing.assert_array_equal(counts_below_banded(bands, energies),
                                  eigenvalue_counts(bands, energies))


def test_counts_below_banded_sweep_the_free_line_at_zero(monkeypatch):
    # E = 0 makes an exact zero pivot on every other row of the free line;
    # a tridiagonal band needs no certificate, so nothing falls back
    n = 512
    bands = np.zeros((2, 2, n))
    bands[:, 0, 1:] = 1.0
    energies = np.linspace(-2.5, 2.5, 257)
    closed_form = np.sort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    monkeypatch.setattr(linalg, "eigenvalues_banded", refuse)
    counts = counts_below_banded(bands, energies)
    assert counts[0, 128] == n // 2
    np.testing.assert_array_equal(counts, np.tile(np.searchsorted(closed_form, energies), (2, 1)))


def test_counts_below_banded_are_strict():
    # a diagonal band: every energy on an eigenvalue, none counted
    bands = np.zeros((1, 2, 6))
    bands[0, 1] = np.arange(6.0)
    np.testing.assert_array_equal(counts_below_banded(bands, np.arange(6.0)), [np.arange(6)])


@pytest.mark.parametrize("bw, row", [(1, "off"), (2, "off"), (1, "diag")])
def test_counts_below_banded_fall_back_on_a_non_finite_sweep(monkeypatch, bw, row):
    # the second matrix gets off-diagonal entries of 1e200 (then its pivmin
    # overflows for b = 1, its Schur complement for b = 2) or diagonal
    # entries of 1.5e308 (then a - E overflows at E = -1.5e308); it alone
    # is counted from its eigenvalues, and no warning is raised
    rng = np.random.default_rng(11)
    bands = np.stack([banded_hermitian(rng, 40, bw)[1] for _ in range(2)])
    if row == "off":
        bands[1, :bw] *= 1e200
    else:
        bands[1, bw] = 1.5e308
    energies = np.array([-1.5e308, -1.0, 0.0, 1.0, 1.5e308])
    calls = []

    def counted(ab_upper):
        calls.append(ab_upper)
        return eigenvalues_banded(ab_upper)

    monkeypatch.setattr(linalg, "eigenvalues_banded", counted)
    counts = counts_below_banded(bands, energies)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], bands[1])
    np.testing.assert_array_equal(counts, eigenvalue_counts(bands, energies))


def test_counts_below_banded_reject_non_finite_input():
    rng = np.random.default_rng(12)
    bands = banded_hermitian(rng, 16, 2)[1][None]
    with pytest.raises(ArgumentError, match="non-finite"):
        counts_below_banded(np.where(bands == bands[0, 2, 5], np.nan, bands), [0.0, 1.0])
    with pytest.raises(ArgumentError, match="non-finite"):
        counts_below_banded(bands, [0.0, np.inf])


def test_nearest_eigenpair():
    rng = np.random.default_rng(7)
    h, ab = banded_hermitian(rng, 80, 2)
    eigs = np.linalg.eigvalsh(h)
    target = eigs[17]
    lam, x = nearest_eigenpair(ab, target + 1e-4)
    assert abs(lam - target) < 1e-8
    np.testing.assert_allclose(h @ x, lam * x, atol=1e-8)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_orthonormal_columns():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 3))
    q = orthonormal_columns(a)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    assert principal_angles(q, a).max() < 1e-12
    with pytest.raises(ArgumentError):
        orthonormal_columns(np.column_stack([a[:, 0], a[:, 0]]))


def test_principal_angles_known_value():
    # plane pair meeting at exactly 0.3 rad in one direction
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, np.cos(0.3)], [0.0, np.sin(0.3)]])
    angles = principal_angles(a, b)
    np.testing.assert_allclose(angles, [0.0, 0.3], atol=1e-12)
    # tiny angles survive the sine formulation
    c = np.array([[1.0], [1e-10]])
    d = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(principal_angles(c, d), [1e-10], rtol=1e-3)


def test_restriction_norm():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5))
    q = orthonormal_columns(rng.normal(size=(5, 2)))
    direct = np.linalg.norm(a @ q, 2)
    assert abs(restriction_norm(a, q) - direct) < 1e-13
    assert restriction_norm(a, np.zeros((5, 0))) == 0.0
