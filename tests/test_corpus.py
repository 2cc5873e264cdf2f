"""Reference battery: manifest structure, helpers, and the cheap entries."""

import numpy as np
import pytest

from conftest import reference_wronskian_drift
from qplattice import corpus
from qplattice.cocycle import Cocycle
from qplattice.corpus import (
    CUBIC_TAIL_CUT,
    ENTRIES,
    cosine_root_state,
    cubic_tail_operator,
    run_corpus,
    spectrum_sample,
)
from qplattice.linalg import ArgumentError
from qplattice.operators import almost_mathieu, fold_to_strip, free_laplacian


def test_registry_names():
    assert set(ENTRIES) == {
        "free_laplacian",
        "amo_subcritical",
        "amo_supercritical",
        "cubic_tail",
    }


def test_free_entry_manifest():
    manifest = run_corpus("free")
    assert manifest["ok"]
    (entry,) = manifest["entries"]
    assert entry["name"] == "free_laplacian"
    assert entry["ok"]
    for check in entry["checks"]:
        assert set(check) == {"label", "value", "limit", "margin", "ok"}
        assert check["margin"] == check["limit"] - check["value"]
        assert check["ok"] == (check["value"] <= check["limit"])


def test_cubic_tail_entry():
    manifest = run_corpus("cubic")
    assert manifest["ok"]
    (entry,) = manifest["entries"]
    labels = [check["label"] for check in entry["checks"]]
    assert "pairing chain holds" in labels


def test_filter_without_match_is_empty():
    manifest = run_corpus("zzz")
    assert manifest["entries"] == []
    assert manifest["ok"]


def test_spectrum_sample_stays_interior():
    energies = spectrum_sample(free_laplacian(), 5)
    assert len(energies) == 5
    assert np.all(np.diff(energies) > 0)
    assert np.all(np.abs(energies) < 1.95)


def test_cubic_tail_operator_profile():
    op = cubic_tail_operator()
    assert op.hopping.range == CUBIC_TAIL_CUT
    for k in (2, 7, 64):
        assert op.hopping.coefficient(k) == k**-4.0
    # the discarded arm of the tail really is below the advertised cut
    assert 2.0 * np.sum(np.arange(65, 100000) ** -4.0) < 3e-6


def test_cosine_root_state_solves():
    op = cubic_tail_operator()
    u, root = cosine_root_state(op, 200)
    assert 0.2 < root < 0.3
    assert abs(complex(op.hopping.symbol(root)).real) < 1e-10
    hu = op.apply(u)
    interior = slice(2 * CUBIC_TAIL_CUT, u.size - 2 * CUBIC_TAIL_CUT)
    assert np.max(np.abs(hu[interior])) < 1e-8


def test_cosine_root_state_free_quarter():
    u, root = cosine_root_state(free_laplacian(), 32)
    assert abs(root - 0.25) < 1e-12
    assert np.max(np.abs(u - np.cos(np.pi * np.arange(-32, 33) / 2))) < 1e-12


def test_cosine_root_state_needs_pure_hopping():
    with pytest.raises(ArgumentError):
        cosine_root_state(almost_mathieu(0.5), 32)


# ── pairing constancy ────────────────────────────────────────────────────────


def pairing_cases():
    # the free entry's cosine/sine pair, AMO(2) off the spectrum as in the
    # corpus, and generic seeds in the spectra of AMO(0.5) and AMO(2)
    sites = np.arange(0, 3)
    cos_state, sin_state = np.cos(np.pi * sites / 2), np.sin(np.pi * sites / 2)
    yield (fold_to_strip(free_laplacian()), 0.0, 0.0,
           cos_state[1::-1], sin_state[1::-1], 10000)
    yield (fold_to_strip(almost_mathieu(2.0)), 7.0, 0.0,
           np.array([1.0, 0.0]), np.array([0.0, 1.0]), 10000)
    for lam, energy in ((0.5, 0.3), (2.0, 0.5)):
        yield (fold_to_strip(almost_mathieu(lam)), energy, 0.1,
               np.array([1.0, 0.3]), np.array([0.2, 1.0]), 3000)


def test_pairings_match_per_step_loop():
    # Every pairing within 1e-10 of the largest one, the corpus's own drift
    # limit: both sweeps stay that close to constant, and the per-step
    # reference drifts most, by 8.2e-11 off the spectrum (the sweep: 1.7e-11).
    for case in pairing_cases():
        drift, reference = reference_wronskian_drift(*case)
        values = np.concatenate(list(corpus._pairings(*case)))
        assert values.shape == reference.shape
        assert np.abs(values - reference).max() <= 1e-10 * np.abs(reference).max()
        assert corpus._wronskian_drift(*case) <= 1e-10
        assert drift <= 1e-10


def test_pairing_check_fails_off_the_pairing(monkeypatch):
    # one step of the AMO(2) E=7 orbit scaled by 1 + 1e-8 moves the pairing
    # by that factor squared from that step on
    strip = fold_to_strip(almost_mathieu(2.0))
    target = (strip.alpha * np.arange(10000))[5000]
    real = corpus.transfer_cocycle

    def perturbed(strip, energy):
        c = real(strip, energy)

        def matrix_fn(phases):
            mats = c.matrices(phases).copy()
            mats[np.asarray(phases) == target] *= 1 + 1e-8
            return mats

        return Cocycle(c.alpha, matrix_fn, c.dim, form=c.form)

    monkeypatch.setattr(corpus, "transfer_cocycle", perturbed)
    drift = corpus._wronskian_drift(strip, 7.0, 0.0, np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]), 10000)
    assert drift > 1e-10
    np.testing.assert_allclose(drift, 2e-8, rtol=1e-2)


def test_wronskian_drift_takes_two_sweeps(orbit_sweeps):
    case = next(pairing_cases())
    corpus._wronskian_drift(*case)
    assert orbit_sweeps == [(2,), (2,)]
