"""Seeded inputs, operation sequences and reference checks of the workloads.

A workload is a fixed list of operations built from the seed.  Each
operation is one call through a public entry point: ``qplattice.cli.main``
for a command or a package-level function for a library call.  The
runner issues them one after the other (a closed loop with one caller)
and times only the call; the check that follows reads the artifact or
the returned value and compares it against a reference with a stated
tolerance.

Operators are drawn in the style of the test suite's random factories
(copied here, so the benchmark depends on no test file).  In-spectrum
energies are eigenvalues of Dirichlet truncations that this module
assembles itself with numpy and scipy, so the inputs do not depend on
the program under test.
"""

import contextlib
import csv
import io
import json
import math
import os
from collections import namedtuple

import numpy as np
import scipy.linalg as sla

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

Op = namedtuple("Op", "group cli call check")
# A check with ``gated=False`` is a known defect of the program: it is
# evaluated and reported with its value and limit in every run, but it does
# not fail the operation (README.md, "Two checks that fail on the current
# code").
Check = namedtuple("Check", "label value limit ok gated", defaults=(True,))


def check_at_most(label, value, limit):
    value = float(value)
    return Check(label, value, float(limit), bool(value <= limit))


def check_true(label, condition):
    return Check(label, 0.0 if condition else 1.0, 0.5, bool(condition))


def known_defect(check):
    """The same check, reported with its value and limit but not failing
    its operation: it fails on the current code (README.md, Checks)."""
    return check._replace(gated=False)


# ── seeded operators (config schema of ``operator_from_config``) ─────────────


def _triples(coefficients):
    return [[int(k), float(c.real), float(c.imag)]
            for k, c in sorted(coefficients.items())]


def line_config(hopping, potential, theta=0.0, epsilon=1.0):
    return {
        "hopping": _triples(hopping),
        "potential": {"type": "fourier", "coefficients": _triples(potential)},
        "alpha": GOLDEN_MEAN,
        "theta": float(theta),
        "epsilon": float(epsilon),
    }


def almost_mathieu(coupling, theta=0.0):
    return line_config({1: 1.0}, {1: coupling}, theta=theta)


def free_line():
    return line_config({1: 1.0}, {}, epsilon=0.0)


def random_phase(rng, lo=0.15, hi=1.2):
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def random_line(rng, k_max=3, epsilon=(0.2, 1.0), harmonic=(0.1, 0.8)):
    """Range-K line with analytic potential; w_K stays away from zero so
    the line folds to a strip with a well-conditioned coupling block."""
    hopping = {k: random_phase(rng) for k in range(1, k_max)}
    hopping[k_max] = random_phase(rng, lo=0.5)
    potential = {0: complex(rng.uniform(-1.0, 1.0)),
                 1: random_phase(rng, *harmonic)}
    return line_config(hopping, potential, theta=rng.uniform(0.0, 1.0),
                       epsilon=rng.uniform(*epsilon))


def _coefficients(triples):
    return {int(k): complex(re, im) for k, re, im in triples}


def norm_bound(cfg):
    """Upper bound on the operator norm: the l1 norm of the hopping plus
    the potential's sup norm."""
    hop = _coefficients(cfg["hopping"])
    pot = _coefficients(cfg["potential"]["coefficients"])
    hop_l1 = sum(abs(w) * (1 if k == 0 else 2) for k, w in hop.items())
    pot_sup = sum(abs(c) * (1 if k == 0 else 2) for k, c in pot.items())
    return hop_l1 + abs(cfg["epsilon"]) * pot_sup


def _truncation(cfg, n_sites):
    """Upper banded storage of the centered Dirichlet truncation."""
    hop = _coefficients(cfg["hopping"])
    pot = _coefficients(cfg["potential"]["coefficients"])
    x = cfg["theta"] + cfg["alpha"] * (np.arange(n_sites) - n_sites // 2)
    v = np.zeros(n_sites)
    for k, c in pot.items():
        v += (c * np.exp(2j * np.pi * k * x)).real * (1 if k == 0 else 2)
    bw = max(k for k in hop if k > 0)
    ab = np.zeros((bw + 1, n_sites), dtype=complex)
    ab[bw] = hop.get(0, 0.0).real + cfg["epsilon"] * v
    for k in range(1, bw + 1):
        ab[bw - k, k:] = hop.get(k, 0.0)
    return ab


def eigenvalues(cfg, n_sites):
    """Sorted eigenvalues of the centered Dirichlet truncation."""
    return np.sort(sla.eig_banded(_truncation(cfg, n_sites), lower=False,
                                  eigvals_only=True))


def bulk_eigenpair_energy(cfg, n_sites, q, margin):
    """Eigenvalue of the centered Dirichlet truncation at quantile ``q``, or
    the next one up whose eigenvector peaks at least ``margin`` sites from
    both ends.  Eigenvalues in spectral gaps belong to states bound to the
    truncation's ends, which are not states of the operator itself."""
    ab = _truncation(cfg, n_sites)
    for index in range(int(q * n_sites), n_sites):
        w, vec = sla.eig_banded(ab, lower=False, select="i", select_range=(index, index))
        peak = int(np.argmax(np.abs(vec[:, 0])))
        if margin <= peak < n_sites - margin:
            return float(w[0])
    raise ValueError("no eigenvector away from the truncation's ends")


def quantile(eigs, q):
    return float(eigs[int(q * len(eigs))])


def pick(rng, eigs, lo, hi):
    return quantile(eigs, rng.uniform(lo, hi))


def off_spectrum(rng, cfg, sign):
    return sign * (norm_bound(cfg) + rng.uniform(0.5, 1.5))


# ── calling the program ──────────────────────────────────────────────────────


class Session:
    """Config files and artifact directories of one workload."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.artifact_bytes = 0
        self._commands = 0

    def command(self, name, cfg):
        self._commands += 1
        return Command(self, name, cfg,
                       os.path.join(self.workdir, "cmd%02d" % self._commands))


class Command:
    """One CLI invocation with its own config file and output directory;
    calling it returns the exit code."""

    def __init__(self, session, name, cfg, directory):
        self.session = session
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        self.out = os.path.join(directory, "out")
        self.argv = [name, "--config", path, "--out", self.out, "--jobs", "1"]

    def __call__(self):
        from qplattice import cli  # looked up per call, so a traced pass sees its wrapper
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(self.argv)

    def artifact(self, filename):
        """Path of an artifact this call wrote; its size counts into the pass."""
        path = os.path.join(self.out, filename)
        self.session.artifact_bytes += os.path.getsize(path)
        return path


def read_table(path):
    """Rows of a CSV artifact as floats, and the messages of failed rows."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    header, rows = lines[0], lines[1:-1]
    errors = []
    if header[-1] == "error":
        errors = [row[-1] for row in rows if row[-1]]
        rows = [row[:-1] for row in rows]
    return [[float(v) for v in row] for row in rows], errors


def _table_checks(command, code, artifact):
    checks = [check_true("exit code 0", code == 0)]
    rows, errors = read_table(command.artifact(artifact))
    checks.append(check_true("no error rows", not errors))
    return checks, rows


# ── orbit_sweep ──────────────────────────────────────────────────────────────


def _pairing_defects(exps):
    d = len(exps)
    return [abs(exps[j] + exps[d - 1 - j]) for j in range(d // 2)]


def _lyapunov_op(session, cfg, reference=None, tol=None, pairing_gated=True):
    """Lyapunov command.  Every transfer step has determinant of modulus one,
    so the exponents sum to zero at any window length; they pair to zero
    within three times the reported phase scatter, the acceptance battery's
    margin, only as the window grows (``pairing_gated=False`` reports that
    check without failing the operation)."""
    command = session.command("lyapunov", cfg)

    def check(code):
        checks, rows = _table_checks(command, code, "lyapunov.csv")
        for row in rows:
            energy, exps, spread = row[0], row[1:-1], row[-1]
            checks.append(check_at_most("E=%.6g exponents sum to zero" % energy,
                                        abs(sum(exps)), 1e-9))
            for j, defect in enumerate(_pairing_defects(exps), start=1):
                pair = check_at_most("E=%.6g exponent pair %d sums to zero"
                                     % (energy, j), defect, 3.0 * spread + 1e-9)
                checks.append(pair if pairing_gated else known_defect(pair))
            if reference is not None:
                checks.append(check_at_most(
                    "E=%.6g top exponent vs closed form" % energy,
                    abs(exps[0] - reference(energy)), tol))
        return checks
    return Op("lyapunov", True, command, check)


def _splitting_op(session, cfg, width, off_energies):
    command = session.command("splitting", cfg)

    def check(code):
        checks, rows = _table_checks(command, code, "splitting.csv")
        for energy, d_u, d_c, d_s, gap, _, _ in rows:
            checks.append(check_true("E=%.6g splitting dims symmetric" % energy,
                                     d_u == d_s and d_u + d_c + d_s == 2 * width))
            if energy in off_energies:
                checks.append(check_true("E=%.6g gap certificate exceeds 1 off "
                                         "the spectrum" % energy, gap > 1.0))
        return checks
    return Op("splitting", True, command, check)


def _thouless_op(session, cfg):
    command = session.command("thouless", cfg)

    def check(code):
        checks, rows = _table_checks(command, code, "thouless.csv")
        for energy, _, residual in rows:
            # the acceptance battery's quadrature tolerance
            checks.append(check_at_most("E=%.6g exponent-sum identity residual"
                                        % energy, residual, 1e-2))
        return checks
    return Op("thouless", True, command, check)


def _verify_op(session, name_filter):
    command = session.command("verify", {"filter": name_filter})

    def check(code):
        checks = [check_true("exit code 0", code == 0)]
        with open(command.artifact("verify.json")) as fh:
            manifest = json.load(fh)
        checks.append(check_true("entries ran", bool(manifest["entries"])))
        for entry in manifest["entries"]:
            for item in entry["checks"]:
                checks.append(Check("%s: %s" % (entry["name"], item["label"]),
                                    item["value"], item["limit"], item["ok"]))
        return checks
    return Op("verify", True, command, check)


def _center_growth_op(cfg, energy, n_max):
    import qplattice as qp
    strip = qp.fold_to_strip(qp.operator_from_config(cfg))

    def call():
        cocycle = qp.transfer_cocycle(strip, energy)
        splitting = qp.compute_splitting(cocycle, 0.0, (0, 2, 0))
        return qp.center_growth(cocycle, splitting, n_max)

    def check(envelope):
        # the verification corpus bounds this envelope by 50 over 10^4
        # steps at the same energy; a running max over fewer steps is lower
        return [check_at_most("neutral envelope stays bounded", envelope[-1], 50.0),
                check_true("envelope is a running max from 1",
                           envelope[0] == 1.0 and bool(np.all(np.diff(envelope) >= 0)))]
    return Op("center_growth", False, call, check)


def orbit_sweep(rng, session):
    ops = []
    strip3 = random_line(rng, 3)
    ops.append(_lyapunov_op(session, {
        "operator": strip3,
        "grid": {"values": [pick(rng, eigenvalues(strip3, 384), 0.3, 0.7),
                            off_spectrum(rng, strip3, 1)]},
        "steps": 1500, "samples": 32,
    }, pairing_gated=False))  # fails on the current code at every window tried

    amo2 = almost_mathieu(2.0)
    amo2_eigs = eigenvalues(amo2, 987)
    amo2_in = [pick(rng, amo2_eigs, 0.1, 0.45), pick(rng, amo2_eigs, 0.55, 0.9)]
    ops.append(_lyapunov_op(session, {
        "operator": amo2, "grid": {"values": amo2_in}, "steps": 3000, "samples": 8,
    }, reference=lambda e: math.log(2.0), tol=2e-2))  # the corpus tolerance

    ops.append(_lyapunov_op(session, {
        "operator": free_line(),
        "grid": {"values": [2.0 + rng.uniform(0.5, 1.5), -2.0 - rng.uniform(0.5, 1.5)]},
        "steps": 3000, "samples": 4,
    }, reference=lambda e: math.acosh(abs(e) / 2.0), tol=5e-3))  # the CLI test's

    amo2_off = off_spectrum(rng, amo2, -1)
    ops.append(_splitting_op(session, {
        "operator": amo2, "grid": {"values": amo2_in + [amo2_off]},
    }, 1, {amo2_off}))
    line2 = random_line(rng, 2)
    line2_off = off_spectrum(rng, line2, 1)
    ops.append(_splitting_op(session, {
        "operator": line2,
        "grid": {"values": [pick(rng, eigenvalues(line2, 256), 0.3, 0.7), line2_off]},
    }, 2, {line2_off}))

    ops.append(_thouless_op(session, {
        "operator": line2,
        "grid": {"values": [off_spectrum(rng, line2, 1), off_spectrum(rng, line2, -1)]},
        "steps": 3000, "samples": 8,
        "ids": {"truncation": 512, "samples": 4},
    }))

    # the free entry covers rotation_number and the Wronskian drift
    ops.append(_verify_op(session, "free"))
    # center_growth at the corpus's own reference energy for AMO(0.5)
    amo_half = almost_mathieu(0.5)
    corpus_energy = float(eigenvalues(amo_half, 987)[
        int(round((0.1 + 0.8 * 4 / 7) * 986))])
    ops.append(_center_growth_op(amo_half, corpus_energy, 2000))
    return ops


# ── weyl_near_spectrum ───────────────────────────────────────────────────────

WIDE_EPS = (1e-1, 3e-2, 1e-2)
NARROW_LIMIT = 1e-2


def _m_matrix_op(strip, z, state, key):
    import qplattice as qp

    def call():
        data = qp.m_matrix(strip, z)
        return data, qp.im_m_trace(data)

    def check(result):
        data, trace = result
        state[key] = data
        return [check_true("z=%s whole-line matrix finite" % z,
                           bool(np.all(np.isfinite(data.matrix)))),
                check_true("z=%s imaginary trace positive" % z, trace > 0.0)]
    group = "m_matrix_wide" if z.imag >= NARROW_LIMIT else "m_matrix_narrow"
    return Op(group, False, call, check)


def _green_op(strip, z, state, key):
    import qplattice as qp

    def call():
        return [[np.atleast_2d(qp.green_oracle(strip, z, bi - 1, bj - 1,
                                               n_sites=4001, verify=False))
                 for bj in (0, 1)] for bi in (0, 1)]

    def check(blocks):
        data = state.pop(key, None)
        if data is None:
            return [check_true("z=%s m_matrix result available" % z, False)]
        worst = max(np.linalg.norm(np.atleast_2d(data.block(bi, bj)) - blocks[bi][bj])
                    / np.linalg.norm(blocks[bi][bj]) for bi in (0, 1) for bj in (0, 1))
        # the acceptance battery's kernel-vs-resolvent tolerance
        return [check_at_most("z=%s blocks match green_oracle" % z, worst, 1e-2)]
    return Op("green_oracle", False, call, check)


def _weyl_op(session, cfg):
    command = session.command("weyl", cfg)

    def check(code):
        checks, rows = _table_checks(command, code, "weyl.csv")
        for eps, trace_im, mu_bound, growth_bound, _, _ in rows:
            checks.append(check_true("eps=%.3g imaginary trace positive" % eps,
                                     trace_im > 0.0))
            checks.append(check_true("eps=%.3g measure bound under growth bound" % eps,
                                     mu_bound <= growth_bound * (1 + 1e-9)))
        return checks
    return Op("weyl", True, command, check)


def weyl_near_spectrum(rng, session):
    import qplattice as qp

    ops, state = [], {}
    # AMO(0.5) keeps its energies at fixed quantiles: the window doubling
    # these points need jumps by a factor of two between neighbouring
    # energies, so seeded energies here would make the run length a
    # lottery.  The seed enters through the K=2 strip below.
    amo = almost_mathieu(0.5)
    amo_eigs = eigenvalues(amo, 987)
    low, high = quantile(amo_eigs, 0.40), quantile(amo_eigs, 0.60)
    amo_strip = qp.fold_to_strip(qp.operator_from_config(amo))
    points = [(amo_strip, e + 1j * eps) for e in (low, high) for eps in WIDE_EPS]
    points += [(amo_strip, low + 5e-3j), (amo_strip, high + 5e-3j),
               (amo_strip, high + 3e-3j)]

    # A strongly coupled K=2 strip: both positive exponents stay clear of
    # zero, so its points cost about the same at every seed.
    line2 = random_line(rng, 2, epsilon=(6.0, 8.0), harmonic=(0.5, 0.8))
    strip2 = qp.fold_to_strip(qp.operator_from_config(line2))
    eigs2 = eigenvalues(line2, 512)
    for lo in (0.2, 0.4, 0.6):
        energy = pick(rng, eigs2, lo, lo + 0.2)
        points += [(strip2, energy + 1j * eps) for eps in WIDE_EPS + (3e-3,)]

    # cross-check AMO(0.5) at (high, 1e-1) and the strip's first energy at 1e-2
    checked = {3, 11}
    for index, (strip, z) in enumerate(points):
        ops.append(_m_matrix_op(strip, z, state, index))
        if index in checked:
            ops.append(_green_op(strip, z, state, index))

    ops.append(_weyl_op(session, dict(operator=amo, energy=high,
                                      eps_grid={"values": [1e-1, 3e-2]})))
    return ops


# ── spectra_tables ───────────────────────────────────────────────────────────


def _monotone_checks(label, values):
    # strip tables sum eigenvector weights and overshoot 1 by a few ulp
    values = np.asarray(values)
    return [check_at_most("%s distance outside [0, 1]" % label,
                          max(0.0, -values.min(), values.max() - 1.0), 1e-12),
            check_true("%s nondecreasing" % label, bool(np.all(np.diff(values) >= 0)))]


def _ids_command_op(session, cfg):
    command = session.command("ids", cfg)

    def check(code):
        checks, rows = _table_checks(command, code, "ids.csv")
        values = [row[1] for row in rows]
        checks += _monotone_checks("ids", values)
        checks.append(check_true("ids runs from 0 to 1 across the grid",
                                 values[0] == 0.0 and values[-1] == 1.0))
        return checks
    return Op("ids", True, command, check)


def _ids_library_op(cfg, n_blocks, samples):
    import qplattice as qp
    line = qp.operator_from_config(cfg)
    strip = qp.fold_to_strip(line)
    bound = 1.05 * norm_bound(cfg)
    grid = np.linspace(-bound, bound, 301)

    def call():
        return (qp.ids(strip, grid, n_sites=n_blocks, samples=samples),
                qp.ids(line, grid, n_sites=n_blocks * strip.width, samples=samples))

    def check(tables):
        from_strip, from_line = tables
        label = "K=%d strip" % strip.width
        # the tolerance of the test comparing a strip with its unfolded line;
        # a few seeded K=2 lines miss it at any truncation (README.md)
        return _monotone_checks(label, from_strip.values) + [known_defect(check_at_most(
            "%s agrees with its unfolded line" % label,
            np.max(np.abs(from_strip.values - from_line.values)), 2e-2))]
    return Op("ids_library", False, call, check)


def _duality_op(session, cfg):
    command = session.command("duality", cfg)

    def check(code):
        checks = [check_true("exit code 0", code == 0)]
        with open(command.artifact("duality.json")) as fh:
            payload = json.load(fh)
        checks.append(check_at_most("duality residual", payload["residual"], 1e-6))
        return checks
    return Op("duality", True, command, check)


def _subordinacy_op(session, cfg):
    command = session.command("subordinacy", cfg)

    def check(code):
        checks = [check_true("exit code 0", code == 0)]
        with open(command.artifact("subordinacy.json")) as fh:
            payload = json.load(fh)
        checks.append(check_true("subordinacy chain ok", payload["ok"] is True))
        return checks
    return Op("subordinacy", True, command, check)


def _ids_grid(cfg):
    bound = 1.05 * norm_bound(cfg)
    return {"start": -bound, "stop": bound, "count": 257}


def spectra_tables(rng, session):
    ops = []
    # The coupling stays fixed and the seed moves the phase: the eigensolver's
    # time on AMO changes by 1.6x across couplings 0.3 to 2.5.
    amo = almost_mathieu(2.0, theta=rng.uniform(0.0, 1.0))
    ops.append(_ids_command_op(session, {"operator": amo, "grid": _ids_grid(amo),
                                         "samples": 8}))
    line3 = random_line(rng, 3)
    ops.append(_ids_command_op(session, {"operator": line3, "grid": _ids_grid(line3),
                                         "samples": 8}))
    ops.append(_ids_library_op(random_line(rng, 2), 192, 4))
    ops.append(_ids_library_op(line3, 128, 4))
    # The energy is a state of the dual operator that the CLI truncates (the
    # hopping and potential of AMO(coupling) swapped, at phase 0), away from
    # the truncation's ends: an energy in a gap picks a state bound to an
    # end, for which no duality holds.
    coupling = rng.uniform(0.3, 0.7)
    ops.append(_duality_op(session, {
        "operator": almost_mathieu(coupling, theta=rng.uniform(0.0, 1.0)),
        "energy": bulk_eigenpair_energy(line_config({1: coupling}, {1: 1.0}), 2001,
                                        rng.uniform(0.1, 0.9), margin=100),
        "truncation": 2001, "window": 512,
    }))
    # pure hopping with a symbol root in [0.2, 0.3], so the CLI's exact
    # cosine solution at energy 0 exists
    ops.append(_subordinacy_op(session, {
        "operator": line_config({1: 1.0, 2: rng.uniform(-0.2, 0.2),
                                 3: rng.uniform(-0.2, 0.2)}, {}, epsilon=0.0),
        "energy": 0.0,
    }))
    return ops


WORKLOADS = {
    "orbit_sweep": orbit_sweep,
    "weyl_near_spectrum": weyl_near_spectrum,
    "spectra_tables": spectra_tables,
}


def build(name, seed, session):
    """The operation list of one workload; the same seed gives the same list."""
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name](np.random.default_rng([index, seed]), session)
