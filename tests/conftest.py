"""Shared random factories for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so each test owns
its seed and the suite stays order-independent.
"""

import numpy as np
import pytest
from scipy.linalg import expm, null_space

from qplattice import cocycle, corpus, splitting
from qplattice.operators import (
    GOLDEN_MEAN,
    Hopping,
    LineOperator,
    Potential,
    fold_to_strip,
)
from qplattice.linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    orthonormal_columns,
    restriction_norm,
)
from qplattice.symplectic import (
    form_defect,
    pairing_matrix,
    reverse_norm_constant,
    wronskian,
)


def random_phase(rng, lo=0.15, hi=1.2):
    r = rng.uniform(lo, hi)
    a = rng.uniform(0.0, 2.0 * np.pi)
    return r * np.exp(1j * a)


def random_line(rng, k_max=3):
    """Finite-range self-adjoint line operator with analytic potential.

    The leading hopping coefficient stays away from zero so the operator
    folds to a strip with a well-conditioned coupling block.
    """
    coeffs = {k: random_phase(rng) for k in range(1, k_max)}
    coeffs[k_max] = random_phase(rng, lo=0.5)
    pot = {0: rng.uniform(-1.0, 1.0), 1: random_phase(rng, lo=0.1, hi=0.8)}
    return LineOperator(
        Hopping(coeffs),
        Potential("fourier", pot),
        alpha=GOLDEN_MEAN,
        theta=rng.uniform(0.0, 1.0),
        epsilon=rng.uniform(0.2, 1.0),
    )


def random_strip(rng, k_max=3):
    return fold_to_strip(random_line(rng, k_max=k_max))


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def random_form_preserving(rng, coupling, scale=0.5):
    """Random matrix preserving the pairing of ``coupling`` exactly.

    ``exp(S^{-1} H)`` with Hermitian ``H``: since ``S* = -S`` the generator
    ``G = S^{-1} H`` satisfies ``G* S + S G = 0``, so the exponential
    conjugates the form to itself.
    """
    s = pairing_matrix(coupling)
    h = scale * random_hermitian(rng, s.shape[0])
    return expm(np.linalg.solve(s, h))


def random_hsp_cocycle(rng, m, scale=0.6):
    """Random pairing-preserving cocycle: a fixed exp(S^-1 H) link twisted
    by the symplectic rotation of the phase."""
    s = pairing_matrix(np.eye(m))
    b = random_form_preserving(rng, np.eye(m), scale=scale)

    def matrix_fn(phases):
        ang = 2.0 * np.pi * np.asarray(phases, dtype=float)
        c, sn = np.cos(ang), np.sin(ang)
        eye = np.eye(m)
        out = np.zeros(np.shape(ang) + (2 * m, 2 * m), dtype=complex)
        out[..., :m, :m] = c[..., None, None] * eye
        out[..., :m, m:] = -sn[..., None, None] * eye
        out[..., m:, :m] = sn[..., None, None] * eye
        out[..., m:, m:] = c[..., None, None] * eye
        return b @ out

    return cocycle.Cocycle(GOLDEN_MEAN, matrix_fn, 2 * m, form=s)


def reference_frame(cocycle, theta, n_window, n_cols, seed, backward):
    """A seeded random frame carried across the window ending at ``theta``
    (``backward``: pulled back across the window starting there), one QR
    per step: the reference for every frame the library converges."""
    rng = np.random.default_rng(seed)
    dim = cocycle.dim
    q = orthonormal_columns(
        rng.standard_normal((dim, n_cols)) + 1j * rng.standard_normal((dim, n_cols))
    )
    # the window's matrices from one call, in the order they act
    steps = np.arange(n_window - 1, -1, -1) if backward else np.arange(-n_window, 0)
    for a in cocycle.matrices(theta + cocycle.alpha * steps):
        q, _ = np.linalg.qr(np.linalg.solve(a, q) if backward else a @ q)
    return q


def reference_frames_along(c, theta, dims, n_window, n_steps):
    """The (expanding, neutral, contracting) frame stacks of
    ``splitting._frames_along``, with the neutral frame intersected one
    step at a time through ``scipy.linalg.null_space``: the reference for
    the stacked intersection."""
    d_u, d_c, d_s = dims
    fwd = splitting._carried_frames(c, theta, n_window, n_steps, d_u + d_c, seed=1)
    bwd = splitting._carried_frames(c.inverse(), theta + n_steps * c.alpha,
                                    n_window, n_steps, d_s + d_c, seed=2)[::-1]
    centers = []
    for f, b in zip(fwd, bwd):
        coeff = null_space(np.hstack([f, -b]))
        center = orthonormal_columns(f @ coeff[: f.shape[1]])
        if center.shape[1] != d_c:
            raise ConvergenceError(
                "neutral frame has dimension %d, expected %d" % (center.shape[1], d_c)
            )
        centers.append(center)
    return fwd[..., :d_u], np.stack(centers), bwd[..., :d_s]


def reference_growth_constant(records):
    """Bisection for the smallest c with value <= c g exp(c g eps n) over
    the records, each c in [1e-12, 1e12]."""
    worst = 1e-12
    for value, g, eps, n in records:
        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            bound = np.log(mid) + np.log(g) + mid * g * eps * n
            if bound >= np.log(max(value, 1e-300)):
                hi = mid
            else:
                lo = mid
        worst = max(worst, hi)
    return float(worst)


# ── the per-step loops the state sweep replaced ─────────────────────────────
#
# Each steps one matrix at a time, as the library did before
# `cocycle._state_sweep`, and serves as its reference.


def reference_rotation_number(c, n_steps, samples=8, phases=None):
    """Rotation number and spread from one angle increment per step."""
    if phases is None:
        phases = cocycle.phase_lattice(samples)
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    v = np.tile(np.array([1.0, 0.0]), (len(phases), 1))
    total = np.zeros(len(phases))
    ang = np.arctan2(v[:, 1], v[:, 0])
    orbit = phases + c.alpha * np.arange(n_steps)[:, None]
    for mats in c.matrices(orbit):
        v = np.einsum("sij,sj->si", np.real(mats), v)
        new_ang = np.arctan2(v[:, 1], v[:, 0])
        delta = new_ang - ang
        delta -= 2 * np.pi * np.round(delta / (2 * np.pi))
        total += delta
        ang = new_ang
        v /= np.linalg.norm(v, axis=1)[:, None]
    rho = (total / (2 * np.pi * n_steps)) % 1.0
    mean = np.angle(np.mean(np.exp(2j * np.pi * rho))) / (2 * np.pi) % 1.0
    spread = float(np.abs(np.exp(2j * np.pi * rho)
                          - np.exp(2j * np.pi * mean)).max()) / (2 * np.pi)
    return float(mean), spread


def reference_center_growth(c, split, n_max):
    """Envelope of the restricted growth, one restricted step at a time
    between the neutral frames swept along the orbit."""
    theta = split.theta
    _, centers, _ = splitting._frames_along(c, theta, split.dims, split.window, n_max)
    q = split.center
    rprod = np.eye(split.dims[1], dtype=complex)
    log_scale = 0.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    mats = c.matrices(theta + c.alpha * np.arange(n_max))
    for n, (a, center) in enumerate(zip(mats, centers[1:]), start=1):
        image = a @ q
        q = center
        step = q.conj().T @ image
        if np.linalg.norm(image - q @ step) > splitting.INVARIANCE_TOL * np.linalg.norm(image):
            raise ConvergenceError("neutral frame not invariant at step %d" % n)
        rprod = step @ rprod
        scale = np.linalg.norm(rprod)
        if scale == 0 or not np.isfinite(scale):
            raise ConvergenceError("restricted product degenerated at step %d" % n)
        log_scale += np.log(scale)
        rprod = rprod / scale
        log_norm = log_scale + np.log(np.linalg.norm(rprod, 2))
        if log_norm > 350.0:
            raise ConvergenceError("neutral restricted growth overflowed at step %d" % n)
        out[n] = max(out[n - 1], float(np.exp(2.0 * log_norm)))
    return out


def reference_telescoping(form, family, v_start, lip, t, n_steps, samples=4):
    """The `splitting.telescoping_check` report from one walk along the
    chain: per link the pairing and Lipschitz checks, the reverse-norm
    constant of the frame carried by one QR, and both running products
    rescaled by their 2-norms."""
    v1 = orthonormal_columns(np.asarray(v_start, dtype=complex))
    check_at = set(np.linspace(1, n_steps, min(samples, n_steps), dtype=int).tolist())
    frame = v1
    constant = reverse_norm_constant(form, frame)
    prefix = prod = np.eye(form.shape[0], dtype=complex)
    log_pref = log_prod = 0.0
    growth = 1.0
    for j in range(1, n_steps + 1):
        link = np.asarray(family(0.0, j), dtype=complex)
        if form_defect(link, form) > 1e-8:
            raise InvariantError("unperturbed link %d does not preserve the pairing" % j)
        moved = np.asarray(family(t, j), dtype=complex)
        if j in check_at:
            drift = np.linalg.norm(moved - link, 2)
            if drift > lip * abs(t) * (1 + 1e-9) + 1e-12:
                raise ArgumentError(
                    "link %d exceeds the declared Lipschitz bound: %.3e > %.3e"
                    % (j, drift, lip * abs(t))
                )
        prefix = link @ prefix
        scale = np.linalg.norm(prefix, 2)
        log_pref += np.log(scale)
        prefix = prefix / scale
        growth = max(growth, float(np.exp(2.0 * (log_pref + np.log(restriction_norm(prefix, v1))))))
        frame = orthonormal_columns(link @ frame)
        constant = max(constant, reverse_norm_constant(form, frame))
        prod = moved @ prod
        scale = np.linalg.norm(prod, 2)
        prod = prod / scale
        log_prod += np.log(scale)

    log_norm = log_prod + np.log(restriction_norm(prod, v1))
    image = orthonormal_columns(prod @ v1)
    log_inverse = -log_prod + np.log(restriction_norm(np.linalg.inv(prod), image))
    log_bound = (
        np.log(constant) + np.log(growth) + constant * growth * lip * abs(t) * n_steps
    )
    return splitting.TelescopingReport(
        norm=float(np.exp(log_norm)),
        inverse_norm=float(np.exp(log_inverse)),
        bound=float(np.exp(min(log_bound, 700.0))),
        constant=float(constant),
        growth=float(growth),
        ok=bool(log_norm <= log_bound + 1e-9 and log_inverse <= log_bound + 1e-9),
    )


def reference_wronskian_drift(strip, energy, theta, x0, y0, n_steps):
    """The pairing drift and the pairings at steps 0 .. n_steps (over the
    scale of step 0), from one solve backward and one matmul forward per
    step, each state renormalised."""
    c = cocycle.transfer_cocycle(strip, energy)
    y = np.asarray(y0, dtype=complex)
    y = y / np.linalg.norm(y)
    y_states = np.empty((n_steps + 1,) + y.shape, dtype=complex)
    y_logs = np.empty(n_steps + 1)
    y_states[n_steps] = y
    y_logs[n_steps] = 0.0
    backward = np.arange(n_steps - 1, -1, -1)
    for n, a in zip(backward, c.matrices(theta + c.alpha * backward)):
        y = np.linalg.solve(a, y)
        sy = np.linalg.norm(y)
        y = y / sy
        y_states[n] = y
        y_logs[n] = y_logs[n + 1] + np.log(sy)
    x = np.asarray(x0, dtype=complex)
    x = x / np.linalg.norm(x)
    log_x = 0.0
    values = np.empty(n_steps + 1, dtype=complex)
    forward = c.matrices(theta + c.alpha * np.arange(n_steps))
    for n in range(n_steps + 1):
        values[n] = (wronskian(strip.coupling, x, y_states[n])
                     * np.exp(log_x + y_logs[n] - y_logs[0]))
        if n < n_steps:
            x = forward[n] @ x
            sx = np.linalg.norm(x)
            x = x / sx
            log_x += np.log(sx)
    drift = np.abs(values - values[0]).max() / np.abs(values).max()
    return float(drift), values


@pytest.fixture
def rate_windows(monkeypatch):
    """Arguments of every finite_window_rates call the splitting module
    makes during the test: one entry per converged rate window."""
    calls = []
    real = splitting.finite_window_rates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(splitting, "finite_window_rates", counted)
    return calls


@pytest.fixture
def converged_frames(monkeypatch):
    """Arguments of every _carried_frames call the splitting module makes
    during the test: one entry per frame swept by subspace iteration."""
    calls = []
    real = splitting._carried_frames

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(splitting, "_carried_frames", counted)
    return calls


@pytest.fixture
def block_certificates(monkeypatch):
    """Counts of the block certificates the QR engine checks during the
    test: blocks accepted, and blocks that gave way to their halves.
    Single steps pass through the same QR call with no certificate and are
    not counted."""
    counts = {"accepted": 0, "failed": 0}
    real = cocycle._certified_qr

    def counted(block, q, certify):
        out = real(block, q, certify)
        if certify:
            counts["failed" if out is None else "accepted"] += 1
        return out

    monkeypatch.setattr(cocycle, "_certified_qr", counted)
    return counts


@pytest.fixture
def orbit_sweeps(monkeypatch):
    """Calls of the state-sweep kernel during the test, one entry (the
    state's shape) per sweep, from the modules that sweep states."""
    calls = []
    real = cocycle._state_sweep

    def counted(chunks, v):
        calls.append(np.shape(v))
        return real(chunks, v)

    for module in (cocycle, corpus):
        monkeypatch.setattr(module, "_state_sweep", counted)
    return calls


@pytest.fixture
def segment_carries(monkeypatch):
    """Frames carried across a cached product tree during the test: one
    entry, the frame's column count, per ``_Segment.carry`` call."""
    carries = []
    real = cocycle._Segment.carry

    def counted(self, q):
        carries.append(q.shape[-1])
        return real(self, q)

    monkeypatch.setattr(cocycle._Segment, "carry", counted)
    return carries


@pytest.fixture
def growth_fits(monkeypatch):
    """Checks every growth-constant fit the splitting module makes during
    the test against the bisection reference (1e-14 relative); one
    (fitted, reference) pair per fit."""
    fits = []
    real = splitting._fit_growth_constant

    def checked(records):
        fitted = real(records)
        reference = reference_growth_constant(records)
        assert abs(fitted - reference) <= 1e-14 * reference
        fits.append((fitted, reference))
        return fitted

    monkeypatch.setattr(splitting, "_fit_growth_constant", checked)
    return fits
