"""Dominated splittings: invariant frames, gap certificates, center growth.

A cocycle over an irrational rotation is split into fast-expanding,
neutral, and fast-contracting frames by windowed subspace iteration.
The frames feed the vertical-angle tests, the restricted-growth
envelopes, and the telescoping / center-variation bounds used by the
spectral estimates.
"""

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass

from .linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    orthonormal_columns,
    principal_angles,
    restriction_norm,
)
from .symplectic import form_defect, reverse_norm_constant
from .cocycle import finite_window_rates, transfer_cocycle, transport

DEFAULT_WINDOW = 128
GAP_THRESHOLD = 1.01
INVARIANCE_TOL = 1e-6
PROJECTION_COND_MAX = 1e8


# ── splitting data ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Splitting:
    """Invariant frames of a dominated splitting at a single base phase.

    Attributes
    ----------
    theta : float
        Base phase (relative to the cocycle's own offset).
    dims : tuple
        (d_unstable, d_center, d_stable); the entries sum to the
        cocycle dimension and the outer two are equal.
    unstable, center, stable : ndarray
        Orthonormal column frames; an empty slot has zero columns.
    rates : ndarray
        Per-step finite-window growth rates, descending.
    certificates : tuple
        exp(rate gap) at each split index; every entry exceeds the
        domination threshold.
    window : int
        Iteration window used to converge the frames.
    """

    theta: float
    dims: tuple
    unstable: np.ndarray
    center: np.ndarray
    stable: np.ndarray
    rates: np.ndarray
    certificates: tuple
    window: int


def _empty_frame(dim):
    return np.zeros((dim, 0), dtype=complex)


def _random_frame(dim, n_cols, seed):
    rng = np.random.default_rng(seed)
    return orthonormal_columns(
        rng.standard_normal((dim, n_cols)) + 1j * rng.standard_normal((dim, n_cols))
    )


def _converged_frame(cocycle, theta, n_window, n_cols, seed):
    # Converge onto the fastest-expanding image directions by pushing a
    # random frame forward across the window ending at theta; on the
    # inverse cocycle these are the most-contracted directions of the
    # window starting at theta.
    q = _random_frame(cocycle.dim, n_cols, seed)
    for q, _ in transport(cocycle, q, theta + cocycle.alpha * np.arange(-n_window, 0)):
        pass
    return q


def _intersect_frames(fa, fb):
    # Common directions of two subspaces, as an orthonormal frame.
    coeff = sla.null_space(np.hstack([fa, -fb]))
    return orthonormal_columns(fa @ coeff[: fa.shape[1]])


def _subspace_gap(fa, fb):
    # sin of the largest principal angle between nonempty equal-rank frames.
    return float(np.sin(principal_angles(fa, fb)[-1]))


def _center_complement(cocycle, theta, fast, slow, d_center):
    """Neutral frame: either the pairing-orthogonal complement of the
    fast/slow sum (form-preserving cocycles) or the intersection of the
    slow-forward and slow-backward windows."""
    dim = cocycle.dim
    if d_center == dim:
        return np.eye(dim, dtype=complex)
    joint = np.hstack([fast, slow])
    preserves = False
    if cocycle.form is not None:
        probe = cocycle.matrix(theta)
        preserves = form_defect(probe, cocycle.form) <= 1e-8
    if preserves:
        frame = sla.null_space(joint.conj().T @ cocycle.form)
    else:
        n_window = DEFAULT_WINDOW
        h = fast.shape[1]
        slow_fwd = _converged_frame(cocycle.inverse(), theta, n_window, dim - h, seed=5)
        slow_bwd = _converged_frame(cocycle, theta, n_window, dim - h, seed=6)
        frame = _intersect_frames(slow_fwd, slow_bwd)
    if frame.shape[1] != d_center:
        raise ConvergenceError(
            "neutral complement has dimension %d, expected %d"
            % (frame.shape[1], d_center)
        )
    return orthonormal_columns(frame)


def _frames_at(cocycle, theta, dims, n_window):
    d_u, d_c, d_s = dims
    dim = cocycle.dim
    fast = (
        _converged_frame(cocycle, theta, n_window, d_u, seed=1)
        if d_u
        else _empty_frame(dim)
    )
    slow = (
        _converged_frame(cocycle.inverse(), theta, n_window, d_s, seed=2)
        if d_s
        else _empty_frame(dim)
    )
    center = (
        _center_complement(cocycle, theta, fast, slow, d_c)
        if d_c
        else _empty_frame(dim)
    )
    return fast, center, slow


def compute_splitting(cocycle, theta, dims, n_window=DEFAULT_WINDOW):
    """Converge the invariant frames of a dominated splitting.

    Parameters
    ----------
    cocycle : Cocycle
        Fiber map over an irrational rotation.
    theta : float
        Base phase.
    dims : tuple
        Requested (d_unstable, d_center, d_stable).  The outer entries
        must be equal and the total must match the cocycle dimension.
    n_window : int
        Iteration window; frames converge geometrically in the window
        length at the certified gap rate.

    Returns
    -------
    Splitting

    Raises
    ------
    ConvergenceError
        If a finite-window growth-rate gap at a split index falls below
        the domination threshold ("no dominated splitting at these
        dims"), or if the converged frames fail the one-step invariance
        check.
    """
    d_u, d_c, d_s = dims
    dim = cocycle.dim
    if d_u != d_s:
        raise ArgumentError("outer splitting dimensions must match: %r" % (dims,))
    if d_u < 0 or d_c < 0 or d_u + d_c + d_s != dim:
        raise ArgumentError("splitting dims %r incompatible with dimension %d" % (dims, dim))

    return _certified_splitting(cocycle, theta, (d_u, d_c, d_s), n_window,
                                finite_window_rates(cocycle, theta, n_window))


def _certified_splitting(cocycle, theta, dims, n_window, rates):
    # Gap certificates read off the rates, then frames and invariance check.
    d_u, d_c, _ = dims
    dim = cocycle.dim
    split_indices = sorted({d_u, d_u + d_c} - {0, dim})
    certificates = []
    for idx in split_indices:
        gap = float(np.exp(rates[idx - 1] - rates[idx]))
        if gap < GAP_THRESHOLD:
            raise ConvergenceError(
                "no dominated splitting at these dims: gap %.6f at index %d"
                % (gap, idx)
            )
        certificates.append(gap)

    fast, center, slow = _frames_at(cocycle, theta, dims, n_window)

    # One-step invariance: pushing each frame through the fiber matrix
    # must land on the frame converged independently at the next phase.
    if 0 < d_c < dim or d_u:
        a = cocycle.matrix(theta)
        next_fast, next_center, next_slow = _frames_at(
            cocycle, theta + cocycle.alpha, dims, n_window
        )
        residual = 0.0
        for frame, target in ((fast, next_fast), (center, next_center), (slow, next_slow)):
            if frame.shape[1] == 0 or frame.shape[1] == dim:
                continue
            pushed = orthonormal_columns(a @ frame)
            residual = max(residual, _subspace_gap(pushed, target))
        if residual > INVARIANCE_TOL:
            raise ConvergenceError(
                "splitting frames not invariant: residual %.3e exceeds %.0e"
                % (residual, INVARIANCE_TOL)
            )

    return Splitting(
        theta=float(theta),
        dims=dims,
        unstable=fast,
        center=center,
        stable=slow,
        rates=rates,
        certificates=tuple(certificates),
        window=n_window,
    )


def detect_splitting(cocycle, theta=0.0, n_window=DEFAULT_WINDOW):
    """Find the finest certified splitting, trying neutral dimensions in
    increasing order and returning the first that certifies.  Every
    candidate is read off the growth rates of one window."""
    dim = cocycle.dim
    rates = finite_window_rates(cocycle, theta, n_window)
    for d_c in range(dim % 2, dim + 1, 2):
        h = (dim - d_c) // 2
        try:
            return _certified_splitting(cocycle, theta, (h, d_c, h), n_window, rates)
        except ConvergenceError:
            continue
    raise ConvergenceError("no dominated splitting certified at any dims")


# ── vertical angles and critical phases ──────────────────────────────────────


def _axis_angle(frame, bottom):
    # Angle to the bottom (or top) half of the doubled space; a splitting
    # stands for its contracting (or expanding) frame.
    if isinstance(frame, Splitting):
        frame = frame.stable if bottom else frame.unstable
    dim = frame.shape[0]
    if dim % 2:
        raise ArgumentError("frame ambient dimension must be even")
    if frame.shape[1] == 0:
        return float(np.pi / 2)
    m = dim // 2
    axis = np.zeros((dim, m), dtype=complex)
    axis[slice(m, None) if bottom else slice(None, m)] = np.eye(m)
    return float(principal_angles(frame, axis)[0])


def vertical_angle(frame):
    """Smallest principal angle between a frame and the vertical
    subspace {0} x C^m of the doubled space; an empty frame is reported
    as pi/2 (nowhere near vertical).  Passing a whole splitting measures
    its contracting frame, the one whose vertical collision marks a
    half-line eigenvalue."""
    return _axis_angle(frame, bottom=True)


def horizontal_angle(frame):
    """Smallest principal angle against C^m x {0}, the image of the
    vertical under the boundary-inverting flip.  Passing a whole
    splitting measures its expanding frame."""
    return _axis_angle(frame, bottom=False)


def critical_set_test(splitting, floor=1e-2):
    """True when the base phase stays clear of the critical sets: the
    contracting frame keeps a margin from the vertical and the expanding
    frame from its flipped image.  Empty frames pass vacuously."""
    ok = True
    if splitting.dims[2]:
        ok = ok and vertical_angle(splitting.stable) > floor
    if splitting.dims[0]:
        ok = ok and horizontal_angle(splitting.unstable) > floor
    return bool(ok)


# ── restricted growth along the neutral frame ────────────────────────────────


def center_growth(cocycle, splitting, n_max):
    """Running envelope of the squared restricted norms on the neutral
    frame.

    Returns the sequence C(0), ..., C(n_max) with
    C(n) = max(1, max_{s <= n} ||A_s restricted to the neutral frame||^2),
    computed by transporting the frame with per-step re-orthonormalization.
    On ``cocycle.inverse()`` the same splitting, whose neutral frame serves
    both directions, gives it along the steps A(theta - n alpha)^-1.

    When hyperbolic directions coexist with the neutral ones, rounding
    noise in the transported frame is amplified at the top rate and would
    eventually swamp the neutral growth, so the product is rebased onto a
    freshly converged neutral frame every few steps (spacing chosen so
    the amplification between rebasings stays harmless) and the change of
    basis is absorbed into the accumulated restricted product.

    Raises
    ------
    ArgumentError
        If the splitting has no neutral directions.
    ConvergenceError
        If the transported frame drifts off the invariant one.
    """
    d_c = splitting.dims[1]
    dim = cocycle.dim
    if d_c == 0:
        raise ArgumentError("splitting has no neutral directions")
    theta, alpha = splitting.theta, cocycle.alpha
    mixed = d_c < dim
    if mixed:
        spread = float(splitting.rates[0] - splitting.rates[-1])
        rebase_every = int(np.clip(8.0 / max(spread, 1e-2), 1, 256))
        gap_rate = float(np.log(min(splitting.certificates)))
        fresh_window = int(np.clip(40.0 / max(gap_rate, 1e-6), 16,
                                   splitting.window))
    else:
        rebase_every = n_max + 1  # pure rotation-type: nothing to contaminate
        fresh_window = splitting.window
    q = splitting.center
    rprod = np.eye(d_c, dtype=complex)
    log_scale = 0.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    n = 0
    while n < n_max:
        # one segment of steps n+1 .. end, then a rebasing when mixed
        end = min(n + rebase_every, n_max)
        for q, r in transport(cocycle, q, theta + alpha * np.arange(n, end)):
            n += 1
            rprod = r @ rprod
            scale = np.linalg.norm(rprod)
            if scale == 0 or not np.isfinite(scale):
                raise ConvergenceError("restricted product degenerated at step %d" % n)
            log_scale += np.log(scale)
            rprod = rprod / scale
            log_norm = log_scale + np.log(np.linalg.norm(rprod, 2))
            if log_norm > 350.0:
                raise ConvergenceError(
                    "neutral restricted growth overflowed at step %d; "
                    "the certificates were unreliable" % n
                )
            out[n] = max(out[n - 1], float(np.exp(2.0 * log_norm)))
        if mixed:
            _, fresh, _ = _frames_at(
                cocycle, theta + n * alpha, splitting.dims, fresh_window
            )
            if _subspace_gap(q, fresh) > INVARIANCE_TOL:
                raise ConvergenceError(
                    "transported neutral frame drifted off the invariant one"
                )
            transition = fresh.conj().T @ q
            rprod = transition @ rprod
            q = fresh
    return out


# ── telescoping inequality for perturbed chains ──────────────────────────────


@dataclass(frozen=True)
class TelescopingReport:
    norm: float
    inverse_norm: float
    bound: float
    constant: float
    growth: float
    ok: bool


def telescoping_check(form, family, v_start, lip, t, n_steps, samples=4):
    """Check the perturbed-chain growth bound on a subspace chain.

    Parameters
    ----------
    form : ndarray
        Pairing matrix of the ambient structure.
    family : callable
        family(t, j) gives the j-th link (1-based) at perturbation size
        t; family(0, j) is the unperturbed link and must preserve the
        pairing.
    v_start : ndarray
        Frame spanning the first subspace of the chain.
    lip : float
        Declared Lipschitz bound: ||family(t, j) - family(0, j)|| <= lip * t.
    t : float
        Perturbation size at which the product is evaluated.
    n_steps : int
        Chain length.
    samples : int
        How many links get their Lipschitz declaration spot-checked.

    Returns
    -------
    TelescopingReport
        Restricted norm of the perturbed product, restricted norm of its
        inverse on the image chain, the envelope bound, the reverse-norm
        constant, the unperturbed growth constant, and the verdict.
    """
    v1 = orthonormal_columns(np.asarray(v_start, dtype=complex))
    base = [np.asarray(family(0.0, j), dtype=complex) for j in range(1, n_steps + 1)]
    for j, link in enumerate(base, start=1):
        if form_defect(link, form) > 1e-8:
            raise InvariantError("unperturbed link %d does not preserve the pairing" % j)

    check_at = np.unique(np.linspace(1, n_steps, min(samples, n_steps), dtype=int))
    for j in check_at:
        drift = np.linalg.norm(
            np.asarray(family(t, int(j)), dtype=complex) - base[j - 1], 2
        )
        if drift > lip * abs(t) * (1 + 1e-9) + 1e-12:
            raise ArgumentError(
                "link %d exceeds the declared Lipschitz bound: %.3e > %.3e"
                % (j, drift, lip * abs(t))
            )

    # Reverse-norm constant and unperturbed growth along the chain.
    frame = v1
    constant = reverse_norm_constant(form, frame)
    prefix = np.eye(form.shape[0], dtype=complex)
    log_pref = 0.0
    growth = 1.0
    for link in base:
        prefix = link @ prefix
        scale = np.linalg.norm(prefix, 2)
        log_pref += np.log(scale)
        prefix = prefix / scale
        growth = max(growth, float(np.exp(2.0 * (log_pref + np.log(restriction_norm(prefix, v1))))))
        frame = orthonormal_columns(link @ frame)
        constant = max(constant, reverse_norm_constant(form, frame))

    # Perturbed product, with its restricted norm and reverse restricted norm.
    prod = np.eye(form.shape[0], dtype=complex)
    log_prod = 0.0
    for j in range(1, n_steps + 1):
        prod = np.asarray(family(t, j), dtype=complex) @ prod
        scale = np.linalg.norm(prod, 2)
        prod = prod / scale
        log_prod += np.log(scale)
    log_norm = log_prod + np.log(restriction_norm(prod, v1))
    image = orthonormal_columns(prod @ v1)
    log_inverse = -log_prod + np.log(restriction_norm(np.linalg.inv(prod), image))

    log_bound = (
        np.log(constant) + np.log(growth) + constant * growth * lip * abs(t) * n_steps
    )
    ok = bool(log_norm <= log_bound + 1e-9 and log_inverse <= log_bound + 1e-9)
    return TelescopingReport(
        norm=float(np.exp(log_norm)),
        inverse_norm=float(np.exp(log_inverse)),
        bound=float(np.exp(min(log_bound, 700.0))),
        constant=float(constant),
        growth=float(growth),
        ok=ok,
    )


# ── neutral-frame variation under complexified energy ────────────────────────


@dataclass(frozen=True)
class CenterVariationReport:
    energy: float
    theta: float
    dims: tuple
    eps_grid: tuple
    checkpoints: tuple
    growth: dict
    envelope: np.ndarray
    c_growth: float
    c_lipschitz: dict
    lipschitz_stable: bool


def _fit_growth_constant(records):
    # Smallest c with value <= c * g * exp(c * g * eps * n) for every record.
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


def center_variation_check(strip, energy, theta=0.0,
                           eps_grid=(0.0, 1e-5, 1e-4, 1e-3), n_max=1024):
    """Track the neutral-frame growth of the energy-complexified cocycle.

    For each imaginary shift eps, the complexified fiber matrices are
    projected back onto the real-energy neutral frame along the
    expanding/contracting ones, and the resulting restricted products
    are compared against the envelope c * C(n) * exp(c * C(n) * eps * n),
    where C(n) is the real-energy growth sequence.  The products are
    read at the doubling checkpoints 1, 2, 4, ... up to n_max.  The
    smallest working constant is fitted by bisection and reported,
    together with per-eps Lipschitz ratios of the projected one-step
    matrices.

    Raises
    ------
    ConvergenceError
        If the projection between the neutral frames becomes
        ill-conditioned.
    """
    base = transfer_cocycle(strip, energy)
    splitting = detect_splitting(base, theta)
    dims = splitting.dims
    d_c = dims[1]
    if d_c == 0:
        raise ArgumentError("no neutral directions at this energy")
    alpha = base.alpha
    checkpoints = [1]
    while checkpoints[-1] < n_max:
        checkpoints.append(min(2 * checkpoints[-1], n_max))

    def frames_and_projector(s):
        joint = np.hstack([s.center, s.unstable, s.stable])
        if np.linalg.cond(joint) > PROJECTION_COND_MAX:
            raise ConvergenceError("projection ill-conditioned at phase %.6f" % s.theta)
        proj = joint[:, :d_c] @ np.linalg.inv(joint)[:d_c, :]
        return s.center, proj

    def station(phase):
        return frames_and_projector(compute_splitting(base, phase, dims))

    stations = {0: frames_and_projector(splitting)}
    for n in checkpoints:
        stations[n] = station(theta + n * alpha)
    envelope = center_growth(base, splitting, checkpoints[-1])

    # The Lipschitz probe's real-energy frames do not depend on eps.
    phases_lip = theta + alpha * (np.arange(8) + 0.5) / 8.0
    if any(eps_grid):
        lip_frames = [(station(phase + alpha), station(phase)[0]) for phase in phases_lip]

    growth = {}
    records = []
    lipschitz = {}
    qc0, _ = stations[0]
    orbit = theta + alpha * np.arange(checkpoints[-1])

    for eps in eps_grid:
        shifted = transfer_cocycle(strip, energy + 1j * eps) if eps else base
        qc_eps = compute_splitting(shifted, theta, dims).center if eps else qc0
        p_mat = qc0.conj().T @ stations[0][1] @ qc_eps
        if np.linalg.cond(p_mat) > PROJECTION_COND_MAX:
            raise ConvergenceError("projection ill-conditioned at the base phase")
        p_inv = np.linalg.inv(p_mat)

        rprod = np.eye(d_c, dtype=complex)
        log_scale = 0.0
        values = {}
        for n, (q, r) in enumerate(transport(shifted, qc_eps, orbit), start=1):
            rprod = r @ rprod
            scale = np.linalg.norm(rprod)
            log_scale += np.log(scale)
            rprod = rprod / scale
            if n in stations:
                qc_n, proj_n = stations[n]
                coord = qc_n.conj().T @ proj_n @ q @ rprod @ p_inv
                values[n] = float(np.exp(log_scale) * np.linalg.norm(coord, 2))
        growth[eps] = values

        if eps == 0.0:
            for n, val in values.items():
                if abs(val**2 - envelope[n]) > 1e-10 * envelope[n] and val**2 > envelope[n]:
                    raise InvariantError(
                        "zero-shift projected growth disagrees with the restricted envelope"
                    )
        else:
            for n, val in values.items():
                records.append((val, envelope[n], eps, n))
            drifts = []
            for ((qc_a, proj_a), qc_b), step_shift, step_base in zip(
                lip_frames, shifted.matrices(phases_lip), base.matrices(phases_lip)
            ):
                a_shift = qc_a.conj().T @ proj_a @ step_shift @ qc_b
                a_base = qc_a.conj().T @ step_base @ qc_b
                drifts.append(np.linalg.norm(a_shift - a_base, 2) / eps)
            lipschitz[eps] = float(max(drifts))

    c_growth = _fit_growth_constant(records) if records else 1.0
    window = [v for e, v in lipschitz.items() if 1e-5 <= e <= 1e-3]
    stable = bool(window) and max(window) <= 2.0 * min(window)
    return CenterVariationReport(
        energy=float(np.real(energy)),
        theta=float(theta),
        dims=dims,
        eps_grid=tuple(eps_grid),
        checkpoints=tuple(checkpoints),
        growth=growth,
        envelope=envelope,
        c_growth=c_growth,
        c_lipschitz=lipschitz,
        lipschitz_stable=stable,
    )
