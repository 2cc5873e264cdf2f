"""Dominated splittings: invariant frames, gap certificates, center growth.

A cocycle over an irrational rotation is split into fast-expanding,
neutral, and fast-contracting frames by windowed subspace iteration.
Two nested frames are swept along an orbit: one pushed forward, whose
leading columns span the expanding directions and whose full span adds
the neutral ones, and one pulled back on the inverse cocycle, likewise
holding the contracting and then the neutral directions.  Each crosses
its window on the boundary matrices' certified block products
(`cocycle._Segment`) and attracts in its own direction of time, so one
sweep each way gives both at every phase, and the neutral frame is their
intersection (covariant Lyapunov vectors, as in Ginelli et al. 2007).
The frames feed the vertical-angle tests, the restricted-growth
envelopes, and the telescoping / center-variation bounds.
"""

import numpy as np
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
from .cocycle import (
    _Segment,
    _block_prefixes,
    _orbit_batches,
    _orbit_chunks,
    _state_sweep,
    finite_window_rates,
    transfer_cocycle,
)

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


def _random_frame(dim, n_cols, seed):
    rng = np.random.default_rng(seed)
    return orthonormal_columns(
        rng.standard_normal((dim, n_cols)) + 1j * rng.standard_normal((dim, n_cols))
    )


def _carried_frames(cocycle, theta, n_window, n_steps, n_cols, seed):
    # Push a random frame across the window ending at theta, in
    # power-of-two stretches of cached block products from its far end,
    # then one QR per step for n_steps more; it converges onto the
    # fastest-expanding image directions (on the inverse cocycle, the
    # most-contracted ones of the window starting there).  Returns the
    # stack of frames at theta + n alpha for n = 0 .. n_steps.
    q = _random_frame(cocycle.dim, n_cols, seed)
    while n_window > 0:
        length = 1 << (n_window.bit_length() - 1)
        q = _Segment(cocycle, theta + cocycle.alpha
                     * np.arange(-n_window, length - n_window)).carry(q)
        n_window -= length
    return _qr_walk(_orbit_chunks(cocycle, theta + cocycle.alpha * np.arange(n_steps)), q)


def _qr_walk(stacks, q):
    # The frame q and its images under the stacks' matrices in turn, one QR each.
    frames = [q]
    for stack in stacks:
        for a in stack:
            frames.append(np.linalg.qr(a @ frames[-1])[0])
    return np.stack(frames)


def _frames_along(cocycle, theta, dims, n_window, n_steps=0):
    # Stacks of the expanding, neutral and contracting frames at
    # theta + n alpha for n = 0 .. n_steps, from one sweep each way.
    # Orthogonal iteration nests: the leading k columns of a converged
    # frame span its k fastest directions.  The neutral frame spans the
    # null space of [fwd, -bwd], found with scipy's null_space rank rule;
    # its dimension is checked, not the rank: a full-rank [fwd, -bwd]
    # leaves no common direction.
    d_u, d_c, d_s = dims
    dim = cocycle.dim
    if d_c == dim:
        eye = np.tile(np.eye(dim, dtype=complex), (n_steps + 1, 1, 1))
        return eye[..., :0], eye, eye[..., :0]
    fwd = _carried_frames(cocycle, theta, n_window, n_steps, d_u + d_c, seed=1)
    bwd = _carried_frames(cocycle.inverse(), theta + n_steps * cocycle.alpha,
                          n_window, n_steps, d_s + d_c, seed=2)[::-1]
    _, s, vh = np.linalg.svd(np.concatenate([fwd, -bwd], axis=-1))
    n_cols = vh.shape[-1]
    tol = np.finfo(s.dtype).eps * max(dim, n_cols) * s.max(axis=-1, initial=0.0)
    nullity = n_cols - (s > tol[:, None]).sum(axis=-1)
    wrong = np.flatnonzero(nullity != d_c)
    if len(wrong):
        raise ConvergenceError(
            "neutral frame has dimension %d, expected %d" % (nullity[wrong[0]], d_c)
        )
    coeff = vh[:, n_cols - d_c:, :d_u + d_c].conj().swapaxes(-2, -1)
    return fwd[..., :d_u], orthonormal_columns(fwd @ coeff), bwd[..., :d_s]


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

    fast, center, slow = frames = [f[0] for f in _frames_along(cocycle, theta, dims, n_window)]

    # One-step invariance: pushing each frame through the fiber matrix
    # must land on the frame converged independently at the next phase,
    # up to the sin of the largest principal angle.
    if d_c < dim:
        a = cocycle.matrix(theta)
        following = [f[0] for f in _frames_along(cocycle, theta + cocycle.alpha, dims, n_window)]
        residual = max(
            np.sin(principal_angles(orthonormal_columns(a @ frame), target)[-1])
            for frame, target in zip(frames, following) if frame.shape[1]
        )
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


def _neutral_products(cocycle, splitting, n_max):
    """The restricted products on the splitting's neutral frame as arrays
    over the steps n = 0 .. n_max: the swept neutral frames ``q``,
    ``log_scale`` and ``rprod``, with ``exp(log_scale[n]) * q[n] @ rprod[n]``
    the n-step product on the frame; step 0 is the splitting's center,
    0 and the identity, so each index is its step.

    The frame is not carried: each step maps the neutral frame at one
    phase onto the one swept at the next and keeps the restricted step
    ``q_n^H A q_(n-1)``.  Rounding off the neutral frame therefore never
    enters the product to be amplified at the top rate, so no rebasing
    onto fresh frames is needed; what the image leaves outside the next
    frame is checked against the invariance tolerance instead, and the
    first step that fails raises before any product is formed.  The
    restricted steps, stacked per batch of the orbit, are carried as the
    columns of the identity on `cocycle._state_sweep`: ``log_scale`` is
    the largest column log and ``rprod`` the columns rescaled to it.  A
    non-finite step, or a column the product maps to zero, raises the
    sweep's ``ConvergenceError``.
    """
    eye = np.eye(splitting.dims[1])
    _, q, _ = _frames_along(cocycle, splitting.theta, splitting.dims, splitting.window, n_max)
    q[0] = splitting.center
    restricted, first = [], 1
    for mats in _orbit_batches(cocycle, splitting.theta + cocycle.alpha * np.arange(n_max)):
        images = mats @ q[first - 1:first + len(mats) - 1]
        to = q[first:first + len(mats)]
        step = to.conj().swapaxes(-2, -1) @ images
        off = np.flatnonzero(np.linalg.norm(images - to @ step, axis=(-2, -1))
                             > INVARIANCE_TOL * np.linalg.norm(images, axis=(-2, -1)))
        if len(off):
            raise ConvergenceError("neutral frame not invariant at step %d" % (first + off[0]))
        restricted.append(step[:, None])
        first += len(mats)

    log_scale, rprod = [np.zeros(1)], [eye[None]]
    for states, logs in _state_sweep(restricted, eye):
        log_scale.append(logs.max(axis=-1))
        rprod.append(states.swapaxes(-2, -1) * np.exp(logs - log_scale[-1][:, None])[:, None])
    return q, np.concatenate(log_scale), np.concatenate(rprod)


def _restricted_growth(log_scale, rprod):
    # Squared restricted norms of the products and their running maximum;
    # a norm past e^350 raises at its step.
    log_norm = log_scale + np.log(np.linalg.norm(rprod, 2, axis=(-2, -1)))
    over = np.flatnonzero(log_norm > 350.0)
    if len(over):
        raise ConvergenceError("neutral restricted growth overflowed at step %d; "
                               "the certificates were unreliable" % over[0])
    norms = np.exp(2.0 * log_norm)
    return norms, np.maximum.accumulate(norms)


def center_growth(cocycle, splitting, n_max):
    """Running envelope of the squared restricted norms on the neutral
    frame.

    Returns the sequence C(0), ..., C(n_max) with
    C(n) = max(1, max_{s <= n} ||A_s restricted to the neutral frame||^2),
    computed from the restricted one-step matrices between the neutral
    frames swept along the orbit.
    On ``cocycle.inverse()`` the same splitting, whose neutral frame serves
    both directions, gives it along the steps A(theta - n alpha)^-1.

    Raises
    ------
    ArgumentError
        If the splitting has no neutral directions, or ``n_max`` is
        negative.
    ConvergenceError
        If the restricted product degenerates or overflows, or a step
        leaves the neutral frame.
    """
    if splitting.dims[1] == 0:
        raise ArgumentError("splitting has no neutral directions")
    if n_max < 0:
        raise ArgumentError("n_max must be non-negative, got %d" % n_max)
    return _restricted_growth(*_neutral_products(cocycle, splitting, n_max)[1:])[1]


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
    constant = reverse_norm_constant(form, v1)  # v_start is checked before any link
    if n_steps < 1:
        raise ArgumentError("the chain needs at least one link")

    # Each link once at 0 and once at t; the first that breaks the pairing
    # or, where spot-checked, the declared Lipschitz bound raises.
    links = np.array([family(0.0, j) for j in range(1, n_steps + 1)], dtype=complex)
    moved = np.array([family(t, j) for j in range(1, n_steps + 1)], dtype=complex)
    broken = form_defect(links, form) > 1e-8
    drift = np.zeros(n_steps)
    check_at = np.linspace(1, n_steps, min(samples, n_steps), dtype=int) - 1
    drift[check_at] = np.linalg.norm(moved[check_at] - links[check_at], 2, axis=(-2, -1))
    faults = np.flatnonzero(broken | (drift > lip * abs(t) * (1 + 1e-9) + 1e-12))
    if len(faults) and broken[faults[0]]:
        raise InvariantError("unperturbed link %d does not preserve the pairing" % (faults[0] + 1))
    if len(faults):
        raise ArgumentError("link %d exceeds the declared Lipschitz bound: %.3e > %.3e"
                            % (faults[0] + 1, drift[faults[0]], lip * abs(t)))

    # Both chains' running products, 2**expo * prefix; the growth is the
    # largest squared restricted norm of the unperturbed ones.
    prefix, expo = _block_prefixes(np.stack([links, moved], axis=1), n_steps)
    log_reach = (np.log(np.linalg.norm(prefix[:, 0] @ v1, 2, axis=(-2, -1)))
                 + expo[:, 0] * np.log(2.0))
    growth = max(1.0, float(np.exp(2.0 * log_reach.max())))
    frames = _qr_walk([links], v1)[1:]
    constant = max(constant, float(reverse_norm_constant(form, frames).max()))

    prod, log_prod = prefix[-1, 1], expo[-1, 1] * np.log(2.0)
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
    # Smallest c with value <= c * g * exp(c * g * eps * n) for every
    # record: with t = eps * n, x = c * g * t solves x e^x = value * t, so
    # c = W(value * t) / (t * g), W the principal branch of Lambert's W.
    # Imported here: scipy.special adds about 3.5 MB and 0.1 s to every
    # import of the package, and only this fit needs it.
    from scipy.special import lambertw

    value, g, eps, n = np.asarray(records, dtype=float).T
    t = eps * n
    c = lambertw(value * t).real / (t * g)
    return float(np.clip(c.max(), 1e-12, 1e12))


def center_variation_check(strip, energy, theta=0.0,
                           eps_grid=(0.0, 1e-5, 1e-4, 1e-3), n_max=1024):
    """Track the neutral-frame growth of the energy-complexified cocycle.

    For each imaginary shift eps, the complexified fiber matrices are
    projected back onto the real-energy neutral frame along the
    expanding/contracting ones, and the resulting restricted products
    are compared against the envelope c * C(n) * exp(c * C(n) * eps * n),
    where C(n) is the real-energy growth sequence.  The products are
    read at the doubling checkpoints 1, 2, 4, ... up to n_max.  The
    smallest working constant, in closed form through Lambert's W, is
    reported, together with per-eps Lipschitz ratios of the projected
    one-step matrices.  One sweep of the real-energy products gives the
    envelope and the zero shift's values; at each checkpoint the squared
    projected value must equal the squared restricted norm there (not
    its running maximum) to 1e-10 relative, in either direction.

    Raises
    ------
    ConvergenceError
        If the projection between the neutral frames becomes
        ill-conditioned.
    InvariantError
        If the zero-shift values disagree with the restricted norms.
    """
    if n_max < 1 or any(eps < 0 for eps in eps_grid):
        raise ArgumentError("n_max must be at least one and every shift non-negative")
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

    def frames_and_projector(phases, fast, center, slow):
        # Neutral frames and the projectors onto them along the others.
        joint = np.concatenate([center, fast, slow], axis=-1)
        bad = np.flatnonzero(np.linalg.cond(joint) > PROJECTION_COND_MAX)
        if len(bad):
            raise ConvergenceError("projection ill-conditioned at phase %.6f" % phases[bad[0]])
        return center, joint[..., :d_c] @ np.linalg.inv(joint)[..., :d_c, :]

    # The stations at theta and at the checkpoints come from one sweep over
    # twice the splitting's window, so the zero-shift comparison does not
    # read the frames of the envelope's own sweep.  The base products give
    # the envelope and the zero shift's values.
    at = np.array(checkpoints)
    swept = _frames_along(base, theta, dims, 2 * splitting.window, checkpoints[-1])
    qc, proj = frames_and_projector(theta + np.r_[0, at] * alpha,
                                    *(f[np.r_[0, at]] for f in swept))
    stations = qc[1:].conj().swapaxes(-2, -1) @ proj[1:]
    products = _neutral_products(base, splitting, checkpoints[-1])
    norms, envelope = _restricted_growth(*products[1:])

    # The Lipschitz probes' real-energy frames do not depend on eps; one
    # sweep per probe gives its frame and the next phase's projector.
    phases_lip = theta + alpha * (np.arange(8) + 0.5) / 8.0
    if any(eps_grid):
        fast, center, slow = (np.stack(f) for f in zip(*(
            _frames_along(base, phase, dims, splitting.window, 1) for phase in phases_lip)))
        qc_a, proj_a = frames_and_projector(phases_lip + alpha,
                                            fast[:, 1], center[:, 1], slow[:, 1])
        qc_b = center[:, 0]

    growth, records, lipschitz = {}, [], {}

    for eps in eps_grid:
        shifted = transfer_cocycle(strip, energy + 1j * eps) if eps else base
        split_eps = compute_splitting(shifted, theta, dims) if eps else splitting
        p_mat = qc[0].conj().T @ proj[0] @ split_eps.center
        if np.linalg.cond(p_mat) > PROJECTION_COND_MAX:
            raise ConvergenceError("projection ill-conditioned at the base phase")
        p_inv = np.linalg.inv(p_mat)

        q, log_scale, rprod = (_neutral_products(shifted, split_eps, checkpoints[-1])
                               if eps else products)
        values = np.exp(log_scale[at]) * np.linalg.norm(
            stations @ q[at] @ rprod[at] @ p_inv, 2, axis=(-2, -1))
        growth[eps] = dict(zip(checkpoints, values.tolist()))

        if eps == 0.0:
            off = np.flatnonzero(np.abs(values**2 - norms[at]) > 1e-10 * norms[at])
            if len(off):
                raise InvariantError("zero-shift projected growth disagrees with the "
                                     "restricted norm at step %d" % at[off[0]])
        else:
            records += [(val, envelope[n], eps, n) for n, val in growth[eps].items()]
            a_shift = qc_a.conj().swapaxes(-2, -1) @ proj_a @ shifted.matrices(phases_lip) @ qc_b
            a_base = qc_a.conj().swapaxes(-2, -1) @ base.matrices(phases_lip) @ qc_b
            lipschitz[eps] = float(np.linalg.norm(a_shift - a_base, 2, axis=(-2, -1)).max() / eps)

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
