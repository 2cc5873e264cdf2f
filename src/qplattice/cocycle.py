"""Quasi-periodic matrix cocycles over circle rotations.

A cocycle is a pair (alpha, A): the base point moves by the rotation
``x -> x + alpha`` on the circle while a matrix ``A(x)`` acts on the fiber.
Products along the orbit drive everything downstream: Lyapunov spectra,
rotation numbers, phase-complexified growth (the acceleration), and the
hyperbolic splittings.  Matrix maps must broadcast over arrays of phases
and evaluate their analytic continuation at complex phases.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ArgumentError, ConvergenceError, InvariantError
from .symplectic import pairing_matrix

__all__ = [
    "Cocycle",
    "transfer_cocycle",
    "energy_derivative_block",
    "companion_cocycle",
    "iterate",
    "finite_window_rates",
    "LyapunovEstimate",
    "lyapunov_spectrum",
    "top_lyapunov",
    "upper_lyapunov_sum",
    "rotation_number",
    "AccelerationEstimate",
    "acceleration",
    "energy_monotonicity",
]

DEFAULT_SAMPLES = 32

# Matrix entries per cocycle call in `orbit_matrices`: amortises the per-call
# overhead without letting a chunk add to a run's peak memory.
ORBIT_CHUNK_ENTRIES = 2 ** 13

# A cached block product carries a frame only when every diagonal entry of
# the QR factor of its image is at least 1 / KAPPA; the block's Frobenius
# norm is one, so the image then keeps a relative accuracy of about KAPPA
# times the rounding unit (CHANGES.md records the error against KAPPA).
KAPPA = 1e3

# Block length, in steps, from which `_window_frames` keeps its products;
# the finer products of a block that fails its certificate are rebuilt
# from the block's own stretch of the orbit.
PRODUCT_FLOOR = 64


def phase_lattice(samples):
    """Midpoint lattice on the circle used for quadrature over the phase."""
    return (np.arange(samples) + 0.5) / samples


@dataclass
class Cocycle:
    """Rotation number ``alpha`` plus a matrix map over the circle.

    ``matrix_fn`` maps an array of phases to a stack of d x d matrices
    (shape ``(..., d, d)``).  ``form`` optionally carries the skew-Hermitian
    pairing matrix the map preserves at real phases.
    """

    alpha: float
    matrix_fn: object
    dim: int
    form: np.ndarray = None

    def matrices(self, phases):
        return np.asarray(self.matrix_fn(np.asarray(phases)))

    matrix = matrices

    def inverse(self):
        """The inverse dynamics as a cocycle: rotation ``-alpha``, matrix
        ``A(x - alpha)^-1`` at x (one batched inverse per call) and the same
        pairing.  Its inverse is this very cocycle."""
        if "_inverse" in self.__dict__:
            return self._inverse
        inv = Cocycle(-self.alpha, lambda x: np.linalg.inv(self.matrices(x - self.alpha)),
                      self.dim, form=self.form)
        inv._inverse = self
        return inv


# ── builders ─────────────────────────────────────────────────────────────────

def transfer_cocycle(strip, energy):
    """One-step transfer cocycle of a strip operator at the given energy.

    Acting on states ``(u(n+1), u(n))``, the step encodes
    ``C u(n+1) + V u(n) + C* u(n-1) = E u(n)``:

        A(x) = [[C^-1 (E - V(x)), -C^-1 C*],
                [I,                0      ]]
    """
    c = strip.coupling
    m = strip.width
    cinv = np.linalg.inv(c)
    upper_right = -cinv @ c.conj().T
    eye = np.eye(m, dtype=complex)

    def matrix_fn(phases):
        phases = np.asarray(phases)
        v = np.asarray(strip.potential(strip.theta + phases))
        batch = v.shape[:-2]
        a = np.zeros(batch + (2 * m, 2 * m), dtype=complex)
        a[..., :m, :m] = cinv @ (energy * eye - v)
        a[..., :m, m:] = upper_right
        a[..., m:, :m] = eye
        return a

    return Cocycle(strip.alpha, matrix_fn, 2 * m, form=pairing_matrix(c))


def energy_derivative_block(strip):
    """d/dE of the one-step transfer matrix (constant in the phase)."""
    m = strip.width
    d = np.zeros((2 * m, 2 * m), dtype=complex)
    d[:m, :m] = np.linalg.inv(strip.coupling)
    return d


def companion_cocycle(line_op, energy):
    """Companion one-step cocycle of a finite-range line operator.

    The state stacks 2K consecutive values ``(u(n+K-1), ..., u(n-K))`` so a
    step advances one lattice site; K consecutive steps reproduce the
    transfer matrix of the folded strip.  The determinant has modulus one.
    """
    w = line_op.hopping
    k = w.range
    if k < 1:
        raise ArgumentError("companion form needs at least one hopping term")
    wk = w.coefficient(k)
    template = np.zeros((2 * k, 2 * k), dtype=complex)
    template[1:, :-1] = np.eye(2 * k - 1)
    for j in range(2 * k):
        shift = k - 1 - j  # state slot j holds u_{n + shift}
        if shift == 0 or j == 2 * k - 1:
            continue
        template[0, j] = -w.coefficient(shift) / wk
    template[0, 2 * k - 1] = -w.coefficient(-k) / wk
    w0 = w.coefficient(0)

    def matrix_fn(phases):
        phases = np.asarray(phases)
        pot = line_op.epsilon * line_op.potential.value(line_op.theta + phases)
        pot = np.asarray(pot)
        a = np.broadcast_to(template, np.shape(pot) + (2 * k, 2 * k)).copy()
        a[..., 0, k - 1] = (energy - w0 - pot) / wk
        return a

    form = None
    if k == 1:
        form = pairing_matrix(np.array([[wk]]))
    return Cocycle(line_op.alpha, matrix_fn, 2 * k, form=form)


# ── products ─────────────────────────────────────────────────────────────────

def iterate(cocycle, theta, n):
    """Product of n steps starting at ``theta`` (inverse steps for n < 0).

    ``iterate(c, x, -n)`` is the product of the inverse cocycle's n steps
    from ``x``: the inverse of the forward product based at ``x - n alpha``,
    which is the standard two-sided extension.  Plain products only: for
    long hyperbolic runs use the QR-based routines.
    """
    if n < 0:
        return iterate(cocycle.inverse(), theta, -n)
    out = np.eye(cocycle.dim, dtype=complex)
    for a in orbit_matrices(cocycle, theta + cocycle.alpha * np.arange(n)):
        out = a @ out
    return out


def _orbit_chunks(cocycle, phases, block=1):
    """Fiber matrices along an orbit (steps on the first axis of ``phases``),
    one stack per cocycle call; a stack holds a whole number of ``block``
    steps and about ``ORBIT_CHUNK_ENTRIES`` matrix entries."""
    phases = np.asarray(phases)
    batch = int(np.prod(phases.shape[1:]))
    chunk = block * max(1, ORBIT_CHUNK_ENTRIES // (block * batch * cocycle.dim ** 2))
    for start in range(0, len(phases), chunk):
        part = phases[start:start + chunk]
        # a map that ignores its phases returns one matrix for the whole part
        yield np.broadcast_to(cocycle.matrices(part),
                              part.shape + (cocycle.dim, cocycle.dim))


def orbit_matrices(cocycle, phases):
    """Fiber matrices along an orbit, one step (first axis of ``phases``)
    at a time, from one cocycle call per chunk of steps."""
    for stack in _orbit_chunks(cocycle, phases):
        yield from stack


def transport(cocycle, q, phases):
    """Yield ``(q, r) = qr(A q)`` per step of the orbit, carrying the frame
    ``q`` forward; pass ``cocycle.inverse()`` to carry it backward."""
    for a in orbit_matrices(cocycle, phases):
        q, r = np.linalg.qr(a @ q)
        yield q, r


# ── cached orbit products ────────────────────────────────────────────────────

def _pair_products(mats):
    # Products of consecutive pairs in transport order (the later factor on
    # the left), each scaled to unit Frobenius norm.
    p = mats[1::2] @ mats[0::2]
    return p / np.linalg.norm(p, axis=(-2, -1), keepdims=True)


def _level_products(mats):
    # Every level of the pairwise product tree over a power-of-two stack.
    levels = [mats]
    while len(levels[-1]) > 1:
        levels.append(_pair_products(levels[-1]))
    return levels


class _Segment:
    """Product tree over a power-of-two stretch of the orbit, in transport
    order, kept from blocks of ``PRODUCT_FLOOR`` steps up, and the pieces
    (start, length, matrix) that last carried a frame across it."""

    def __init__(self, cocycle, phases):
        self.cocycle = cocycle
        self.phases = phases
        self.floor = min(PRODUCT_FLOOR, len(phases))
        blocks = []
        for p in _orbit_chunks(cocycle, phases, self.floor):
            steps = len(p)
            while len(p) * self.floor > steps:
                p = _pair_products(p)
            blocks.append(p)
        self.levels = _level_products(np.concatenate(blocks))
        self.pieces = [(0, len(phases), self.levels[-1][0])]
        self._finer = None

    def carry(self, q):
        # Cross the pieces in order.  A piece whose image loses a direction
        # to rounding (the certificate fails) gives way to its two halves
        # for this and every later frame, down to single transport steps,
        # which need no certificate.
        kept, todo = [], self.pieces[::-1]
        while todo:
            piece = todo.pop()
            start, length, mat = piece
            moved, r = np.linalg.qr(mat @ q)
            if length > 1 and KAPPA * np.abs(np.diagonal(r)).min() < 1.0:
                todo += self._halves(start, length)[::-1]
                continue
            q = moved
            kept.append(piece)
        self.pieces = kept
        self._finer = None
        return q

    def _halves(self, start, length):
        half = length // 2
        if half >= self.floor:
            offset, level = 0, self.levels[(half // self.floor).bit_length() - 1]
        else:
            # below the floor: rebuild the block's levels from its own stretch
            # of the orbit, with the raw steps at the bottom
            block = start - start % self.floor
            if self._finer is None or self._finer[0] != block:
                (a,) = _orbit_chunks(self.cocycle,
                                     self.phases[block:block + self.floor], self.floor)
                self._finer = (block, _level_products(a))
            offset, level = self._finer[0], self._finer[1][half.bit_length() - 1]
        k = (start - offset) // half
        return [(start, half, level[k].copy()), (start + half, half, level[k + 1].copy())]


def _window_frames(cocycle, q, theta, n_start, n_max):
    """Yield ``(n, frame)`` for the windows n = n_start, 2 n_start, ... up to
    n_max: the frame ``q`` pushed forward across the n steps that end at
    ``theta``, as the per-step ``transport`` would carry it.  On the inverse
    cocycle that pulls the frame back across the n steps of the original
    orbit that start at ``theta``.

    Each doubling builds the product tree of its new far half once and keeps
    every earlier one.  The frame starts at the far end and crosses each
    tree by its largest blocks whose certificate holds (see ``KAPPA``),
    down to single transport steps.
    """
    segments = []
    done, n = 0, n_start
    while n <= n_max:
        segments.append(_Segment(cocycle, theta + cocycle.alpha * np.arange(-n, -done)))
        frame = q
        for segment in reversed(segments):
            frame = segment.carry(frame)
        yield n, frame
        done, n = n, 2 * n


def _qr_engine(cocycle, phases, n_steps, top):
    """Batched QR evolution; returns per-sample log-diagonal sums (S, top)."""
    phases = np.atleast_1d(np.asarray(phases, dtype=complex)
                           if np.iscomplexobj(phases) else np.asarray(phases, dtype=float))
    ns = len(phases)
    if n_steps < 1 or ns == 0:
        raise ArgumentError("QR evolution needs at least one step and one phase")
    d = cocycle.dim
    q = np.broadcast_to(np.eye(d, dtype=complex)[:, :top], (ns, d, top)).copy()
    acc = np.zeros((ns, top))
    orbit = phases + cocycle.alpha * np.arange(n_steps)[:, None]
    for _, r in transport(cocycle, q, orbit):
        diag = np.abs(np.einsum("sii->si", r))
        if np.any(diag <= 0):
            raise InvariantError("singular step in QR evolution")
        acc += np.log(diag)
    return acc


@dataclass
class LyapunovEstimate:
    exponents: np.ndarray     # mean over phase samples, descending
    spread: float             # worst per-exponent std over samples
    per_sample: np.ndarray    # (samples, top) individual estimates


def lyapunov_spectrum(cocycle, n_steps, samples=DEFAULT_SAMPLES, top=None,
                      phases=None):
    """Lyapunov exponents via QR evolution, averaged over a phase lattice.

    Returns a :class:`LyapunovEstimate`; ``spread`` is the largest sample
    standard deviation across the computed exponents and is the natural
    error bar for lattice averaging.
    """
    if top is None:
        top = cocycle.dim
    if phases is None:
        phases = phase_lattice(samples)
    acc = _qr_engine(cocycle, phases, n_steps, top)
    per_sample = acc / n_steps
    exponents = per_sample.mean(axis=0)
    spread = float(per_sample.std(axis=0).max()) if len(per_sample) > 1 else 0.0
    return LyapunovEstimate(exponents, spread, per_sample)


def top_lyapunov(cocycle, n_steps, samples=DEFAULT_SAMPLES, phases=None):
    """Convenience wrapper returning (top exponent, spread)."""
    est = lyapunov_spectrum(cocycle, n_steps, samples=samples, top=1,
                            phases=phases)
    return float(est.exponents[0]), est.spread


def upper_lyapunov_sum(cocycle, j_top, n_steps, samples=DEFAULT_SAMPLES,
                       phases=None):
    """Sum of the leading ``j_top`` exponents (a QR frame of that width)."""
    est = lyapunov_spectrum(cocycle, n_steps, samples=samples, top=j_top,
                            phases=phases)
    sums = est.per_sample.sum(axis=1)
    return float(sums.mean()), (float(sums.std()) if len(sums) > 1 else 0.0)


def finite_window_rates(cocycle, theta, n_steps):
    """Growth rates of one finite window product, sorted descending."""
    acc = _qr_engine(cocycle, [theta], n_steps, cocycle.dim)
    return np.sort(acc[0] / n_steps)[::-1]


# ── rotation number ──────────────────────────────────────────────────────────

def rotation_number(cocycle, n_steps, samples=8, phases=None):
    """Fibered rotation number of a real one-channel cocycle, mod 1.

    Tracks the projective angle of a nonzero solution vector; a constant
    rotation by ``phi`` yields ``phi / 2 pi``.  Only real 2x2 cocycles with
    positive determinant carry a well-defined lift, so anything else raises.
    """
    if cocycle.dim != 2:
        raise ArgumentError("rotation number implemented for 2x2 cocycles")
    if phases is None:
        phases = phase_lattice(samples)
    probe = cocycle.matrices(np.atleast_1d(phases)[:1])
    if np.abs(np.imag(probe)).max() > 1e-12:
        raise ArgumentError("rotation number needs a real cocycle")
    if np.linalg.det(np.real(probe[0])) <= 0:
        raise ArgumentError("rotation number needs positive determinant")
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    ns = len(phases)
    v = np.tile(np.array([1.0, 0.0]), (ns, 1))
    total = np.zeros(ns)
    ang = np.arctan2(v[:, 1], v[:, 0])
    orbit = phases + cocycle.alpha * np.arange(n_steps)[:, None]
    for mats in orbit_matrices(cocycle, orbit):
        v = np.einsum("sij,sj->si", np.real(mats), v)
        new_ang = np.arctan2(v[:, 1], v[:, 0])
        delta = new_ang - ang
        delta -= 2 * np.pi * np.round(delta / (2 * np.pi))
        total += delta
        ang = new_ang
        v /= np.linalg.norm(v, axis=1)[:, None]
    rho = (total / (2 * np.pi * n_steps)) % 1.0
    # average on the circle to avoid wrap artifacts near 0
    mean = np.angle(np.mean(np.exp(2j * np.pi * rho))) / (2 * np.pi) % 1.0
    spread = float(np.abs(np.exp(2j * np.pi * rho)
                          - np.exp(2j * np.pi * mean)).max()) / (2 * np.pi)
    return float(mean), spread


# ── acceleration ─────────────────────────────────────────────────────────────

@dataclass
class AccelerationEstimate:
    value: float          # fitted slope / 2 pi
    rounded: int          # nearest integer (quantization candidate)
    residual: float       # worst deviation of the affine fit
    exponents: np.ndarray  # top exponent at each imaginary phase shift


def acceleration(strip, energy, y_grid=None, n_steps=20000,
                 samples=DEFAULT_SAMPLES, fit_tol=1e-3):
    """Slope of the top exponent under a complex phase shift, over 2 pi.

    Evaluates the top exponent of the strip's transfer cocycle at phases
    shifted by ``i y`` for each ``y`` in the grid and fits an affine
    function; the slope divided by ``2 pi`` is the acceleration.  The
    profile is piecewise affine with corners, so a fit residual above
    ``fit_tol`` means the grid straddles a corner and the call raises
    rather than reporting a blended slope.
    """
    if y_grid is None:
        y_grid = np.linspace(0.0, 0.01, 6)
    y_grid = np.asarray(y_grid, dtype=float)
    cocycle = transfer_cocycle(strip, energy)
    base = phase_lattice(samples)
    tops = []
    for y in y_grid:
        est = lyapunov_spectrum(cocycle, n_steps, top=1,
                                phases=base + 1j * y)
        tops.append(float(est.exponents[0]))
    tops = np.asarray(tops)
    coeffs = np.polyfit(y_grid, tops, 1)
    fit = np.polyval(coeffs, y_grid)
    residual = float(np.abs(fit - tops).max())
    if residual > fit_tol:
        raise ConvergenceError(
            "exponent profile is not affine over the shift grid "
            "(residual %.2e); the grid straddles a corner" % residual
        )
    value = float(coeffs[0] / (2 * np.pi))
    return AccelerationEstimate(value, int(np.rint(value)), residual, tops)


# ── energy derivative pairing ────────────────────────────────────────────────

def energy_monotonicity(strip, energy, theta, vector):
    """Pairing of the energy derivative of a two-step product with the orbit.

    For the two-step product ``A2(x) = A(x + alpha) A(x)`` and any state
    ``v``, the pairing ``<d/dE A2 v, A2 v>`` equals
    ``-(||v_top||^2 + ||(A v)_top||^2)`` where ``top`` is the leading block
    of the state.  Returns ``(value, reference)``.
    """
    cocycle = transfer_cocycle(strip, energy)
    v = np.asarray(vector, dtype=complex).reshape(cocycle.dim)
    m = strip.width
    a0 = cocycle.matrix(theta)
    a1 = cocycle.matrix(theta + strip.alpha)
    d = energy_derivative_block(strip)
    d2 = d @ a0 + a1 @ d
    s = cocycle.form
    w = a0 @ v
    value = complex(np.conj(d2 @ v) @ s @ (a1 @ w))
    reference = -(float(np.linalg.norm(v[:m]) ** 2)
                  + float(np.linalg.norm(w[:m]) ** 2))
    return value, reference
