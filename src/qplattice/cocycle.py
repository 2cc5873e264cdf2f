"""Quasi-periodic matrix cocycles over circle rotations.

A cocycle is a pair (alpha, A): the base point moves by the rotation
``x -> x + alpha`` on the circle while a matrix ``A(x)`` acts on the fiber.
Products along the orbit drive everything downstream: Lyapunov spectra,
rotation numbers, phase-complexified growth (the acceleration), and the
hyperbolic splittings.  Matrix maps take arrays of phases, complex ones
too (the analytic continuation), and may ignore them (`Cocycle.matrices`).
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
ACCELERATION_FIT_TOL = 1e-3

# Matrix entries per cocycle call in `_orbit_chunks`: amortises the per-call
# overhead without letting a chunk add to a run's peak memory.
ORBIT_CHUNK_ENTRIES = 2 ** 13

# A cached block product carries a frame only when every diagonal entry of
# the QR factor of its image is at least 1 / KAPPA; the block's Frobenius
# norm is one, so the image then keeps a relative accuracy of about KAPPA
# times the rounding unit (CHANGES.md records the error against KAPPA).
KAPPA = 1e3

# Block length, in steps, from which a `_Segment` keeps its products; the
# finer products of a block that fails its certificate are rebuilt from
# the block's own stretch of the orbit.
PRODUCT_FLOOR = 64

# Steps per aligned block of `_state_sweep`, and most steps per batch of
# stacked per-step work: a batch's temporaries stay below one chunk's.
SWEEP_BLOCK = 32
SWEEP_BATCH = 8 * SWEEP_BLOCK

# Longest block, in steps, across which `_qr_engine` carries its frame
# with one QR.
BLOCK_STEPS = 8

# A block carries the QR frame only when it is finite and every diagonal
# entry of R for its image is at least ||block||_F / BLOCK_BOUND at every
# phase.  The rounding of the product, relative to the block's norm, then
# moves each log |r_ii| by at most about BLOCK_BOUND times as much.
# Measured against one QR per step: per-sample exponents within 1.0e-10
# on an 8-step window, 7.4e-12 over 10^4 steps (test_02's 50 cocycles)
# and 9.3e-11 in the benchmark's CLI values.  At BLOCK_BOUND = 1e3 most
# blocks fail and the engine is slower than one QR per step.
BLOCK_BOUND = 1e8


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
        """Matrices at ``phases``, shape ``phases.shape + (d, d)``: the one
        matrix of a map that ignores its phases comes back broadcast."""
        phases = np.asarray(phases)
        mats = np.asarray(self.matrix_fn(phases))
        shape = phases.shape + (self.dim, self.dim)
        return mats if mats.shape == shape else np.broadcast_to(mats, shape)

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
    long hyperbolic runs use the QR-based routines.  A product that
    overflows raises ``ConvergenceError``.
    """
    if n < 0:
        return iterate(cocycle.inverse(), theta, -n)
    out = np.eye(cocycle.dim, dtype=complex)
    for stack in _orbit_chunks(cocycle, theta + cocycle.alpha * np.arange(n)):
        with np.errstate(over="ignore", invalid="ignore"):
            for a in stack:
                out = a @ out
        if not np.isfinite(out).all():
            raise ConvergenceError("plain product overflowed along the orbit")
    return out


def _orbit_chunks(cocycle, phases, block=1):
    """Fiber matrices along an orbit (steps on the first axis of ``phases``),
    one stack per cocycle call; a stack holds a whole number of ``block``
    steps and about ``ORBIT_CHUNK_ENTRIES`` matrix entries.  A non-finite
    step raises ``ConvergenceError``."""
    phases = np.asarray(phases)
    batch = int(np.prod(phases.shape[1:]))
    chunk = block * max(1, ORBIT_CHUNK_ENTRIES // (block * batch * cocycle.dim ** 2))
    for start in range(0, len(phases), chunk):
        stack = cocycle.matrices(phases[start:start + chunk])
        if not np.isfinite(stack).all():
            raise ConvergenceError("non-finite step along the orbit")
        yield stack


# ── state sweeps ────────────────────────────────────────────────────────────

def _batches(chunks):
    # Views of at most SWEEP_BATCH steps into each stack: whole aligned
    # SWEEP_BLOCK blocks, or its last partial block (a batch comes back whole).
    for mats in chunks:
        whole = len(mats) - len(mats) % SWEEP_BLOCK
        edges = [*range(0, whole, SWEEP_BATCH), whole, len(mats)]
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                yield mats[lo:hi]


def _orbit_batches(cocycle, phases):
    """Fiber matrices along an orbit in the batches of `_batches`: the
    layout of every stacked per-step computation, `_state_sweep`'s too."""
    return _batches(_orbit_chunks(cocycle, phases, SWEEP_BLOCK))


def _pow2_scale(p):
    # Scale each matrix of the contiguous stack p in place by the power of
    # two that brings its largest entry into [1, 2); return the exponents
    # that undo it.  The scaling is exact, so products of scaled matrices
    # keep the bits of the unscaled ones wherever those stay finite.
    real = p.view(np.float64) if np.iscomplexobj(p) else p
    biggest = np.abs(real).max(axis=(-2, -1))
    if not np.isfinite(biggest).all():
        raise ConvergenceError("non-finite step in the state sweep")
    expo = np.frexp(biggest)[1] - 1
    real *= np.ldexp(1.0, -expo)[..., None, None]
    return expo


def _block_prefixes(mats, size):
    # Prefix products within each block of `size` steps of a batch, in
    # transport order (the later step on the left), by a Hillis-Steele scan:
    # at level s every step at least s into its block takes on the prefix
    # ending s steps earlier.  The product at step n is prefix[n] * 2**expo[n].
    prefix = np.array(mats)
    expo = _pow2_scale(prefix)
    size = min(len(prefix), size)
    p = prefix.reshape((-1, size) + prefix.shape[1:])
    e = expo.reshape((-1, size) + expo.shape[1:])
    s = 1
    while s < size:
        product = p[:, s:] @ p[:, :-s]
        level = _pow2_scale(product)
        p[:, s:] = product
        e[:, s:] += e[:, :-s] + level
        s *= 2
    return prefix, expo


def _state_sweep(chunks, v):
    """Carry the unit states ``v`` (shape ``(..., d)``) along ``chunks``,
    stacks of fiber matrices in the order they act, each a whole number
    of ``SWEEP_BLOCK`` steps but the last (`_orbit_batches` gives them).
    The steps' batch axes broadcast against the states': steps of shape
    ``(n, 1, d, d)`` carry a frame ``v`` of d states, one per row.

    Yields ``(states, logs)`` per batch (`_batches`): unit states after
    each step and the logs of their norms, so that ``v`` carried over the
    batch's first k steps is ``exp(logs[k-1]) * states[k-1]``.  A state
    crosses each block with one product by the block's prefixes, which
    carry exact power-of-two scales and stay finite wherever the steps
    are.  A state lying in a direction that a block contracts past the
    range of floating point underflows in the block's product; that block
    then goes through the same block loop again at blocks of one step.
    A non-finite step, or a state that one step maps to zero, raises
    ``ConvergenceError``.
    """
    v = np.asarray(v)
    log = np.zeros(v.shape[:-1])
    for mats in _batches(chunks):
        states, logs = _sweep_blocks(mats, v, log, SWEEP_BLOCK)
        v, log = states[-1], logs[-1]
        yield states, logs


def _sweep_blocks(mats, v, log, size):
    # The unit states and log norms of v carried across one batch, one
    # product per block of `size` steps.
    prefix, expo = _block_prefixes(mats, size)
    batch = (len(prefix),) + np.broadcast_shapes(prefix.shape[1:-2], v.shape[:-1])
    states = np.empty(batch + v.shape[-1:], dtype=np.result_type(prefix, v))
    logs = np.empty(batch)
    for start in range(0, len(prefix), size):
        block = slice(start, start + size)
        w = (prefix[block] @ v[..., None])[..., 0]
        norm = np.linalg.norm(w, axis=-1)
        if norm.all():
            states[block] = w / norm[..., None]
            logs[block] = log + (np.log(norm) + expo[block] * np.log(2.0))
        elif size > 1:
            states[block], logs[block] = _sweep_blocks(mats[block], v, log, 1)
        else:
            raise ConvergenceError("state vanished in the state sweep")
        v, log = states[block][-1], logs[block][-1]
    return states, logs


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
        # to rounding or overflows (the certificate fails) gives way to its
        # two halves for this and every later frame, down to single steps,
        # which need no certificate.
        kept, todo = [], self.pieces[::-1]
        while todo:
            piece = todo.pop()
            start, length, mat = piece
            moved, r = np.linalg.qr(mat @ q)
            if length > 1 and not KAPPA * np.abs(np.diagonal(r)).min() >= 1.0:
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


def _block_levels(mats):
    # Levels of the pairwise product tree over a stack of steps, up to
    # blocks of BLOCK_STEPS; level j holds the products of 2^j consecutive
    # steps in transport order, unscaled, so their R diagonals multiply to
    # the steps' own.  An entry that overflows stays inf or nan here and
    # fails its certificate.
    levels = [mats]
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(levels) <= BLOCK_STEPS and len(levels[-1]) > 1:
            p = levels[-1]
            n = len(p) // 2 * 2
            levels.append(p[1:n:2] @ p[0:n:2])
    return levels


def _certified_qr(block, q, certify):
    # QR of block @ q and |diag R|, or None when the BLOCK_BOUND certificate
    # fails; a block without a finite norm fails before its QR.  A single
    # step (certify False), finite since `_orbit_chunks` checked it, has no
    # certificate.
    if certify:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(block, axis=(-2, -1))
        if not np.isfinite(norm).all():
            return None
    moved, r = np.linalg.qr(block @ q)
    diag = np.abs(np.einsum("sii->si", r))
    if certify and np.any(diag.min(axis=1) * BLOCK_BOUND < norm):
        return None
    return moved, diag


def _qr_engine(cocycle, phases, n_steps, top):
    """Batched QR evolution; returns per-sample log-diagonal sums (S, top).

    The frame crosses blocks of up to ``BLOCK_STEPS`` consecutive steps
    with one QR each: the R factors of a block's steps multiply to its
    own, so in exact arithmetic the sums are those of one QR per step.  A
    block is used only when it passes its certificate (see
    ``BLOCK_BOUND``); otherwise its halves are tried, down to single
    steps, which need none, and the shorter length carries on to the
    following blocks.  A non-finite step raises ``ConvergenceError``.
    """
    phases = np.atleast_1d(np.asarray(phases, dtype=complex)
                           if np.iscomplexobj(phases) else np.asarray(phases, dtype=float))
    ns = len(phases)
    if n_steps < 1 or ns == 0:
        raise ArgumentError("QR evolution needs at least one step and one phase")
    d = cocycle.dim
    q = np.broadcast_to(np.eye(d, dtype=complex)[:, :top], (ns, d, top)).copy()
    acc = np.zeros((ns, top))
    orbit = phases + cocycle.alpha * np.arange(n_steps)[:, None]
    k = BLOCK_STEPS
    for mats in _orbit_chunks(cocycle, orbit, BLOCK_STEPS):
        levels = _block_levels(mats)
        pos = 0
        while pos < len(mats):
            # accepted lengths never grow, so pos stays a multiple of them
            length = k
            while pos + length > len(mats):
                length //= 2
            while True:
                block = levels[length.bit_length() - 1][pos // length]
                step = _certified_qr(block, q, length > 1)
                if step is not None:
                    q, diag = step
                    break
                length //= 2
                k = length
            if np.any(diag <= 0):
                raise InvariantError("singular step in QR evolution")
            acc += np.log(diag)
            pos += length
    return acc


@dataclass
class LyapunovEstimate:
    exponents: np.ndarray     # mean over phase samples, descending
    spread: float             # worst per-exponent std over samples
    per_sample: np.ndarray    # (samples, top) individual estimates


def lyapunov_spectrum(cocycle, n_steps, samples=DEFAULT_SAMPLES, top=None,
                      phases=None):
    """Lyapunov exponents via QR evolution, averaged over a phase lattice.

    The frame crosses certified blocks of up to ``BLOCK_STEPS`` steps with
    one QR each (``_qr_engine``); the certificate bounds the R diagonal
    below by the block's norm over ``BLOCK_BOUND``, and the exponents
    differ from those of one QR per step by rounding alone (at most
    1.0e-10 per sample in the tests, see ``BLOCK_BOUND``).

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


def top_lyapunov(cocycle, n_steps, samples=DEFAULT_SAMPLES):
    """Convenience wrapper returning (top exponent, spread)."""
    est = lyapunov_spectrum(cocycle, n_steps, samples=samples, top=1)
    return float(est.exponents[0]), est.spread


def upper_lyapunov_sum(cocycle, j_top, n_steps, samples=DEFAULT_SAMPLES):
    """Sum of the leading ``j_top`` exponents (a QR frame of that width)."""
    est = lyapunov_spectrum(cocycle, n_steps, samples=samples, top=j_top)
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
    if n_steps < 1 or np.size(phases) == 0:
        raise ArgumentError("rotation number needs at least one step and one phase")
    probe = cocycle.matrices(np.atleast_1d(phases)[:1])
    if np.abs(np.imag(probe)).max() > 1e-12:
        raise ArgumentError("rotation number needs a real cocycle")
    if np.linalg.det(np.real(probe[0])) <= 0:
        raise ArgumentError("rotation number needs positive determinant")
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    orbit = phases + cocycle.alpha * np.arange(n_steps)[:, None]
    batches = map(np.real, _orbit_batches(cocycle, orbit))
    ang = total = np.zeros(len(phases))
    for states, _ in _state_sweep(batches, np.tile([1.0, 0.0], (len(phases), 1))):
        angles = np.arctan2(states[..., 1], states[..., 0])
        delta = np.diff(angles, axis=0, prepend=ang[None])
        delta -= 2 * np.pi * np.round(delta / (2 * np.pi))
        # summed in step order, as one increment at a time would be
        total = np.cumsum(np.concatenate([total[None], delta]), axis=0)[-1]
        ang = angles[-1]
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
                 samples=DEFAULT_SAMPLES):
    """Slope of the top exponent under a complex phase shift, over 2 pi.

    Evaluates the top exponent of the strip's transfer cocycle at phases
    shifted by ``i y`` for each ``y`` in the grid and fits an affine
    function; the slope divided by ``2 pi`` is the acceleration.  The
    profile is piecewise affine with corners, so a fit residual above
    ``ACCELERATION_FIT_TOL`` means the grid straddles a corner and the
    call raises rather than reporting a blended slope.
    """
    if y_grid is None:
        y_grid = np.linspace(0.0, 0.01, 6)
    y_grid = np.asarray(y_grid, dtype=float)
    if np.unique(y_grid).size < 2:
        raise ArgumentError("the affine fit needs at least two distinct shifts")
    # one QR evolution over every shift: a row of phases per y
    phases = (phase_lattice(samples) + 1j * y_grid[:, None]).ravel()
    est = lyapunov_spectrum(transfer_cocycle(strip, energy), n_steps, top=1,
                            phases=phases)
    tops = est.per_sample.reshape(len(y_grid), samples).mean(axis=1)
    coeffs = np.polyfit(y_grid, tops, 1)
    fit = np.polyval(coeffs, y_grid)
    residual = float(np.abs(fit - tops).max())
    if residual > ACCELERATION_FIT_TOL:
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
