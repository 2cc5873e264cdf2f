"""Half-line boundary matrices, whole-line assembly, and measure bounds.

The decaying half-line solution spaces of a strip operator are graphs
over the bottom component of the doubled state space; their slopes give
the two boundary matrices, which assemble into the 2x2-block whole-line
matrix.  Trace identities and growth-controlled bounds on its imaginary
part turn the neutral-frame envelopes into spectral-measure estimates.

A solution space is converged by window doubling: a fixed random frame is
carried across windows of GRAPH_WINDOW_START, twice that, ... steps until
two successive frames agree to GRAPH_STABLE_TOL.  Each doubling adds the
product tree of its new far half of the orbit to the cached trees of the
earlier windows, and the frame crosses the window by certified block
products (``cocycle._Segment``), so no window is stepped again from
scratch.
"""

import numpy as np
from dataclasses import dataclass

from .linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    principal_angles,
    solve_shifted_banded,
)
from .cocycle import _Segment, transfer_cocycle
from .splitting import (
    DEFAULT_WINDOW,
    center_growth,
    compute_splitting,
    critical_set_test,
    detect_splitting,
    _random_frame,
)

GRAPH_WINDOW_START = 64
GRAPH_WINDOW_MAX = 131072
GRAPH_STABLE_TOL = 1e-11
# green_oracle's window doubling must move the kernel by less than this
ORACLE_CONV_TOL = 1e-8


# ── half-line solution graphs ────────────────────────────────────────────────


def _stabilized_frame(cocycle, theta, n_cols):
    # Frame of the decaying solutions and the window it settled at: the
    # first window n = GRAPH_WINDOW_START, 2n, ... whose frame lies within
    # GRAPH_STABLE_TOL of the frame of half that window.  Each window adds
    # the product tree of its far half, the n/2 steps before the previous
    # window, and the fixed start frame crosses every tree from the far end.
    start = _random_frame(cocycle.dim, n_cols, seed=11)
    segments, prev = [], None
    done, n = 0, GRAPH_WINDOW_START
    while n <= GRAPH_WINDOW_MAX:
        segments.append(_Segment(cocycle, theta + cocycle.alpha * np.arange(-n, -done)))
        frame = start
        for segment in reversed(segments):
            frame = segment.carry(frame)
        if prev is not None and np.sin(principal_angles(prev, frame)[-1]) < GRAPH_STABLE_TOL:
            return frame, n
        prev = frame
        done, n = n, 2 * n
    raise ConvergenceError(
        "half-line solution space did not stabilize; the energy may sit "
        "inside the spectrum where no decaying solutions exist"
    )


def _graph_slope(frame):
    m = frame.shape[0] // 2
    bottom = frame[m:, :]
    if np.linalg.cond(bottom) > 1e10:
        raise ConvergenceError(
            "decaying solution space collides with the vertical; "
            "no graph representation at this phase"
        )
    return frame[:m, :] @ np.linalg.inv(bottom)


def _imag_part(a):
    return (a - a.conj().T) / 2j


def _boundary_matrix(strip, z, theta, right):
    # Slope of the decaying half-line solutions as a graph over the bottom
    # component, times -C on the right (from the inverse cocycle) and C on
    # the left.  For Im z > 0 the imaginary part is checked to be positive
    # definite (Herglotz).
    cocycle = transfer_cocycle(strip, z)
    if right:
        cocycle = cocycle.inverse()
    frame, _ = _stabilized_frame(cocycle, theta, strip.width)
    coupling = -strip.coupling if right else strip.coupling
    value = coupling @ _graph_slope(frame)
    if np.imag(z) > 0:
        low = float(np.min(np.linalg.eigvalsh(_imag_part(value))))
        if low <= -1e-10 * max(1.0, np.linalg.norm(value, 2)):
            raise InvariantError(
                "imaginary part of the %s boundary matrix is not positive"
                % ("right" if right else "left")
            )
    return value


def m_plus(strip, z, theta=0.0):
    """Boundary matrix of the decaying solutions on the right half line.

    The most-contracted state directions of the energy-z transfer
    cocycle, the most-expanded ones of its inverse cocycle, are converged
    by window doubling and read off as a graph over the bottom component;
    the boundary matrix is minus the coupling applied to the slope.  Each
    doubling pushes a fixed random frame along the inverse cocycle, back
    from the far end of the window [0, n) to theta, across cached products
    of the orbit's steps: the products of [0, n/2) are kept from the
    previous windows and only [n/2, n) is multiplied out anew.  A block
    carries the frame only when its certificate holds
    (``cocycle.KAPPA``), otherwise its halves do, down to single steps.
    For Im z > 0 the imaginary part is checked to be positive definite.
    Real z works off the spectrum, where decaying solutions still exist;
    inside the spectrum the window doubling fails to stabilize by
    GRAPH_WINDOW_MAX steps and raises.

    Returns
    -------
    ndarray
        m x m boundary matrix.
    """
    return _boundary_matrix(strip, z, theta, right=True)


def m_minus(strip, z, theta=0.0):
    """Boundary matrix of the decaying solutions on the left half line;
    mirror of m_plus built from the most-expanded state directions."""
    return _boundary_matrix(strip, z, theta, right=False)


# ── whole-line matrix ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class WeylData:
    """Boundary matrices and the assembled whole-line matrix at one z."""

    z: complex
    theta: float
    coupling: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    matrix: np.ndarray

    def block(self, i, j):
        """(i, j) block of the whole-line matrix, i, j in {0, 1}; the
        blocks reproduce the resolvent kernel at the two center sites."""
        m = self.plus.shape[0]
        return self.matrix[i * m : (i + 1) * m, j * m : (j + 1) * m]


def m_matrix(strip, z, theta=0.0):
    """Assemble the whole-line matrix from the two boundary matrices.

    The four blocks are rational expressions in the boundary matrices
    and the coupling; they coincide with the resolvent kernel of the
    whole-line operator at the two sites adjacent to the split point.

    Raises
    ------
    ConvergenceError
        If the boundary-matrix sum is numerically singular (z too close
        to the spectrum for the assembly to be stable).
    """
    x = m_plus(strip, z, theta)
    y = m_minus(strip, z, theta)
    c = strip.coupling
    s = x + y
    if np.linalg.cond(s) > 1e12:
        raise ConvergenceError("boundary-matrix sum is numerically singular")
    s_inv = np.linalg.inv(s)
    c_inv = np.linalg.inv(c)
    cs_inv = np.linalg.inv(c.conj().T)
    top_left = -s_inv
    top_right = s_inv @ x @ cs_inv
    bottom_left = c_inv @ x @ s_inv
    bottom_right = c_inv @ x @ s_inv @ y @ cs_inv
    matrix = np.block([[top_left, top_right], [bottom_left, bottom_right]])
    return WeylData(
        z=complex(z),
        theta=float(theta),
        coupling=c.copy(),
        plus=x,
        minus=y,
        matrix=matrix,
    )


def _boundary_weight(x, c_inv):
    # m + tr(C^-1 x x^H C^-H): the size of a boundary matrix in the bounds.
    return float(np.real(x.shape[0] + np.trace(c_inv @ x @ x.conj().T @ c_inv.conj().T)))


def im_m_trace(weyl):
    """Trace of the imaginary part of the whole-line matrix, computed
    both directly and through the boundary-matrix expansion.

    The expansion rewrites the trace as four congruence terms in the
    imaginary parts of the two boundary matrices; it must agree with the
    direct trace to 1e-8, and the conditioning-controlled upper bound
    must dominate it.  Both facts are asserted here.

    Returns
    -------
    float
        The (real) trace.
    """
    x, y, c = weyl.plus, weyl.minus, weyl.coupling
    imx = _imag_part(x)
    imy = _imag_part(y)
    if np.min(np.linalg.eigvalsh(imx)) <= 0 or np.min(np.linalg.eigvalsh(imy)) <= 0:
        raise InvariantError("boundary matrices have indefinite imaginary parts")

    direct = float(np.real(np.trace(_imag_part(weyl.matrix))))

    s_inv = np.linalg.inv(x + y)
    s_inv_h = s_inv.conj().T
    c_inv = np.linalg.inv(c)
    t1 = np.trace(c_inv @ y @ s_inv @ imx @ s_inv_h @ y.conj().T @ c_inv.conj().T)
    t2 = np.trace(s_inv @ imx @ s_inv_h)
    t3 = np.trace(c_inv @ x @ s_inv @ imy @ s_inv_h @ x.conj().T @ c_inv.conj().T)
    t4 = np.trace(s_inv @ imy @ s_inv_h)
    expanded = float(np.real(t1 + t2 + t3 + t4))
    if abs(direct - expanded) > 1e-8 * max(1.0, abs(direct)):
        raise InvariantError(
            "trace expansion disagrees with the direct trace: %.3e vs %.3e"
            % (expanded, direct)
        )

    kappa = max(np.linalg.cond(imx, 2), np.linalg.cond(imy, 2))
    bound = kappa**3 * (
        _boundary_weight(x, c_inv) / np.linalg.norm(imx, 2)
        + _boundary_weight(y, c_inv) / np.linalg.norm(imy, 2)
    )
    if direct > bound * (1 + 1e-9):
        raise InvariantError(
            "conditioning bound %.6e fails to dominate the trace %.6e"
            % (bound, direct)
        )
    return direct


# ── spectral-measure bounds from neutral growth ──────────────────────────────


@dataclass(frozen=True)
class SpectralBoundReport:
    energy: float
    theta: float
    dims: tuple
    eps_grid: tuple
    trace_im: np.ndarray
    mu_bound: np.ndarray
    jl_rhs: np.ndarray
    jl_constant: float
    criterion_lhs: np.ndarray
    criterion_rhs: np.ndarray
    criterion_constant: float


def spectral_bound(strip, energy, eps_grid=None, theta=0.0, dims=None,
                   n_window=DEFAULT_WINDOW):
    """Measure bound and growth-envelope bound near one real energy.

    For each imaginary offset eps, the mass the whole-line matrix gives
    to (energy-eps, energy+eps) is bounded by eps times its imaginary
    trace; that in turn is compared against eps times the neutral-frame
    sup norm over the matching orbit window raised to the 42nd power,
    with the smallest workable prefactor fitted over the grid and
    reported.  A second fitted constant relates the right boundary
    matrix's imaginary trace to its size, again through the sixth power
    of the forward sup.

    Raises
    ------
    ArgumentError
        If the base phase fails the critical-set test at this energy
        (the bound is not applicable at critical energies).
    """
    if eps_grid is None:
        eps_grid = tuple(np.geomspace(1e-3, 1e-1, 7))
    eps_grid = tuple(float(e) for e in sorted(eps_grid, reverse=True))
    if not eps_grid or min(eps_grid) <= 0:
        raise ArgumentError("need one or more imaginary offsets, each positive")

    base = transfer_cocycle(strip, energy)
    splitting = (detect_splitting(base, theta, n_window) if dims is None
                 else compute_splitting(base, theta, dims, n_window))
    if not critical_set_test(splitting):
        raise ArgumentError(
            "spectral bound not applicable: critical energy "
            "(half-line solution space meets the vertical)"
        )
    if splitting.dims[1] == 0:
        raise ArgumentError("no neutral directions at this energy")

    # squared neutral-frame sups C(n) = sup^2 along both half orbits, so
    # sup^42 = C^21 and sup^6 = C^3; C reaches e^700, so the powers and
    # the constants fitted against them are taken in log space
    n_big = int(np.ceil(3.0 / min(eps_grid)))
    log_fwd = np.log(center_growth(base, splitting, n_big))
    log_bwd = np.log(center_growth(base.inverse(), splitting, n_big))

    c_inv = np.linalg.inv(strip.coupling)
    rows = []
    for eps in eps_grid:
        data = m_matrix(strip, energy + 1j * eps, theta)
        horizon = int(np.ceil(3.0 / eps))
        rows.append((im_m_trace(data),
                     float(np.real(np.trace(_imag_part(data.plus)))),
                     _boundary_weight(data.plus, c_inv),
                     21 * max(log_fwd[horizon], log_bwd[horizon]),
                     3 * log_fwd[min(3 * int(np.ceil(1.0 / eps)), n_big)]))
    trace_im, crit_lhs, crit_weight, log_growth21, log_sup_forward6 = np.array(rows).T

    eps = np.asarray(eps_grid)
    mu_bound = eps * trace_im
    log_jl = np.max(np.log(trace_im) - log_growth21)
    jl_rhs = eps * np.exp(log_jl + log_growth21)
    log_criterion = np.max(np.log(crit_weight / crit_lhs) - log_sup_forward6)
    criterion_rhs = crit_weight * np.exp(-log_criterion - log_sup_forward6)

    return SpectralBoundReport(
        energy=float(energy),
        theta=float(theta),
        dims=splitting.dims,
        eps_grid=eps_grid,
        trace_im=trace_im,
        mu_bound=mu_bound,
        jl_rhs=jl_rhs,
        jl_constant=float(np.exp(log_jl)),
        criterion_lhs=crit_lhs,
        criterion_rhs=criterion_rhs,
        criterion_constant=float(np.exp(log_criterion)),
    )


# ── truncated-resolvent oracle ───────────────────────────────────────────────


def _kernel_block(op, z, p, q, n_sites):
    # Solve (truncation - z) v = basis columns at site (line) or block
    # (strip) q of the centered window; returns the block of v at row p,
    # v itself and the first row of q.
    width = getattr(op, "width", 1)
    first = -(n_sites // 2)
    ab = op.assemble_banded(n_sites, first)
    row_p, row_q = (p - first) * width, (q - first) * width
    for index, row in ((q, row_q), (p, row_p)):
        if not 0 <= row < ab.shape[1]:
            raise ArgumentError("requested index %d outside the window" % index)
    rhs = np.zeros((ab.shape[1], width), dtype=complex)
    rhs[row_q : row_q + width] = np.eye(width)
    v = solve_shifted_banded(ab, z, rhs)
    return v[row_p : row_p + width], v, row_q


def green_oracle(op, z, p, q, n_sites=4001, verify=True):
    """Resolvent kernel entry (or block) of a centered truncation.

    Parameters
    ----------
    op : LineOperator or StripOperator
        Operator to truncate.
    z : complex
        Spectral parameter, Im z != 0.
    p, q : int
        Row and column site (line) or block (strip) indices.
    n_sites : int
        Window length; the window is centered at 0.
    verify : bool
        Run the built-in checks: doubling the window must move the
        answer by less than ORACLE_CONV_TOL, the quadratic solve identity
        Im<v, e_q> = Im z * ||v||^2 must hold to 1e-10, and the kernel
        must be Hermitian against the conjugate spectral parameter.

    Returns
    -------
    complex or ndarray
        Scalar entry for line operators, width x width block for strips.
    """
    if np.imag(z) == 0:
        raise ArgumentError("resolvent oracle needs a nonreal spectral parameter")
    block, v, row_q = _kernel_block(op, z, p, q, n_sites)
    width = v.shape[1]
    value = block[0, 0] if width == 1 else block

    if verify:
        doubled = _kernel_block(op, z, p, q, 2 * n_sites + 1)[0]
        move = np.max(np.abs(doubled - block))
        if move > ORACLE_CONV_TOL:
            raise ConvergenceError(
                "resolvent entry still moving under window doubling: %.3e" % move
            )
        for j in range(width):
            lhs = float(np.imag(v[row_q + j, j]))
            rhs = float(np.imag(z) * np.linalg.norm(v[:, j]) ** 2)
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
                raise InvariantError(
                    "solve identity violated: Im kernel %.3e vs Im z * mass %.3e"
                    % (lhs, rhs)
                )
        mirrored = _kernel_block(op, np.conj(z), q, p, n_sites)[0].conj().T
        if np.max(np.abs(block - mirrored)) > 1e-10 * max(1.0, np.max(np.abs(block))):
            raise InvariantError("kernel is not Hermitian across conjugate parameters")

    return value
