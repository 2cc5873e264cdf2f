"""Boundary pairings, subordinacy chains, and duality for long-range lines.

The discrete analogue of the Lagrange bracket measures how far two
windowed sequences are from commuting with the operator across a
boundary; summed over growing radii it is controlled by hopping-weighted
norms.  Against a shifted solve those bounds squeeze the resolvent mass
from below, which is the computable core of the subordinacy argument.
Duality maps eigenvectors of the Fourier-transposed operator to
quasi-Bloch sequences on the original lattice.
"""

import numpy as np
from dataclasses import dataclass

from .linalg import ArgumentError, InvariantError, solve_shifted_banded
from .measures import _growth_trend

ZETA_TWO = np.pi**2 / 6.0


# ── windowed boundary pairing ────────────────────────────────────────────────


def _window_first(values, first_site):
    values = np.asarray(values)
    if first_site is None:
        first_site = -(values.size // 2)
    return values, int(first_site)


def _running_sums(values, center, r_max):
    # Window sums sum_{|n| <= r} values[center + n] for r = 1 .. r_max,
    # accumulated outward one radius at a time.  Totals over the radii are
    # taken with np.cumsum too: np.sum adds pairwise and changes the last bits.
    pairs = values[center + 1 : center + r_max + 1] + values[center - r_max : center][::-1]
    return np.cumsum(np.concatenate((values[center : center + 1], pairs)))[1:]


def _pairing_terms(op, f, g, radius, first_site):
    # The two sequences on their shared window, its first site, and the
    # two terms (Hf)_n conj(g_n) and f_n conj((Hg)_n) of the pairing density
    # over the whole window; H is applied exactly within radius + range.
    f, first = _window_first(f, first_site)
    g, first_g = _window_first(g, first_site)
    if f.shape != g.shape or first != first_g:
        raise ArgumentError("sequences must share one window")
    k = op.hopping.range
    if -(radius + k) < first or radius + k >= first + f.size:
        raise ArgumentError("window too short for radius %d" % radius)
    hf = op.apply(f, first_site=first)
    hg = op.apply(g, first_site=first)
    return f, g, first, hf * np.conj(g), f * np.conj(hg)


def lagrange_form(op, f, g, radius, first_site=None):
    """Boundary pairing sum_{|n| <= radius} (Hf)_n conj(g_n) - f_n conj((Hg)_n).

    Both sequences live on a common centered window; the window must
    extend at least the hopping range beyond the radius so the interior
    application of the operator is exact.  For two true solutions at the
    same energy the value is independent of the radius.
    """
    _, _, first, left, right = _pairing_terms(op, f, g, radius, first_site)
    lo, hi = -radius - first, radius - first + 1
    return complex(np.sum(left[lo:hi]) - np.sum(right[lo:hi]))


def lagrange_sum_bounds(op, f, g, r_max, first_site=None):
    """Radius-summed boundary pairing and its two envelopes.

    Computes lhs = |sum_{r=1}^{r_max} W_r(f, g)| together with the
    hopping-weighted bound over the (r_max + range) window and the
    cubic-tail bound over the whole window, and asserts that the
    envelopes actually dominate.  The second sequence must be bounded
    by one in supremum norm.

    Returns
    -------
    (lhs, window_bound, tail_bound)
    """
    if np.max(np.abs(g)) > 1.0 + 1e-12:
        raise ArgumentError("second sequence must have sup norm at most one")
    if r_max < 1:
        raise ArgumentError("radius must be at least one")
    f, g, first, left, right = _pairing_terms(op, f, g, r_max, first_site)
    k = op.hopping.range
    center = -first
    lhs = float(np.abs(np.cumsum(_running_sums(left - right, center, r_max))[-1]))

    weights = sum(4.0 * kk * abs(op.hopping.coefficient(kk)) for kk in range(1, k + 1))
    lo = max(0, center - (r_max + k))
    hi = min(f.size, center + r_max + k + 1)
    window_bound = float(
        weights * np.linalg.norm(f[lo:hi]) * np.linalg.norm(g[lo:hi])
    )
    cubic = max(abs(op.hopping.coefficient(kk)) * kk**3 for kk in range(1, k + 1))
    tail_bound = float(4.0 * ZETA_TWO * cubic * np.linalg.norm(f) * np.linalg.norm(g))

    if lhs > window_bound * (1 + 1e-9) + 1e-12:
        raise InvariantError(
            "windowed envelope %.6e fails to dominate the pairing sum %.6e"
            % (window_bound, lhs)
        )
    if lhs > tail_bound * (1 + 1e-9) + 1e-12:
        raise InvariantError(
            "cubic-tail envelope %.6e fails to dominate the pairing sum %.6e"
            % (tail_bound, lhs)
        )
    return lhs, window_bound, tail_bound


# ── subordinacy chain ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SubordinacyReport:
    energy: float
    alpha: float
    records: tuple
    trend: str
    ok: bool


def subordinacy_probe(op, energy, u, phi=None, r_grid=(256, 512, 1024, 2048, 4096),
                      alpha=1.0, first_site=None):
    """Resolve the chain of boundary-pairing bounds against a shifted solve.

    For each radius R the imaginary offset is set to 1/R, the windowed
    resolvent v = (H - E - i/R)^{-1} phi is computed on the 4R window,
    and the chain

        |sum_r <phi, u>_r| - (1/R) sum_r ||v||_r ||u||_r  <=  |sum_r W_r(v, u)|
                                                         <=  hopping-weighted envelopes

    is recorded, with r = 1 .. R and ||.||_r the norm over |n| <= r.  W
    is summed from H applied to v and u, not from the solve identity, so
    the lower bound tests the solve; the envelopes are enforced by
    ``lagrange_sum_bounds``.  The solve identity
    Im<phi, v> = ||v||^2 / R is checked, and the scaled mass
    (1/R)^alpha ||v||^2 that proxies the upper alpha-derivative of the
    spectral measure at the energy is recorded.

    Parameters
    ----------
    op : LineOperator
    energy : float
    u : ndarray
        Candidate generalized solution on a centered window covering at
        least [-2 max(R) - range, 2 max(R) + range], sup norm at most
        one; its residual must vanish to 1e-8 on the solve windows.
    phi : ndarray or None
        Probe vector on the same window; defaults to the delta at the
        origin.  Must not be orthogonal to u.
    r_grid : iterable of int
    alpha : float

    Raises
    ------
    ArgumentError
        If the grid is empty or holds a radius below one, u fails the
        solution-residual test or phi is orthogonal to u.
    InvariantError
        If the solve identity or an envelope fails.
    """
    u, first = _window_first(u, first_site)
    r_grid = tuple(int(r) for r in sorted(r_grid))
    if not r_grid or r_grid[0] < 1:
        raise ArgumentError("need one or more radii, each at least one")
    r_max = r_grid[-1]
    k = op.hopping.range
    if np.max(np.abs(u)) > 1.0 + 1e-12:
        raise ArgumentError("candidate solution must have sup norm at most one")
    if -(2 * r_max + k) < first or 2 * r_max + k >= first + u.size:
        raise ArgumentError("candidate window too short for radius %d" % r_max)
    if phi is None:
        phi = np.zeros(u.size, dtype=complex)
        phi[-first] = 1.0
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != u.shape:
        raise ArgumentError("probe vector must share the candidate's window")

    hu = op.apply(u, first_site=first)
    lo, hi = -2 * r_max - first, 2 * r_max - first + 1
    residual = float(np.max(np.abs(hu[lo:hi] - energy * u[lo:hi])))
    scale = float(np.max(np.abs(u)))
    if residual > 1e-8 * max(scale, 1e-30):
        raise ArgumentError(
            "candidate is not a generalized solution at this energy: "
            "residual %.3e" % residual
        )
    pairing = complex(np.sum(phi * np.conj(u)))
    if abs(pairing) <= 1e-8 * np.linalg.norm(phi) * max(scale, 1e-30):
        raise ArgumentError("probe vector is orthogonal to the candidate solution")

    records = []
    ok = True
    for r in r_grid:
        eps = 1.0 / r
        n_win = 4 * r + 1
        w_first = -(n_win // 2)
        ab = op.assemble_banded(n_win, first_site=w_first)
        shift = w_first - first
        phi_w = phi[shift : shift + n_win]
        u_w = u[shift : shift + n_win]
        v = solve_shifted_banded(ab, energy + 1j * eps, phi_w.reshape(-1, 1))[:, 0]

        mass = float(np.linalg.norm(v) ** 2)
        identity_lhs = float(np.imag(np.sum(np.conj(phi_w) * v)))
        if abs(identity_lhs - eps * mass) > 1e-10 * max(1.0, eps * mass):
            raise InvariantError(
                "solve identity violated at radius %d: %.3e vs %.3e"
                % (r, identity_lhs, eps * mass)
            )

        # sum_r W_r(v, u) = sum_r <phi, u>_r + i eps sum_r <v, u>_r, and
        # |<v, u>_r| <= ||v||_r ||u||_r over the radius-r window
        run_b = _running_sums(phi_w * np.conj(u_w), -w_first, r)
        norms_r = np.sqrt(_running_sums(np.abs(v) ** 2, -w_first, r)
                          * _running_sums(np.abs(u_w) ** 2, -w_first, r))
        lower = float(np.abs(np.cumsum(run_b)[-1]) - eps * np.sum(norms_r))
        w_total, window_bound, tail_bound = lagrange_sum_bounds(
            op, v, u_w, r, first_site=w_first
        )
        chain_ok = lower <= w_total * (1 + 1e-9) + 1e-12
        ok = ok and chain_ok
        records.append(
            {
                "radius": r,
                "eps": eps,
                "w_total": w_total,
                "lower": lower,
                "window_bound": window_bound,
                "tail_bound": tail_bound,
                "mass": mass,
                "proxy": float(eps**alpha * mass),
                "ok": bool(chain_ok),
            }
        )

    proxies = [rec["proxy"] for rec in records]
    if min(proxies) <= 0:
        trend = "vanishing"
    elif max(proxies) > 4.0 * proxies[0]:
        trend = "diverging"
    elif min(proxies) < proxies[0] / 4.0:
        trend = "vanishing"
    else:
        trend = "saturating"
    return SubordinacyReport(
        energy=float(energy),
        alpha=float(alpha),
        records=tuple(records),
        trend=trend,
        ok=bool(ok),
    )


# ── duality and growth ───────────────────────────────────────────────────────


def duality_transform(dual_vector, first_index, x, theta, alpha, sites):
    """Quasi-Bloch sequence generated by a dual-side eigenvector.

    The dual vector holds Fourier coefficients hat(u)_j, j >= first_index,
    of a periodic profile, sampled along the rotation orbit and twisted by
    the Bloch phase: out(n) = sum_j hat(u)_j z_n^j exp(2 pi i n x), where
    z_n = exp(2 pi i ((theta + n alpha) mod 1)).  Horner's rule evaluates the
    sum as z_n^first_index times a polynomial in z_n, so memory grows as
    sites + coefficients.  Rounding n alpha limits the accuracy, to about
    2.5e-10 at |j| = 1000 and |n| = 512.
    """
    sites = np.asarray(sites, dtype=int)
    phase = np.mod(sites * alpha + theta, 1.0)
    profile = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * phase), dual_vector)
    profile *= np.exp(2j * np.pi * np.mod(first_index * phase, 1.0))
    return profile * np.exp(2j * np.pi * sites * x)


@dataclass(frozen=True)
class GrowthReport:
    r_grid: tuple
    values: np.ndarray
    minimum: float
    trend: str


def solution_growth(u, r_grid, alpha, first_site=None):
    """Scaled window masses R^(-alpha) * sum_{|n| <= R} |u_n|^2.

    The minimum over the grid estimates the subordinacy-scale constant;
    the trend flag reports whether the scaled masses grow, settle, or
    die out as the radius increases over a nonempty grid of radii >= 1.
    """
    u, first = _window_first(u, first_site)
    r_grid = tuple(int(r) for r in sorted(r_grid))
    if not r_grid or r_grid[0] < 1:
        raise ArgumentError("need one or more radii, each at least one")
    if -r_grid[-1] < first or r_grid[-1] >= first + u.size:
        raise ArgumentError("window too short for radius %d" % r_grid[-1])
    center = -first
    values = np.array(
        [
            float(np.sum(np.abs(u[center - r : center + r + 1]) ** 2)) / r**alpha
            for r in r_grid
        ]
    )
    return GrowthReport(
        r_grid=r_grid,
        values=values,
        minimum=float(np.min(values)),
        trend=_growth_trend(values[0], values[-1]),
    )
