"""Integrated density of states, Thouless quadrature, and measure probes.

Tables of the integrated density of states are built from centered
Dirichlet truncations, phase-averaged over a midpoint lattice.  The
counts below the grid energies come from ``linalg.counts_below_banded``
for the whole phase stack at once: by inertia, from one certified LDLᴴ
sweep, when b·m <= n (see ``ids``), and from eigenvalues otherwise.  On
top of the tables sit the log-energy quadrature tying exponent sums to
the state density, the Borel/Stieltjes transform, and the scaling probes
for local dimensions of the underlying spectral measure.
"""

import numpy as np
from dataclasses import dataclass, replace

from .cocycle import phase_lattice
from .linalg import ArgumentError, counts_below_banded
from .operators import StripOperator

DEFAULT_THETA_SAMPLES = 32
DEFAULT_TRUNCATION = 2048
MASS_FLOOR = 1e-12


# ── tables ───────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class IdsTable:
    """Sampled integrated density of states.

    energies ascend; values are phase-averaged fractions of truncation
    eigenvalues below each energy, so they lie in [0, 1], never decrease,
    and move in steps of at most resolution().  ``truncation`` is the
    number of eigenvalues counted per phase: the sites of a line window,
    or the blocks of a strip window times the strip width.
    """

    energies: np.ndarray
    values: np.ndarray
    truncation: int
    samples: int

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape or e.size < 2:
            raise ArgumentError("table needs matching 1-d energy and value arrays")
        if np.any(np.diff(e) <= 0):
            raise ArgumentError("table energies must strictly ascend")

    def value_at(self, energy):
        return float(np.interp(energy, self.energies, self.values))

    def resolution(self):
        return 1.0 / (self.truncation * self.samples)


def ids(op, energies, n_sites=DEFAULT_TRUNCATION, samples=DEFAULT_THETA_SAMPLES):
    """Integrated density of states on an energy grid.

    Eigenvalue counting of the centered Dirichlet truncation (``n_sites``
    sites of a line, ``n_sites`` blocks of a strip), normalized by the
    matrix size and averaged over the phase lattice.  A strip counts per
    site of its fibers, so a folded strip on an even number of blocks
    reproduces the table of its unfolded line on the same window.

    The counts below every grid energy come from one
    :func:`~qplattice.linalg.counts_below_banded` call on the stack of
    phase truncations.  When b·m <= n (b superdiagonals, m energies, n
    rows), as for the CLI's 2,048-site tables on 257 energies, it counts
    the negative pivots of an LDLᴴ sweep of H − E; otherwise it reads the
    counts off each phase's eigenvalues.  A swept phase of a band wider
    than one whose pivots grow past ``linalg.GROWTH_BOUND`` times the
    band's largest entry is counted from its eigenvalues instead.  The
    values are those of the eigenvalue counts, except where an eigenvalue
    lies within rounding of a grid energy (AMO(2) at phase 0.25 and E = 0:
    LAPACK puts it at -3.0e-14, the sweep in (0, 1e-15)).  A non-finite
    truncation raises :class:`ArgumentError`.

    Returns
    -------
    IdsTable
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size < 2:
        raise ArgumentError("need at least two grid energies")
    if samples < 1:
        raise ArgumentError("need at least one phase sample")
    bands = np.stack([replace(op, theta=theta).assemble_banded(n_sites)
                      for theta in phase_lattice(samples)])
    values = (counts_below_banded(bands, energies) / bands.shape[2]).sum(axis=0)
    values /= samples
    return IdsTable(
        energies=energies.copy(),
        values=values,
        truncation=int(n_sites) * getattr(op, "width", 1),
        samples=int(samples),
    )


# ── quadrature against the state density ─────────────────────────────────────


def _nodes_and_masses(table):
    mids = (table.energies[1:] + table.energies[:-1]) / 2.0
    masses = np.diff(table.values)
    return mids, masses


def log_energy_integral(table, energy):
    """Midpoint quadrature of log|energy - x| against the table's
    measure.  Real energies must keep at least one grid step away from
    any node carrying mass; the near-singular case is refused rather
    than regularized."""
    mids, masses = _nodes_and_masses(table)
    step = float(np.max(np.diff(table.energies)))
    z = complex(energy)
    if abs(z.imag) < step:
        near = np.abs(z.real - mids) < step
        if np.any(masses[near] > MASS_FLOOR):
            raise ArgumentError(
                "energy sits within one grid step of spectral mass; "
                "the log quadrature is unreliable there"
            )
    return float(np.sum(masses * np.log(np.abs(z - mids))))


def thouless_residual(op, energy, table, lyap_sum):
    """Defect of the exponent-sum / state-density identity at one energy.

    For a finite-range line operator the identity reads
    sum of the top K exponents = integral of log|E - x| dN(x) - log|w_K|;
    for a strip the integral is weighted by the width and the correction
    is log|det C|.  The caller supplies the independently computed
    exponent sum; the return value is the absolute defect.
    """
    quad = log_energy_integral(table, energy)
    if isinstance(op, StripOperator):
        correction = float(np.log(np.abs(np.linalg.det(op.coupling))))
        rhs = op.width * quad - correction
    else:
        k = op.hopping.range
        w_top = op.hopping.coefficient(k)
        if w_top == 0:
            raise ArgumentError("top hopping coefficient vanishes")
        rhs = quad - float(np.log(np.abs(w_top)))
    return float(abs(lyap_sum - rhs))


def stieltjes(table, z):
    """Borel transform of the table's measure at a nonreal point."""
    if np.imag(z) == 0:
        raise ArgumentError("transform needs a nonreal point")
    mids, masses = _nodes_and_masses(table)
    return complex(np.sum(masses / (mids - z)))


# ── local scaling probes ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class AlphaDerivativeReport:
    eps_grid: tuple
    values: np.ndarray
    value: float
    trend: str


def _growth_trend(first, last):
    # A scaled quantity diverges past four times its first value and
    # vanishes below a quarter of it.
    if last > 4.0 * first:
        return "diverging"
    return "vanishing" if last < first / 4.0 else "saturating"


def upper_alpha_derivative(table, energy, alpha, eps_grid=None):
    """Scaled imaginary boundary values eps^(1-alpha) Im F(E + i eps).

    The maximum over the grid estimates the upper alpha-derivative of
    the measure; the trend flag reports whether the scaled values grow,
    settle, or die out as eps decreases.
    """
    if eps_grid is None:
        eps_grid = tuple(np.geomspace(1e-1, 1e-3, 13))
    eps_grid = tuple(float(e) for e in sorted(eps_grid, reverse=True))
    if not eps_grid:
        raise ArgumentError("need one or more imaginary offsets")
    vals = np.array(
        [e ** (1.0 - alpha) * np.imag(stieltjes(table, energy + 1j * e)) for e in eps_grid]
    )
    head = np.mean(vals[: max(1, len(vals) // 3)])
    tail = np.mean(vals[-max(1, len(vals) // 3) :])
    return AlphaDerivativeReport(
        eps_grid=eps_grid, values=vals, value=float(np.max(vals)),
        trend=_growth_trend(head, tail)
    )


@dataclass(frozen=True)
class HolderReport:
    eps_grid: tuple
    increments: np.ndarray
    slope: float
    gap: bool
    upper_half_constant: float
    lower_three_halves_constant: float


def holder_probe(table, energy, eps_grid=None):
    """Local scaling exponent of the state density around one energy.

    Fits the least-squares slope of log(N(E+eps) - N(E-eps)) against
    log eps.  Windows whose mass stays below the table resolution raise
    the gap flag instead of fitting.  Alongside the slope the probe
    reports the fitted constants of the two-sided envelope: the smallest
    C with increments <= C sqrt(eps) and the largest c with increments
    >= c eps^(3/2) over the grid.
    """
    if eps_grid is None:
        eps_grid = tuple(np.geomspace(1e-3, 1e-1, 13))
    eps_grid = tuple(float(e) for e in sorted(eps_grid))
    if len(eps_grid) < 3:
        raise ArgumentError("the slope fit needs at least three windows")
    incs = np.array(
        [table.value_at(energy + e) - table.value_at(energy - e) for e in eps_grid]
    )
    floor = 4.0 * table.resolution()
    usable = incs > floor
    if np.count_nonzero(usable) < 3 or incs[-1] <= floor:
        return HolderReport(
            eps_grid=eps_grid,
            increments=incs,
            slope=float("nan"),
            gap=True,
            upper_half_constant=float("nan"),
            lower_three_halves_constant=float("nan"),
        )
    es = np.array(eps_grid)[usable]
    gs = incs[usable]
    slope = float(np.polyfit(np.log(es), np.log(gs), 1)[0])
    upper = float(np.max(gs / np.sqrt(es)))
    lower = float(np.min(gs / es**1.5))
    return HolderReport(
        eps_grid=eps_grid,
        increments=incs,
        slope=slope,
        gap=False,
        upper_half_constant=upper,
        lower_three_halves_constant=lower,
    )
