"""Reference operators with known behavior, run as a pass/fail battery.

Each entry bundles an operator whose exponents, rotation numbers, state
densities, or solution structure admit independent values, and checks
the library against them with explicit margins.  The battery backs the
command-line ``verify`` run and the cross-cutting identity tests
(pairing constancy, fold/unfold unitarity).
"""

import numpy as np

from .linalg import eigenvalues_banded, ArgumentError
from .operators import (
    GOLDEN_MEAN,
    Hopping,
    LineOperator,
    Potential,
    almost_mathieu,
    fold_to_strip,
    fold_vector,
    free_laplacian,
    unfold_vector,
)
from .cocycle import (
    _orbit_batches,
    _state_sweep,
    acceleration,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
)
from .splitting import compute_splitting, center_growth
from .symplectic import wronskian
from .measures import ids
from .longrange import subordinacy_probe

FIBONACCI_SITES = 987
CUBIC_TAIL_CUT = 64


def spectrum_sample(op, count, n_sites=FIBONACCI_SITES, lo=0.1, hi=0.9):
    """Energies sampled from the eigenvalues of a centered truncation,
    at evenly spaced quantiles of the interior of the spectrum."""
    eigs = eigenvalues_banded(op.assemble_banded(n_sites))
    idx = np.unique(np.round(np.linspace(lo, hi, count) * (len(eigs) - 1)).astype(int))
    return eigs[idx]


def cubic_tail_operator(alpha=GOLDEN_MEAN, k_cut=CUBIC_TAIL_CUT):
    """Free Laplacian with an inverse-quartic hopping tail, cut where the
    neglected arm stays below 3e-6 in l1."""
    coeffs = {1: 1.0}
    for k in range(2, k_cut + 1):
        coeffs[k] = k**-4.0
    return LineOperator(Hopping(coeffs), Potential.zero(), alpha=alpha,
                        theta=0.0, epsilon=0.0)


def cosine_root_state(op, n_max):
    """Exact bounded zero-energy solution of a pure-hopping operator.

    Pure hopping acts on cosine sequences through its symbol, so a root
    of the symbol yields an exact solution cos(2 pi x0 n).  Returns the
    window [-n_max, n_max] and the root.
    """
    if op.potential.sup_norm() * abs(op.epsilon) != 0.0:
        raise ArgumentError("cosine states need a pure-hopping operator")

    def symbol(x):
        return float(np.real(op.hopping.symbol(x)))

    lo, hi = 0.2, 0.3
    flo = symbol(lo)
    if flo * symbol(hi) > 0:
        raise ArgumentError("no symbol root bracketed in [0.2, 0.3]")
    for _ in range(200):
        mid = (lo + hi) / 2
        if flo * symbol(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = (lo + hi) / 2
    sites = np.arange(-n_max, n_max + 1)
    return np.cos(2 * np.pi * root * sites), root


# ── individual checks ────────────────────────────────────────────────────────


def _check(label, value, limit):
    value = float(value)
    limit = float(limit)
    return {
        "label": label,
        "value": value,
        "limit": limit,
        "margin": limit - value,
        "ok": bool(value <= limit),
    }


def _pairings(strip, energy, theta, x0, y0, n_steps):
    """Pairings of two solutions at steps 0 .. n_steps of an orbit, over
    the scale of step 0: step 0 alone, then one array per batch of the
    orbit (`cocycle._orbit_batches`).

    The pairing is constant for any two solutions, but a hyperbolic
    orbit destroys a forward-iterated contracting solution within a few
    dozen steps (rounding noise grows at the top rate).  So x is seeded
    at step 0 and swept forward while y is seeded at step n and swept
    backward, each in its numerically stable direction.  Both sweeps
    (`cocycle._state_sweep`) return unit states and log scales, so
    nothing overflows even at large exponents.
    """
    c = transfer_cocycle(strip, energy)
    m = strip.width
    y_states = np.empty((n_steps + 1, 2 * m), dtype=complex)
    y_logs = np.zeros(n_steps + 1)
    y_states[n_steps] = y = np.asarray(y0, dtype=complex) / np.linalg.norm(y0)
    # The backward sweep inverts the forward steps at their own phases, a
    # batch at a time: stepping c.inverse() evaluates A at x - alpha, which
    # rounds the phases differently, and the AMO off-spectrum check then
    # read 1.4e-10.
    backward = np.arange(n_steps - 1, -1, -1)
    steps = _orbit_batches(c, theta + c.alpha * backward)
    top = n_steps
    for states, logs in _state_sweep(map(np.linalg.inv, steps), y):
        y_states[top - len(states):top] = states[::-1]
        y_logs[top - len(states):top] = logs[::-1]
        top -= len(states)

    def pair(x, log_x, n):
        w = wronskian(strip.coupling, x, y_states[n:n + len(x)])
        return w * np.exp(log_x + y_logs[n:n + len(x)] - y_logs[0])

    x = np.asarray(x0, dtype=complex) / np.linalg.norm(x0)
    yield pair(x[None], np.zeros(1), 0)
    n = 1
    forward = _orbit_batches(c, theta + c.alpha * np.arange(n_steps))
    for states, logs in _state_sweep(forward, x):
        yield pair(states, logs, n)
        n += len(states)


def _wronskian_drift(strip, energy, theta, x0, y0, n_steps):
    """Largest drift of the solution pairing along an orbit, relative to
    its largest value (see `_pairings`)."""
    values = _pairings(strip, energy, theta, x0, y0, n_steps)
    base = next(values)[0]
    drift, scale = 0.0, float(abs(base))
    for v in values:
        drift = max(drift, float(np.abs(v - base).max()))
        scale = max(scale, float(np.abs(v).max()))
    if scale <= 0:
        raise ArgumentError("seed states pair to zero; pick a generic pair")
    return drift / scale


def _fold_unitarity(k_width, rng):
    u = rng.standard_normal(8 * k_width) + 1j * rng.standard_normal(8 * k_width)
    blocks, first_block = fold_vector(u, k_width, first_site=-4 * k_width)
    back, first_site = unfold_vector(blocks, k_width, first_block)
    round_trip = float(np.max(np.abs(back - u)))
    norm_drift = abs(np.linalg.norm(blocks) - np.linalg.norm(u))
    return max(round_trip, float(norm_drift), abs(first_site - (-4 * k_width)))


def entry_free_laplacian():
    op = free_laplacian()
    strip = fold_to_strip(op)
    checks = []

    value, _ = top_lyapunov(transfer_cocycle(strip, 3.0), n_steps=4000, samples=8)
    checks.append(_check("exponent at E=3 vs closed form",
                         abs(value - 0.9624236501192069), 5e-3))

    rho, _ = rotation_number(transfer_cocycle(strip, 0.0), n_steps=4000, samples=8)
    checks.append(_check("rotation number at E=0", abs(rho - 0.25), 1e-4))

    table = ids(op, np.linspace(-2.5, 2.5, 41), n_sites=512, samples=8)
    checks.append(_check("state density at E=0", abs(table.value_at(0.0) - 0.5), 5e-3))

    from .weyl import m_plus
    bdry = m_plus(strip, 1j)[0, 0]
    checks.append(_check("right boundary matrix at z=i",
                         abs(bdry - 0.6180339887j), 1e-6))

    sites = np.arange(0, 3)
    cos_state = np.cos(np.pi * sites / 2)
    sin_state = np.sin(np.pi * sites / 2)
    drift = _wronskian_drift(
        strip, 0.0, 0.0,
        np.array([cos_state[1], cos_state[0]]),
        np.array([sin_state[1], sin_state[0]]),
        10000,
    )
    checks.append(_check("pairing constancy over 1e4 steps", drift, 1e-10))

    checks.append(_check("fold round trip", _fold_unitarity(1, np.random.default_rng(3)), 1e-10))
    return checks


def entry_amo_subcritical():
    op = almost_mathieu(0.5)
    strip = fold_to_strip(op)
    energies = spectrum_sample(op, 8)
    checks = []

    worst = 0.0
    for e in energies:
        value, _ = top_lyapunov(transfer_cocycle(strip, e), n_steps=10000, samples=8)
        worst = max(worst, value)
    checks.append(_check("exponent vanishes on the spectrum", worst, 5e-3))

    e_mid = float(energies[len(energies) // 2])
    cocycle = transfer_cocycle(strip, e_mid)
    splitting = compute_splitting(cocycle, 0.0, (0, 2, 0))
    envelope = center_growth(cocycle, splitting, 10000)
    checks.append(_check("orbit envelope stays bounded", envelope[-1], 50.0))

    checks.append(_check("fold round trip", _fold_unitarity(1, np.random.default_rng(5)), 1e-10))
    return checks


def entry_amo_supercritical():
    op = almost_mathieu(2.0)
    strip = fold_to_strip(op)
    energies = spectrum_sample(op, 5)
    checks = []

    worst = 0.0
    for e in energies:
        value, _ = top_lyapunov(transfer_cocycle(strip, e), n_steps=10000, samples=8)
        worst = max(worst, abs(value - np.log(2.0)))
    checks.append(_check("exponent equals log 2 on the spectrum", worst, 2e-2))

    est = acceleration(strip, float(energies[len(energies) // 2]),
                       n_steps=10000, samples=16)
    checks.append(_check("unit acceleration on the spectrum",
                         abs(est.value - 1.0), 0.05))

    # Far off the spectrum the orbit is strongly hyperbolic; the pairing
    # must still be constant for generic forward/backward seeded solutions.
    drift = _wronskian_drift(strip, 7.0, 0.0,
                             np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             10000)
    checks.append(_check("pairing constancy off the spectrum", drift, 1e-10))

    checks.append(_check("fold round trip", _fold_unitarity(1, np.random.default_rng(7)), 1e-10))
    return checks


def entry_cubic_tail():
    op = cubic_tail_operator()
    checks = []
    neglected = float(2.0 * np.sum(np.arange(CUBIC_TAIL_CUT + 1, 200000) ** -4.0))
    checks.append(_check("neglected hopping arm", neglected, 3e-6))

    u, _root = cosine_root_state(op, 2 * 1024 + CUBIC_TAIL_CUT + 8)
    hu = op.apply(u)
    interior = slice(2 * CUBIC_TAIL_CUT, u.size - 2 * CUBIC_TAIL_CUT)
    checks.append(_check("cosine state residual", float(np.max(np.abs(hu[interior]))), 1e-8))

    report = subordinacy_probe(op, 0.0, u, r_grid=(256, 1024))
    checks.append(_check("pairing chain holds", 0.0 if report.ok else 1.0, 0.5))
    proxy_low = min(rec["proxy"] for rec in report.records)
    checks.append(_check("resolvent mass proxy stays positive",
                         0.0 if proxy_low > 0 else 1.0, 0.5))

    checks.append(_check("fold round trip",
                         _fold_unitarity(CUBIC_TAIL_CUT, np.random.default_rng(9)), 1e-10))
    return checks


ENTRIES = {
    "free_laplacian": entry_free_laplacian,
    "amo_subcritical": entry_amo_subcritical,
    "amo_supercritical": entry_amo_supercritical,
    "cubic_tail": entry_cubic_tail,
}


def run_corpus(name_filter=None):
    """Run the reference battery and return a manifest.

    Parameters
    ----------
    name_filter : str or None
        Substring selecting which entries run; None runs everything.

    Returns
    -------
    dict
        {"entries": [{"name", "ok", "checks": [...]}, ...], "ok": bool};
        each check carries its measured value, its limit, and the margin.
    """
    manifest = {"entries": [], "ok": True}
    for name, builder in ENTRIES.items():
        if name_filter and name_filter not in name:
            continue
        checks = builder()
        ok = all(c["ok"] for c in checks)
        manifest["entries"].append({"name": name, "ok": ok, "checks": checks})
        manifest["ok"] = manifest["ok"] and ok
    return manifest
