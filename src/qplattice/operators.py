"""Lattice Hamiltonians on the integer line and on finite-width strips.

Two families live here.  ``LineOperator`` is a bounded self-adjoint operator
on l2(Z) built from a conjugate-symmetric hopping sequence plus a real
on-site potential, which may be sampled from an analytic circle function
along an irrational rotation or given as an explicit sequence.  A
``StripOperator`` is block tridiagonal on l2(Z, C^m) with an invertible
off-diagonal coupling and a Hermitian matrix potential driven by the same
kind of rotation.  ``fold_to_strip`` turns a finite-range line operator into
a unitarily equivalent strip, which is how the line theory gets reduced to
block-tridiagonal form.
"""

import json
from dataclasses import dataclass

import numpy as np

from .linalg import ArgumentError, banded_matmul

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0

__all__ = [
    "GOLDEN_MEAN",
    "Hopping",
    "Potential",
    "LineOperator",
    "StripOperator",
    "HermitianTrigPoly",
    "fold_to_strip",
    "fold_vector",
    "unfold_vector",
    "dual_operator",
    "almost_mathieu",
    "free_laplacian",
    "operator_from_config",
    "config_digest",
]


# ── hopping and potential data ───────────────────────────────────────────────

def _trig_sum(coefficients, x):
    """``sum_k c_k exp(2 pi i k x)`` over a ``{k: c_k}`` mapping, pointwise in x.

    Real ``x`` gives the real part (the conjugate-symmetric case); complex
    ``x`` evaluates the analytic continuation.  Matrix coefficients
    broadcast against trailing unit axes of ``x``.
    """
    x = np.asarray(x)
    out = np.zeros(x.shape, dtype=complex)
    for k, c in coefficients.items():
        out = out + c * np.exp(2j * np.pi * k * x)
    if np.isrealobj(x):
        out = out.real
    return out if out.shape else out[()]


class Hopping:
    """Conjugate-symmetric hopping coefficients ``w_k`` with finite range.

    Entries may be supplied for either sign of ``k``; the mirror coefficient
    is filled in as the complex conjugate.  ``w_0`` must be real and a
    conflicting pair raises.
    """

    def __init__(self, coefficients):
        table = {}
        for k, w in dict(coefficients).items():
            k = int(k)
            w = complex(w)
            for kk, ww in ((k, w), (-k, np.conj(w))):
                if kk in table and abs(table[kk] - ww) > 1e-14 * max(1.0, abs(ww)):
                    raise ArgumentError(
                        "conflicting hopping entries for k=%d" % kk
                    )
                table[kk] = ww
        if 0 in table:
            if abs(table[0].imag) > 1e-14:
                raise ArgumentError("w_0 must be real")
            table[0] = complex(table[0].real)
        self._table = {k: w for k, w in sorted(table.items()) if w != 0}

    @classmethod
    def from_triples(cls, triples):
        """Build from ``[[k, re, im], ...]`` rows (the config file format)."""
        return cls({int(k): complex(re, im) for k, re, im in triples})

    def coefficient(self, k):
        return self._table.get(int(k), 0j)

    @property
    def range(self):
        """Largest |k| with a nonzero coefficient."""
        return max((abs(k) for k in self._table), default=0)

    @property
    def offsets(self):
        return sorted(self._table)

    def tail_sum(self, k_cut):
        """Sum of |w_k| over |k| > k_cut."""
        return float(sum(abs(w) for k, w in self._table.items() if abs(k) > k_cut))

    def norm_l1(self):
        return float(sum(abs(w) for w in self._table.values()))

    def symbol(self, x):
        """The real symbol  sum_k w_k exp(2 pi i k x)  evaluated pointwise."""
        return _trig_sum(self._table, x)

    def as_triples(self):
        return [[k, self._table[k].real, self._table[k].imag]
                for k in self.offsets if k >= 0]

    def __eq__(self, other):
        return isinstance(other, Hopping) and self._table == other._table

    def __repr__(self):
        return "Hopping(%r)" % (self._table,)


class Potential:
    """On-site potential: analytic circle function or explicit sequence.

    ``kind='fourier'`` holds the conjugate-symmetric coefficients of a real
    analytic function on the circle as a ``Hopping`` (a mapping is checked
    and converted), whose symbol it samples along a rotation orbit;
    ``kind='sequence'`` stores explicit real values for a site window
    starting at ``first_site``.
    """

    def __init__(self, kind, data, first_site=0):
        self.kind = kind
        if kind == "fourier":
            self.fourier = data if isinstance(data, Hopping) else Hopping(data)
        elif kind == "sequence":
            self.values = np.asarray(data, dtype=float)
            self.first_site = int(first_site)
        else:
            raise ArgumentError("unknown potential kind %r" % (kind,))

    @classmethod
    def zero(cls):
        return cls("fourier", {})

    @classmethod
    def from_config(cls, cfg):
        if cfg.get("type") == "fourier":
            return cls("fourier", Hopping.from_triples(cfg["coefficients"]))
        if cfg.get("type") == "sequence":
            return cls("sequence", cfg["values"], cfg.get("first_site", 0))
        raise ArgumentError("potential config needs type 'fourier' or 'sequence'")

    def value(self, x):
        """Evaluate the circle function (fourier kind only); accepts complex x."""
        if self.kind != "fourier":
            raise ArgumentError("explicit sequences have no circle function")
        return self.fourier.symbol(x)

    def sample(self, sites, alpha, theta):
        """Values at the given integer sites for rotation (alpha, theta)."""
        sites = np.asarray(sites)
        if self.kind == "fourier":
            return self.value(theta + sites * alpha)
        idx = sites - self.first_site
        if np.any(idx < 0) or np.any(idx >= len(self.values)):
            raise ArgumentError("site window extends past the stored sequence")
        return self.values[idx]

    def sup_norm(self):
        if self.kind == "fourier":
            return self.fourier.norm_l1()
        return float(np.max(np.abs(self.values), initial=0.0))


# ── line operators ───────────────────────────────────────────────────────────

def _dense(ab_upper):
    # Dense matrix of Hermitian upper-banded storage: its product with I.
    return banded_matmul(ab_upper, np.eye(ab_upper.shape[1], dtype=ab_upper.dtype))


@dataclass
class LineOperator:
    """Self-adjoint  (H u)_n = sum_k w_k u_{n+k} + eps * v_n u_n  on l2(Z)."""

    hopping: Hopping
    potential: Potential
    alpha: float = GOLDEN_MEAN
    theta: float = 0.0
    epsilon: float = 1.0

    def site_potential(self, sites):
        """eps * v at the given sites."""
        return self.epsilon * self.potential.sample(np.asarray(sites),
                                                    self.alpha, self.theta)

    def norm_bound(self):
        """Upper bound for the operator norm."""
        return self.hopping.norm_l1() + abs(self.epsilon) * self.potential.sup_norm()

    def assemble_banded(self, n_sites, first_site=None):
        """Hermitian upper-banded matrix of the Dirichlet truncation.

        The window is ``[first_site, first_site + n_sites)``; by default it
        is centered at site 0.
        """
        if n_sites <= 0:
            raise ArgumentError("empty truncation window")
        if first_site is None:
            first_site = -(n_sites // 2)
        sites = np.arange(first_site, first_site + n_sites)
        bw = max(self.hopping.range, 1)
        dtype = complex if any(abs(self.hopping.coefficient(k).imag) > 0
                               for k in self.hopping.offsets) else float
        ab = np.zeros((bw + 1, n_sites), dtype=dtype)
        diag = np.full(n_sites, self.hopping.coefficient(0).real, dtype=float)
        diag = diag + np.real(self.site_potential(sites))
        ab[bw] = diag
        # upper entry a[i, i+k] = w_k: row i of H u picks w_k u_{i+k}
        for k in range(1, bw + 1):
            w = self.hopping.coefficient(k)
            ab[bw - k, k:] = w if dtype is complex else w.real
        return ab

    def assemble(self, n_sites, first_site=None):
        """Dense Hermitian Dirichlet truncation (small windows only)."""
        return _dense(self.assemble_banded(n_sites, first_site))

    def apply(self, u, first_site=None):
        """Apply the truncated operator to a window of values (Dirichlet)."""
        return banded_matmul(self.assemble_banded(len(u), first_site), np.asarray(u))

    def to_config(self):
        cfg = {
            "hopping": self.hopping.as_triples(),
            "alpha": self.alpha,
            "theta": self.theta,
            "epsilon": self.epsilon,
        }
        if self.potential.kind == "fourier":
            cfg["potential"] = {
                "type": "fourier",
                "coefficients": self.potential.fourier.as_triples(),
            }
        else:
            cfg["potential"] = {
                "type": "sequence",
                "values": list(map(float, self.potential.values)),
                "first_site": self.potential.first_site,
            }
        return cfg


def free_laplacian(alpha=GOLDEN_MEAN):
    """Discrete Laplacian: nearest-neighbour hopping, no potential."""
    return LineOperator(Hopping({1: 1.0}), Potential.zero(), alpha=alpha,
                        theta=0.0, epsilon=0.0)


def almost_mathieu(coupling, alpha=GOLDEN_MEAN, theta=0.0):
    """Cosine quasi-periodic operator: potential 2*coupling*cos(2 pi x)."""
    return LineOperator(Hopping({1: 1.0}),
                        Potential("fourier", {1: coupling}),
                        alpha=alpha, theta=theta, epsilon=1.0)


# ── strip operators ──────────────────────────────────────────────────────────

@dataclass
class StripOperator:
    """Block-tridiagonal  (H u)_n = C u_{n+1} + V(x + n alpha) u_n + C* u_{n-1}.

    ``coupling`` is any invertible m x m matrix and ``potential`` maps a
    circle point to a Hermitian m x m block; the map must broadcast over
    arrays of phases (returning shape ``(..., m, m)``).
    """

    coupling: np.ndarray
    potential: object  # callable phase -> Hermitian block
    alpha: float
    theta: float = 0.0
    width = property(lambda self: self.coupling.shape[0])  # block size m

    def __post_init__(self):
        self.coupling = np.asarray(self.coupling, dtype=complex)
        if self.coupling.ndim != 2 or self.coupling.shape[0] != self.coupling.shape[1]:
            raise ArgumentError("coupling must be square")
        # fail early on singular coupling: the transfer formalism needs C^{-1}
        if np.linalg.cond(self.coupling) > 1e12:
            raise ArgumentError("coupling block is numerically singular")

    def blocks(self, sites):
        phases = self.theta + np.asarray(sites) * self.alpha
        v = np.asarray(self.potential(phases))
        if v.ndim == 2:  # a constant map that ignored broadcasting
            v = np.broadcast_to(v, (len(np.atleast_1d(sites)),) + v.shape).copy()
        return v

    def assemble_banded(self, n_blocks, first_block=None):
        """Hermitian upper-banded storage of the Dirichlet block truncation."""
        if n_blocks <= 0:
            raise ArgumentError("empty truncation window")
        if first_block is None:
            first_block = -(n_blocks // 2)
        m = self.width
        n = m * n_blocks
        bw = 2 * m - 1
        ab = np.zeros((bw + 1, n), dtype=complex)
        v = self.blocks(np.arange(first_block, first_block + n_blocks))
        # entry (i, j) of block b sits at column b m + j and diagonal offset
        # j - i; the coupling to block b + 1 adds m to the offset
        for i in range(m):
            for j in range(m):
                if i <= j:
                    ab[bw + i - j, j::m] = v[:, i, j]
                ab[bw + i - m - j, m + j::m] = self.coupling[i, j]
        return ab

    def assemble(self, n_blocks, first_block=None):
        """Dense Hermitian Dirichlet block truncation."""
        return _dense(self.assemble_banded(n_blocks, first_block))

    def norm_bound(self):
        phases = np.concatenate([[self.theta], np.linspace(0, 1, 32, endpoint=False)])
        v = np.asarray(self.potential(phases))
        sup_v = float(np.linalg.norm(v, 2, axis=(-2, -1)).max())
        return 2 * float(np.linalg.norm(self.coupling, 2)) + sup_v


class HermitianTrigPoly:
    """Hermitian trig-polynomial block map on the circle.

    ``V(x) = H0 + sum_j (Hj exp(2 pi i j x) + Hj* exp(-2 pi i j x))`` for the
    supplied harmonic blocks ``Hj``.  Written with explicit exponentials so
    that complex phases evaluate the analytic continuation rather than the
    conjugate.
    """

    def __init__(self, constant, harmonics=()):
        constant = np.asarray(constant, dtype=complex)
        m = constant.shape[0]
        if np.linalg.norm(constant - constant.conj().T) > 1e-12 * max(
                1.0, np.linalg.norm(constant)):
            raise ArgumentError("constant block must be Hermitian")
        self._blocks = {0: constant}
        for j, h in enumerate(harmonics, start=1):
            h = np.asarray(h, dtype=complex).reshape(m, m)
            self._blocks[j] = h
            self._blocks[-j] = h.conj().T

    def __call__(self, phase):
        # a complex phase keeps the blocks complex at real points
        return _trig_sum(self._blocks, np.asarray(phase, dtype=complex)[..., None, None])


# ── folding a finite-range line operator to a strip ──────────────────────────

class _FoldedPotential:
    """Hermitian block potential produced by regrouping K consecutive sites."""

    def __init__(self, line_op, off_diag):
        self.op = line_op
        self.k = off_diag.shape[0]
        self.off_diag = off_diag

    def __call__(self, phase):
        phase = np.asarray(phase)
        k = self.k
        # diagonal entry i samples the potential (k-1-i) rotation steps ahead
        offsets = (k - 1 - np.arange(k)) * self.op.alpha
        vals = self.op.epsilon * self.op.potential.value(
            phase[..., None] + offsets if phase.ndim else phase + offsets)
        out = np.broadcast_to(self.off_diag,
                              np.shape(vals)[:-1] + (k, k)).copy()
        idx = np.arange(k)
        out[..., idx, idx] = out[..., idx, idx] + vals
        return out


def fold_to_strip(line_op):
    """Regroup K consecutive line sites into one strip fiber, K the hopping range.

    The coupling block is upper triangular with ``w_K``, nonzero, on the
    diagonal and the long hops above it, the block potential carries the
    short hops plus the sampled on-site terms, and the strip rotation
    advances by K alpha.  A line without a hopping term raises.
    """
    w = line_op.hopping
    k_width = w.range
    if k_width < 1:
        raise ArgumentError("folding needs an off-diagonal hopping term")
    if line_op.potential.kind != "fourier":
        raise ArgumentError("folding needs an analytic potential")
    # taps[K - 1 + d] = w_d: entry (i, j) of the block potential holds
    # w_{i-j} and of the coupling w_{K+i-j}, zero below its diagonal
    taps = np.array([w.coefficient(d) for d in range(1 - k_width, 2 * k_width)])
    at = np.subtract.outer(np.arange(k_width), np.arange(k_width)) + k_width - 1
    return StripOperator(taps[at + k_width], _FoldedPotential(line_op, taps[at]),
                         alpha=k_width * line_op.alpha, theta=line_op.theta)


def fold_vector(u, k_width, first_site=0):
    """Regroup a line window into strip fibers (top component = latest site).

    ``u`` must cover whole fibers: ``len(u)`` divisible by K and
    ``first_site`` divisible by K.  Fiber b collects sites
    ``K b + K - 1, ..., K b`` top to bottom.
    """
    u = np.asarray(u)
    if first_site % k_width or len(u) % k_width:
        raise ArgumentError("window must align with whole fibers")
    blocks = u.reshape(-1, k_width)[:, ::-1]
    return blocks, first_site // k_width


def unfold_vector(blocks, k_width, first_block=0):
    """Inverse of :func:`fold_vector`."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[1] != k_width:
        raise ArgumentError("expected (n_blocks, K) fibers")
    return blocks[:, ::-1].reshape(-1), first_block * k_width


# ── duality ──────────────────────────────────────────────────────────────────

def dual_operator(line_op):
    """Swap the roles of hopping and potential across the Fourier transform.

    The effective potential coefficients ``eps * v_k`` become the dual
    hopping, the hopping symbol becomes the dual potential, and the dual
    coupling constant is 1.  Requires an analytic potential.
    """
    if line_op.potential.kind != "fourier":
        raise ArgumentError("duality needs an analytic potential")
    series = line_op.potential.fourier
    dual_hop = {k: line_op.epsilon * series.coefficient(k) for k in series.offsets}
    return LineOperator(Hopping(dual_hop), Potential("fourier", line_op.hopping),
                        alpha=line_op.alpha, theta=line_op.theta, epsilon=1.0)


# ── config files ─────────────────────────────────────────────────────────────

def operator_from_config(cfg):
    """Build a :class:`LineOperator` from a parsed config mapping."""
    try:
        hopping = Hopping.from_triples(cfg["hopping"])
        potential = Potential.from_config(cfg["potential"])
        op = LineOperator(hopping, potential,
                          alpha=float(cfg.get("alpha", GOLDEN_MEAN)),
                          theta=float(cfg.get("theta", 0.0)),
                          epsilon=float(cfg.get("epsilon", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError("bad operator config: %s" % (exc,)) from exc
    if hopping.range == 0:
        raise ArgumentError("hopping must have at least one off-diagonal term")
    return op


def config_digest(cfg):
    """Short stable digest of a config mapping, for output provenance."""
    import hashlib
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
