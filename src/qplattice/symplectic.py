"""The indefinite sesquilinear pairing behind block transfer matrices.

For an invertible coupling block C the pairing is ``<x, y> = x* S y`` with

    S = [[0, -C*],
         [C,  0]],

conjugate linear in the first slot and skew-Hermitian (``S* = -S``).
One-step transfer matrices preserve it, which is what makes constancy of
discrete Wronskians and the stable/unstable/center geometry work.  This
module provides the form itself, inertia bookkeeping for restrictions,
canonically paired bases, and the norm-reversal constant that controls a
restricted map in terms of its inverse.
"""

import numpy as np

from .linalg import ArgumentError, InvariantError, orthonormal_columns, restriction_norm

__all__ = [
    "pairing_matrix",
    "form_value",
    "form_defect",
    "preserves_form",
    "wronskian",
    "krein_matrix",
    "signature",
    "canonical_basis",
    "reverse_norm_constant",
    "reverse_norm_check",
    "direct_sum",
]

# a restricted pairing with an eigenvalue within this fraction of its
# largest is degenerate
DEGENERACY_TOL = 1e-10
FORM_TOL = 1e-12


def pairing_matrix(coupling):
    """Skew-Hermitian pairing matrix S built from the coupling block."""
    c = np.atleast_2d(np.asarray(coupling, dtype=complex))
    m = c.shape[0]
    if c.shape != (m, m):
        raise ArgumentError("coupling must be square")
    s = np.zeros((2 * m, 2 * m), dtype=complex)
    s[:m, m:] = -c.conj().T
    s[m:, :m] = c
    return s


def form_value(s, x, y):
    """Pairing ``x* S y``; frames give the full matrix of pairings."""
    x = np.asarray(x)
    y = np.asarray(y)
    val = x.conj().T @ s @ y
    return val if val.ndim else complex(val)


def form_defect(a, s):
    """Relative defect ``||A* S A - S|| / ||S||`` of form preservation (of each in a stack)."""
    a = np.asarray(a)
    defect = (np.linalg.norm(a.conj().swapaxes(-2, -1) @ s @ a - s, 2, axis=(-2, -1))
              / np.linalg.norm(s, 2))
    return float(defect) if defect.ndim == 0 else defect


def preserves_form(a, s):
    """True when the relative form defect is at most ``FORM_TOL``."""
    return form_defect(a, s) <= FORM_TOL


def wronskian(coupling, x_state, y_state):
    """Discrete Wronskian of two solutions from their transfer states.

    States stack the next value on top: ``x = (u(n+1), u(n))``.  The value
    ``u(n)* C v(n+1) - u(n+1)* C* v(n)`` equals the pairing of the two
    states and is independent of n when both sequences solve the same
    difference equation.  Stacks of states (last axis ``2m``) pair entry
    by entry into an array; two single states give a complex number.
    """
    c = np.atleast_2d(np.asarray(coupling, dtype=complex))
    m = c.shape[0]
    x = np.asarray(x_state)
    y = np.asarray(y_state)
    w = np.sum(x[..., m:].conj() * (y[..., :m] @ c.T)
               - x[..., :m].conj() * (y[..., m:] @ c.conj()), axis=-1)
    return complex(w) if w.ndim == 0 else w


def krein_matrix(s, frame):
    """Hermitian matrix ``i * (frame* S frame)`` of pairings of a frame (of each in a stack)."""
    frame = np.atleast_2d(np.asarray(frame))
    g = 1j * (frame.conj().swapaxes(-2, -1) @ s @ frame)
    return 0.5 * (g + g.conj().swapaxes(-2, -1))


def _nondegenerate_eigh(g):
    # Eigendecomposition of the Hermitian g, or of each in a stack; an
    # eigenvalue within DEGENERACY_TOL of its matrix's largest in modulus raises.
    eig, vec = np.linalg.eigh(g)
    floor = DEGENERACY_TOL * np.maximum(np.abs(eig).max(axis=-1, keepdims=True), 1e-300)
    bad = (np.abs(eig) <= floor).any(axis=-1)
    if bad.any():
        raise InvariantError("degenerate restricted pairing (|eig| <= %.1e)" % floor[bad][0, 0])
    return eig, vec


def signature(g):
    """Inertia ``(p, q)`` of a Hermitian matrix; zero eigenvalues raise.

    ``p`` counts positive and ``q`` negative eigenvalues.  An eigenvalue
    within ``DEGENERACY_TOL * max|eig|`` of zero makes the restricted
    pairing degenerate, which the geometric constructions cannot tolerate.
    """
    g = np.atleast_2d(np.asarray(g))
    if g.shape[1] == 0:
        return 0, 0
    eig, _ = _nondegenerate_eigh(g)
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def canonical_basis(s, frame):
    """Canonically paired basis of the span of ``frame`` (of each in a stack).

    Requires the restriction of the pairing to the span to be nondegenerate
    with balanced inertia (p = q = k).  Returns ``(xi, p)`` where the
    columns of ``xi`` satisfy ``<xi_i, xi_{i+k}> = 1``,
    ``<xi_{i+k}, xi_i> = -1`` and every other pairing vanishes, i.e. the
    Krein matrix of ``xi`` is ``[[0, iI], [-iI, 0]]``.
    """
    q = orthonormal_columns(np.atleast_2d(np.asarray(frame, dtype=complex)))
    dim = q.shape[-1]
    if dim == 0:
        return q.copy(), 0
    if dim % 2:
        raise InvariantError("paired basis needs an even-dimensional span")
    eig, vec = _nondegenerate_eigh(krein_matrix(s, q))
    p = np.sum(eig > 0, axis=-1).ravel()
    if np.any(2 * p != dim):
        raise InvariantError("restriction has nonzero signature (p=%d of %d)"
                             % (p[2 * p != dim][0], dim))
    # normalize to diag(I, -I) and order positive eigenvalues first
    order = np.argsort(-eig, axis=-1)[..., None, :]
    n = np.take_along_axis(vec / np.sqrt(np.abs(eig))[..., None, :], order, axis=-1)
    k = dim // 2
    eye = np.eye(k)
    m0 = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    xi = q @ (n @ m0)
    return xi, k


def reverse_norm_constant(s, frame):
    """Norm-reversal constant of a nondegenerate balanced subspace (of each in a stack).

    ``c(V) = ||S|| * sum_i ||xi_i|| ||xi_{i^*}||`` over the canonical basis,
    where ``i^*`` is the canonical partner index.  With balanced inertia the
    partner of ``i`` is ``i + k`` (and back), so the sum is symmetric.
    """
    xi, k = canonical_basis(s, frame)
    norms = np.linalg.norm(xi, axis=-2)
    paired = 2.0 * np.sum(norms[..., :k] * norms[..., k:], axis=-1)
    constant = float(np.linalg.norm(s, 2)) * paired if k else np.ones(xi.shape[:-2])
    return float(constant) if constant.ndim == 0 else constant


def reverse_norm_check(s, a, frame):
    """Two-sided comparison of a restricted map with its restricted inverse.

    Returns a dict with ``norm`` (map restricted to span(frame)),
    ``inverse_norm`` (inverse restricted to the image), the constant ``c``
    used, and ``ok`` for  c^-1 * inverse_norm <= norm <= c * inverse_norm.
    """
    a = np.asarray(a, dtype=complex)
    q = orthonormal_columns(np.atleast_2d(np.asarray(frame, dtype=complex)))
    image = orthonormal_columns(a @ q)
    c = max(reverse_norm_constant(s, q), reverse_norm_constant(s, image))
    fwd = restriction_norm(a, q)
    inv = restriction_norm(np.linalg.inv(a), image)
    ok = (inv / c <= fwd * (1 + 1e-12)) and (fwd <= c * inv * (1 + 1e-12))
    return {"norm": fwd, "inverse_norm": inv, "constant": c, "ok": bool(ok)}


def direct_sum(a, b):
    """Interleaved direct sum of two even-dimensional block matrices.

    Top halves of both summands come first, then both bottom halves, so the
    result acts on stacked states the same way the summands act on their
    own stacked states.  Works for pairing matrices and for maps alike.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[0] % 2 or b.shape[0] % 2:
        raise ArgumentError("direct sum needs even dimensions")
    n1 = a.shape[0] // 2
    n2 = b.shape[0] // 2
    n = n1 + n2
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(a.dtype, b.dtype))
    pos_a = np.concatenate([np.arange(n1), n + np.arange(n1)])
    pos_b = np.concatenate([n1 + np.arange(n2), n + n1 + np.arange(n2)])
    out[np.ix_(pos_a, pos_a)] = a
    out[np.ix_(pos_b, pos_b)] = b
    return out
