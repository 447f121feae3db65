"""Bond formulas and discrete Dirac-structure checks.

The checks take the stage structure J (s, n, n), G (s, n, m) of one interval,
or of a run stacked along a leading interval axis, and return one value per
interval.  kernel_check makes no rank test: [F E][F E]' = I + E E' >= I with
F = I, so [F E] has full row rank (singular values >= 1) for any E.  Under
the paper's conditions it skips work that cannot change its result: a
constant structure (C2, stride 0 over the run) is tested on one interval,
and only the stage pairs (i, j) with (M^-1)_ij != 0 are formed, which for a
diagonal M (C1) are the s pairs (i, i).  A diagonal stage matrix is likewise
a row scaling in discrete_output, given as its diagonal.
"""
from __future__ import annotations

import math

import numpy as np

from .energy import delta_h_tilde, supplied_energy


def assemble_blocks(model, states, scheme=None):
    """Stacks J(x) and G(x) over states (..., n), the stage states
    (..., s, n) of the scheme's intervals when one is given; returns
    (..., n, n) and (..., n, m), by _stack_blocks after a shape check (an
    empty G for a model without a port)."""
    X = np.asarray(states, dtype=float)
    shape = (model.n,) if scheme is None else (scheme.s, model.n)
    if X.shape[-len(shape):] != shape:
        raise ValueError(f"expected states of shape (..., "
                         f"{', '.join(map(str, shape))}), got shape {X.shape}")
    J, G = _stack_blocks(model, X)
    if model.constant_structure:  # one matrix each: stride 0, read-only
        J = np.broadcast_to(J, X.shape + (model.n,))
        G = G if G is None else np.broadcast_to(G, X.shape + (model.m,))
    return J, np.zeros(X.shape + (0,)) if G is None else G


def _stack_blocks(model, X):
    """J(x) and G(x) over the float states X (..., n), unchecked: a constant
    structure's matrices themselves, any other model's callbacks once per
    state; G is None, never called, without a port."""
    n, m, flat = model.n, model.m, X if X.ndim == 2 else X.reshape(-1, model.n)
    if model.constant_structure:
        return model.J, model.G if m else None
    J = np.array([model.J(x) for x in flat])
    G = np.array([model.G(x) for x in flat]) if m else None
    if X.ndim == 2:  # rows of states: the stacks need no reshape
        return J, G
    return J.reshape(X.shape + (n,)), G if G is None else G.reshape(X.shape + (m,))


def _apply(A, x) -> np.ndarray:
    """A x_k for every row x_k of x (..., k): a matvec per row for a stack A
    (..., r, k), a single GEMM on the (rows, k) reshape for one matrix A."""
    if A.ndim > 2:
        return np.matvec(A, x)
    if x.ndim <= 2:
        return x.dot(A.T)
    rows = x.reshape(math.prod(x.shape[:-1]), A.shape[1]).dot(A.T)
    return rows.reshape(x.shape[:-1] + A.shape[:1])


def efforts(model, states) -> np.ndarray:
    """Efforts gradH at states (..., n): states Q' when gradH = Q x, otherwise
    one gradH call per state."""
    if model.Q is not None:
        return _apply(model.Q, states)
    flat = states.reshape(-1, model.n)
    return np.array([model.gradH(x) for x in flat]).reshape(states.shape)


def discrete_output(K, G, e) -> np.ndarray:
    """Rows G_i' (K e)_i of the stacked efforts e (s, n).  K = M gives the
    discrete output y = G'(M (x) I_n) e, K = I_s the stagewise collocated
    output; a diagonal K given as its diagonal (s,) is the row scaling
    K_ii e_i.  G is one (n, m) matrix or a per-stage stack (s, n, m)."""
    return _apply(np.swapaxes(G, -1, -2), K[:, None] * e if K.ndim == 1 else K @ e)


def drift(J, G, e, u=None) -> np.ndarray:
    """J_i e_i + G_i u_i = -f_i, or J_i e_i without inputs u (no port); J and
    G are one matrix each, or per-stage stacks (s, n, n) and (s, n, m)."""
    g = _apply(J, e)
    if u is not None:
        g += _apply(G, u)
    return g


def structure_residual(J, G, f, e, u):
    """Max-norm defect of (f_i + J_i e_i) + G_i u_i over the stages of each
    interval, of the stacks J and G as given (one matrix each is one GEMM)."""
    res = f + _apply(J, e)
    res += _apply(G, u)
    return np.max(np.abs(res), axis=(-2, -1), initial=0.0)


def power_residual(sol, scheme):
    """h y'u - dH_tilde = h y'u + h (M e)'f of each interval; vanishes iff its
    bond variables lie on a discrete Dirac structure."""
    return supplied_energy(sol) - delta_h_tilde(sol, scheme)


def kernel_check(J, M):
    """Skew defect of E F' + F E' with F = I, E = [[J M^-1, G], [-G', 0]], per
    interval; interval axes of stride 0 (C2) are tested on one interval."""
    lead = J.shape[:-3]
    if lead and not any(J.strides[:-3]):
        return np.full(lead, _skew_defect(J[(slice(1),) * len(lead)], M))
    return _skew_defect(J, M)


def _skew_defect(J, M):
    """The G blocks cancel in E + E', whose (i, j) block is
    (M^-1)_ij (J_i + J_j'), so the defect is max_ij |(M^-1)_ij| |J_i + J_j'|:
    zero under C1 (diagonal M, skew J_i) and C2 (constant skew J).  The pairs
    are the nonzero entries of M^-1, gathered into one (..., P, n, n) stack:
    under C1 the s pairs (i, i) alone, since the others multiply exact zeros."""
    s = J.shape[-3]
    if np.shape(M) != (s, s):
        raise ValueError(f"expected M of shape ({s}, {s}) for {s} stages, "
                         f"got shape {np.shape(M)}")
    Minv = np.abs(np.linalg.inv(M))
    i, j = np.nonzero(Minv)
    D = J[..., i, :, :]
    D += np.swapaxes(J[..., j, :, :], -1, -2)
    norms = np.max(np.abs(D, out=D), axis=(-2, -1)) * Minv[i, j]
    return np.max(norms, axis=-1)
