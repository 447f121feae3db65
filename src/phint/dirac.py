"""Bond formulas, block structure matrices and discrete Dirac-structure checks.

Block matrices are kept in factored form (s diagonal blocks plus the s x s
mass-matrix factor); dense s(n+m) matrices are materialized only inside
kernel_check, where the explicit kernel representation is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import delta_h_tilde, supplied_energy


@dataclass(frozen=True)
class BlockStructure:
    """Stage evaluations J_i = J(x_i), G_i = G(x_i) and the mass-matrix factor."""

    J_blocks: tuple
    G_blocks: tuple
    M: np.ndarray  # s x s factor; the full matrix is M (x) I_n
    n: int
    m: int

    @property
    def s(self) -> int:
        return len(self.J_blocks)


def assemble_blocks(model, stage_states, scheme) -> BlockStructure:
    """Evaluate J and G at each stage state of one interval."""
    stage_states = np.asarray(stage_states, dtype=float)
    s = scheme.s
    if stage_states.shape != (s, model.n):
        raise ValueError(f"expected {s} stage states of dimension {model.n}, "
                         f"got shape {stage_states.shape}")
    Js = tuple(model.J(x) for x in stage_states)
    Gs = tuple(model.G(x) for x in stage_states)
    return BlockStructure(J_blocks=Js, G_blocks=Gs, M=scheme.M,
                          n=model.n, m=model.m)


def discrete_output(K, G, e) -> np.ndarray:
    """Rows G_i' (K e)_i of the stacked efforts e (s, n).  K = M gives the
    discrete output y = G'(M (x) I_n) e, K = I_s the stagewise collocated
    output.  G is one (n, m) matrix or a per-stage stack (s, n, m)."""
    return np.vecmat(K @ e, G)


def stage_flows(J, G, e, u) -> np.ndarray:
    """Stage flows f with -f_i = J_i e_i + G_i u_i.  J and G are one matrix
    each, or per-stage stacks (s, n, n) and (s, n, m)."""
    return -(np.matvec(J, e) + np.matvec(G, u))


def structure_residual(blocks: BlockStructure, f, e, u) -> float:
    """max-norm defect of -f_i = J_i e_i + G_i u_i over the stages."""
    s, n, m = blocks.s, blocks.n, blocks.m
    f = np.asarray(f, dtype=float).reshape(s, n)
    e = np.asarray(e, dtype=float).reshape(s, n)
    u = np.asarray(u, dtype=float).reshape(s, m)
    worst = 0.0
    for i in range(s):
        res = f[i] + blocks.J_blocks[i] @ e[i] + blocks.G_blocks[i] @ u[i]
        worst = max(worst, float(np.max(np.abs(res), initial=0.0)))
    return worst


def power_residual(sol, scheme) -> float:
    """h y'u - dH_tilde = h y'u + h (M e)'f of one interval; vanishes iff its
    bond variables lie on a discrete Dirac structure."""
    return supplied_energy(sol) - delta_h_tilde(sol, scheme)


def kernel_check(blocks: BlockStructure, rank_threshold: float = 1e-10):
    """Dense kernel-representation test: skew defect of E F' + F E' with
    F = I and E = [[J M^-1, G], [-G', 0]], plus full-row-rank of [F E]."""
    s, n, m = blocks.s, blocks.n, blocks.m
    Mblk = np.kron(blocks.M, np.eye(n))
    Jblk = np.zeros((s * n, s * n))
    Gblk = np.zeros((s * n, s * m))
    for i in range(s):
        Jblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks.J_blocks[i]
        Gblk[i * n:(i + 1) * n, i * m:(i + 1) * m] = blocks.G_blocks[i]
    Minv = np.linalg.inv(Mblk)
    E = np.block([[Jblk @ Minv, Gblk],
                  [-Gblk.T, np.zeros((s * m, s * m))]])
    skew_defect = float(np.max(np.abs(E + E.T)))
    F = np.eye(s * (n + m))
    sv = np.linalg.svd(np.hstack([F, E]), compute_uv=False)
    rank_ok = bool(sv.min() > rank_threshold)
    return skew_defect, rank_ok
