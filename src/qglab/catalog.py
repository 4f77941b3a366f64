"""Catalog of unitary corepresentations of an instance.

The regular corepresentation W lives in A (x) A-hat; pushing its dual leg
through the Wedderburn decomposition of the dual algebra splits it into one
unitary corepresentation per dual block.  Direct sums of these (the trivial
block is always present) realize every requested dimension.
"""

from __future__ import annotations

import numpy as np

from .corep import Corepresentation, corep_direct_sum, is_corep
from .duality import build_dual
from .errors import StructuralError
from .qgroup import FiniteQuantumGroup, block_decompose


def corep_catalog(G: FiniteQuantumGroup):
    """One unitary corepresentation per block of the dual algebra, checked."""
    return G.cached("corep_catalog", _corep_catalog)


def _corep_catalog(G):
    dual = build_dual(G)
    bd = block_decompose(dual.group)
    n = G.dim
    blocks_of_basis = [bd.forward(dual.group.basis_element(mu)) for mu in range(n)]
    cat = []
    for k, dk in enumerate(bd.sizes):
        t = np.zeros((dk, dk, n), dtype=complex)
        for mu in range(n):
            t[:, :, mu] = blocks_of_basis[mu][k]
        V = Corepresentation(G, t)
        chk = is_corep(V, tol=1e-8)
        if not chk:
            raise StructuralError(
                "dual block %d does not yield a corepresentation (violation %.3e)"
                % (k, chk.violation))
        g = V.gns_matrix()
        ures = np.linalg.norm(g @ g.conj().T - np.eye(g.shape[0]), 2)
        if ures > 1e-8:
            raise StructuralError(
                "dual block %d is not unitary (residual %.3e)" % (k, ures))
        cat.append(V)
    cat.sort(key=lambda V: (V.d, _sort_key(V)))
    return cat


def _sort_key(V):
    return tuple(np.round(V.tensor.reshape(-1).real, 9)) + \
        tuple(np.round(V.tensor.reshape(-1).imag, 9))


def available_dimensions(G: FiniteQuantumGroup, dmax: int = 16):
    dims = sorted({V.d for V in corep_catalog(G)})
    reach = set(dims)
    changed = True
    while changed:
        changed = False
        for a in list(reach):
            for b in dims:
                if a + b <= dmax and a + b not in reach:
                    reach.add(a + b)
                    changed = True
    return sorted(reach)


def unitary_corepresentation(G: FiniteQuantumGroup, d: int,
                             seed: int = 0) -> Corepresentation:
    """A unitary corepresentation of dimension d: a seeded direct sum of
    catalog entries, preferring the largest nontrivial summands that fit."""
    cat = corep_catalog(G)
    rng = np.random.default_rng(seed)
    parts = []
    remaining = d
    while remaining > 0:
        fitting = [V for V in cat if V.d <= remaining]
        if not fitting:
            raise StructuralError(
                "no unitary corepresentation of dimension %d over %s"
                % (d, G.name))
        weights = np.array([V.d for V in fitting], dtype=float)
        pick = fitting[rng.choice(len(fitting), p=weights / weights.sum())]
        parts.append(pick)
        remaining -= pick.d
    out = parts[0]
    for V in parts[1:]:
        out = corep_direct_sum(out, V)
    return out
