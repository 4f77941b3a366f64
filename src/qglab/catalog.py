"""Catalog of unitary corepresentations of an instance.

The regular corepresentation W lives in A (x) A-hat; pushing its dual leg
through the Wedderburn decomposition of the dual algebra splits it into one
unitary corepresentation per dual block.  The counit block of the dual gives
the trivial corepresentation, which the catalog checks it holds, so direct
sums of its entries realize every dimension.
"""

from __future__ import annotations

from functools import reduce

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
    for k in range(len(bd.sizes)):
        V = Corepresentation(G, np.stack([b[k] for b in blocks_of_basis], axis=2))
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
    if not any(V.d == 1 for V in cat):
        raise StructuralError(
            "the corep catalog of %s holds no 1-dimensional entry, so sums of "
            "its entries do not reach every dimension" % G.name)
    cat.sort(key=lambda V: (V.d, _sort_key(V)))
    return cat


def _sort_key(V):
    return tuple(np.round(V.tensor.reshape(-1).real, 9)) + \
        tuple(np.round(V.tensor.reshape(-1).imag, 9))


def unitary_corepresentation(G: FiniteQuantumGroup, d: int,
                             seed: int = 0) -> Corepresentation:
    """A unitary corepresentation of dimension d: a seeded direct sum of
    catalog entries, preferring the largest nontrivial summands that fit
    (the trivial entry always fits)."""
    cat = corep_catalog(G)
    rng = np.random.default_rng(seed)
    parts = []
    remaining = d
    while remaining > 0:
        fitting = [V for V in cat if V.d <= remaining]
        weights = np.array([V.d for V in fitting], dtype=float)
        pick = fitting[rng.choice(len(fitting), p=weights / weights.sum())]
        parts.append(pick)
        remaining -= pick.d
    return reduce(corep_direct_sum, parts)
