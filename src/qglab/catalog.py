"""Catalog of unitary corepresentations of an instance.

The regular corepresentation W lives in A (x) A-hat; pushing its dual leg
through the Wedderburn decomposition of the dual algebra splits it into one
unitary corepresentation per dual block.  The counit block of the dual gives
the trivial corepresentation, which the catalog checks it holds, so direct
sums of its entries realize every dimension; ``unitary_corepresentation``
picks such sums, one per row of uniforms, into one stacked block-diagonal
tensor.
"""

from __future__ import annotations

import bisect

import numpy as np

from .corep import (Corepresentation, check_dimension, is_corep,
                    unitarity_defects)
from .duality import build_dual
from .errors import StructuralError
from .qgroup import FiniteQuantumGroup


def corep_catalog(G: FiniteQuantumGroup):
    """One unitary corepresentation per block of the dual algebra, checked."""
    return G.cached("corep_catalog", _corep_catalog)


def _corep_catalog(G):
    dual = build_dual(G)
    bd = dual.group.block_decomposition()
    cat = []
    # block k of each dual basis element, (n, n_k, n_k): the entries of V_k
    for k, b in enumerate(bd.images(np.eye(G.dim))):
        V = Corepresentation(G, np.ascontiguousarray(np.moveaxis(b, 0, -1)))
        chk = is_corep(V, tol=1e-8)
        if not chk:
            raise StructuralError(
                "dual block %d does not yield a corepresentation (violation %.3e)"
                % (k, chk.violation))
        ures = float(np.max(unitarity_defects(V)))
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


def unitary_corepresentation(G: FiniteQuantumGroup, uniforms) -> Corepresentation:
    """Unitary corepresentations of dimension d: direct sums of catalog
    entries, preferring the largest nontrivial summands that fit (the
    trivial entry always fits).

    ``uniforms`` (..., d) are d uniforms per sum, the ``uniforms`` of a
    ``similarity_draw``; each summand is picked with the next one.  The sums
    are stacked along the leading axes, tensor (..., d, d, n); rows that
    pick the same summands share one assembled sum.
    """
    d = np.shape(uniforms)[-1]
    check_dimension(d)
    cat = corep_catalog(G)
    # The entries that fit in each remaining dimension, picked with
    # probability proportional to their dimension: the first entry whose
    # cumulative probability exceeds one uniform, which is the pick of
    # rng.choice(len(fitting), p=probabilities) without its per-call checks.
    fits = {}
    for remaining in range(1, d + 1):
        fitting = [k for k, V in enumerate(cat) if V.d <= remaining]
        weights = np.array([cat[k].d for k in fitting], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        fits[remaining] = fitting, (cdf / cdf[-1]).tolist()
    sums, which = {}, []       # the catalog indices picked -> their sum's row
    for row in np.reshape(uniforms, (-1, d)).tolist():
        picks, start = [], 0
        while start < d:
            fitting, cdf = fits[d - start]
            k = fitting[bisect.bisect_right(cdf, row[len(picks)])]
            picks.append(k)
            start += cat[k].d
        which.append(sums.setdefault(tuple(picks), len(sums)))
    t = np.zeros((len(sums), d, d, G.dim), dtype=complex)
    for block_sum, picks in zip(t, sums):
        start = 0
        for k in picks:
            end = start + cat[k].d
            block_sum[start:end, start:end] = cat[k].tensor
            start = end
    return Corepresentation(G, t[which].reshape(np.shape(uniforms)[:-1]
                                                + (d, d, G.dim)))
