"""Catalog of unitary corepresentations of an instance.

The regular corepresentation W lives in A (x) A-hat; pushing its dual leg
through the Wedderburn decomposition of the dual algebra splits it into one
unitary corepresentation per dual block.  The counit block of the dual gives
the trivial corepresentation, which the catalog checks it holds, so direct
sums of its entries realize every dimension; ``unitary_corepresentation``
draws such sums, one per seed, into one stacked block-diagonal tensor.
"""

from __future__ import annotations

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


def unitary_corepresentation(G: FiniteQuantumGroup, d: int,
                             seed=0) -> Corepresentation:
    """A unitary corepresentation of dimension d: a seeded direct sum of
    catalog entries, preferring the largest nontrivial summands that fit
    (the trivial entry always fits).

    ``seed`` is one seed or an array of them; each seed picks its summands
    with its own generator, and the sums are stacked along the seed axes,
    tensor (..., d, d, n).  A seed may also be a generator, which then
    draws from where its stream stands.
    """
    check_dimension(d)
    cat = corep_catalog(G)
    # The entries that fit in each remaining dimension, picked with
    # probability proportional to their dimension: the first entry whose
    # cumulative probability exceeds one uniform draw, which is the pick of
    # rng.choice(len(fitting), p=probabilities) without its per-call checks.
    fits = {}
    for remaining in range(1, d + 1):
        fitting = [V for V in cat if V.d <= remaining]
        weights = np.array([V.d for V in fitting], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        fits[remaining] = fitting, cdf / cdf[-1]
    seeds = np.asarray(seed)
    t = np.zeros(seeds.shape + (d, d, G.dim), dtype=complex)
    for at, s in np.ndenumerate(seeds):
        rng = (s if isinstance(s, np.random.Generator)
               else np.random.default_rng(int(s)))
        start = 0
        while start < d:
            fitting, cdf = fits[d - start]
            pick = fitting[int(cdf.searchsorted(rng.random(), side="right"))]
            t[at][start:start + pick.d, start:start + pick.d] = pick.tensor
            start += pick.d
    return Corepresentation(G, t)
