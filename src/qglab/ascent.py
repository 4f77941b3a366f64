"""One alternating rank-one ascent for certified lower bounds on
sup ||sum_k (A_k xi | eta) theta_k|| over unit vectors xi and eta, and the
stacked operator family it runs on."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class OperatorStack:
    """The square operators A_1, ..., A_K on C^dim stacked into one matrix.

    Row r of ``stack`` is row ``word[r]`` of A_{owner[r]}; rows that store no
    entry are left out.  One matvec gives every A_k xi and one adjoint matvec
    sums the A_k* eta_k; ``by_owner`` and ``by_word`` sum the stacked rows per
    operator and per row.  The operators (dense or sparse) are read one at a
    time, so a generator of large ones is never held whole.  The stack only
    applies the operators; it gives back no operator or corner of one, and
    it holds no adjoint: ``rank_one_ascent`` forms the one it applies.
    """

    def __init__(self, operators, dim):
        blocks, owner, word = [], [], []
        for k, m in enumerate(operators):
            m = sp.csr_matrix(m)
            rows = np.flatnonzero(np.diff(m.indptr))
            blocks.append(m[rows])
            owner.append(np.full(len(rows), k))
            word.append(rows)
        self.dim = dim
        self.stack = sp.vstack(blocks, format="csr")
        self.owner = np.concatenate(owner)
        self.word = np.concatenate(word)
        # complex, not real: a real row sum made each step about 3x slower
        ones = np.ones(len(self.word), dtype=complex)
        cols = np.arange(len(self.word))
        self.by_owner = sp.csr_matrix((ones, (self.owner, cols)),
                                      shape=(len(blocks), len(cols)))
        self.by_word = sp.csr_matrix((ones, (self.word, cols)),
                                     shape=(dim, len(cols)))

    def values(self, xi, eta) -> np.ndarray:
        """(A_k xi | eta) for every k."""
        return self.by_owner @ ((self.stack @ xi) * np.conj(eta)[self.word])


def rank_one_ascent(family: OperatorStack, theta, support, seed=0) -> float:
    """Certified lower bound on sup ||pi(omega)|| over the vector functionals
    omega at unit vectors, where pi(omega) = sum_k omega(A_k) theta_k for the
    (K, p, q) stack theta.  Such an omega has dual norm at most one, so the
    value at every evaluated pair is a lower bound on the norm of pi.

    6 seeded starts, supported on the first ``support`` coordinates, of at
    most 25 steps each; a start stops when its value moves by less than 1e-8.
    At the top singular pair (l, r) of pi(omega), (l | pi(omega) r) =
    (M xi | eta) for M = sum_k w_k A_k with w_k = (l | theta_k r), so a step
    sets eta to M xi and then xi to M* eta, normalized: the value never falls.
    """
    stack_h = family.stack.conj().T.tocsr()
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(6):
        xi, eta = np.zeros((2, family.dim), dtype=complex)
        for v in (xi, eta):
            v[:support] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
            v /= np.linalg.norm(v)
        prev = 0.0
        for _ in range(25):
            images = family.stack @ xi          # every A_k xi on its rows
            piw = np.tensordot(
                family.by_owner @ (images * np.conj(eta)[family.word]), theta, 1)
            U, s, Vh = np.linalg.svd(piw)
            val = float(s[0])
            best = max(best, val)
            w = np.einsum("i,kij,j->k", U[:, 0].conj(), theta, Vh[0].conj())
            m_xi = family.by_word @ (w[family.owner] * images)
            nrm = np.linalg.norm(m_xi)
            if nrm < 1e-14:
                break
            eta = m_xi / nrm
            mh_eta = stack_h @ (np.conj(w)[family.owner] * eta[family.word])
            nrm = np.linalg.norm(mh_eta)
            if nrm < 1e-14:
                break
            xi = mh_eta / nrm
            if abs(val - prev) < 1e-8:
                break
            prev = val
    return best
