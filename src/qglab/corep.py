"""Corepresentations V in A (x) M_d and the attached representation calculus.

V is stored as a (d, d, n) coefficient tensor: entry (i, j) is the algebra
element v_ij.  The slices pi(omega)_ij = omega(v_ij) represent the
convolution algebra; the calculus implemented here covers:

  * the corepresentation identity Delta(v_ij) = sum_k v_ik (x) v_kj and its
    anti-representation mirror;
  * the variants pi*, pi-check, pi-tilde and their generators V* and
    (S (x) id)V;
  * coefficient elements T_{ab} = sum_ij v_ij a_j conj(b_i) pairing as
    (pi(omega) a | b);
  * inversion by the antipode, unitarization by Haar averaging, essential
    idempotents of degenerate corepresentations, and the completely bounded
    norm ||V|| against certified lower bounds for the plain norm ||pi||.
"""

from __future__ import annotations

import numpy as np

from .convolution import Functional, counit_functional, sharp, star_l1
from .errors import NotInvertibleError, OwnerMismatchError, StructuralError
from .qgroup import AlgebraElement, FiniteQuantumGroup

INVERTIBILITY_RTOL = 1e-8


class Corepresentation:
    """A d x d array of algebra elements; candidates may be held pre-check."""

    def __init__(self, owner, tensor):
        self.owner = owner
        t = np.asarray(tensor, dtype=complex)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[2] != owner.dim:
            raise StructuralError("corepresentation tensor has shape %s" % (t.shape,))
        self.tensor = t
        self.d = t.shape[0]

    def entry(self, i, j) -> AlgebraElement:
        return AlgebraElement(self.owner, self.tensor[i, j])

    def gns_matrix(self) -> np.ndarray:
        """The image in B(C^d (x) H_h), blocks indexed by the matrix leg:
        block (i, j) is lambda(v_ij)."""
        n = self.owner.dim
        blocks = np.tensordot(self.tensor, self.owner.gns().images, 1)
        return blocks.transpose(0, 2, 1, 3).reshape(self.d * n, self.d * n)

    def __repr__(self):
        return "Corepresentation(%r, d=%d)" % (self.owner.name, self.d)


def trivial_corep(G: FiniteQuantumGroup, d: int = 1) -> Corepresentation:
    t = np.zeros((d, d, G.dim), dtype=complex)
    for i in range(d):
        t[i, i] = G.unit
    return Corepresentation(G, t)


class CorepCheck:
    def __init__(self, is_corep, violation, anti_violation):
        self.is_corep = bool(is_corep)
        self.violation = float(violation)
        self.anti_violation = float(anti_violation)

    def __bool__(self):
        return self.is_corep

    def __repr__(self):
        return ("CorepCheck(is_corep=%s, violation=%.3e, anti=%.3e)"
                % (self.is_corep, self.violation, self.anti_violation))


def is_corep(V: Corepresentation, tol: float = 1e-9) -> CorepCheck:
    """Delta(v_ij) = sum_k v_ik (x) v_kj, and the anti variant, entrywise."""
    G, t = V.owner, V.tensor
    lhs = np.einsum("ijm,mab->ijab", t, G.coproduct)
    rhs = np.einsum("ika,kjb->ijab", t, t)
    anti = np.einsum("kja,ikb->ijab", t, t)
    v = float(np.max(np.abs(lhs - rhs)))
    av = float(np.max(np.abs(lhs - anti)))
    return CorepCheck(v <= tol, v, av)


def pi_of(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi(omega) = (omega (x) id)V as a d x d matrix."""
    if V.owner is not w.owner:
        raise OwnerMismatchError("functional and corepresentation owners differ")
    return np.einsum("ijm,m->ij", V.tensor, w.coeffs)


def pi_star(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi*(omega) = pi(omega#)*."""
    return pi_of(V, sharp(w)).conj().T


def pi_tilde(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi~(omega) = pi(omega*)*."""
    return pi_of(V, star_l1(w)).conj().T


def pi_check(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi-check(omega) = pi((omega*)#)."""
    return pi_of(V, sharp(star_l1(w)))


def _entrywise_adjoint_transpose(V):
    G, t = V.owner, V.tensor
    adj = np.einsum("jim,mp->ijp", np.conj(t), G.star)
    return Corepresentation(G, adj)


def _antipode_slice(V):
    G, t = V.owner, V.tensor
    return Corepresentation(G, np.einsum("ijm,mp->ijp", t, G.antipode))


def generator_of(variant: str, V: Corepresentation) -> Corepresentation:
    """The corepresentation-shaped tensor generating a variant of pi.

    'tilde': V* (entrywise adjoint of the transposed entry grid);
    'check': (S (x) id)V;
    'star':  ((S (x) id)V)* -- the adjoint of the check generator.
    """
    if variant == "tilde":
        return _entrywise_adjoint_transpose(V)
    if variant == "check":
        return _antipode_slice(V)
    if variant == "star":
        return _entrywise_adjoint_transpose(_antipode_slice(V))
    raise ValueError("unknown variant %r (use 'tilde', 'check' or 'star')" % variant)


def coefficient(V: Corepresentation, alpha, beta) -> AlgebraElement:
    """T_{alpha,beta} = sum_ij v_ij alpha_j conj(beta_i), pairing as (pi(w)a|b)."""
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    if a.shape != (V.d,) or b.shape != (V.d,):
        raise StructuralError("coefficient vectors must have length %d" % V.d)
    return AlgebraElement(V.owner, np.einsum("ijm,j,i->m", V.tensor, a, np.conj(b)))


def antipode_coeff_check(V: Corepresentation, alpha, beta) -> float:
    """Max violation of S(T^{pi*}_{a,b})* = T^{pi}_{b,a}."""
    from .qgroup import adjoint, apply_antipode

    Vstar = generator_of("star", V)
    lhs = adjoint(apply_antipode(coefficient(Vstar, alpha, beta)))
    rhs = coefficient(V, beta, alpha)
    return float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))


# ---------------------------------------------------------------------------
# Products and inversion inside A (x) M_d


def corep_product(X: Corepresentation, Y: Corepresentation) -> Corepresentation:
    if X.owner is not Y.owner or X.d != Y.d:
        raise OwnerMismatchError("mismatched tensors in A (x) M_d product")
    G = X.owner
    t = np.einsum("ikp,kjq,pqm->ijm", X.tensor, Y.tensor, G.mult)
    return Corepresentation(G, t)


def corep_distance(X: Corepresentation, Y: Corepresentation) -> float:
    return float(np.max(np.abs(X.tensor - Y.tensor)))


def _ratio_test(g, rtol=INVERTIBILITY_RTOL):
    """(sigma_min >= rtol * sigma_max, sigma_min) for the matrix g."""
    s = np.linalg.svd(g, compute_uv=False)
    return bool(s[-1] >= rtol * s[0]), s[-1]


def inverse_corep(V: Corepresentation, tol: float = 1e-8) -> Corepresentation:
    """(S (x) id)V, certified as a two-sided inverse of V in A (x) M_d."""
    ok, smin = _ratio_test(V.gns_matrix())
    if not ok:
        raise NotInvertibleError(
            "corepresentation is singular (smallest singular value %.3e)" % smin)
    W = _antipode_slice(V)
    one = trivial_corep(V.owner, V.d)
    left = corep_distance(corep_product(W, V), one)
    right = corep_distance(corep_product(V, W), one)
    if max(left, right) > tol * max(1.0, float(np.max(np.abs(V.tensor)))):
        raise NotInvertibleError(
            "antipode slice is not a two-sided inverse (residuals %.3e / %.3e); "
            "input is not a corepresentation" % (left, right))
    return W


# ---------------------------------------------------------------------------
# Test-instance generator


def random_invertible_corep(G: FiniteQuantumGroup, d: int, seed: int,
                            max_cond: float = 10.0) -> Corepresentation:
    """(1 (x) T) V0 (1 (x) T^-1) for a seeded T with condition <= max_cond and
    a unitary corepresentation V0 of dimension d from the instance catalog."""
    from .catalog import unitary_corepresentation

    V0 = unitary_corepresentation(G, d, seed=seed)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _, Vh = np.linalg.svd(A)
    smin = 1.0 / max_cond
    svals = smin + (1.0 - smin) * rng.random(d)
    svals[0] = 1.0
    if d > 1:
        svals[-1] = smin
    T = U @ np.diag(svals) @ Vh
    return conjugate_corep(V0, T), T, V0


def conjugate_corep(V: Corepresentation, T: np.ndarray) -> Corepresentation:
    Tinv = np.linalg.inv(T)
    t = np.einsum("ip,pqm,qj->ijm", T, V.tensor, Tinv)
    return Corepresentation(V.owner, t)


def corep_direct_sum(V: Corepresentation, W: Corepresentation) -> Corepresentation:
    if V.owner is not W.owner:
        raise OwnerMismatchError("direct sum across instances")
    d = V.d + W.d
    t = np.zeros((d, d, V.owner.dim), dtype=complex)
    t[:V.d, :V.d] = V.tensor
    t[V.d:, V.d:] = W.tensor
    return Corepresentation(V.owner, t)


def zero_corep(G: FiniteQuantumGroup, d: int) -> Corepresentation:
    return Corepresentation(G, np.zeros((d, d, G.dim), dtype=complex))


# ---------------------------------------------------------------------------
# Unitarization by Haar averaging


def unitarize(V: Corepresentation, tol: float = 1e-8):
    """Average V*V by the Haar state and conjugate by the positive square root.

    Returns (T, V') with T = (h (x) id)(V*V) positive definite and
    V' = (1 (x) T^(1/2)) V (1 (x) T^(-1/2)) unitary.
    """
    G = V.owner
    g = V.gns_matrix()
    ok, smin = _ratio_test(g)
    if not ok:
        raise NotInvertibleError(
            "cannot unitarize a singular corepresentation (sigma_min %.3e)" % smin)
    VstarV = corep_product(_entrywise_adjoint_transpose(V), V)
    T = np.einsum("ijm,m->ij", VstarV.tensor, G.haar)
    T = (T + T.conj().T) / 2
    w, U = np.linalg.eigh(T)
    floor = float(smin) ** 2        # 1 / ||V^-1||^2
    if np.min(w) < floor - max(tol, 1e-8):
        raise NotInvertibleError(
            "averaged operator is not positive definite above the invertibility "
            "floor (min eig %.3e < %.3e); input is not a corepresentation"
            % (float(np.min(w)), floor))
    if np.min(w) <= 0:
        raise NotInvertibleError("averaged operator not positive definite")
    Thalf = U @ np.diag(np.sqrt(w)) @ U.conj().T
    Tihalf = U @ np.diag(1.0 / np.sqrt(w)) @ U.conj().T
    t = np.einsum("ip,pqm,qj->ijm", Thalf, V.tensor, Tihalf)
    return T, Corepresentation(G, t)


# ---------------------------------------------------------------------------
# Degenerate corepresentations


class EssentialData:
    def __init__(self, P, Q, dimension, idempotent_violation, commute_violation):
        self.P = P                        # idempotent in A (x) M_d
        self.Q = Q                        # induced idempotent on C^d
        self.dimension = int(dimension)
        self.idempotent_violation = float(idempotent_violation)
        self.commute_violation = float(commute_violation)


def essential_data(V: Corepresentation) -> EssentialData:
    """P = V (S (x) id)V and the essential projection Q = pi(counit).

    The counit is the unit of the convolution algebra, so pi(eps) is an
    idempotent whose range is the joint column space of all pi(omega);
    pi(omega) Q = pi(omega) for every omega.
    """
    W = _antipode_slice(V)
    P = corep_product(V, W)
    P2 = corep_product(P, P)
    other = corep_product(W, V)
    idem = corep_distance(P2, P)
    comm = corep_distance(P, other)
    Q = pi_of(V, counit_functional(V.owner))
    dim = int(round(float(np.real(np.trace(Q)))))
    return EssentialData(P, Q, dim, idem, comm)


# ---------------------------------------------------------------------------
# Norms


def cb_norm(V: Corepresentation) -> float:
    """||pi||_cb = ||V|| = the operator norm of the image in B(H_h (x) C^d)."""
    return float(np.linalg.norm(V.gns_matrix(), 2))


def bounded_norm_lower(V: Corepresentation, restarts: int = 8, seed: int = 0,
                       iters: int = 60) -> float:
    """Certified lower bound for ||pi|| = sup { ||pi(omega)|| : ||omega||_1 <= 1 }.

    Ascends over the rank-one trace-norm extreme points of the dual unit
    ball, block by block: omega(x) = (x_k u | v) with unit vectors u, v in
    block k has exact dual norm one, so every evaluated candidate certifies.
    """
    G = V.owner
    bd = G.block_decomposition()
    d = V.d
    # per block: E[k][i,j] = the block image of v_ij
    entry_blocks = []
    for k, nk in enumerate(bd.sizes):
        E = np.zeros((d, d, nk, nk), dtype=complex)
        for i in range(d):
            for j in range(d):
                E[i, j] = bd.forward(V.entry(i, j))[k]
        entry_blocks.append(E)
    rng = np.random.default_rng(seed)
    best = 0.0
    for k, nk in enumerate(bd.sizes):
        E = entry_blocks[k]
        for _ in range(restarts):
            u = rng.standard_normal(nk) + 1j * rng.standard_normal(nk)
            v = rng.standard_normal(nk) + 1j * rng.standard_normal(nk)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            for _ in range(iters):
                piw = np.einsum("ijpq,q,p->ij", E, u, np.conj(v))
                U2, _, V2h = np.linalg.svd(piw)
                ell, r = U2[:, 0], V2h[0].conj()
                Mx = np.einsum("i,j,ijpq->pq", np.conj(ell), r, E)
                Mu = Mx @ u
                nv = np.linalg.norm(Mu)
                if nv < 1e-14:
                    break
                v_new = Mu / nv
                Mv = Mx.conj().T @ v_new
                nu = np.linalg.norm(Mv)
                if nu < 1e-14:
                    break
                u_new = Mv / nu
                if (np.linalg.norm(u_new - u) < 1e-12
                        and np.linalg.norm(v_new - v) < 1e-12):
                    u, v = u_new, v_new
                    break
                u, v = u_new, v_new
            piw = np.einsum("ijpq,q,p->ij", E, u, np.conj(v))
            best = max(best, float(np.linalg.norm(piw, 2)))
    return best
