"""Corepresentations V in A (x) M_d and the attached representation calculus.

V is stored as a (d, d, n) coefficient tensor: entry (i, j) is the algebra
element v_ij.  The tensor may carry leading axes, (..., d, d, n): a stack of
corepresentations of one dimension, which every kernel below contracts with
``...`` so that one corepresentation and a stack take the same code path
(a check then holds, and a value is given, per stacked corepresentation).
The slices pi(omega)_ij = omega(v_ij) represent the convolution algebra; the
calculus implemented here covers:

  * the corepresentation identity Delta(v_ij) = sum_k v_ik (x) v_kj (its
    anti-representation mirror is the identity of the transposed entry grid,
    ``V.tensor.swapaxes(-3, -2)``);
  * the variants pi*, pi-check, pi-tilde and their generators V*
    (``corep_adjoint``), (S (x) id)V (``antipode_slice``) and the adjoint of
    the latter;
  * coefficient elements T_{ab} = sum_ij v_ij a_j conj(b_i) pairing as
    (pi(omega) a | b);
  * inversion by the antipode, unitarization by Haar averaging, essential
    idempotents of degenerate corepresentations, and the completely bounded
    norm ||pi||_cb = ||V||.

Every norm of V's image in B(C^d (x) H_h) is read in the Wedderburn blocks
of the algebra, (id (x) pi_k)V of size d n_k, never in the dense d n square.
"""

from __future__ import annotations

import numpy as np

from .convolution import Functional, counit_functional, sharp, star_l1
from .errors import NotInvertibleError, OwnerMismatchError, StructuralError
from .qgroup import (
    AlgebraElement,
    FiniteQuantumGroup,
    adjoint,
    apply_antipode,
    singular_extremes,
)

INVERTIBILITY_RTOL = 1e-8


class Corepresentation:
    """A d x d array of algebra elements, or a stack of them, tensor
    (..., d, d, n); candidates may be held pre-check."""

    def __init__(self, owner, tensor):
        self.owner = owner
        t = np.asarray(tensor, dtype=complex)
        if t.ndim < 3 or t.shape[-3] != t.shape[-2] or t.shape[-1] != owner.dim:
            raise StructuralError("corepresentation tensor has shape %s" % (t.shape,))
        self.tensor = t
        self.d = t.shape[-2]

    def blocks(self):
        """The image in B(C^d (x) H_h) block by block: one stack
        (..., d n_k, d n_k) per Wedderburn block k of the algebra, the matrix
        (id (x) pi_k)V whose (i, j) entry is pi_k(v_ij).  The image is
        unitarily equivalent to their direct sum, block k repeated n_k
        times."""
        d = self.d
        out = []
        for b in self.owner.block_decomposition().images(self.tensor):
            m = d * b.shape[-1]
            out.append(b.swapaxes(-3, -2).reshape(b.shape[:-4] + (m, m)))
        return out

    def __repr__(self):
        return "Corepresentation(%r, d=%d)" % (self.owner.name, self.d)


def check_dimension(d):
    """Refuse a corepresentation dimension below 1."""
    if d < 1:
        raise StructuralError("a corepresentation has dimension >= 1, got %r" % d)


def trivial_corep(G: FiniteQuantumGroup, d: int = 1) -> Corepresentation:
    t = np.zeros((d, d, G.dim), dtype=complex)
    for i in range(d):
        t[i, i] = G.unit
    return Corepresentation(G, t)


class CorepCheck:
    """The residuals of the corepresentation identity, both read off one
    difference Delta(v_ij) - sum_k v_ik (x) v_kj over the basis pairs (a, b)
    of A (x) A: ``violation`` is its largest entry and ``pair_defect`` the
    largest Frobenius norm over i, j of a pair's slice, which is
    ||pi(e_a e_b) - pi(e_a) pi(e_b)||_F for the basis functionals e_a, e_b.
    For a stack each field holds one value per corepresentation, and the
    check is true when every one of them passes."""

    def __init__(self, is_corep, violation, pair_defect):
        self.is_corep = is_corep
        self.violation = violation
        self.pair_defect = pair_defect

    def __bool__(self):
        return bool(np.all(self.is_corep))

    def __repr__(self):
        return ("CorepCheck(is_corep=%s, violation=%s, pair=%s)"
                % (self.is_corep, self.violation, self.pair_defect))


def is_corep(V: Corepresentation, tol: float = 1e-9) -> CorepCheck:
    """Delta(v_ij) = sum_k v_ik (x) v_kj, entrywise.  The anti variant
    Delta(v_ij) = sum_k v_kj (x) v_ik is this identity for the transposed
    grid: ``is_corep(Corepresentation(G, V.tensor.swapaxes(-3, -2)))``."""
    G, t = V.owner, V.tensor
    diff = (np.einsum("...ijm,mab->...ijab", t, G.coproduct)
            - np.einsum("...ika,...kjb->...ijab", t, t))
    v = np.max(np.abs(diff), axis=(-4, -3, -2, -1))
    pair = np.max(np.linalg.norm(diff, axis=(-4, -3)), axis=(-2, -1))
    return CorepCheck(v <= tol, v, pair)


def pi_of(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi(omega) = (omega (x) id)V as a d x d matrix, (..., d, d)."""
    if V.owner is not w.owner:
        raise OwnerMismatchError("functional and corepresentation owners differ")
    return np.einsum("...ijm,...m->...ij", V.tensor, w.coeffs)


def adjoints(m):
    """The adjoint of each matrix of a stack (..., p, q)."""
    return m.conj().swapaxes(-2, -1)


def pi_star(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi*(omega) = pi(omega#)*."""
    return adjoints(pi_of(V, sharp(w)))


def pi_tilde(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi~(omega) = pi(omega*)*."""
    return adjoints(pi_of(V, star_l1(w)))


def pi_check(V: Corepresentation, w: Functional) -> np.ndarray:
    """pi-check(omega) = pi((omega*)#)."""
    return pi_of(V, sharp(star_l1(w)))


def corep_adjoint(V: Corepresentation) -> Corepresentation:
    """V*, the generator of pi~: the entrywise adjoint of the transposed
    entry grid, (V*)_ij = v_ji*."""
    G, t = V.owner, V.tensor
    return Corepresentation(G, np.einsum("...jim,mp->...ijp", np.conj(t), G.star))


def antipode_slice(V: Corepresentation) -> Corepresentation:
    """(S (x) id)V, the generator of pi-check; V_star, the generator of pi*,
    is its adjoint ``corep_adjoint(antipode_slice(V))``."""
    G, t = V.owner, V.tensor
    return Corepresentation(G, np.einsum("...ijm,mp->...ijp", t, G.antipode))


def coefficient(V: Corepresentation, alpha, beta) -> AlgebraElement:
    """T_{alpha,beta} = sum_ij v_ij alpha_j conj(beta_i), pairing as (pi(w)a|b);
    alpha and beta have shape (..., d)."""
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    if a.shape[-1:] != (V.d,) or b.shape[-1:] != (V.d,):
        raise StructuralError("coefficient vectors must have length %d" % V.d)
    return AlgebraElement(V.owner, np.einsum("...ijm,...j,...i->...m",
                                             V.tensor, a, np.conj(b)))


def antipode_coeff_check(V: Corepresentation, alpha, beta):
    """Max violation of S(T^{pi*}_{a,b})* = T^{pi}_{b,a}."""
    Vstar = corep_adjoint(antipode_slice(V))
    lhs = adjoint(apply_antipode(coefficient(Vstar, alpha, beta)))
    rhs = coefficient(V, beta, alpha)
    return np.max(np.abs(lhs.coeffs - rhs.coeffs), axis=-1)


# ---------------------------------------------------------------------------
# Products and inversion inside A (x) M_d


def corep_product(X: Corepresentation, Y: Corepresentation) -> Corepresentation:
    """(XY)_ij = sum_k x_ik y_kj, in two BLAS steps: Z[(k,p),(j,m)] =
    sum_q y_kj[q] M[p,q,m], then X as (..., d, dn) times Z.  The stack axes
    of X and Y broadcast."""
    if X.owner is not Y.owner or X.d != Y.d:
        raise OwnerMismatchError("mismatched tensors in A (x) M_d product")
    G = X.owner
    d, n = X.d, G.dim
    Z = np.tensordot(Y.tensor, G.mult, ([-1], [1])).swapaxes(-3, -2)
    Z = Z.reshape(Z.shape[:-4] + (d * n, d * n))
    t = X.tensor.reshape(X.tensor.shape[:-2] + (d * n,)) @ Z
    return Corepresentation(G, t.reshape(t.shape[:-1] + (d, n)))


def corep_distance(X: Corepresentation, Y: Corepresentation):
    """The largest entry of X - Y, per stacked corepresentation."""
    return np.max(np.abs(X.tensor - Y.tensor), axis=(-3, -2, -1))


def _ratio_test(V):
    """(sigma_min >= INVERTIBILITY_RTOL * sigma_max for every stacked
    corepresentation, sigma_min of each), over the blocks of its image."""
    smax, smin = singular_extremes(V.blocks())
    return bool(np.all(smin >= INVERTIBILITY_RTOL * smax)), smin


def inverse_corep(V: Corepresentation):
    """(W, residual): W = (S (x) id)V, certified as a two-sided inverse of V
    in A (x) M_d, and the residual max(||WV - 1||, ||VW - 1||) that
    certified it, entrywise (``corep_distance``), per stacked corep."""
    ok, smin = _ratio_test(V)
    if not ok:
        raise NotInvertibleError(
            "corepresentation is singular (smallest singular value %.3e)"
            % np.min(smin))
    W = antipode_slice(V)
    one = trivial_corep(V.owner, V.d)
    left = corep_distance(corep_product(W, V), one)
    right = corep_distance(corep_product(V, W), one)
    residual = np.maximum(left, right)
    scale = np.maximum(1.0, np.max(np.abs(V.tensor), axis=(-3, -2, -1)))
    if np.any(residual > 1e-8 * scale):
        raise NotInvertibleError(
            "antipode slice is not a two-sided inverse (residuals %.3e / %.3e); "
            "input is not a corepresentation" % (np.max(left), np.max(right)))
    return W, residual


# ---------------------------------------------------------------------------
# Test-instance generator


def diagonal_matrices(s):
    """The diagonal matrix of each vector of a stack (..., d), equal to
    np.diag of the vector."""
    return s[..., None] * np.eye(s.shape[-1])


class SimilarityDraw:
    """The seed-only half of random invertible corepresentations of one
    dimension d, stacked along the seed axes: the twist T (..., d, d), its
    inverse Tinv, and the first d uniforms (..., d) of each seed's stream,
    which pick the catalog summands.  None depends on an instance."""

    def __init__(self, T, uniforms):
        self.T = T
        self.Tinv = np.linalg.inv(T)
        self.uniforms = uniforms


def similarity_draw(d: int, seed) -> SimilarityDraw:
    """The twists T of condition <= 10 and the summand uniforms for one seed
    or an array of them.  Each seed seeds one generator, which draws T and
    is then rewound to read d uniforms, so both read its stream from the
    start, exactly as a draw with that seed alone would; one batched SVD
    and one batched inverse serve the whole stack."""
    check_dimension(d)
    seeds = np.asarray(seed)
    A = np.empty(seeds.shape + (d, d), dtype=complex)
    svals = np.empty(seeds.shape + (d,))
    uniforms = np.empty(seeds.shape + (d,))
    smin = 0.1
    for at, s in np.ndenumerate(seeds):
        rng = np.random.default_rng(int(s))
        start = rng.bit_generator.state
        A[at] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        svals[at] = smin + (1.0 - smin) * rng.random(d)
        rng.bit_generator.state = start
        uniforms[at] = rng.random(d)
    svals[..., 0] = 1.0
    if d > 1:
        svals[..., -1] = smin
    U, _, Vh = np.linalg.svd(A)
    return SimilarityDraw(U @ diagonal_matrices(svals) @ Vh, uniforms)


def random_invertible_corep(G: FiniteQuantumGroup, draw: SimilarityDraw):
    """(V, V0) with V = (1 (x) T) V0 (1 (x) T^-1): T is the twist of the
    ``similarity_draw`` and V0 the unitary corepresentation of G that its
    uniforms pick from the instance catalog, stacked as the draw is; one
    contraction with the draw's T and T^-1 conjugates the whole stack."""
    from .catalog import unitary_corepresentation

    V0 = unitary_corepresentation(G, draw.uniforms)
    return conjugate_corep(V0, draw.T, draw.Tinv), V0


def conjugate_corep(V: Corepresentation, T: np.ndarray,
                    Tinv: np.ndarray) -> Corepresentation:
    """(1 (x) T) V (1 (x) Tinv), Tinv the inverse of T; T one matrix or one
    per stacked corep."""
    t = np.einsum("...ip,...pqm,...qj->...ijm", T, V.tensor, Tinv)
    return Corepresentation(V.owner, t)


def corep_direct_sum(V: Corepresentation, W: Corepresentation) -> Corepresentation:
    if V.owner is not W.owner:
        raise OwnerMismatchError("direct sum across instances")
    d = V.d + W.d
    batch = np.broadcast_shapes(V.tensor.shape[:-3], W.tensor.shape[:-3])
    t = np.zeros(batch + (d, d, V.owner.dim), dtype=complex)
    t[..., :V.d, :V.d, :] = V.tensor
    t[..., V.d:, V.d:, :] = W.tensor
    return Corepresentation(V.owner, t)


def zero_corep(G: FiniteQuantumGroup, d: int) -> Corepresentation:
    return Corepresentation(G, np.zeros((d, d, G.dim), dtype=complex))


# ---------------------------------------------------------------------------
# Unitarization by Haar averaging


def unitarize(V: Corepresentation):
    """Average V*V by the Haar state and conjugate by the positive square root.

    Returns (T, V', sigma_min) with T = (h (x) id)(V*V) positive definite,
    V' = (1 (x) T^(1/2)) V (1 (x) T^(-1/2)) unitary, and sigma_min the
    smallest singular value of V, so that 1 / ||V^-1||^2 = sigma_min^2 is
    the floor that T is held to.
    """
    G = V.owner
    ok, smin = _ratio_test(V)
    if not ok:
        raise NotInvertibleError(
            "cannot unitarize a singular corepresentation (sigma_min %.3e)"
            % np.min(smin))
    VstarV = corep_product(corep_adjoint(V), V)
    T = np.einsum("...ijm,m->...ij", VstarV.tensor, G.haar)
    T = (T + adjoints(T)) / 2
    w, U = np.linalg.eigh(T)
    wmin = np.min(w, axis=-1)
    floor = smin ** 2               # 1 / ||V^-1||^2
    low = wmin < floor - 1e-8
    if np.any(low):
        raise NotInvertibleError(
            "averaged operator is not positive definite above the invertibility "
            "floor (min eig %.3e < %.3e); input is not a corepresentation"
            % (np.min(wmin[low]), np.min(floor[low])))
    if np.any(wmin <= 0):
        raise NotInvertibleError("averaged operator not positive definite")
    Thalf = U @ diagonal_matrices(np.sqrt(w)) @ adjoints(U)
    Tihalf = U @ diagonal_matrices(1.0 / np.sqrt(w)) @ adjoints(U)
    return T, conjugate_corep(V, Thalf, Tihalf), smin


# ---------------------------------------------------------------------------
# Degenerate corepresentations


class EssentialData:
    """Per stacked corepresentation when V is a stack."""

    def __init__(self, Q, dimension, idempotent_violation, commute_violation):
        self.Q = Q                        # induced idempotent on C^d
        self.dimension = dimension
        self.idempotent_violation = idempotent_violation
        self.commute_violation = commute_violation


def essential_data(V: Corepresentation) -> EssentialData:
    """The defects of P = V (S (x) id)V in A (x) M_d, from P^2 and from
    (S (x) id)V V, and the essential projection Q = pi(counit).

    The counit is the unit of the convolution algebra, so pi(eps) is an
    idempotent whose range is the joint column space of all pi(omega);
    pi(omega) Q = pi(omega) for every omega.
    """
    W = antipode_slice(V)
    P = corep_product(V, W)
    P2 = corep_product(P, P)
    other = corep_product(W, V)
    idem = corep_distance(P2, P)
    comm = corep_distance(P, other)
    Q = pi_of(V, counit_functional(V.owner))
    dim = np.rint(np.real(np.trace(Q, axis1=-2, axis2=-1))).astype(int)
    return EssentialData(Q, dim, idem, comm)


# ---------------------------------------------------------------------------
# Norms


def cb_norm(V: Corepresentation):
    """||pi||_cb = ||V|| = the operator norm of the image in B(H_h (x) C^d):
    the largest of the norms of its blocks."""
    return singular_extremes(V.blocks())[0]


def unitarity_defects(V: Corepresentation):
    """(||V*V - 1||, ||VV* - 1||) on C^d (x) H_h, one pair per stacked
    corepresentation, as an array (2, ...), read block by block."""
    blocks = [np.stack([adjoints(b) @ b, b @ adjoints(b)]) - np.eye(b.shape[-1])
              for b in V.blocks()]
    return singular_extremes(blocks)[0]

