"""GNS-level duality: the multiplicative unitary, the left regular
representation, the dual quantum group, Pontryagin biduality, and
coefficient-induced left multipliers of the dual convolution algebra.

Everything is anchored at the unitary W on H_h (x) H_h determined by
W*(Lambda(a) (x) Lambda(b)) = (Lambda (x) Lambda)(Delta(b)(a (x) 1)).  The
left regular representation is lambda(omega) = (omega (x) id)W, the dual
algebra is the span of its image, and the dual structure tensors are
extracted by solving linear systems in this concrete picture.  The dual
side of Tomita theory is trivialized by traciality: the adjoint of the
dual Tomita map equals the dual modular conjugation.

W is held as its leg-one slices: leg one of W lies in lambda(A), and the
coefficient map of W* factors by legs, so W = sum_m lambda(e_m) (x) Z_m
with the Z_m in closed form (_w_slices), n^4 time and no operator on
H (x) H.  Leg one of W-hat lies in the dual algebra.  Each leg one is
closed under products and adjoints through its own structure tensors, so
W's unitarity and coproduct residuals and the dual's coproduct are read in
leg-one coordinates (_leg2_conjugations): a conjugation U*(1 (x) X)U is a
sum over the basis of leg one, never formed as an operator on H (x) H,
which takes n^6 time for a stack of n conjugations where the dense
products take n^7.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .convolution import Functional, convolve, module_action
from .corep import (Corepresentation, antipode_slice, cb_norm, coefficient,
                    corep_adjoint, is_corep)
from .errors import (BudgetError, InvalidInstanceError, NotInvertibleError,
                     OwnerMismatchError)
from .qgroup import (
    AlgebraElement,
    FiniteQuantumGroup,
    SpanningFamily,
    operator_norm,
    singular_extremes,
    validate,
    vector_norms,
)


# Bytes the duality layer may hold at once (see _check_bytes):
# 16 * 10 n^4 + 2^20 <= 2^29 allows n <= 42.
PENTAGON_BUDGET_BYTES = 2 ** 29

# Bound on the extracted dual's validation violations and extraction residual.
DUAL_TOL = 1e-9


def _check_bytes(n):
    """Peak bytes of the duality layer at dim H = n: build_w, the coproduct
    and pentagon checks of W, build_dual and biduality.

    Each works on complex n^4 arrays, ten at most at once (traced at
    n = 12 and 24: build_w 2.2-2.3, the coproduct residual 4.1-4.2, the
    pentagon bound 3.0, build_dual 6.2-6.4 and biduality 6.5-7.1 from a
    cold instance): W is held as n^3 slices, the leg-one conjugations of
    a whole stack are n^4 arrays, and build_dual holds no copy of W-hat
    while the dual is validated.  2^20 bytes cover numpy's iteration
    buffers.
    """
    return 16 * 10 * n ** 4 + 2 ** 20


class MultiplicativeUnitary:
    """W = sum_i lambda(e_i) (x) Z_i on H_h (x) H_h, held as its leg-one
    slices Z_i, and its unitarity residual u, a certified upper bound on
    ||WW* - 1|| and ||W*W - 1|| (see _unitarity_bound).

    The coproduct and pentagon residuals are computed when first read, so a
    W built only to extract a dual never pays for them; the pentagon bound
    reads the per-element coproduct residuals, which are computed once.
    """

    def __init__(self, owner, Z):
        self.owner = owner
        self.leg1_slices = Z                # W = sum_i lambda(e_i) (x) Z_i
        self.unitarity_residual = _unitarity_bound(self)

    @cached_property
    def coproduct_residuals(self) -> np.ndarray:
        """r_i >= ||(lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda(e_i))W||,
        one per basis element e_i (see _coproduct_residuals)."""
        return _coproduct_residuals(self)

    @property
    def coproduct_residual(self) -> float:
        """max_i r_i."""
        return float(np.max(self.coproduct_residuals))

    @cached_property
    def pentagon_residual(self) -> float:
        """Certified upper bound on ||W12 W13 W23 - W23 W12|| (see
        _pentagon_bound)."""
        return _pentagon_bound(self, self.coproduct_residuals)

    def lambda_of(self, w: Functional) -> np.ndarray:
        """lambda(omega) = (omega (x) id)W on H_h; one matrix per stacked
        functional."""
        if w.owner is not self.owner:
            raise OwnerMismatchError("functional belongs to a different instance")
        return np.einsum("...m,mij->...ij", w.coeffs, self.leg1_slices)


def _leg1_expand(span, X):
    """Write X on H (x) H as sum_i b_i (x) Z_i over the spanning family b_i
    of ``span``; return (Z, residual relative to max(1, ||X||)).  Each leg-2
    entry (b, y) of X is a matrix on leg 1, expanded in the b_i."""
    c, resid = span.expand(_legs(X).transpose(1, 3, 0, 2))    # [b, y, i]
    return (c.transpose(2, 0, 1),
            float(np.linalg.norm(resid) / max(1.0, np.linalg.norm(X))))


def _legs(U):
    """U on H (x) H as U[a, b, x, y]: output legs a, b and input legs x, y."""
    n = int(round(np.sqrt(U.shape[0])))
    return U.reshape(n, n, n, n)


def _leg2_conjugations(star, mult, Y, X):
    """C[i, m] with U*(1 (x) X_i)U = sum_m b_m (x) C[i, m], (len(X), n, p, p),
    for U = sum_j b_j (x) Y_j whose leg one lies in a *-algebra with basis
    b_j, product ``mult`` and involution ``star``.

    b_j* b_k = sum_m K[j, k, m] b_m with K = sum_q star[j, q] mult[q, k, m],
    so C[i, m] = sum_jk K[j, k, m] Y_j* X_i Y_k: leg one is never formed,
    and the stack costs n^2 p^3 per X_i where the dense conjugation costs
    (n p)^3.  Two BLAS products serve the whole stack, S[i][r, (j, c)] =
    (Y_j* X_i)[r, c] times V[(j, c), (m, d)] = sum_k K[j, k, m] Y_k[c, d],
    each array of at most max(len(X), n) n p^2 entries."""
    n, p = len(Y), Y.shape[-1]
    Yh = Y.conj().transpose(0, 2, 1).reshape(n * p, p)
    S = (Yh @ X).reshape(-1, n, p, p).transpose(0, 2, 1, 3).reshape(-1, p, n * p)
    K = (star @ mult.reshape(n, n * n)).reshape(n, n, n)
    V = K.transpose(0, 2, 1).reshape(n * n, n) @ Y.reshape(n, p * p)
    V = V.reshape(n, n, p, p).transpose(0, 2, 1, 3).reshape(n * p, n * p)
    return (S @ V).reshape(-1, p, n, p).transpose(0, 2, 1, 3)


def _leg1_frobenius(images, D):
    """||sum_m lambda_m (x) D[..., m]||_F for each stacked D, (..., n, p, p).
    Up to the order of its entries the operator is L^T D, L with rows
    vec(lambda_m) and D with rows vec(D_m); with L^T = QR, Q an isometry, its
    Frobenius norm is that of R D, an n x p^2 matrix."""
    n = len(images)
    R = np.linalg.qr(images.reshape(n, -1).T, mode="r")
    return np.linalg.norm(R @ D.reshape(D.shape[:-2] + (-1,)), axis=(-2, -1))


def _unitarity_bound(Wd):
    """u >= ||WW* - 1|| = ||W*W - 1||, read in the leg-one coordinates of
    W = sum_j lambda_j (x) Z_j.

    For a square X, XX* and X*X are unitarily similar (X = V|X|), so
    ||XX* - 1|| = ||X*X - 1||.  W*W = sum_m lambda_m (x) A_m by
    _leg2_conjugations and 1 = sum_m unit[m] lambda_m (x) 1, so
    W*W - 1 = sum_m lambda_m (x) D_m, whose Frobenius norm u
    (_leg1_frobenius) bounds its spectral norm."""
    G = Wd.owner
    images = G.gns().images
    eye = np.eye(images.shape[-1])
    D = _leg2_conjugations(G.star, G.mult, Wd.leg1_slices, eye[None])[0]
    return float(_leg1_frobenius(images, D - G.unit[:, None, None] * eye))


def _coproduct_residuals(Wd):
    """r_i >= ||(lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda_i)W||, one
    per basis element e_i, lambda_i = lambda(e_i), certified upper bounds
    read in n^6 time where the dense conjugations take n^7.

    W*(1 (x) lambda_i)W = sum_m lambda_m (x) C[i, m] (_leg2_conjugations)
    and (lambda (x) lambda)Delta(e_i) = sum_m lambda_m (x) F[i, m] with
    F[i, m] = sum_l Delta[i, m, l] lambda_l, so their difference is
    sum_m lambda_m (x) (F - C)[i, m], whose Frobenius norm
    (_leg1_frobenius) bounds its spectral norm."""
    G = Wd.owner
    images = G.gns().images
    n, p = len(images), images.shape[-1]
    D = (G.coproduct.reshape(n * n, n) @ images.reshape(n, p * p)).reshape(n, n, p, p)
    D -= _leg2_conjugations(G.star, G.mult, Wd.leg1_slices, images)
    return _leg1_frobenius(images, D)


def _pentagon_bound(Wd, r):
    """Certified upper bound on ||D||, D = W12 W13 W23 - W23 W12 on
    H (x) H (x) H, from the coproduct identity.

    Notation: W = sum_i lambda_i (x) Z_i is the multiplicative unitary,
    lambda_i = lambda(e_i) the left regular images and Z_i its leg-one
    slices; u is the unitarity residual, an upper bound on ||WW* - 1|| and
    ||W*W - 1|| (_unitarity_bound), and w = sqrt(1 + u) >= ||W||; r_i, the
    coproduct residual at i, is an upper bound on the spectral norm of
    (lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda_i)W
    (_coproduct_residuals); E_jk = sum_i Delta_i^{jk} Z_i - Z_j Z_k.  The
    bound below rises with u, w and every r_i, so upper bounds in their
    place keep it certified.

    With D' = W12* W23 W12 - W13 W23, D = -W12 D' + (W12 W12* - 1) W23 W12.
    Expanding W23 and W13 in the slices, W12* (1 (x) lambda_i (x) Z_i) W12 =
    W*(1 (x) lambda_i)W (x) Z_i, whose first factor is within r_i of
    (lambda (x) lambda)Delta(e_i), and W13 W23 leaves
    sum_jk lambda_j (x) lambda_k (x) Z_j Z_k.  So

        ||D|| <= w (||sum_jk lambda_j (x) lambda_k (x) E_jk||_F
                    + sum_i r_i ||Z_i||) + u w^2.

    The Frobenius norm squared is sum GL[j,j'] GL[k,k'] GE[(j,k),(j',k')]
    over Gram matrices, GL[j,j'] = tr(lambda_j* lambda_j') and GE that of
    the vec(E_jk): n^6 time and n^4 memory.
    """
    G = Wd.owner
    Z = Wd.leg1_slices
    n = len(Z)
    u = Wd.unitarity_residual
    w = np.sqrt(1.0 + u)
    E = (np.einsum("ijk,iab->jkab", G.coproduct, Z)
         - Z[:, None] @ Z[None]).reshape(n * n, n * n)
    GE = (E.conj() @ E.T).reshape(n, n, n, n)
    L = G.gns().images.reshape(n, n * n)
    GL = L.conj() @ L.T
    frob2 = float(np.einsum("jJ,kK,jkJK->", GL, GL, GE).real)
    slices = float(r @ np.linalg.norm(Z, 2, axis=(1, 2)))
    return float(w * (np.sqrt(max(frob2, 0.0)) + slices) + u * w * w)


def build_w(G: FiniteQuantumGroup) -> MultiplicativeUnitary:
    return G.cached("build_w", _build_w)


def _build_w(G):
    """W with its unitarity residual.  The coproduct and pentagon residuals
    are computed when first read, and the dual is built from W, but the
    bytes all of them need are checked against the budget here, before
    anything is allocated: the coproduct residual is a certified upper
    bound per basis element on its spectral norm, and the pentagon residual
    a certified upper bound built from those.  The unitarity residual
    refused above 1e-8 is an upper bound on the spectral defects too, so
    the refusal is at least as strict as a spectral one."""
    n = G.dim
    need = _check_bytes(n)
    if need > PENTAGON_BUDGET_BYTES:
        raise BudgetError("duality at n = %d needs %d bytes (budget %d)"
                          % (n, need, PENTAGON_BUDGET_BYTES))
    Wd = MultiplicativeUnitary(G, _w_slices(G))
    if Wd.unitarity_residual > 1e-8:
        raise InvalidInstanceError("fundamental operator is not unitary "
                                   "(residual %.3e)" % Wd.unitarity_residual)
    return Wd


def _w_slices(G):
    """The leg-one slices Z_m of W = sum_m lambda_m (x) Z_m, in n^4 time.

    W* = (Lambda (x) Lambda) w* (Lambda (x) Lambda)^-1 with w* the map
    a (x) b -> Delta(b)(a (x) 1) = sum_j e_j a (x) sum_q Delta[b, j, q] e_q
    on coefficients, so W* = sum_j lambda_j (x) X_j with X_j = Lambda Y_j
    Lambda^-1 and Y_j[q, b] = Delta[b, j, q], and W is its adjoint."""
    gd = G.gns()
    X = gd.lambda_map @ G.coproduct.transpose(1, 2, 0) @ gd.lambda_inv
    return _adjoint_slices(G.star, X)


def _adjoint_slices(star, Y):
    """The slices of U* for U = sum_j b_j (x) Y_j whose leg one lies in a
    *-algebra with basis b_j and involution ``star``: b_j* =
    sum_m star[j, m] b_m, so U* = sum_m b_m (x) sum_j star[j, m] Y_j*."""
    return np.tensordot(star, Y.conj().transpose(0, 2, 1), ([0], [0]))


class DualQuantumGroup:
    """The dual instance plus its concrete identification inside B(H_h)."""

    def __init__(self, owner, group, Wd, span, What_slices, Lambda_hat_mat,
                 phihat_one, extraction_residual, validation):
        self.owner = owner                  # primal G
        self.group = group                  # abstract dual instance
        self.validation = validation        # validate(group, tol=DUAL_TOL)
        self.Wd = Wd
        self.span = span                    # the Z[mu] as a spanning family
        self.Z = span.family                # Z[mu] = lambda(omega_mu) on H
        self.What_slices = What_slices      # What = sum_mu Z_mu (x) Yhat_mu
        self.Lambda_hat_mat = Lambda_hat_mat  # columns Lambda^(lambda(omega_mu))
        self.phihat_one = float(phihat_one)
        self.extraction_residual = float(extraction_residual)
        self.Jhat_mat = (Lambda_hat_mat @ group.star.T
                         @ np.conj(np.linalg.inv(Lambda_hat_mat)))

    @cached_property
    def What(self) -> np.ndarray:
        """Sigma W* Sigma, formed on first read: the extraction reads only
        its slices, so no copy of it is held while the dual is validated."""
        return _w_hat(self.owner.gns().images, self.Wd.leg1_slices)

    # -- concrete maps ------------------------------------------------------

    def lambda_hat(self, what: Functional) -> np.ndarray:
        """lambda-hat(omega-hat) = (omega-hat (x) id)W-hat, an element of M."""
        if what.owner is not self.group:
            raise OwnerMismatchError("functional does not live on the dual")
        return np.einsum("...m,mij->...ij", what.coeffs, self.What_slices)

    def expand_in_dual(self, m: np.ndarray):
        """Coefficients of m, one matrix or a stack of them, in the basis
        lambda(omega_mu) of the dual algebra.  Each matrix's residual must
        stay below 1e-7 * max(1, ||m||)."""
        return self.span.expand_within(m, 1e-7, "matrix is not in the dual algebra")[0]

    def Lambda_hat_of_functional(self, w: Functional) -> np.ndarray:
        """Lambda^(lambda(omega)) from <x*, omega> = (Lambda^(lambda(omega)) | Lambda(x))."""
        if w.owner is not self.owner:
            raise OwnerMismatchError("functional belongs to a different instance")
        gd = self.owner.gns()
        return (w.coeffs @ self.owner.star.T) @ gd.lambda_inv.T

    def apply_Jhat(self, v: np.ndarray) -> np.ndarray:
        return np.conj(v) @ self.Jhat_mat.T

    def vector_functional(self, xi, eta) -> Functional:
        """omega-hat_{xi,eta}: y-hat -> (y-hat xi | eta) as a dual functional."""
        return Functional(self.group,
                          np.einsum("...a,mab,...b->...m", np.conj(eta), self.Z, xi))


def _w_hat(images, Z):
    """W-hat = Sigma W* Sigma, C-ordered, for W = sum_m images[m] (x) Z[m]:
    W-hat[(b, a), (y, x)] = conj(W[(x, y), (a, b)]), and
    W[(x, y), (a, b)] = M[(x, a), (y, b)] for the one product
    M = sum_m vec(images[m]) vec(Z[m])^T."""
    n, p = len(Z), Z.shape[-1]
    M = (images.reshape(n, p * p).T @ Z.reshape(n, p * p)).reshape(p, p, p, p)
    What = np.empty((p * p, p * p), dtype=M.dtype)
    np.conj(M.transpose(3, 1, 2, 0), out=_legs(What))
    return What


def build_dual(G: FiniteQuantumGroup) -> DualQuantumGroup:
    return G.cached("build_dual", _build_dual)


def _build_dual(G):
    """Extract the dual instance from the slices Z_mu = lambda(omega_mu) of W,
    expanding products, adjoints and coproducts back in the Z_mu.

    W-hat = Sigma W* Sigma has leg one in the dual algebra, the span of the
    Z_mu, which the dual's mult and star close under products and adjoints:
    W-hat = sum_nu Z_nu (x) Yhat_nu up to the expansion residual r_what.  So
    W-hat*(1 (x) Z_mu)W-hat = sum_a Z_a (x) C[mu, a] (_leg2_conjugations, in
    n^6 time for all mu where the dense conjugations take n^7), and
    Delta-hat(e_mu)[a, b] is the expansion of C[mu, a] in the Z_b, the
    least-squares solution of the system in vec(Z_a (x) Z_b) when the
    residuals vanish.
    """
    Wd = build_w(G)
    gd = G.gns()
    n = G.dim
    Z = Wd.leg1_slices                  # Z[mu] = (omega_mu (x) id)W
    span = SpanningFamily(Z)
    if np.linalg.matrix_rank(span.matrix, tol=1e-9) < n:
        raise InvalidInstanceError("left regular representation is not injective")
    mult_hat, r_mult = span.expand(Z[:, None] @ Z[None])     # [a, b] = Z_a Z_b
    # star: the sharp involution implemented by the concrete adjoint
    star_hat, r_star = span.expand(Z.conj().transpose(0, 2, 1))
    What_slices, r_what = _leg1_expand(span, _w_hat(gd.images, Z))
    cop_hat, r_cop = span.expand(
        _leg2_conjugations(star_hat, mult_hat, What_slices, Z))
    unit_hat = G.counit.copy()
    counit_hat = G.unit.copy()
    # antipode: S-hat((omega (x) id)W) = (omega (x) id)(W*)
    antipode_hat, r_anti = span.expand(_adjoint_slices(G.star, Z))
    # dual GNS map and Haar: <x*, omega> = (Lambda^(lambda(omega)) | Lambda(x))
    Lhat = gd.lambda_inv @ G.star       # column mu: Lambda^(lambda(omega_mu))
    xi_one = Lhat @ unit_hat
    phihat_one = float(np.real(np.vdot(xi_one, xi_one)))
    haar_hat = xi_one.conj() @ Lhat / phihat_one
    dual_group = FiniteQuantumGroup(
        "%s_dual" % G.name, mult_hat, unit_hat, cop_hat, counit_hat,
        antipode_hat, star_hat, haar_hat,
        basis_labels=["w[%s]" % lbl for lbl in G.basis_labels])
    resid = max(float(np.max(r)) for r in (r_what, r_mult, r_cop, r_anti, r_star))
    if resid > DUAL_TOL:
        raise InvalidInstanceError(
            "dual extraction residual %.3e exceeds %.0e" % (resid, DUAL_TOL))
    validation = validate(dual_group, tol=DUAL_TOL)
    if not validation.passed:
        raise InvalidInstanceError(
            "extracted dual instance fails validation (max violation %.3e)"
            % validation.max_violation)
    return DualQuantumGroup(G, dual_group, Wd, span, What_slices, Lhat,
                            phihat_one, resid, validation)


# ---------------------------------------------------------------------------
# Pontryagin biduality


def biduality(G: FiniteQuantumGroup) -> dict:
    """Exhibit the canonical *-isomorphism of the double dual onto G.

    The double dual's concrete left regular image is transported to H_h by
    the GNS unitary between the two realizations of the dual Haar weight and
    matched against the left regular image of G by solving linear systems;
    the report carries the worst violation over all structural checks.
    """
    return G.cached("biduality", _biduality)


def _biduality(G):
    d1 = build_dual(G)
    Ghat = d1.group
    d2 = build_dual(Ghat)
    gd = G.gns()
    n = G.dim
    lam_dual = Ghat.gns().lambda_map
    U = (d1.Lambda_hat_mat / np.sqrt(d1.phihat_one)) @ np.linalg.inv(lam_dual)
    viol = float(np.linalg.norm(U @ U.conj().T - np.eye(n), 2))
    X = U @ d2.Z @ U.conj().T               # the double dual's images on H_h
    phi, resid = gd.span.expand_within(     # double-dual coeffs -> G coeffs
        X, 1e-7, "double dual is not in the image of the left regular representation")
    viol = max(viol, resid)
    Gdd = d2.group
    # row i of phi holds the G coefficients of the image of basis element i
    # of the double dual; each structure map must commute with phi
    for lhs, rhs in (
            (Gdd.unit @ phi, G.unit),
            (Gdd.star @ phi, np.conj(phi) @ G.star),
            (phi @ G.counit, Gdd.counit),
            (phi @ G.haar, Gdd.haar),
            (Gdd.mult @ phi, np.einsum("abk,ia,jb->ijk", G.mult, phi, phi)),
            (np.einsum("iab,ap,bq->ipq", Gdd.coproduct, phi, phi),
             np.einsum("im,mpq->ipq", phi, G.coproduct))):
        viol = max(viol, float(np.max(np.abs(lhs - rhs))))
    return {"isomorphism": phi, "max_violation": viol}


# ---------------------------------------------------------------------------
# Coefficient-induced multipliers


class MultiplierData:
    """Per stacked corepresentation when the multiplier came from a stack."""

    def __init__(self, Lmat, x, residual_action, residual_w, norm_bound,
                 factorization_norm, cb_bound):
        self.Lmat = Lmat                    # action on dual functional coefficients
        self.x = x                          # the implementing algebra element
        self.residual_action = residual_action
        self.residual_w = residual_w
        self.norm_bound = norm_bound
        self.factorization_norm = factorization_norm
        self.cb_bound = cb_bound


def multiplier_from_coefficient(V: Corepresentation, alpha, beta,
                                basis: np.ndarray | None = None) -> MultiplierData:
    """Left multiplier of the dual convolution algebra induced by the
    coefficient x = T^{pi~}_{alpha,beta} of an invertible corepresentation.

    With sigma Delta(x) = sum_i b_i (x) a_i read off the coefficient
    expansion over an orthonormal basis (f_i), the adjoint acts as
    L*(y) = sum_i S(b_i*)* y a_i, and lambda-hat(L omega) = x lambda-hat(omega).

    The W-hat residual is a Frobenius norm, a certified upper bound on the
    spectral one.  The factorization norm ||sum_i c_i (x) a_i^T|| is read in
    the Wedderburn blocks: lambda is the direct sum of the blocks pi_k, each
    repeated, and so is lambda^T of the pi_l^T, so the norm is the largest
    of ||sum_i pi_k(c_i) (x) pi_l(a_i)^T|| over the pairs (k, l), matrices of
    size n_k n_l instead of n^2.

    V may be a stack (..., d, d, n) with alpha, beta (..., d) and basis
    (..., d, d): every field of the result then holds one value per stacked
    corepresentation, each equal to that corepresentation's own.
    """
    G = V.owner
    chk = is_corep(V)
    if not chk:
        raise NotInvertibleError("input fails the corepresentation identity "
                                 "(violation %.3e)" % np.max(chk.violation))
    dual = build_dual(G)
    gd = G.gns()
    d = V.d
    if basis is None:
        basis = np.eye(d, dtype=complex)
    Vt = corep_adjoint(V)
    Vs = corep_adjoint(antipode_slice(V))
    x = coefficient(Vt, alpha, beta)
    # a_i = T~[alpha, f_i] and c_i = T*[f_i, beta], stacked over i
    a_els = np.einsum("...pjm,...j,...pi->...im", Vt.tensor, alpha, np.conj(basis))
    c_els = np.einsum("...pjm,...ji,...p->...im", Vs.tensor, basis, np.conj(beta))
    a_mats = np.tensordot(a_els, gd.images, 1)
    c_mats = np.tensordot(c_els, gd.images, 1)
    lx = gd.left_action(x)[..., None, :, :]
    n = G.dim
    batch = V.tensor.shape[:-3]
    LZ = sum(c_mats[..., i, None, :, :] @ dual.Z @ a_mats[..., i, None, :, :]
             for i in range(d))                                     # L*(Z_mu)
    Lmat = dual.expand_in_dual(LZ)
    # lambda-hat(L e_nu) - x lambda-hat(e_nu) for every dual basis element e_nu
    action = (np.tensordot(Lmat.swapaxes(-2, -1), dual.What_slices, 1)
              - lx @ dual.What_slices)
    residual_action = np.max(np.linalg.svd(action, compute_uv=False)[..., 0],
                             axis=-1)
    # both sides of the W-hat identity with entries ordered [(b, d), (a, c)],
    # legs (a, b) out and (c, d) in, so that each is one BLAS product per
    # corepresentation; a Frobenius norm does not depend on the order
    lhs_w = dual.What_slices.reshape(n, n * n).T @ LZ.reshape(batch + (n, n * n))
    what = dual.What.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n, n ** 3)
    rhs_w = lx[..., 0, :, :] @ what
    lhs_w = lhs_w.reshape(batch + (-1,))
    lhs_w -= rhs_w.reshape(batch + (-1,))      # in place: two arrays live
    residual_w = vector_norms(lhs_w)
    # sum_i c_i* c_i and sum_i a_i* a_i through the structure tensors
    sum_cc = np.einsum("ijk,...di,...dj->...k", G.mult, np.conj(c_els) @ G.star,
                       c_els)
    sum_aa = np.einsum("ijk,...di,...dj->...k", G.mult, np.conj(a_els) @ G.star,
                       a_els)
    norm_bound = (np.sqrt(operator_norm(G.element(sum_cc)))
                  * np.sqrt(operator_norm(G.element(sum_aa))))
    bd = G.block_decomposition()
    a_blocks = bd.images(a_els)
    pairs = []
    for ck in bd.images(c_els):
        for al in a_blocks:
            m = ck.shape[-1] * al.shape[-1]
            pairs.append(np.einsum("...iac,...idb->...abcd", ck, al)
                         .reshape(batch + (m, m)))
    fact = singular_extremes(pairs)[0]
    cb_bound = (cb_norm(V) * cb_norm(Vs)
                * vector_norms(np.asarray(alpha, dtype=complex))
                * vector_norms(np.asarray(beta, dtype=complex)))
    return MultiplierData(Lmat, x, residual_action, residual_w, norm_bound,
                          fact, cb_bound)


# ---------------------------------------------------------------------------
# The concrete pairing identity between the two GNS pictures


def pairing_identity_check(G: FiniteQuantumGroup, x: AlgebraElement,
                           w1: Functional, w2: Functional):
    """Residual of Lambda(lambda-hat(omega-hat)) = Lambda^(lambda((x w1) w2))
    with omega-hat the vector functional at (lambda(x) xi, J-hat eta),
    xi = Lambda^(lambda(w1)), eta = J-hat Lambda^(lambda(w2)).  For stacks
    of x, w1 and w2, (..., n), one residual per stacked triple."""
    dual = build_dual(G)
    gd = G.gns()
    xi = dual.Lambda_hat_of_functional(w1)
    eta = dual.apply_Jhat(dual.Lambda_hat_of_functional(w2))
    what = dual.vector_functional((gd.left_action(x) @ xi[..., None])[..., 0], eta)
    # one expansion product per triple, (..., 1, n, n), as for a lone one
    lam_hat = dual.lambda_hat(what)[..., None, :, :]
    lhs = gd.left_action_inv(lam_hat, rtol=1e-6).coeffs[..., 0, :] @ gd.lambda_map.T
    rhs = dual.Lambda_hat_of_functional(convolve(module_action(x, w1), w2))
    return vector_norms(lhs - rhs)
