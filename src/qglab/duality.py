"""GNS-level duality: the multiplicative unitary, the left regular
representation, the dual quantum group, Pontryagin biduality, and
coefficient-induced left multipliers of the dual convolution algebra.

Everything is anchored at the unitary W on H_h (x) H_h determined by
W*(Lambda(a) (x) Lambda(b)) = (Lambda (x) Lambda)(Delta(b)(a (x) 1)).  The
left regular representation is lambda(omega) = (omega (x) id)W, the dual
algebra is the span of its image, and the dual structure tensors are the
transposes of G's (_dual_group), certified on this concrete picture
(_build_dual).  The double dual is read without a second dual: its
tensors are the dual's transposed and its images the slices of the dual's
W.  Nothing is solved by least squares: a GNS vector is read as
Lambda(a) = lambda(a)Lambda(1) from the operator lambda(a).  The dual side
of Tomita theory is trivialized by traciality: the adjoint of the dual
Tomita map equals the dual modular conjugation.

W is held as its leg-one slices: leg one of W lies in lambda(A), and the
coefficient map of W* factors by legs, so W = sum_m lambda(e_m) (x) Z_m
with the Z_m in closed form (_w_slices), n^4 time and no operator on
H (x) H.  W-hat = Sigma W* Sigma = sum_m Z_m* (x) lambda_m* has leg one in
the dual algebra, whose involution rewrites the Z_m* in the Z_b, so W-hat
is held as slices too, in closed form.  Each leg one is closed under
products and adjoints through its own structure tensors, so W's unitarity
and coproduct residuals and the dual's coproduct are read in leg-one
coordinates (_leg2_conjugations): a conjugation U*(1 (x) X)U is a sum over
the basis of leg one, never formed as an operator on H (x) H, which takes
n^6 time for a stack of n conjugations where the dense products take n^7.
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
    n = 12 and 24: build_w 2.2-2.5, the coproduct residual 4.1-4.2, the
    pentagon bound 3.0, build_dual and biduality 6.2-6.5 from a cold
    instance): W and W-hat are held as n^3 slices, the leg-one
    conjugations of a whole stack are n^4 arrays, and the peak of
    build_dual, which biduality runs once, is the validation of the
    extracted dual.  2^20 bytes cover numpy's iteration buffers.
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


def _leg1_factor(images):
    """R with L^T = QR, Q an isometry, L with rows vec(lambda_m): then
    ||sum_m lambda_m (x) D_m||_F = ||R D||_F for any D with rows vec(D_m),
    since up to the order of its entries the operator is L^T D."""
    return np.linalg.qr(images.reshape(len(images), -1).T, mode="r")


def _leg1_frobenius(images, D):
    """||sum_m lambda_m (x) D[..., m]||_F for each stacked D, (..., n, p, p):
    the Frobenius norm of R D, an n x p^2 matrix (_leg1_factor)."""
    R = _leg1_factor(images)
    return np.linalg.norm(R @ D.reshape(D.shape[:-2] + (-1,)), axis=(-2, -1))


def _leg12_frobenius(images, E):
    """||sum_jk lambda_j (x) lambda_k (x) E[j, k]||_F for E, (n, n, p, p):
    R (_leg1_factor) applied to each of the two legs, n^5 time."""
    R = _leg1_factor(images)
    n = len(E)
    return float(np.linalg.norm(R @ (R @ E.reshape(n, n, -1)).swapaxes(0, 1)))


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

    The Frobenius norm is read by _leg12_frobenius, in n^5 time.
    """
    G = Wd.owner
    Z = Wd.leg1_slices
    u = Wd.unitarity_residual
    w = np.sqrt(1.0 + u)
    E = np.einsum("ijk,iab->jkab", G.coproduct, Z) - Z[:, None] @ Z[None]
    slices = float(r @ np.linalg.norm(Z, 2, axis=(1, 2)))
    return float(w * (_leg12_frobenius(G.gns().images, E) + slices) + u * w * w)


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
    """The dual instance plus its concrete identification inside B(H_h):
    the slices Z_mu = lambda(omega_mu) of W, which span the dual algebra,
    and W-hat = Sigma W* Sigma held as its leg-one slices,
    W-hat = sum_mu Z_mu (x) Yhat_mu."""

    def __init__(self, owner, group, Z, What_slices, Lambda_hat_mat,
                 phihat_one, validation, extraction_residual, slice_rank):
        self.owner = owner                  # primal G
        self.group = group                  # abstract dual instance
        self.validation = validation        # validate(group, tol=DUAL_TOL)
        self.extraction_residual = extraction_residual  # largest certificate
        self.Z = Z                          # Z[mu] = lambda(omega_mu) on H
        self.slice_rank = slice_rank        # rank of the Z_mu at tol 1e-9
        self.What_slices = What_slices      # What = sum_mu Z_mu (x) Yhat_mu
        self.Lambda_hat_mat = Lambda_hat_mat  # columns Lambda^(lambda(omega_mu))
        self.phihat_one = float(phihat_one)
        # Lambda_hat_mat = Lambda^-1 star and conj(star) star = 1, so its
        # inverse is conj(star) Lambda
        self.Jhat_mat = (Lambda_hat_mat @ group.star.T
                         @ owner.star @ np.conj(owner.gns().lambda_map))

    # -- concrete maps ------------------------------------------------------

    def lambda_hat(self, what: Functional) -> np.ndarray:
        """lambda-hat(omega-hat) = (omega-hat (x) id)W-hat, an element of M."""
        if what.owner is not self.group:
            raise OwnerMismatchError("functional does not live on the dual")
        return np.einsum("...m,mij->...ij", what.coeffs, self.What_slices)

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


def build_dual(G: FiniteQuantumGroup) -> DualQuantumGroup:
    return G.cached("build_dual", _build_dual)


def _build_dual(G):
    """The dual instance (_dual_group), certified on the slices Z_mu =
    lambda(omega_mu) of W: the Frobenius norms of Z_a Z_b -
    sum_c mult_hat[a, b, c] Z_c, Z_a* - sum_b star_hat[a, b] Z_b and
    C[mu, a] - sum_b cop_hat[mu, a, b] Z_b, W-hat*(1 (x) Z_mu)W-hat =
    sum_a Z_a (x) C[mu, a] (_leg2_conjugations), each at least the residual
    of a least-squares fit in the Z_b, are refused above DUAL_TOL.  W-hat =
    Sigma W* Sigma is held as sum_b Z_b (x) Yhat_b with Yhat_b =
    sum_m star_hat[m, b] lambda_m* (_adjoint_slices): it differs from
    sum_m Z_m* (x) lambda_m* by sum_m R_m (x) lambda_m*, R_m the star's
    residual.  The dual is validated too: a perturbed counit of G reaches
    none of the certificates, only the dual's validation."""
    Wd = build_w(G)
    gd = G.gns()
    n = G.dim
    Z = Wd.leg1_slices                  # Z[mu] = (omega_mu (x) id)W
    slice_rank = int(np.linalg.matrix_rank(Z.reshape(n, -1), tol=1e-9))
    if slice_rank < n:
        raise InvalidInstanceError("left regular representation is not injective")
    dual_group, Lhat, phihat_one = _dual_group(G)
    mult_hat, star_hat = dual_group.mult, dual_group.star
    What_slices = _adjoint_slices(star_hat, gd.images)
    resid = max(
        _span_residuals(Z[:, None] @ Z[None], mult_hat, Z).max(),
        _span_residuals(Z.conj().transpose(0, 2, 1), star_hat, Z).max(),
        _span_residuals(_leg2_conjugations(star_hat, mult_hat, What_slices, Z),
                        dual_group.coproduct, Z).max())
    if resid > DUAL_TOL:
        raise InvalidInstanceError(
            "dual extraction residual %.3e exceeds %.0e" % (resid, DUAL_TOL))
    validation = validate(dual_group, tol=DUAL_TOL)
    if not validation.passed:
        raise InvalidInstanceError(
            "extracted dual instance fails validation (max violation %.3e)"
            % validation.max_violation)
    return DualQuantumGroup(G, dual_group, Z, What_slices, Lhat,
                            phihat_one, validation, float(resid), slice_rank)


def _dual_group(G):
    """The dual instance: A* with G's structure maps transposed (Van Daele,
    Adv. Math. 140, 1998): on the basis omega_mu dual to the e_mu,
    mult_hat[a, b, c] = Delta[c, a, b], cop_hat[c, a, b] = mult[b, a, c],
    antipode_hat = S^T, star_hat = conj((star S)^T), unit and counit swap,
    and the Haar weight read through the dual GNS map, <x*, omega> =
    (Lambda^(lambda(omega)) | Lambda(x)).  Returns the instance, the matrix
    whose column mu is Lambda^(lambda(omega_mu)), and phi-hat(1)."""
    gd = G.gns()
    unit_hat = G.counit.copy()
    Lhat = gd.lambda_inv @ G.star       # column mu: Lambda^(lambda(omega_mu))
    xi_one = Lhat @ unit_hat
    phihat_one = float(np.real(np.vdot(xi_one, xi_one)))
    group = FiniteQuantumGroup(
        "%s_dual" % G.name,
        np.ascontiguousarray(G.coproduct.transpose(1, 2, 0)), unit_hat,
        np.ascontiguousarray(G.mult.transpose(2, 1, 0)), G.unit.copy(),
        np.ascontiguousarray(G.antipode.T),
        np.ascontiguousarray(np.conj(G.star @ G.antipode).T),
        xi_one.conj() @ Lhat / phihat_one,
        basis_labels=["w[%s]" % lbl for lbl in G.basis_labels])
    return group, Lhat, phihat_one


def _span_residuals(X, C, Z):
    """||X_i - sum_m C[i, m] Z_m||_F for each matrix of the stack X,
    (..., p, p), with coefficients C, (..., n), in the family Z."""
    return np.linalg.norm(np.tensordot(C, Z, 1) - X, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Pontryagin biduality


def biduality(G: FiniteQuantumGroup) -> dict:
    """Exhibit the canonical *-isomorphism of the double dual onto G: the
    antipode S, since the double dual is G with the product and coproduct
    opposed.  No second dual is built: the double dual's structure maps are
    the dual's transposed (_dual_group), and its left regular images are
    the leg-one slices of the dual's W.  Those images, transported to H_h
    by the GNS unitary U between the two realizations of the dual Haar
    weight, must be sum_m S[i, m] lambda(e_m) at basis element i; the
    report carries the worst violation of that and of every structure map.
    """
    return G.cached("biduality", _biduality)


def _biduality(G):
    d1 = build_dual(G)
    Ghat = d1.group
    U = (d1.Lambda_hat_mat / np.sqrt(d1.phihat_one)) @ Ghat.gns().lambda_inv
    X = U @ build_w(Ghat).leg1_slices @ U.conj().T  # the double dual's images
    phi = G.antipode                        # double-dual coeffs -> G coeffs
    rel = _span_residuals(X, phi, G.gns().images) / np.maximum(
        1.0, np.linalg.norm(X, axis=(1, 2)))
    viol = max(np.linalg.norm(U @ U.conj().T - np.eye(len(U)), 2), np.max(rel))
    Gdd = _dual_group(Ghat)[0]
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
    return {"isomorphism": phi, "max_violation": float(viol)}


# ---------------------------------------------------------------------------
# Coefficient-induced multipliers


class MultiplierData:
    """Per stacked corepresentation when the multiplier came from a stack."""

    def __init__(self, Lmat, residual_action, residual_w, norm_bound,
                 factorization_norm, cb_bound):
        self.Lmat = Lmat                    # action on dual functional coefficients
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

    The W-hat residual is the Frobenius norm of (L* (x) id)(W-hat) -
    (1 (x) x)W-hat, both sides read from W-hat's slices, a certified upper
    bound on the spectral one.  The factorization norm
    ||sum_i c_i (x) a_i^T|| is read in the Wedderburn blocks: lambda is the
    direct sum of the blocks pi_k, each repeated, and so is lambda^T of the
    pi_l^T, so the norm is the largest of ||sum_i pi_k(c_i) (x) pi_l(a_i)^T||
    over the pairs (k, l), matrices of size n_k n_l instead of n^2.

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
    # lambda-hat(e_nu) = sum_k S[nu, k] lambda(e_k), as star_hat^T star = S, so
    # lambda-hat(L omega) = x lambda-hat(omega) reads Lmat^T = S M_x S (S^2 = 1)
    # with M_x[j, k] = sum_i x_i mult[i, j, k], the matrix of y -> x y
    Mx = np.tensordot(x.coeffs, G.mult, 1)
    Lmat = (G.antipode @ Mx @ G.antipode).swapaxes(-2, -1)
    xY = lx @ dual.What_slices                                      # x Yhat_mu
    # lambda-hat(L e_nu) - x lambda-hat(e_nu) for every dual basis element e_nu
    action = np.tensordot(Lmat.swapaxes(-2, -1), dual.What_slices, 1) - xY
    residual_action = np.max(np.linalg.svd(action, compute_uv=False)[..., 0],
                             axis=-1)
    # both sides of the W-hat identity from its slices,
    # sum_mu L*(Z_mu) (x) Yhat_mu and sum_mu Z_mu (x) x Yhat_mu, with entries
    # ordered [(b, d), (a, c)], legs (a, b) out and (c, d) in, so that each
    # is one BLAS product per corepresentation; a Frobenius norm does not
    # depend on the order
    lhs_w = dual.What_slices.reshape(n, n * n).T @ LZ.reshape(batch + (n, n * n))
    rhs_w = (xY.reshape(batch + (n, n * n)).swapaxes(-2, -1)
             @ dual.Z.reshape(n, n * n))
    lhs_w -= rhs_w                              # in place: two arrays live
    residual_w = vector_norms(lhs_w.reshape(batch + (-1,)))
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
    return MultiplierData(Lmat, residual_action, residual_w, norm_bound, fact,
                          cb_bound)


# ---------------------------------------------------------------------------
# The concrete pairing identity between the two GNS pictures


def pairing_identity_check(G: FiniteQuantumGroup, x: AlgebraElement,
                           w1: Functional, w2: Functional):
    """Residual of Lambda(lambda-hat(omega-hat)) = Lambda^(lambda((x w1) w2))
    with omega-hat the vector functional at (lambda(x) xi, J-hat eta),
    xi = Lambda^(lambda(w1)), eta = J-hat Lambda^(lambda(w2)).  The left
    side needs no solve: lambda-hat(omega-hat) = lambda(a) for an a in A by
    construction (W-hat's leg two lies in lambda(A)), and Lambda(a) =
    lambda(a)Lambda(1).  For stacks of x, w1 and w2, (..., n), one residual
    per stacked triple."""
    dual = build_dual(G)
    gd = G.gns()
    xi = dual.Lambda_hat_of_functional(w1)
    eta = dual.apply_Jhat(dual.Lambda_hat_of_functional(w2))
    what = dual.vector_functional((gd.left_action(x) @ xi[..., None])[..., 0], eta)
    lhs = dual.lambda_hat(what) @ (gd.lambda_map @ G.unit)
    rhs = dual.Lambda_hat_of_functional(convolve(module_action(x, w1), w2))
    return vector_norms(lhs - rhs)
