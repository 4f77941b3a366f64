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
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .convolution import Functional, convolve, module_action
from .corep import Corepresentation, cb_norm, coefficient, generator_of, is_corep
from .errors import (BudgetError, InvalidInstanceError, NotInvertibleError,
                     OwnerMismatchError)
from .qgroup import (
    AlgebraElement,
    FiniteQuantumGroup,
    SpanningFamily,
    operator_norm,
    validate,
    vector_norms,
)


# Bytes the pentagon and coproduct checks of W may hold at once (see
# _check_bytes): 16 (4 n^5 + 2 n^4) + 2^20 <= 2^29 allows n <= 24.
PENTAGON_BUDGET_BYTES = 2 ** 29

# Bound on the extracted dual's validation violations and extraction residual.
DUAL_TOL = 1e-9


def _check_bytes(n):
    """Peak bytes of the pentagon and coproduct checks of W at dim H = n.

    The coproduct residual holds four complex n^5 stacks at once (its first
    term, and the conjugation's einsum temporaries and result) and n^4
    temporaries; the pentagon bound holds only complex n^4 arrays, six at
    most.  2^20 bytes cover numpy's iteration buffers.
    """
    return 16 * (4 * n ** 5 + 2 * n ** 4) + 2 ** 20


class MultiplicativeUnitary:
    """W on H_h (x) H_h with its leg-one expansion over the algebra basis.

    The pentagon and coproduct residuals are computed when first read, so a
    W built only to extract a dual never pays for them.
    """

    def __init__(self, owner, W, leg1_slices, expansion_residual,
                 unitarity_residual):
        self.owner = owner
        self.W = W
        self.leg1_slices = leg1_slices      # W = sum_i lambda(e_i) (x) Z_i
        self.expansion_residual = float(expansion_residual)
        self.unitarity_residual = float(unitarity_residual)

    @cached_property
    def pentagon_residual(self) -> float:
        """Certified upper bound on ||W12 W13 W23 - W23 W12||."""
        return _pentagon_residual(self.W)

    @cached_property
    def coproduct_residual(self) -> float:
        """max_i ||(lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda(e_i))W||."""
        return _coproduct_residual(self.W, self.owner.coproduct,
                                   self.owner.gns().images)

    def lambda_of(self, w: Functional) -> np.ndarray:
        """lambda(omega) = (omega (x) id)W on H_h."""
        if w.owner is not self.owner:
            raise OwnerMismatchError("functional belongs to a different instance")
        return np.einsum("m,mij->ij", w.coeffs, self.leg1_slices)


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


def _pentagon_residual(W):
    """sqrt(||D||_1 ||D||_inf), a certified upper bound on the spectral norm
    of D = W12 W13 W23 - W23 W12 on H (x) H (x) H (Hoelder).

    D is formed one slice D[a, b] at a time, output legs 1 and 2 fixed: the
    slice gives the absolute row sums of the rows (a, b, c) and adds its part
    to the column sums over (x, y, z), then is dropped.  The n^6 array D is
    never formed; three n^4 copies of W and a slice's n^4 temporaries are all
    that is live.  W12 W13 contracts leg 1 (p), W23 then legs 2 and 3 (q, s);
    W23 W12 contracts leg 2 (q).  When every row and column of D holds at
    most one nonzero entry, all of one modulus, the bound equals ||D||.
    """
    W4 = _legs(W)
    n = W4.shape[0]
    m = n * n
    w13 = W4.transpose(1, 2, 3, 0).reshape(m * n, n)        # [(c, x, s), p]
    w23 = W4.transpose(2, 3, 0, 1).reshape(m, m)            # [(y, z), (q, s)]
    w23_first = W4.transpose(0, 1, 3, 2).reshape(m * n, n)  # [(b, c, z), q]
    row_max = 0.0
    col_sums = np.zeros((n, n, n))                           # [y, z, x]
    for a in range(n):
        w12 = W4[a].reshape(n, m)                            # [q, (x, y)]
        for b in range(n):
            t = (w13 @ W4[a, b]).reshape(n, n, n, n)         # [c, x, s, q]
            d = (w23 @ t.transpose(3, 2, 0, 1).reshape(m, m)).reshape(
                n, n, n, n)                                  # [y, z, c, x]
            d -= (w23_first[b * m:(b + 1) * m] @ w12).reshape(
                n, n, n, n).transpose(3, 1, 0, 2)            # [c, z, x, y] as d
            d = np.abs(d)
            row_max = max(row_max, float(d.sum(axis=(0, 1, 3)).max()))
            col_sums += d.sum(axis=2)
    return float(np.sqrt(row_max * col_sums.max()))


def _conjugate_leg2(U, X):
    """U* (1 (x) X_i) U as [i, a, b, c, d] for each X_i in the stack X: X_i acts
    on leg 2 only, so the legs (x, y) of U* meet (x, z) of U and X_i joins y, z."""
    U4 = _legs(U)
    return np.einsum("xyab,iyz,xzcd->iabcd", U4.conj(), X, U4, optimize=True)


def _coproduct_residual(W, coproduct, images):
    """max_i || (lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda(e_i))W ||, the
    first term with lambda(e_j) on leg 1 and lambda(e_k) on leg 2."""
    n = len(images)
    diff = (np.einsum("ijk,jac,kbd->iabcd", coproduct, images, images, optimize=True)
            - _conjugate_leg2(W, images)).reshape(n, n * n, n * n)
    return float(np.max(np.linalg.norm(diff, 2, axis=(1, 2))))


def build_w(G: FiniteQuantumGroup) -> MultiplicativeUnitary:
    return G.cached("build_w", _build_w)


def _build_w(G):
    """W with its unitarity and leg-one residuals.  The pentagon and
    coproduct residuals are computed when first read, but the bytes they
    need are checked against the budget here, before anything is allocated.
    Both contract W leg by leg (see their helpers): the pentagon residual is
    a certified upper bound on the spectral norm of the pentagon difference,
    the coproduct residual a spectral norm."""
    n = G.dim
    need = _check_bytes(n)
    if need > PENTAGON_BUDGET_BYTES:
        raise BudgetError("pentagon and coproduct checks of W need %d bytes "
                          "at n = %d (budget %d)" % (need, n, PENTAGON_BUDGET_BYTES))
    gd = G.gns()
    # W* on coefficients: (a (x) b) -> Delta(b)(a (x) 1)
    wstar_c = np.einsum("mjq,jip->pqim", G.coproduct, G.mult).reshape(n * n, n * n)
    lam2 = np.kron(gd.lambda_map, gd.lambda_map)
    lam2_inv = np.kron(gd.lambda_inv, gd.lambda_inv)
    Wstar = lam2 @ wstar_c @ lam2_inv
    W = Wstar.conj().T
    eye2 = np.eye(n * n)
    unit_resid = max(np.linalg.norm(W @ Wstar - eye2, 2),
                     np.linalg.norm(Wstar @ W - eye2, 2))
    if unit_resid > 1e-8:
        raise InvalidInstanceError(
            "fundamental operator is not unitary (residual %.3e)" % unit_resid)
    Z, exp_resid = _leg1_expand(gd.span, W)
    return MultiplicativeUnitary(G, W, Z, exp_resid, unit_resid)


class DualQuantumGroup:
    """The dual instance plus its concrete identification inside B(H_h)."""

    def __init__(self, owner, group, Wd, span, What, What_slices,
                 Lambda_hat_mat, phihat_one, extraction_residual, validation):
        self.owner = owner                  # primal G
        self.group = group                  # abstract dual instance
        self.validation = validation        # validate(group, tol=DUAL_TOL)
        self.Wd = Wd
        self.span = span                    # the Z[mu] as a spanning family
        self.Z = span.family                # Z[mu] = lambda(omega_mu) on H
        self.What = What                    # Sigma W* Sigma
        self.What_slices = What_slices      # What = sum_mu Z_mu (x) Yhat_mu
        self.Lambda_hat_mat = Lambda_hat_mat  # columns Lambda^(lambda(omega_mu))
        self.phihat_one = float(phihat_one)
        self.extraction_residual = float(extraction_residual)
        self.Jhat_mat = (Lambda_hat_mat @ group.star.T
                         @ np.conj(np.linalg.inv(Lambda_hat_mat)))

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


def build_dual(G: FiniteQuantumGroup) -> DualQuantumGroup:
    return G.cached("build_dual", _build_dual)


def _build_dual(G):
    """Extract the dual instance from the slices Z_mu = lambda(omega_mu) of W,
    expanding products, adjoints and coproducts back in the Z_mu.

    W-hat* (1 (x) Z_mu) W-hat = sum_ab c[a,b] Z_a (x) Z_b, grouped as rows
    (i, k) of leg 1 and columns (j, l) of leg 2, reads zmat c zmat^T = T_mu
    (zmat has columns vec(Z_a)).  zmat has full column rank, so
    pinv(zmat (x) zmat) = zpinv (x) zpinv and c = zpinv T_mu zpinv^T is the
    least-squares solution of the n^4 x n^2 system in vec(Z_a (x) Z_b).
    """
    Wd = build_w(G)
    gd = G.gns()
    n = G.dim
    Z = Wd.leg1_slices                  # Z[mu] = (omega_mu (x) id)W
    span = SpanningFamily(Z)
    zmat, zpinv = span.matrix, span.pinv
    if np.linalg.matrix_rank(zmat, tol=1e-9) < n:
        raise InvalidInstanceError("left regular representation is not injective")
    mult_hat, r_mult = span.expand(Z[:, None] @ Z[None])     # [a, b] = Z_a Z_b
    Wstar = Wd.W.conj().T
    What = _legs(Wstar).transpose(1, 0, 3, 2).reshape(n * n, n * n)  # Sigma W* Sigma
    T = _conjugate_leg2(What, Z).transpose(0, 1, 3, 2, 4).reshape(n, n * n, n * n)
    cop_hat = zpinv @ T @ zpinv.T
    r_cop = np.linalg.norm(zmat @ cop_hat @ zmat.T - T, axis=(1, 2))
    unit_hat = G.counit.copy()
    counit_hat = G.unit.copy()
    # antipode: S-hat((omega (x) id)W) = (omega (x) id)(W*)
    Zstar_slices, r_leg = _leg1_expand(gd.span, Wstar)
    antipode_hat, r_anti = span.expand(Zstar_slices)
    # star: the sharp involution implemented by the concrete adjoint
    star_hat, r_star = span.expand(Z.conj().transpose(0, 2, 1))
    # dual GNS map and Haar: <x*, omega> = (Lambda^(lambda(omega)) | Lambda(x))
    Lhat = gd.lambda_inv @ G.star       # column mu: Lambda^(lambda(omega_mu))
    xi_one = Lhat @ unit_hat
    phihat_one = float(np.real(np.vdot(xi_one, xi_one)))
    haar_hat = xi_one.conj() @ Lhat / phihat_one
    dual_group = FiniteQuantumGroup(
        "%s_dual" % G.name, mult_hat, unit_hat, cop_hat, counit_hat,
        antipode_hat, star_hat, haar_hat,
        basis_labels=["w[%s]" % lbl for lbl in G.basis_labels])
    What_slices, r_what = _leg1_expand(span, What)
    resid = max(r_leg, r_what,
                *(float(np.max(r)) for r in (r_mult, r_cop, r_anti, r_star)))
    if resid > DUAL_TOL:
        raise InvalidInstanceError(
            "dual extraction residual %.3e exceeds %.0e" % (resid, DUAL_TOL))
    validation = validate(dual_group, tol=DUAL_TOL)
    if not validation.passed:
        raise InvalidInstanceError(
            "extracted dual instance fails validation (max violation %.3e)"
            % validation.max_violation)
    return DualQuantumGroup(G, dual_group, Wd, span, What, What_slices,
                            Lhat, phihat_one, resid, validation)


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
    Vt = generator_of("tilde", V)
    Vs = generator_of("star", V)
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
    lhs_w = np.einsum("...mac,mbd->...abcd", LZ,
                      dual.What_slices).reshape(batch + (n * n, n * n))
    rhs_w = (lx @ dual.What.reshape(n, n, n * n)).reshape(batch + (n * n, n * n))
    residual_w = np.linalg.norm(lhs_w - rhs_w, 2, axis=(-2, -1))
    # sum_i c_i* c_i and sum_i a_i* a_i through the structure tensors
    sum_cc = np.einsum("ijk,...di,...dj->...k", G.mult, np.conj(c_els) @ G.star,
                       c_els)
    sum_aa = np.einsum("ijk,...di,...dj->...k", G.mult, np.conj(a_els) @ G.star,
                       a_els)
    norm_bound = (np.sqrt(operator_norm(G.element(sum_cc)))
                  * np.sqrt(operator_norm(G.element(sum_aa))))
    fact = np.linalg.norm(np.einsum("...iac,...idb->...abcd", c_mats, a_mats)
                          .reshape(batch + (n * n, n * n)), 2, axis=(-2, -1))
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
