"""Multiplicative unitary, dual instance extraction, biduality, multipliers,
and the concrete pairing identity."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from qglab.builders import (
    builtin_instance,
    cyclic_table,
    from_function_algebra,
    from_group_algebra,
)
from qglab.catalog import corep_catalog, unitary_corepresentation
from qglab.convolution import (
    Functional,
    convolve,
    counit_functional,
    module_action,
    sharp,
)
from qglab.corep import random_invertible_corep, similarity_draw
from qglab.duality import (
    MultiplicativeUnitary,
    _coproduct_residuals,
    biduality,
    build_dual,
    build_w,
    multiplier_from_coefficient,
    pairing_identity_check,
)
from qglab import duality, qgroup, suite
from qglab.errors import BudgetError, InvalidInstanceError
from qglab.qgroup import FiniteQuantumGroup, validate, vector_norms
from test_convolution import l1_norm

CORPUS = ("c_z2", "c_z3", "c_z4", "c_z2xz2", "c_s3",
          "cg_z2", "cg_z3", "cg_z4", "cg_z2xz2", "cg_s3", "kac_paljutkin")


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def _kron_sum(X, Y):
    """sum_m X_m (x) Y_m for two stacks of n x n matrices, as an n^2 x n^2
    matrix, through one product M = sum_m vec(X_m) vec(Y_m)^T."""
    n = X.shape[-1]
    M = X.reshape(len(X), -1).T @ Y.reshape(len(Y), -1)
    return M.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _lstsq_expand(family, X):
    """Least-squares coefficients c, (..., k), of each matrix of the stack X,
    (..., p, q), in the family (k, p, q) of matrices, with the Frobenius
    residual ||sum_m c_m family_m - X|| of each, (...)."""
    M = family.reshape(len(family), -1).T           # columns vec(family_m)
    B = X.reshape(-1, M.shape[0]).T                 # columns vec(X_i)
    C = np.linalg.lstsq(M, B, rcond=None)[0]
    resid = np.linalg.norm(M @ C - B, axis=0)
    return C.T.reshape(X.shape[:-2] + (-1,)), resid.reshape(X.shape[:-2])


def _dense_w(G, Z):
    """W = sum_m lambda_m (x) Z_m as an n^2 x n^2 matrix."""
    return _kron_sum(G.gns().images, Z)


def _dense_w_hat(dual):
    """The W-hat the dual holds, sum_mu Z_mu (x) Yhat_mu, as an n^2 x n^2
    matrix."""
    return _kron_sum(dual.Z, dual.What_slices)


def _kron_w(G):
    """Reference W: W* = (Lambda (x) Lambda) w* (Lambda (x) Lambda)^-1 with
    w* the map (a (x) b) -> Delta(b)(a (x) 1) on coefficients."""
    n = G.dim
    gd = G.gns()
    wstar_c = np.einsum("mjq,jip->pqim", G.coproduct, G.mult).reshape(n * n, n * n)
    lam2 = np.kron(gd.lambda_map, gd.lambda_map)
    lam2_inv = np.kron(gd.lambda_inv, gd.lambda_inv)
    return (lam2 @ wstar_c @ lam2_inv).conj().T


def test_w_c_z2_is_the_translation_permutation():
    # hand oracle: W*(f_x (x) f_y) = f_x (x) f_{x^-1 y} on the GNS basis of C(Z2)
    G = builtin_instance("c_z2")
    Wd = build_w(G)
    Wstar_oracle = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            z = (y - x) % 2
            Wstar_oracle[x * 2 + z, x * 2 + y] = 1.0
    assert np.linalg.norm(_dense_w(G, Wd.leg1_slices) - Wstar_oracle.T) < 1e-12
    assert Wd.pentagon_residual < 1e-12


def test_w_invariants_all_instances():
    for name in CORPUS:
        G = builtin_instance(name)
        Wd = build_w(G)
        assert Wd.unitarity_residual < 1e-9, name
        assert Wd.pentagon_residual < 1e-9, name
        assert Wd.coproduct_residual < 1e-9, name
        # build_dual refuses an extraction residual above 1e-9
        assert build_dual(G).validation.passed, name


def test_w_implements_coproduct_group_algebra_z2():
    # Delta(x) = W*(1 (x) x)W checked on both basis elements by contraction
    G = builtin_instance("cg_z2")
    gd = G.gns()
    W = _dense_w(G, build_w(G).leg1_slices)
    for i in range(2):
        lam = [gd.left_action(G.element(np.eye(G.dim)[k])) for k in range(2)]
        lhs = sum(G.coproduct[i, j, k] * np.kron(lam[j], lam[k])
                  for j in range(2) for k in range(2))
        rhs = W.conj().T @ np.kron(np.eye(2), lam[i]) @ W
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_lambda_rep_examples():
    G = builtin_instance("c_z2")
    Wd = build_w(G)
    assert np.allclose(Wd.lambda_of(counit_functional(G)), np.eye(2))
    wg = Functional(G, np.eye(G.dim)[1])
    lam_g = Wd.lambda_of(wg)
    # oracle: the translation unitary permutes the GNS basis of delta functions
    gd = G.gns()
    for x in range(2):
        v = gd.lambda_map @ np.eye(G.dim)[x]
        swapped = gd.lambda_map @ np.eye(G.dim)[1 - x]
        assert np.linalg.norm(lam_g @ v - swapped) < 1e-12
    rng = np.random.default_rng(0)
    for name in ("cg_s3", "kac_paljutkin"):
        H = builtin_instance(name)
        Wh = build_w(H)
        for _ in range(5):
            w = rand_functional(H, rng)
            assert np.linalg.norm(Wh.lambda_of(w), 2) <= l1_norm(w) + 1e-8


def test_lambda_multiplicative_and_star():
    rng = np.random.default_rng(1)
    for name in CORPUS:
        G = builtin_instance(name)
        Wd = build_w(G)
        for _ in range(3):
            w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
            assert np.linalg.norm(
                Wd.lambda_of(convolve(w1, w2))
                - Wd.lambda_of(w1) @ Wd.lambda_of(w2), 2) < 1e-10
            assert np.linalg.norm(
                Wd.lambda_of(sharp(w1)) - Wd.lambda_of(w1).conj().T, 2) < 1e-10


def test_dual_of_c_z2_is_the_group_algebra():
    G = builtin_instance("c_z2")
    dual = build_dual(G).group
    H = from_group_algebra(cyclic_table(2))
    for key in ("mult", "coproduct", "unit", "counit", "antipode", "star", "haar"):
        assert np.max(np.abs(getattr(dual, key) - getattr(H, key))) < 1e-10, key


def test_dual_instances_validate_and_swap_flags():
    for name in CORPUS:
        G = builtin_instance(name)
        dual = build_dual(G).group
        assert validate(dual, tol=1e-9).passed, name
    G = builtin_instance("cg_s3")
    dual = build_dual(G).group
    assert not G.is_commutative() and G.is_cocommutative()
    assert dual.is_commutative() and not dual.is_cocommutative()


def test_dual_mult_is_transpose_of_coproduct():
    # oracle for the extraction: (w_mu w_nu)(e_k) = D[k, mu, nu]
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        dual = build_dual(G).group
        assert np.max(np.abs(dual.mult - G.coproduct.transpose(1, 2, 0))) < 1e-10


def test_dual_kac_paljutkin_block_pattern():
    G = builtin_instance("kac_paljutkin")
    dual = build_dual(G).group
    assert sorted(dual.block_decomposition().sizes) == [1, 1, 1, 1, 2]
    assert not dual.is_commutative() and not dual.is_cocommutative()


def test_lambda_hat_gns_pairing():
    # <x*, omega> = (Lambda^(lambda(omega)) | Lambda(x)) and the module rule
    rng = np.random.default_rng(2)
    for name in ("c_z2", "cg_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        dual = build_dual(G)
        gd = G.gns()
        from qglab.qgroup import adjoint
        for _ in range(5):
            w = rand_functional(G, rng)
            xi = dual.Lambda_hat_of_functional(w)
            for i in range(G.dim):
                x = G.element(np.eye(G.dim)[i])
                assert abs(w(adjoint(x)) - np.vdot(gd.lambda_map @ x.coeffs, xi)) < 1e-10
            w1 = rand_functional(G, rng)
            lhs = dual.Lambda_hat_of_functional(convolve(w, w1))
            rhs = build_w(G).lambda_of(w) @ dual.Lambda_hat_of_functional(w1)
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_jhat_squares_to_one():
    for name in ("c_z2", "kac_paljutkin"):
        G = builtin_instance(name)
        dual = build_dual(G)
        J2 = dual.Jhat_mat @ np.conj(dual.Jhat_mat)
        assert np.linalg.norm(J2 - np.eye(G.dim)) < 1e-9


def test_biduality_all_instances():
    for name, tol in (("c_z2", 1e-9), ("c_s3", 1e-8), ("cg_s3", 1e-8),
                      ("kac_paljutkin", 1e-8)):
        rep = biduality(builtin_instance(name))
        assert rep["max_violation"] <= tol, name


def test_biduality_builds_no_second_dual(monkeypatch):
    # the double dual's tensors are the dual's transposed and its images
    # the slices of the dual's W: build_dual runs on G alone, and validate
    # on the dual alone
    built, validated = [], []
    build, check = duality.build_dual, duality.validate
    monkeypatch.setattr(duality, "build_dual",
                        lambda A: built.append(A) or build(A))
    monkeypatch.setattr(duality, "validate",
                        lambda A, **kw: validated.append(A) or check(A, **kw))
    G = builtin_instance("kac_paljutkin")
    biduality(G)
    assert built == [G]
    assert validated == [build(G).group]


def _double_dual_violation(G):
    """biduality's max_violation read through a second dual,
    build_dual(G-hat), which builds, certifies and validates the double
    dual in full."""
    d1 = build_dual(G)
    Ghat = d1.group
    d2 = build_dual(Ghat)
    U = (d1.Lambda_hat_mat / np.sqrt(d1.phihat_one)) @ Ghat.gns().lambda_inv
    X = U @ d2.Z @ U.conj().T
    phi = G.antipode
    rel = duality._span_residuals(X, phi, G.gns().images) / np.maximum(
        1.0, np.linalg.norm(X, axis=(1, 2)))
    viol = max(np.linalg.norm(U @ U.conj().T - np.eye(len(U)), 2), np.max(rel))
    Gdd = d2.group
    for lhs, rhs in (
            (Gdd.unit @ phi, G.unit),
            (Gdd.star @ phi, np.conj(phi) @ G.star),
            (phi @ G.counit, Gdd.counit),
            (phi @ G.haar, Gdd.haar),
            (Gdd.mult @ phi, np.einsum("abk,ia,jb->ijk", G.mult, phi, phi)),
            (np.einsum("iab,ap,bq->ipq", Gdd.coproduct, phi, phi),
             np.einsum("im,mpq->ipq", phi, G.coproduct))):
        viol = max(viol, float(np.max(np.abs(lhs - rhs))))
    return float(viol)


@pytest.mark.parametrize("name", CORPUS)
def test_biduality_equals_the_double_dual_path(name):
    G = builtin_instance(name)
    assert biduality(G)["max_violation"] == _double_dual_violation(G)


def test_dual_validation_refuses_a_perturbed_counit():
    # W and the dual's certificates never read G's counit, which becomes
    # the dual's unit: only the dual's validation sees it perturbed
    G = builtin_instance("kac_paljutkin")
    counit = G.counit.copy()
    counit[0] += 1e-6
    H = FiniteQuantumGroup("perturbed", G.mult, G.unit, G.coproduct, counit,
                           G.antipode, G.star, G.haar)
    cfg = suite.SuiteConfig(instances=[("perturbed", H)], suites=("duality",))
    with pytest.raises(InvalidInstanceError, match="fails validation"):
        suite.run_suite(cfg)


def test_multiplier_character_on_z2():
    # V = [u]: the induced multiplier is multiplication by the character,
    # so L^2 = id on dual coefficients and the action residual vanishes
    G = builtin_instance("c_z2")
    V = [W for W in corep_catalog(G)
         if W.d == 1 and not np.allclose(W.tensor[0, 0], G.unit)][0]
    md = multiplier_from_coefficient(V, np.ones(1), np.ones(1))
    assert md.residual_action < 1e-12
    assert md.residual_w < 1e-12
    assert np.linalg.norm(md.Lmat @ md.Lmat - np.eye(2)) < 1e-12
    assert md.norm_bound <= 1 + 1e-9


def test_multiplier_unitary_contractive():
    for name in ("cg_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        U = unitary_corepresentation(G, similarity_draw(2, 3).uniforms)
        alpha = np.array([1.0, 0.0])
        md = multiplier_from_coefficient(U, alpha, alpha)
        assert md.residual_action < 1e-9
        assert md.norm_bound <= 1 + 1e-9


def test_multiplier_random_and_bounds():
    rng = np.random.default_rng(3)
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        for seed in range(6):
            V, _ = random_invertible_corep(G, similarity_draw(2, 40 + seed))
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            md = multiplier_from_coefficient(V, a, b)
            assert md.residual_action < 1e-8
            assert md.residual_w < 1e-8
            assert md.norm_bound <= md.cb_bound + 1e-6
            assert md.factorization_norm <= md.cb_bound + 1e-6


def test_multiplier_is_a_left_multiplier():
    # L(w1 w2) = L(w1) w2 on the dual convolution algebra
    G = builtin_instance("kac_paljutkin")
    V, _ = random_invertible_corep(G, similarity_draw(2, 50))
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    md = multiplier_from_coefficient(V, a, b)
    dual = build_dual(G)
    for _ in range(5):
        w1 = rand_functional(dual.group, rng)
        w2 = rand_functional(dual.group, rng)
        # Lmat acts on dual functional coefficients: (L omega)(y) = omega(L*(y))
        lhs = md.Lmat @ convolve(w1, w2).coeffs
        rhs = convolve(Functional(dual.group, md.Lmat @ w1.coeffs), w2).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_multiplier_basis_independence():
    G = builtin_instance("kac_paljutkin")
    V, _ = random_invertible_corep(G, similarity_draw(2, 60))
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    md = multiplier_from_coefficient(V, a, b)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    md2 = multiplier_from_coefficient(V, a, b, basis=Q)
    assert np.max(np.abs(md.Lmat - md2.Lmat)) < 1e-8


def test_pairing_identity():
    G = builtin_instance("c_z2")
    res = pairing_identity_check(G, G.element(G.unit), counit_functional(G),
                                 counit_functional(G))
    assert res < 1e-12
    rng = np.random.default_rng(6)
    u = G.element(np.array([1.0, -1.0]))
    for _ in range(10):
        w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
        assert pairing_identity_check(G, u, w1, w2) < 1e-10
    H = builtin_instance("kac_paljutkin")
    for _ in range(10):
        x = H.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        w1, w2 = rand_functional(H, rng), rand_functional(H, rng)
        assert pairing_identity_check(H, x, w1, w2) < 1e-8


def _pairing_sides(G, x, w1, w2):
    """The pairing check's closed-form left side lambda-hat(omega-hat)
    Lambda(1), the left side reconstructed as Lambda(a) from a least-squares
    solve of lambda(a) = lambda-hat(omega-hat) with that solve's relative
    residual, and the right side."""
    dual = build_dual(G)
    gd = G.gns()
    xi = dual.Lambda_hat_of_functional(w1)
    eta = dual.apply_Jhat(dual.Lambda_hat_of_functional(w2))
    what = dual.vector_functional((gd.left_action(x) @ xi[..., None])[..., 0], eta)
    lam_hat = dual.lambda_hat(what)
    closed = lam_hat @ (gd.lambda_map @ G.unit)
    a, resid = _lstsq_expand(gd.images, lam_hat)
    rhs = dual.Lambda_hat_of_functional(convolve(module_action(x, w1), w2))
    return closed, gd.lambda_map @ a, resid / max(1.0, np.linalg.norm(lam_hat)), rhs


def _assert_pairing_is_the_least_squares_one(G, rtol, seed=8):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
        closed, fit, resid, rhs = _pairing_sides(G, x, w1, w2)
        assert np.linalg.norm(closed - fit) <= rtol * np.linalg.norm(fit)
        # lambda-hat(omega-hat) lies in lambda(A): no membership refusal
        # could fire
        assert resid <= rtol
        assert pairing_identity_check(G, x, w1, w2) == vector_norms(closed - rhs)


@pytest.mark.parametrize("name", CORPUS)
def test_pairing_lhs_is_the_least_squares_reconstruction(name):
    _assert_pairing_is_the_least_squares_one(builtin_instance(name), 1e-13)


def test_regularity_slices_span():
    for name in ("c_z2", "kac_paljutkin"):
        G = builtin_instance(name)
        dual = build_dual(G)
        zmat = np.stack([z.reshape(-1) for z in dual.Z], axis=1)
        assert np.linalg.matrix_rank(zmat, tol=1e-9) == G.dim
        ymat = np.stack([y.reshape(-1) for y in dual.What_slices], axis=1)
        assert np.linalg.matrix_rank(ymat, tol=1e-9) == G.dim


def test_duality_suite_takes_one_slice_rank_per_instance(monkeypatch):
    # build_dual measures the rank of the slices Z_mu once and keeps it;
    # the regularity record reads it instead of taking a second SVD
    shapes = []
    rank = np.linalg.matrix_rank

    def spy(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return rank(A, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "matrix_rank", spy)
    names = ("c_s3", "kac_paljutkin", "cg_z4")
    instances = [(name, builtin_instance(name)) for name in names]
    report = suite.run_suite(suite.SuiteConfig(instances=instances,
                                               suites=("duality",), seed=1))
    for name, G in instances:
        n = G.dim
        assert shapes.count((n, n * n)) == 1, name
        assert build_dual(G).slice_rank == n
        record = [r for r in report.records
                  if r.name == "duality/%s/regularity" % name]
        assert len(record) == 1 and record[0].value == 0.0 and record[0].passed


# --- leg-wise contractions against the dense Kronecker formulas ------------


def _swap_matrix(n):
    S = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            S[i * n + j, j * n + i] = 1.0
    return S


def _gaussian_slices(n, rng):
    return rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))


def _random_unitary_slices(G, rng):
    """The slices of a random unitary in lambda(A) (x) B(H): exp(iH) for
    H = X + X*, X with Gaussian slices, lies in that *-algebra."""
    n = G.dim
    X = _dense_w(G, _gaussian_slices(n, rng))
    e, V = np.linalg.eigh(X + X.conj().T)
    U = (V * np.exp(1j * e)) @ V.conj().T
    Z, resid = _lstsq_expand(G.gns().images,
                             U.reshape(n, n, n, n).transpose(1, 3, 0, 2))
    assert np.max(resid) < 1e-12
    return Z.transpose(2, 0, 1)


def _perturbed_slices(G, eps, rng):
    """W's slices plus eps times Gaussian slices whose operator has norm 1."""
    noise = _gaussian_slices(G.dim, rng)
    noise /= np.linalg.norm(_dense_w(G, noise), 2)
    return build_w(G).leg1_slices + eps * noise


def _kron_pentagon_difference(W, n):
    eye = np.eye(n)
    W12, W23 = np.kron(W, eye), np.kron(eye, W)
    S23 = np.kron(eye, _swap_matrix(n))
    W13 = S23 @ W12 @ S23
    return W12 @ W13 @ W23 - W23 @ W12


def _pentagon_norm(W, n):
    return np.linalg.norm(_kron_pentagon_difference(W, n), 2)


def dihedral_table(m):
    """The dihedral group of order 2m: rotation k and reflection e at k + m e."""
    t = np.zeros((2 * m, 2 * m), dtype=int)
    for k1, e1, k2, e2 in itertools.product(range(m), (0, 1), range(m), (0, 1)):
        t[k1 + m * e1, k2 + m * e2] = (k1 + (-1) ** e1 * k2) % m + m * (e1 ^ e2)
    return t


@pytest.fixture(scope="module", params=CORPUS + ("c_d5", "cg_d5"))
def instance(request):
    name = request.param
    if name.endswith("_d5"):
        build = from_function_algebra if name == "c_d5" else from_group_algebra
        return build(dihedral_table(5))
    return builtin_instance(name)


def _einsum_checks(G):
    # validate's tensordot checks, by the plain einsum formulas
    M, D = G.mult, G.coproduct

    def mx(x):
        return float(np.max(np.abs(x)))
    return {
        "mult associative":
            mx(np.einsum("ijm,mkl->ijkl", M, M) - np.einsum("jkm,iml->ijkl", M, M)),
        "coproduct coassociative":
            mx(np.einsum("ijc,jab->iabc", D, D) - np.einsum("iak,kbc->iabc", D, D)),
        "coproduct is an algebra homomorphism":
            mx(np.einsum("ijk,kab->ijab", M, D)
               - np.einsum("ipq,jrs,pra,qsb->ijab", D, D, M, M, optimize=True)),
    }


def _assert_validate_matches_einsum(G):
    checks = dict(validate(G).checks)
    for axiom, value in _einsum_checks(G).items():
        assert abs(checks[axiom] - value) <= 1e-15, (G.name, axiom)


def test_validate_tensordot_forms_match_einsum(instance):
    _assert_validate_matches_einsum(instance)


def test_validate_tensordot_forms_see_a_perturbed_mult():
    G = builtin_instance("kac_paljutkin")
    rng = np.random.default_rng(4)
    mult = G.mult + 1e-6 * rng.standard_normal(G.mult.shape)
    bad = FiniteQuantumGroup("kp_bad_mult", mult, G.unit, G.coproduct, G.counit,
                             G.antipode, G.star, G.haar)
    _assert_validate_matches_einsum(bad)
    rep = validate(bad)
    assert not rep.passed
    assert dict(rep.checks)["mult associative"] > 1e-7


def test_validate_searches_no_contraction_path(monkeypatch, instance):
    try:
        from numpy._core import einsumfunc
    except ImportError:                 # numpy < 2
        from numpy.core import einsumfunc

    def refuse(*args, **kwargs):
        raise AssertionError("an einsum contraction path was searched")
    for name in ("_greedy_path", "_optimal_path"):
        monkeypatch.setattr(einsumfunc, name, refuse)
    D, C = instance.coproduct, instance.star
    with pytest.raises(AssertionError):         # the guard sees a search
        np.einsum("ijk,ja,kb->iab", D, C, C, optimize=True)
    validate(instance)


def test_validate_fixed_paths_are_the_searched_ones(monkeypatch, instance):
    # each path validate passes is the one numpy's greedy search picks for
    # its operands, so its sums are those of a searched call, bit for bit
    einsum, fixed = np.einsum, []

    def spy(spec, *operands, **kwargs):
        if kwargs.get("optimize", False) is not False:
            fixed.append((spec, operands, kwargs["optimize"]))
        return einsum(spec, *operands, **kwargs)
    monkeypatch.setattr(np, "einsum", spy)
    validate(instance)
    assert len(fixed) == 6
    for spec, operands, path in fixed:
        assert np.einsum_path(spec, *operands, optimize=True)[0] == path
        assert np.array_equal(einsum(spec, *operands, optimize=path),
                              einsum(spec, *operands, optimize=True))


def test_w_slices_match_the_kronecker_formula(instance):
    G = instance
    n = G.dim
    gd = G.gns()
    W = _dense_w(G, build_w(G).leg1_slices)
    ref = _kron_w(G)
    assert np.linalg.norm(W - ref) <= 1e-13 * np.linalg.norm(ref)
    # W*(Lambda(e_i) (x) Lambda(e_k)) = (Lambda (x) Lambda)(Delta(e_k)(e_i (x) 1)),
    # column (i, k) of each side
    lhs = W.conj().T @ np.kron(gd.lambda_map, gd.lambda_map)
    c = np.einsum("kjq,jip->ikpq", G.coproduct, G.mult)
    rhs = np.einsum("ap,ikpq,bq->abik", gd.lambda_map, c, gd.lambda_map)
    assert np.max(np.abs(lhs - rhs.reshape(n * n, n * n))) <= 1e-12 * np.max(np.abs(rhs))


def test_build_w_forms_no_kronecker_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.kron called")
    monkeypatch.setattr(np, "kron", refuse)
    build_w(from_function_algebra(dihedral_table(3)))
    build_w(from_group_algebra(dihedral_table(3)))


def test_pentagon_residual_bounds_the_pentagon_difference(instance):
    Wd = build_w(instance)
    W = _dense_w(instance, Wd.leg1_slices)
    assert _pentagon_norm(W, instance.dim) <= Wd.pentagon_residual <= 1e-12


@pytest.mark.parametrize("n, seed", [(3, 5), (3, 0), (4, 0)])
def test_pentagon_residual_bounds_random_unitaries(n, seed):
    # a random unitary in lambda(A) (x) B(H) is no multiplicative unitary:
    # the bound's coproduct terms are large, and it must still lie above the
    # true norm
    for name in CORPUS:
        G = builtin_instance(name)
        if G.dim == n:
            Z = _random_unitary_slices(G, np.random.default_rng(seed))
            norm = _pentagon_norm(_dense_w(G, Z), n)
            assert norm > 0.5, name
            assert MultiplicativeUnitary(G, Z).pentagon_residual >= norm, name


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4, 1.0])
def test_pentagon_residual_bounds_perturbed_w(eps):
    G = builtin_instance("kac_paljutkin")
    Z = _perturbed_slices(G, eps, np.random.default_rng(9))
    bound = MultiplicativeUnitary(G, Z).pentagon_residual
    norm = _pentagon_norm(_dense_w(G, Z), G.dim)
    assert norm > eps / 100
    assert bound >= norm


def _dense_residuals(G, W):
    """The spectral norms that r_i and u bound, by the dense Kronecker
    formulas: ||(lambda (x) lambda)Delta(e_i) - W*(1 (x) lambda_i)W|| for
    each i, and max(||WW* - 1||, ||W*W - 1||)."""
    n = G.dim
    L = G.gns().images
    Wstar = W.conj().T
    eye = np.eye(n * n)
    cop = [np.linalg.norm(
        np.einsum("jk,jac,kbd->abcd", G.coproduct[i], L, L).reshape(n * n, n * n)
        - Wstar @ np.kron(np.eye(n), L[i]) @ W, 2) for i in range(n)]
    unit = max(np.linalg.norm(W @ Wstar - eye, 2), np.linalg.norm(Wstar @ W - eye, 2))
    return np.array(cop), unit


@pytest.mark.parametrize("name", CORPUS)
def test_residuals_bound_their_dense_spectral_values(name):
    # r_i and u are read in leg-one coordinates; each must stay above the
    # spectral norm it bounds, for unitaries far from multiplicative and
    # for the instance's W perturbed by 1e-12 to 1
    G = builtin_instance(name)
    n = G.dim
    rng = np.random.default_rng(n)
    # (slices, bars the largest dense coproduct value and u's must clear, so
    # that no case is vacuous)
    cases = [(_random_unitary_slices(G, rng), 0.5, 0.0)]
    cases += [(_perturbed_slices(G, eps, rng), eps / 100, eps / 100)
              for eps in (1e-12, 1e-8, 1e-4, 1.0)]
    for Z, cop_floor, unit_floor in cases:
        cop, unit = _dense_residuals(G, _dense_w(G, Z))
        assert cop.max() > cop_floor and unit >= unit_floor
        Wd = MultiplicativeUnitary(G, Z)
        assert np.all(_coproduct_residuals(Wd) >= cop)
        assert Wd.unitarity_residual >= unit


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
def test_unitarity_residual_bounds_the_spectral_residuals(eps):
    G = builtin_instance("kac_paljutkin")
    n = G.dim
    Z = _perturbed_slices(G, eps, np.random.default_rng(11))
    W = _dense_w(G, Z)
    Wstar = W.conj().T
    eye = np.eye(n * n)
    spectral = (np.linalg.norm(W @ Wstar - eye, 2), np.linalg.norm(Wstar @ W - eye, 2))
    assert min(spectral) > eps / 100
    assert MultiplicativeUnitary(G, Z).unitarity_residual >= max(spectral)


def test_factored_coproduct_solve_matches_pinv_of_kron_system():
    G = builtin_instance("kac_paljutkin")
    n = G.dim
    dual = build_dual(G)
    What = _dense_sigma_w_star_sigma(G)
    assert np.linalg.norm(_dense_w_hat(dual) - What) <= 1e-13 * np.linalg.norm(What)
    Z = dual.Z
    zz = np.stack([np.kron(Z[a], Z[b]).reshape(-1)
                   for a in range(n) for b in range(n)], axis=1)
    zz_pinv = np.linalg.pinv(zz)
    for mu in range(n):
        target = What.conj().T @ np.kron(np.eye(n), Z[mu]) @ What
        c = (zz_pinv @ target.reshape(-1)).reshape(n, n)
        assert np.max(np.abs(c - dual.group.coproduct[mu])) < 1e-12


def _dense_sigma_w_star_sigma(G):
    swap = _swap_matrix(G.dim)
    return swap @ _dense_w(G, build_w(G).leg1_slices).conj().T @ swap


def test_held_w_hat_is_sigma_w_star_sigma(instance):
    dense = _dense_sigma_w_star_sigma(instance)
    held = _dense_w_hat(build_dual(instance))
    assert np.linalg.norm(held - dense) <= 1e-13 * np.linalg.norm(dense)


def _least_squares_fits(G):
    """Each closed form of the dual and of biduality, paired with its
    least-squares expansion in the concrete slices: the dual's product,
    star and coproduct (W-hat built from the fitted star), its antipode
    S-hat((omega (x) id)W) = (omega (x) id)(W*), and the coefficients in
    the lambda(e_m) of the double dual's images transported to H_h."""
    dual = build_dual(G)
    Ghat, Z = dual.group, dual.Z
    mult = _lstsq_expand(Z, Z[:, None] @ Z[None])[0]
    star = _lstsq_expand(Z, Z.conj().transpose(0, 2, 1))[0]
    what = duality._adjoint_slices(star, G.gns().images)
    cop = _lstsq_expand(Z, duality._leg2_conjugations(star, mult, what, Z))[0]
    antipode = _lstsq_expand(Z, duality._adjoint_slices(G.star, Z))[0]
    U = (dual.Lambda_hat_mat / np.sqrt(dual.phihat_one)) @ Ghat.gns().lambda_inv
    phi = _lstsq_expand(G.gns().images,
                        U @ build_w(Ghat).leg1_slices @ U.conj().T)[0]
    return {"mult": (Ghat.mult, mult), "star": (Ghat.star, star),
            "coproduct": (Ghat.coproduct, cop), "antipode": (Ghat.antipode, antipode),
            "isomorphism": (biduality(G)["isomorphism"], phi)}


def _assert_closed_forms_are_the_fits(G):
    for key, (closed, fit) in _least_squares_fits(G).items():
        scale = max(1.0, float(np.max(np.abs(fit))))
        assert np.max(np.abs(closed - fit)) <= 1e-13 * scale, (G.name, key)


def test_dual_antipode_is_the_fit_of_the_adjoint_slices(instance):
    # the antipode S^T against its fit to (omega (x) id)(W*), and so every
    # other closed form of the dual and of biduality against its own fit
    _assert_closed_forms_are_the_fits(instance)


@pytest.mark.parametrize("name", ["cg_z4", "cg_s3", "kac_paljutkin"])
@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4, 1.0])
def test_pentagon_frobenius_term_is_the_dense_norm(name, eps):
    # ||sum_jk lambda_j (x) lambda_k (x) E_jk||_F, read through the images'
    # triangular factor on both legs, against the operator formed densely;
    # the images of these instances are not orthonormal in the trace, so a
    # factor left off one leg shows
    G = builtin_instance(name)
    n = G.dim
    Z = _perturbed_slices(G, eps, np.random.default_rng(13))
    E = np.einsum("ijk,iab->jkab", G.coproduct, Z) - Z[:, None] @ Z[None]
    L = G.gns().images
    dense = np.linalg.norm(np.einsum("jac,kbd,jkef->abecdf", L, L, E,
                                     optimize=True))
    assert dense > eps / 100
    got = duality._leg12_frobenius(L, E)
    assert abs(got - dense) <= 1e-13 * dense


def test_duality_makes_no_least_squares_solve(monkeypatch):
    # the dual's tensors, the multiplier's Lmat, biduality's isomorphism and
    # the pairing's Lambda(a) = lambda(a)Lambda(1) are closed forms: no
    # least-squares solve, no inverse
    calls = []

    def spy(name, f):
        def counted(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return counted
    rng = np.random.default_rng(4)
    for build in (from_function_algebra, from_group_algebra):
        G = build(dihedral_table(3))
        V, _ = random_invertible_corep(G, similarity_draw(2, 5))
        alpha, beta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        with monkeypatch.context() as m:
            for name in ("inv", "pinv", "lstsq", "solve"):
                m.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
            build_dual(G)
            biduality(G)
            multiplier_from_coefficient(V, alpha, beta)
            pairing_identity_check(G, G.element(G.unit), rand_functional(G, rng),
                                   rand_functional(G, rng))
        assert calls == [], calls


def test_dual_keeps_its_validation_report():
    dual = build_dual(builtin_instance("kac_paljutkin"))
    assert dual.validation.passed and dual.validation.tol == 1e-9
    assert dual.validation.max_violation == validate(dual.group, tol=1e-9).max_violation


def test_dual_extraction_residual_is_bounded(monkeypatch):
    # slices pushed 1e-6 off the dual algebra, handed to the build past
    # build_w, whose unitarity refusal would fire first
    Z = build_w(builtin_instance("cg_s3")).leg1_slices
    rng = np.random.default_rng(3)
    N = rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape)
    Z = Z + 1e-6 * N / np.linalg.norm(N, axis=(1, 2), keepdims=True)
    G = builtin_instance("cg_s3")
    off = MultiplicativeUnitary(G, Z)
    assert off.unitarity_residual > 1e-8
    monkeypatch.setattr(duality, "build_w", lambda _: off)
    with pytest.raises(InvalidInstanceError, match="extraction residual"):
        build_dual(G)


@pytest.mark.parametrize("build", [from_function_algebra, from_group_algebra])
def test_build_w_refuses_n32_before_allocating(build, monkeypatch):
    # the duality layer holds n^4 arrays only, so n = 32 now fits the
    # budget; a budget one byte short of its need at a cheap n is refused
    # at once, before even one n^4 array is formed
    assert duality._check_bytes(32) <= duality.PENTAGON_BUDGET_BYTES
    G = build(cyclic_table(12))
    n = G.dim
    monkeypatch.setattr(duality, "PENTAGON_BUDGET_BYTES", duality._check_bytes(n) - 1)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            build_w(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 16 * n ** 4
    with pytest.raises(BudgetError):
        build_dual(G)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residual_checks_stay_in_their_budget():
    G = from_function_algebra(cyclic_table(12))
    n = G.dim
    # W is held as n^3 slices: the unitarity check's conjugation is the peak
    assert _traced_peak(build_w, G) <= 3 * 16 * n ** 4
    Wd = build_w(G)
    coproduct = _traced_peak(_coproduct_residuals, Wd)
    assert coproduct <= duality._check_bytes(n)
    assert coproduct < 16 * n ** 5      # slice-wise: no n^5 array is formed
    pentagon = _traced_peak(duality._pentagon_bound, Wd, np.zeros(n))
    assert pentagon <= duality._check_bytes(n)
    assert pentagon < 16 * n ** 5
    assert _traced_peak(build_dual, G) <= duality._check_bytes(n)
    # the dual's W is built and the double dual's tensors transposed while
    # G's W and the dual are held
    assert _traced_peak(biduality, from_function_algebra(cyclic_table(12))) \
        <= duality._check_bytes(n)


def test_biduality_decomposes_no_algebra_and_the_catalog_each_once(monkeypatch):
    # W's residuals and the dual's coproduct are read in leg-one
    # coordinates, so biduality splits no algebra into blocks; the catalog
    # splits G and the dual once each, the dual into the blocks a fresh
    # decomposition gives
    decomposed = []
    decompose = qgroup._block_decompose

    def spy(A, *args):
        decomposed.append(A)
        return decompose(A, *args)
    monkeypatch.setattr(qgroup, "_block_decompose", spy)
    G = builtin_instance("kac_paljutkin")
    biduality(G)
    assert decomposed == []
    cat = corep_catalog(G)
    corep_catalog(G)
    dual = build_dual(G).group
    # the catalog checks its entries in the blocks of G as well
    assert len(decomposed) == 2 and {id(A) for A in decomposed} == {id(G), id(dual)}
    fresh = FiniteQuantumGroup("fresh", dual.mult, dual.unit, dual.coproduct,
                               dual.counit, dual.antipode, dual.star, dual.haar)
    blocks = [np.moveaxis(b, 0, -1)
              for b in fresh.block_decomposition().images(np.eye(G.dim))]
    assert len(blocks) == len(cat)
    for V in cat:
        assert sum(np.array_equal(V.tensor, b) for b in blocks) == 1


def test_residuals_are_computed_when_first_read(monkeypatch):
    calls = []
    monkeypatch.setattr(duality, "_coproduct_residuals",
                        lambda *args: calls.append("coproduct") or np.zeros(1))
    monkeypatch.setattr(duality, "_pentagon_bound",
                        lambda Wd, r: calls.append("pentagon") or 0.0)
    G = builtin_instance("kac_paljutkin")
    biduality(G)
    assert calls == []
    Wd = build_w(G)
    # the pentagon bound reads the coproduct residuals: each is computed on
    # the first read only
    for _ in range(2):
        assert Wd.pentagon_residual == 0.0 and Wd.coproduct_residual == 0.0
    assert calls == ["coproduct", "pentagon"]
