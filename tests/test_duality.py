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
from qglab import duality, qgroup
from qglab.errors import BudgetError, InvalidInstanceError
from qglab.qgroup import FiniteQuantumGroup, SpanningFamily, validate
from test_convolution import l1_norm

CORPUS = ("c_z2", "c_z3", "c_z4", "c_z2xz2", "c_s3",
          "cg_z2", "cg_z3", "cg_z4", "cg_z2xz2", "cg_s3", "kac_paljutkin")


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def _dense_w(G, Z):
    """W = sum_m lambda_m (x) Z_m as an n^2 x n^2 matrix, through the one
    product that duality._w_hat forms, so that W-hat compares exactly."""
    n = G.dim
    M = G.gns().images.reshape(n, -1).T @ Z.reshape(n, -1)
    return M.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


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
        assert build_dual(G).extraction_residual < 1e-9, name


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
            rhs = dual.Wd.lambda_of(w) @ dual.Lambda_hat_of_functional(w1)
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


def test_regularity_slices_span():
    for name in ("c_z2", "kac_paljutkin"):
        G = builtin_instance(name)
        dual = build_dual(G)
        zmat = np.stack([z.reshape(-1) for z in dual.Z], axis=1)
        assert np.linalg.matrix_rank(zmat, tol=1e-9) == G.dim
        ymat = np.stack([y.reshape(-1) for y in dual.What_slices], axis=1)
        assert np.linalg.matrix_rank(ymat, tol=1e-9) == G.dim


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
    Z, resid = G.gns().span.expand(U.reshape(n, n, n, n).transpose(1, 3, 0, 2))
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
    swap = _swap_matrix(n)
    What = swap @ _dense_w(G, dual.Wd.leg1_slices).conj().T @ swap
    assert np.array_equal(dual.What, What)
    Z = dual.Z
    zz = np.stack([np.kron(Z[a], Z[b]).reshape(-1)
                   for a in range(n) for b in range(n)], axis=1)
    zz_pinv = np.linalg.pinv(zz)
    for mu in range(n):
        target = What.conj().T @ np.kron(np.eye(n), Z[mu]) @ What
        c = (zz_pinv @ target.reshape(-1)).reshape(n, n)
        assert np.max(np.abs(c - dual.group.coproduct[mu])) < 1e-12


def test_dual_keeps_its_validation_report():
    dual = build_dual(builtin_instance("kac_paljutkin"))
    assert dual.validation.passed and dual.validation.tol == 1e-9
    assert dual.validation.max_violation == validate(dual.group, tol=1e-9).max_violation


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kac_paljutkin"])
def test_expand_in_dual_recovers_members_and_refuses_the_rest(name):
    dual = build_dual(builtin_instance(name))
    n = dual.group.dim
    rng = np.random.default_rng(8)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    member = np.einsum("m,mij->ij", c, dual.Z)
    assert np.max(np.abs(dual.expand_in_dual(member) - c)) < 1e-12
    with pytest.raises(InvalidInstanceError, match="not in the dual algebra"):
        dual.expand_in_dual(rng.standard_normal((n, n)))
    # a stack is checked matrix by matrix: one stray matrix refuses it
    cs = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    members = np.einsum("km,mij->kij", cs, dual.Z)
    assert np.max(np.abs(dual.expand_in_dual(members) - cs)) < 1e-12
    members[3] = rng.standard_normal((n, n))
    with pytest.raises(InvalidInstanceError, match="not in the dual algebra"):
        dual.expand_in_dual(members)


def test_dual_extraction_residual_is_bounded(monkeypatch):
    G = builtin_instance("cg_s3")
    expand = SpanningFamily.expand

    def off_by_1e_6(self, X):
        coeffs, resid = expand(self, X)
        return coeffs, resid + 1e-6

    monkeypatch.setattr(SpanningFamily, "expand", off_by_1e_6)
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
    # the double dual is built while G's W and the dual's are held
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
