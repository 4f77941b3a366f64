"""Multiplicative unitary, dual instance extraction, biduality, multipliers,
and the concrete pairing identity."""

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
    basis_functional,
    convolve,
    counit_functional,
    l1_norm,
    sharp,
)
from qglab.corep import random_invertible_corep
from qglab.duality import (
    _coproduct_residual,
    _pentagon_residual,
    apply_multiplier,
    biduality,
    build_dual,
    build_w,
    multiplier_from_coefficient,
    pairing_identity_check,
)
from qglab import duality
from qglab.errors import BudgetError, InvalidInstanceError
from qglab.qgroup import SpanningFamily, block_decompose, validate

CORPUS = ("c_z2", "c_z3", "c_z4", "c_z2xz2", "c_s3",
          "cg_z2", "cg_z3", "cg_z4", "cg_z2xz2", "cg_s3", "kac_paljutkin")


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def test_w_c_z2_is_the_translation_permutation():
    # hand oracle: W*(f_x (x) f_y) = f_x (x) f_{x^-1 y} on the GNS basis of C(Z2)
    G = builtin_instance("c_z2")
    Wd = build_w(G)
    Wstar_oracle = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            z = (y - x) % 2
            Wstar_oracle[x * 2 + z, x * 2 + y] = 1.0
    assert np.linalg.norm(Wd.W - Wstar_oracle.T) < 1e-12
    assert Wd.pentagon_residual < 1e-12


def test_w_invariants_all_instances():
    for name in CORPUS:
        G = builtin_instance(name)
        Wd = build_w(G)
        assert Wd.unitarity_residual < 1e-9, name
        assert Wd.pentagon_residual < 1e-9, name
        assert Wd.coproduct_residual < 1e-9, name
        assert Wd.expansion_residual < 1e-9, name
        assert build_dual(G).extraction_residual < 1e-9, name


def test_w_implements_coproduct_group_algebra_z2():
    # Delta(x) = W*(1 (x) x)W checked on both basis elements by contraction
    G = builtin_instance("cg_z2")
    gd = G.gns()
    Wd = build_w(G)
    for i in range(2):
        lam = [gd.left_action(G.basis_element(k)) for k in range(2)]
        lhs = sum(G.coproduct[i, j, k] * np.kron(lam[j], lam[k])
                  for j in range(2) for k in range(2))
        rhs = Wd.W.conj().T @ np.kron(np.eye(2), lam[i]) @ Wd.W
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_lambda_rep_examples():
    G = builtin_instance("c_z2")
    Wd = build_w(G)
    assert np.allclose(Wd.lambda_of(counit_functional(G)), np.eye(2))
    wg = basis_functional(G, 1)
    lam_g = Wd.lambda_of(wg)
    # oracle: the translation unitary permutes the GNS basis of delta functions
    gd = G.gns()
    for x in range(2):
        v = gd.Lambda(G.basis_element(x))
        assert np.linalg.norm(lam_g @ v - gd.Lambda(G.basis_element(1 - x))) < 1e-12
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
    assert sorted(block_decompose(dual).sizes) == [1, 1, 1, 1, 2]
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
                x = G.basis_element(i)
                assert abs(w(adjoint(x)) - np.vdot(gd.Lambda(x), xi)) < 1e-10
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
        U = unitary_corepresentation(G, 2, seed=3)
        alpha = np.array([1.0, 0.0])
        md = multiplier_from_coefficient(U, alpha, alpha)
        assert md.residual_action < 1e-9
        assert md.norm_bound <= 1 + 1e-9


def test_multiplier_random_and_bounds():
    rng = np.random.default_rng(3)
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        for seed in range(6):
            V, _, _ = random_invertible_corep(G, 2, seed=40 + seed)
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
    V, _, _ = random_invertible_corep(G, 2, seed=50)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    md = multiplier_from_coefficient(V, a, b)
    dual = build_dual(G)
    for _ in range(5):
        w1 = rand_functional(dual.group, rng)
        w2 = rand_functional(dual.group, rng)
        lhs = apply_multiplier(md.Lmat, convolve(w1, w2))
        rhs = convolve(apply_multiplier(md.Lmat, w1), w2)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-8


def test_multiplier_basis_independence():
    G = builtin_instance("kac_paljutkin")
    V, _, _ = random_invertible_corep(G, 2, seed=60)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    md = multiplier_from_coefficient(V, a, b)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    md2 = multiplier_from_coefficient(V, a, b, basis=Q)
    assert np.max(np.abs(md.Lmat - md2.Lmat)) < 1e-8


def test_pairing_identity():
    G = builtin_instance("c_z2")
    res = pairing_identity_check(G, G.one(), counit_functional(G),
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


def _random_unitary(m, rng):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q


def _kron_pentagon_difference(W, n):
    eye = np.eye(n)
    W12, W23 = np.kron(W, eye), np.kron(eye, W)
    S23 = np.kron(eye, _swap_matrix(n))
    W13 = S23 @ W12 @ S23
    return W12 @ W13 @ W23 - W23 @ W12


def _holder(D):
    return np.sqrt(np.linalg.norm(D, 1) * np.linalg.norm(D, np.inf))


def test_pentagon_residual_matches_kron_formula():
    rng = np.random.default_rng(5)
    n = 3
    W = _random_unitary(n * n, rng)
    D = _kron_pentagon_difference(W, n)
    assert np.linalg.norm(D, 2) > 0.5     # W is no multiplicative unitary
    res = _pentagon_residual(W)
    assert abs(res - _holder(D)) <= 1e-12 * _holder(D)
    assert res >= np.linalg.norm(D, 2)


@pytest.mark.parametrize("n, seed", [(3, 0), (4, 0)])
def test_pentagon_residual_sums_columns_over_slices(n, seed):
    # rows (a, b, c) of D lie in slice a, but every column sum runs over all
    # slices: pick W whose widest row and widest column part sit in two
    # different slices, so a bound that kept per-slice maxima would differ
    W = _random_unitary(n * n, np.random.default_rng(seed))
    A = np.abs(_kron_pentagon_difference(W, n)).reshape(n, n * n, n ** 3)
    row_slice = np.argmax(A.sum(axis=2).max(axis=1))
    col = np.argmax(A.sum(axis=(0, 1)))
    assert row_slice != np.argmax(A[:, :, col].sum(axis=1))
    per_slice = max(np.sqrt(A[a].sum(axis=1).max() * A[a].sum(axis=0).max())
                    for a in range(n))
    holder = np.sqrt(A.sum(axis=2).max() * A.sum(axis=(0, 1)).max())
    assert per_slice < holder * (1 - 1e-6)
    assert abs(_pentagon_residual(W) - holder) <= 1e-12 * holder


def test_coproduct_residual_matches_kron_formula():
    rng = np.random.default_rng(6)
    n = 3
    W = _random_unitary(n * n, rng)
    D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    L = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    dense = max(
        np.linalg.norm(
            sum(D[i, j, k] * np.kron(L[j], L[k]) for j in range(n) for k in range(n))
            - W.conj().T @ np.kron(np.eye(n), L[i]) @ W, 2)
        for i in range(n))
    assert dense > 0.5
    assert abs(_coproduct_residual(W, D, L) - dense) <= 1e-12 * dense


def test_factored_coproduct_solve_matches_pinv_of_kron_system():
    G = builtin_instance("kac_paljutkin")
    n = G.dim
    dual = build_dual(G)
    swap = _swap_matrix(n)
    What = swap @ dual.Wd.W.conj().T @ swap
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


def test_dual_extraction_residual_is_bounded(monkeypatch):
    G = builtin_instance("cg_s3")
    build_w(G)                          # W keeps its own, untouched expansion
    expand = SpanningFamily.expand

    def off_by_1e_6(self, X):
        coeffs, resid = expand(self, X)
        return coeffs, resid + 1e-6

    monkeypatch.setattr(SpanningFamily, "expand", off_by_1e_6)
    with pytest.raises(InvalidInstanceError, match="extraction residual"):
        build_dual(G)


@pytest.mark.parametrize("build", [from_function_algebra, from_group_algebra])
def test_build_w_refuses_n32_before_allocating(build):
    # the pentagon and coproduct checks would hold 2.2 GB at n = 32
    assert duality._check_bytes(24) <= duality.PENTAGON_BUDGET_BYTES
    G = build(cyclic_table(32))
    t0 = time.perf_counter()
    with pytest.raises(BudgetError):
        build_w(G)
    assert time.perf_counter() - t0 < 1.0
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
    W = build_w(G).W
    pentagon = _traced_peak(_pentagon_residual, W)
    assert pentagon <= duality._check_bytes(n)
    assert pentagon < 16 * n ** 5       # slice-wise: no n^5 array is formed
    images = G.gns().images
    assert (_traced_peak(_coproduct_residual, W, G.coproduct, images)
            <= duality._check_bytes(n))


def test_residuals_are_computed_when_first_read(monkeypatch):
    calls = []
    monkeypatch.setattr(duality, "_pentagon_residual",
                        lambda W: calls.append("pentagon") or 0.0)
    monkeypatch.setattr(duality, "_coproduct_residual",
                        lambda *args: calls.append("coproduct") or 0.0)
    G = builtin_instance("kac_paljutkin")
    biduality(G)
    assert calls == []
    Wd = build_w(G)
    for _ in range(2):                  # computed on the first read only
        assert Wd.pentagon_residual == 0.0 and Wd.coproduct_residual == 0.0
    assert calls == ["pentagon", "coproduct"]
