"""All semantics are relative to the stored basis: transporting an instance
through an invertible (non-unitary) change of basis must leave every
pipeline stage working, with the same invariant quantities."""

import numpy as np
import pytest

from qglab import duality
from qglab.builders import builtin_instance, from_group_algebra, symmetric_table
from qglab.convolution import Functional
from qglab.corep import (cb_norm, is_corep, random_invertible_corep,
                         similarity_draw, unitarize)
from qglab.duality import biduality, build_dual, build_w, multiplier_from_coefficient
from qglab.errors import InvalidInstanceError
from qglab.qgroup import FiniteQuantumGroup, operator_norm, validate
from test_convolution import l1_norm
from test_duality import (_dense_sigma_w_star_sigma, _dense_w, _dense_w_hat,
                          _lstsq_expand, _pentagon_norm,
                          _assert_closed_forms_are_the_fits,
                          _assert_pairing_is_the_least_squares_one)


def change_basis(G, B):
    """The same quantum group presented on the basis f_i = sum_j B[i,j] e_j.

    Elements move as ``a_old = B.T @ a_new``. Functionals, ``counit`` and
    ``haar`` among them, are values on the basis, so they move as
    ``w_new = B @ w_old``; the pairing ``w(a)`` is then unchanged.
    """
    Binv = np.linalg.inv(B)
    mult = np.einsum("ip,jq,pqk,kl->ijl", B, B, G.mult, Binv, optimize=True)
    cop = np.einsum("ip,pjk,ja,kb->iab", B, G.coproduct, Binv, Binv, optimize=True)
    return FiniteQuantumGroup(
        G.name + "_scrambled",
        mult,
        Binv.T @ G.unit,
        cop,
        B @ G.counit,
        B @ G.antipode @ Binv,
        np.conj(B) @ G.star @ Binv,
        B @ G.haar,
    )


def scrambler(n, seed, cond=3.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _, Vh = np.linalg.svd(A)
    s = np.linspace(1.0, 1.0 / cond, n)
    return U @ np.diag(s) @ Vh


@pytest.fixture(scope="module", params=["c_s3", "cg_s3", "kac_paljutkin"])
def scrambled(request):
    G = builtin_instance(request.param)
    H = change_basis(G, scrambler(G.dim, seed=42))
    return G, H


def test_scrambled_instance_validates(scrambled):
    G, H = scrambled
    rep = validate(H, tol=1e-10)
    assert rep.passed, rep


def test_scrambled_norms_agree(scrambled):
    # operator and dual norms are basis-independent isomorphism invariants
    G, H = scrambled
    B = scrambler(G.dim, seed=42)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a_new = rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim)
        a_old = B.T @ a_new
        assert abs(operator_norm(H.element(a_new))
                   - operator_norm(G.element(a_old))) < 1e-9
        # functionals transport contravariantly: w_new = B @ w_old
        w_old = rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim)
        w_new = B @ w_old
        assert abs(Functional(H, w_new)(H.element(a_new))
                   - Functional(G, w_old)(G.element(a_old))) < 1e-12
        assert abs(l1_norm(Functional(H, w_new))
                   - l1_norm(Functional(G, w_old))) < 1e-8


def test_scrambled_blocks_match(scrambled):
    G, H = scrambled
    assert sorted(H.block_decomposition().sizes) == sorted(G.block_decomposition().sizes)


def test_eigengap_heuristic_separates_scrambled_s4_blocks():
    # n = 24 under a cond-3 basis change: block_decomposition raises
    # DegeneracyError unless one of its BLOCK_ATTEMPTS random commutant
    # draws separates the blocks
    G = from_group_algebra(symmetric_table(4))
    H = change_basis(G, scrambler(G.dim, seed=42))
    assert sorted(H.block_decomposition().sizes) == [1, 1, 2, 3, 3]


def test_scrambled_duality_pipeline(scrambled):
    G, H = scrambled
    Wd = build_w(H)
    assert Wd.pentagon_residual < 1e-9
    assert Wd.coproduct_residual < 1e-9
    dual = build_dual(H)
    assert validate(dual.group, tol=1e-8).passed
    assert biduality(H)["max_violation"] < 1e-7


def test_scrambled_held_w_hat_is_sigma_w_star_sigma(scrambled):
    _, H = scrambled
    dense = _dense_sigma_w_star_sigma(H)
    held = _dense_w_hat(build_dual(H))
    assert np.linalg.norm(held - dense) <= 1e-13 * np.linalg.norm(dense)


def test_scrambled_closed_forms_are_the_fits(scrambled):
    _assert_closed_forms_are_the_fits(scrambled[1])


def test_scrambled_pairing_lhs_is_the_least_squares_reconstruction(scrambled):
    _assert_pairing_is_the_least_squares_one(scrambled[1], 1e-12)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kac_paljutkin"])
@pytest.mark.parametrize("cond", [3.0, 30.0, 100.0])
def test_dual_certificates_bound_the_least_squares_residuals(name, cond, monkeypatch):
    # each certificate of the closed-form dual is at least the residual of
    # the least-squares expansion of the same matrix in the slices, which
    # minimizes it; the fit's own residual is computed with rounding, up to
    # 28 eps ||X||_F above the certificate at cond 3, where both are at
    # rounding level.  The refusal is lifted so that cond 100 builds.
    G = builtin_instance(name)
    H = change_basis(G, scrambler(G.dim, 42, cond=cond))
    monkeypatch.setattr(duality, "DUAL_TOL", 1.0)
    dual = build_dual(H)
    Ghat, Z = dual.group, dual.Z
    certificates = []
    for X, C in ((Z[:, None] @ Z[None], Ghat.mult),
                 (Z.conj().transpose(0, 2, 1), Ghat.star),
                 (duality._leg2_conjugations(Ghat.star, Ghat.mult, dual.What_slices, Z),
                  Ghat.coproduct)):
        cert = duality._span_residuals(X, C, Z)
        rounding = 64 * np.finfo(float).eps * np.maximum(
            1.0, np.linalg.norm(X, axis=(-2, -1)))
        assert np.all(cert >= _lstsq_expand(Z, X)[1] - rounding)
        certificates.append(np.max(cert))
    assert dual.extraction_residual == max(certificates)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kac_paljutkin"])
def test_dual_refusal_between_cond_30_and_cond_100(name):
    G = builtin_instance(name)
    H = change_basis(G, scrambler(G.dim, 42, cond=30))
    assert build_dual(H).extraction_residual < 1e-9
    H = change_basis(G, scrambler(G.dim, 42, cond=100))
    with pytest.raises(InvalidInstanceError, match="extraction residual"):
        build_dual(H)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kac_paljutkin"])
def test_w_stays_multiplicative_under_a_cond_100_basis(name):
    # each leg of W is conjugated by Lambda alone, never by Lambda (x) Lambda,
    # whose condition number is cond(Lambda)^2, so W stays multiplicative to
    # well below 1e-9 at basis condition 100
    G = builtin_instance(name)
    H = change_basis(G, scrambler(G.dim, 42, cond=100))
    W = _dense_w(H, build_w(H).leg1_slices)
    assert _pentagon_norm(W, H.dim) < 1e-9


def test_scrambled_corep_and_multiplier(scrambled):
    G, H = scrambled
    V, V0 = random_invertible_corep(H, similarity_draw(2, 3))
    assert is_corep(V).is_corep
    _, Vu, _ = unitarize(V)
    # dense oracle: the image on C^d (x) H_h, block (i, j) lambda(vu_ij)
    g = np.block([[H.gns().left_action(H.element(Vu.tensor[i, j]))
                   for j in range(2)] for i in range(2)])
    assert np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0]), 2) < 1e-8
    rng = np.random.default_rng(2)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    md = multiplier_from_coefficient(V, a, b)
    assert md.residual_action < 1e-7
    assert md.residual_w < 1e-7
    assert md.factorization_norm <= md.cb_bound + 1e-6
    assert cb_norm(V0) == pytest.approx(1.0, abs=1e-8)
