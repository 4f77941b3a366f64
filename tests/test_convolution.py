"""Convolution algebra: product and involutions, checked against a
reference for the exact dual norm."""

import numpy as np
import pytest

from qglab.builders import builtin_instance, BUILTIN_NAMES
from qglab.convolution import (
    Functional,
    convolve,
    counit_functional,
    module_action,
    sharp,
    star_l1,
)
from qglab.errors import OwnerMismatchError
from qglab.qgroup import adjoint, apply_antipode, operator_norm


def l1_norm_witness(w):
    """Reference dual norm ||omega||_1 of a functional, with a norm-one
    element attaining it.

    Through the Wedderburn blocks x_k of x, omega(x) = sum_k tr(W_k x_k),
    so ||omega||_1 = sum_k ||W_k||_S1, attained at the blocks V_k U_k* of
    the SVDs W_k = U_k S_k V_k*.
    """
    G = w.owner
    bd = G.block_decomposition()
    backward = np.linalg.inv(bd.forward_matrix)        # stacked blocks -> coeffs
    pairing = backward.T @ w.coeffs
    total, witness, pos = 0.0, [], 0
    for nk in bd.sizes:
        Wk = pairing[pos:pos + nk * nk].reshape(nk, nk).T
        pos += nk * nk
        U, s, Vh = np.linalg.svd(Wk)
        total += float(np.sum(s))
        witness.append((Vh.conj().T @ U.conj().T).reshape(-1))
    return total, G.element(backward @ np.concatenate(witness))


def l1_norm(w):
    return l1_norm_witness(w)[0]


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def test_convolution_z2_is_the_group_algebra():
    G = builtin_instance("c_z2")
    we, wg = Functional(G, np.eye(G.dim)[0]), Functional(G, np.eye(G.dim)[1])
    assert np.allclose(convolve(wg, wg).coeffs, we.coeffs)
    assert np.allclose(convolve(we, wg).coeffs, wg.coeffs)


def test_counit_is_the_convolution_unit():
    rng = np.random.default_rng(0)
    for name in BUILTIN_NAMES:
        G = builtin_instance(name)
        eps = counit_functional(G)
        w = rand_functional(G, rng)
        assert np.allclose(convolve(eps, w).coeffs, w.coeffs)
        assert np.allclose(convolve(w, eps).coeffs, w.coeffs)


def test_convolution_associative():
    rng = np.random.default_rng(1)
    G = builtin_instance("kac_paljutkin")
    a, b, c = (rand_functional(G, rng) for _ in range(3))
    lhs = convolve(convolve(a, b), c).coeffs
    rhs = convolve(a, convolve(b, c)).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_group_algebra_convolution_is_pointwise():
    # the coefficient function g -> omega(L_g) multiplies pointwise
    G = builtin_instance("cg_z2")
    rng = np.random.default_rng(2)
    w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
    assert np.allclose(convolve(w1, w2).coeffs, w1.coeffs * w2.coeffs)


def test_star_l1_examples():
    G = builtin_instance("c_z2")
    rng = np.random.default_rng(3)
    w_real = Functional(G, np.array([0.3, -1.2]))
    assert np.allclose(star_l1(w_real).coeffs, w_real.coeffs)
    w = rand_functional(G, rng)
    assert np.allclose(star_l1(1j * w).coeffs, (-1j * star_l1(w)).coeffs)
    assert np.allclose(star_l1(star_l1(w)).coeffs, w.coeffs)
    # conjugate-linear homomorphism
    G2 = builtin_instance("kac_paljutkin")
    a, b = rand_functional(G2, rng), rand_functional(G2, rng)
    assert np.max(np.abs(convolve(star_l1(a), star_l1(b)).coeffs
                         - star_l1(convolve(a, b)).coeffs)) < 1e-12


def test_sharp_examples():
    G = builtin_instance("c_z2")
    wg = Functional(G, np.eye(G.dim)[1])
    assert np.allclose(sharp(wg).coeffs, wg.coeffs)
    rng = np.random.default_rng(4)
    for name in ("c_s3", "kac_paljutkin"):
        H = builtin_instance(name)
        w = rand_functional(H, rng)
        assert np.max(np.abs(sharp(sharp(w)).coeffs - w.coeffs)) < 1e-12
        w1, w2 = rand_functional(H, rng), rand_functional(H, rng)
        # anti-multiplicative: oracle evaluates both sides on every basis element
        lhs = sharp(convolve(w1, w2))
        rhs = convolve(sharp(w2), sharp(w1))
        for i in range(H.dim):
            e = H.element(np.eye(H.dim)[i])
            assert abs(lhs(e) - rhs(e)) < 1e-10


def test_sharp_matches_definition():
    # <x, omega#> = conj <S(x)*, omega> for every element
    rng = np.random.default_rng(5)
    for name in ("cg_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        w = rand_functional(G, rng)
        ws = sharp(w)
        for _ in range(10):
            x = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            lhs = ws(x)
            rhs = np.conj(w(adjoint(apply_antipode(x))))
            assert abs(lhs - rhs) < 1e-10


def test_l1_norm_examples():
    G = builtin_instance("c_z2")
    assert abs(l1_norm(counit_functional(G)) - 1.0) < 1e-12
    assert abs(l1_norm(Functional(G, G.haar)) - 1.0) < 1e-12
    we, wg = Functional(G, np.eye(G.dim)[0]), Functional(G, np.eye(G.dim)[1])
    w = we - wg
    # oracle: sup over the four extreme points +-d_e +- d_g of the unit ball
    sup = 0.0
    for s1 in (1, -1):
        for s2 in (1, -1):
            x = G.element(np.array([s1, s2], dtype=complex))
            sup = max(sup, abs(w(x)))
    assert abs(sup - 2.0) < 1e-12
    assert abs(l1_norm(w) - 2.0) < 1e-12


def test_l1_norm_duality_and_witness():
    rng = np.random.default_rng(6)
    for name in ("c_z2", "cg_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        for _ in range(5):
            w = rand_functional(G, rng)
            n1, witness = l1_norm_witness(w)
            x = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            assert abs(w(x)) <= n1 * operator_norm(x) * (1 + 1e-8)
            assert operator_norm(witness) <= 1 + 1e-8
            assert abs(abs(w(witness)) - n1) < 1e-6


def test_l1_norm_submultiplicative_and_sharp_isometric():
    rng = np.random.default_rng(7)
    for name in BUILTIN_NAMES:
        G = builtin_instance(name)
        for _ in range(3):
            a, b = rand_functional(G, rng), rand_functional(G, rng)
            assert l1_norm(convolve(a, b)) <= l1_norm(a) * l1_norm(b) + 1e-8
            assert abs(l1_norm(sharp(a)) - l1_norm(a)) < 1e-8


def test_antipode_adjoint_duality():
    # if <x, omega#> = conj <y, omega> for all basis functionals omega,
    # then y = S(x)* ; construct y from those pairing equations
    rng = np.random.default_rng(8)
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        x = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        y = np.zeros(G.dim, dtype=complex)
        for mu in range(G.dim):
            w = Functional(G, np.eye(G.dim)[mu])
            y[mu] = np.conj(sharp(w)(x))
        assert np.max(np.abs(y - adjoint(apply_antipode(x)).coeffs)) < 1e-10


def test_module_action():
    G = builtin_instance("kac_paljutkin")
    rng = np.random.default_rng(9)
    x = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    w = rand_functional(G, rng)
    xw = module_action(x, w)
    from qglab.qgroup import multiply
    for i in range(8):
        e = G.element(np.eye(G.dim)[i])
        assert abs(xw(e) - w(multiply(e, x))) < 1e-12


def test_owner_mismatch():
    G1, G2 = builtin_instance("c_z2"), builtin_instance("c_z2")
    e0 = np.eye(2)[0]
    with pytest.raises(OwnerMismatchError):
        convolve(Functional(G1, e0), Functional(G2, e0))
    # the shared coefficient arithmetic keeps both kinds apart
    for a, b in ((Functional(G1, e0), Functional(G2, e0)),
                 (G1.element(e0), G2.element(e0))):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(OwnerMismatchError):
                op(a, b)
    with pytest.raises(TypeError):
        Functional(G1, e0) * G1.element(e0)
