"""Corepresentation calculus: the defining identity, variants, coefficients,
inversion, unitarization, degenerate essentials, and norms."""

import numpy as np
import pytest

from qglab.builders import BUILTIN_NAMES, builtin_instance
from qglab.catalog import available_dimensions, corep_catalog, unitary_corepresentation
from qglab.convolution import (
    Functional,
    basis_functional,
    convolve,
    counit_functional,
    haar_functional,
)
from qglab.corep import (
    Corepresentation,
    antipode_coeff_check,
    bounded_norm_lower,
    cb_norm,
    coefficient,
    conjugate_corep,
    corep_direct_sum,
    corep_distance,
    corep_product,
    essential_data,
    generator_of,
    inverse_corep,
    is_corep,
    pi_check,
    pi_of,
    pi_star,
    pi_tilde,
    random_invertible_corep,
    trivial_corep,
    unitarize,
    zero_corep,
)
from qglab.errors import NotInvertibleError
from qglab.qgroup import adjoint


def nontrivial_character(G):
    for V in corep_catalog(G):
        if V.d == 1 and not np.allclose(V.tensor[0, 0], G.unit):
            return V
    raise AssertionError("no nontrivial character found")


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def corep_violation_oracle(V):
    """Independent contraction of both sides of the corepresentation identity."""
    G, t, d = V.owner, V.tensor, V.d
    worst = 0.0
    for i in range(d):
        for j in range(d):
            lhs = G.coproduct_coeffs(t[i, j])
            rhs = np.zeros((G.dim, G.dim), dtype=complex)
            for k in range(d):
                rhs += np.outer(t[i, k], t[k, j])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_is_corep_character():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    assert is_corep(V).is_corep
    assert corep_violation_oracle(V) < 1e-12


def test_is_corep_rejects_idempotent():
    G = builtin_instance("c_z2")
    V = Corepresentation(G, G.basis_element(0).coeffs.reshape(1, 1, 2))
    assert not is_corep(V).is_corep
    assert corep_violation_oracle(V) > 0.4


def test_is_corep_two_dim_group_likes_s3():
    # diag of two group-like generators over the group algebra of S3
    G = builtin_instance("cg_s3")
    t = np.zeros((2, 2, 6), dtype=complex)
    t[0, 0, 1] = 1.0
    t[1, 1, 4] = 1.0
    V = Corepresentation(G, t)
    assert is_corep(V).is_corep
    assert corep_violation_oracle(V) < 1e-12


def test_pi_of_examples():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    assert np.allclose(pi_of(V, counit_functional(G)), [[1.0]])
    assert np.allclose(pi_of(V, haar_functional(G)), [[0.0]])


def test_pi_multiplicative_on_random_pairs():
    rng = np.random.default_rng(0)
    for name in ("cg_s3", "c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        V = unitary_corepresentation(G, 2, seed=5)
        for _ in range(10):
            w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
            lhs = pi_of(V, convolve(w1, w2))
            rhs = pi_of(V, w1) @ pi_of(V, w2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_variant_generators():
    rng = np.random.default_rng(1)
    G = builtin_instance("kac_paljutkin")
    V, _, _ = random_invertible_corep(G, 2, seed=8)
    Vt = generator_of("tilde", V)
    # entries of the tilde generator are the adjoints of the transposed grid
    for i in range(2):
        for j in range(2):
            assert np.allclose(Vt.tensor[i, j], adjoint(V.entry(j, i)).coeffs)
    # slice identities against the functional-level definitions
    for _ in range(5):
        w = rand_functional(G, rng)
        assert np.max(np.abs(pi_tilde(V, w) - pi_of(Vt, w))) < 1e-12
        assert np.max(np.abs(pi_star(V, w)
                             - pi_of(generator_of("star", V), w))) < 1e-10
        assert np.max(np.abs(pi_check(V, w)
                             - pi_of(generator_of("check", V), w))) < 1e-10
    with pytest.raises(ValueError):
        generator_of("bogus", V)


def test_pi_check_equals_pi_for_z2_character():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rand_functional(G, rng)
        assert np.max(np.abs(pi_check(V, w) - pi_of(V, w))) < 1e-12


def test_pi_star_is_star_representation_on_unitary():
    G = builtin_instance("cg_s3")
    V = unitary_corepresentation(G, 2, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rand_functional(G, rng)
        assert np.max(np.abs(pi_star(V, w) - pi_of(V, w))) < 1e-10


def test_coefficient_examples():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    one = np.array([1.0])
    T = coefficient(V, one, one)
    assert np.allclose(T.coeffs, V.tensor[0, 0])
    assert np.max(np.abs(coefficient(V, np.array([0.0]), one).coeffs)) == 0


def test_coefficient_pairing():
    G = builtin_instance("kac_paljutkin")
    V = unitary_corepresentation(G, 2, seed=1)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    T = coefficient(V, a, b)
    for _ in range(5):
        w = rand_functional(G, rng)
        assert abs(w(T) - np.vdot(b, pi_of(V, w) @ a)) < 1e-10


def test_coefficient_coproduct_expansion():
    # Delta(T_{a,b}) = sum_i T_{f_i,b} (x) T_{a,f_i}, by direct contraction
    G = builtin_instance("cg_s3")
    V, _, _ = random_invertible_corep(G, 2, seed=17)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = G.coproduct_coeffs(coefficient(V, a, b).coeffs)
    rhs = np.zeros((6, 6), dtype=complex)
    eye = np.eye(2)
    for i in range(2):
        rhs += np.outer(coefficient(V, eye[:, i], b).coeffs,
                        coefficient(V, a, eye[:, i]).coeffs)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_antipode_coefficient_identity():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    assert antipode_coeff_check(V, np.ones(1), np.ones(1)) < 1e-14
    rng = np.random.default_rng(6)
    for name in ("cg_s3", "kac_paljutkin"):
        H = builtin_instance(name)
        U = unitary_corepresentation(H, 2, seed=2)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert antipode_coeff_check(U, a, b) < 1e-10
        V2, _, _ = random_invertible_corep(H, 2, seed=12)
        assert antipode_coeff_check(V2, a, b) < 1e-8


def test_inverse_corep_examples():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    Vi = inverse_corep(V)
    assert corep_distance(Vi, V) < 1e-12          # u^2 = 1
    H = builtin_instance("kac_paljutkin")
    U = unitary_corepresentation(H, 2, seed=4)
    Ui = inverse_corep(U)
    # inverse of a unitary corepresentation is its entrywise adjoint transpose
    assert corep_distance(Ui, generator_of("tilde", U)) < 1e-10
    V2, _, _ = random_invertible_corep(H, 2, seed=13)
    Vi2 = inverse_corep(V2)
    # oracle: invert the GNS image as a matrix
    g = V2.gns_matrix()
    assert np.linalg.norm(Vi2.gns_matrix() - np.linalg.inv(g), 2) < 1e-8
    assert is_corep(Vi2).anti_violation < 1e-9


def test_inverse_rejects_singular():
    G = builtin_instance("c_z2")
    with pytest.raises(NotInvertibleError):
        inverse_corep(zero_corep(G, 1))


def test_random_invertible_corep_properties():
    G = builtin_instance("cg_s3")
    V, T, V0 = random_invertible_corep(G, 2, seed=21)
    assert is_corep(V).is_corep
    assert np.linalg.cond(T) <= 10 + 1e-9
    # conjugating by the identity returns the base point
    assert corep_distance(conjugate_corep(V0, np.eye(2)), V0) < 1e-14
    # one-dimensional conjugation is trivial
    H = builtin_instance("c_z2")
    V1, T1, V01 = random_invertible_corep(H, 1, seed=5)
    assert corep_distance(V1, V01) < 1e-12


def test_unitarize_examples():
    G = builtin_instance("kac_paljutkin")
    U = unitary_corepresentation(G, 2, seed=6)
    T, Up = unitarize(U)
    assert np.linalg.norm(T - np.eye(2)) < 1e-10
    assert corep_distance(Up, U) < 1e-9
    H = builtin_instance("c_z2")
    V = nontrivial_character(H)
    T1, V1 = unitarize(V)
    assert np.allclose(T1, [[1.0]])
    assert corep_distance(V1, V) < 1e-12
    V2, _, _ = random_invertible_corep(builtin_instance("cg_s3"), 2, seed=31)
    T2, V2u = unitarize(V2)
    g = V2u.gns_matrix()
    assert np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0]), 2) < 1e-8
    assert is_corep(V2u).violation < 1e-8
    # T is positive definite above the invertibility floor
    inv_norm = np.linalg.norm(np.linalg.inv(V2.gns_matrix()), 2)
    assert np.min(np.linalg.eigvalsh(T2)) >= 1.0 / inv_norm ** 2 - 1e-8


def test_essential_data():
    G = builtin_instance("c_s3")
    V0, _, _ = random_invertible_corep(G, 2, seed=7)
    ed0 = essential_data(V0)
    assert np.linalg.norm(ed0.Q - np.eye(2)) < 1e-10
    assert ed0.dimension == 2
    rng = np.random.default_rng(8)
    Vdeg = corep_direct_sum(V0, zero_corep(G, 1))
    ed1 = essential_data(Vdeg)
    assert ed1.dimension == 2
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Uq, _, Vq = np.linalg.svd(A)
    Tw = Uq @ np.diag([1.0, 0.6, 0.4]) @ Vq
    Vtw = conjugate_corep(Vdeg, Tw)
    ed = essential_data(Vtw)
    assert ed.idempotent_violation < 1e-8
    assert ed.commute_violation < 1e-8
    assert ed.dimension == 2
    # oracle: direct matrix arithmetic on the GNS image
    P = ed.P.gns_matrix()
    assert np.linalg.norm(P @ P - P, 2) < 1e-8
    for i in range(G.dim):
        piw = pi_of(Vtw, basis_functional(G, i))
        assert np.linalg.norm(piw @ ed.Q - piw) < 1e-10
    # the zero corepresentation degenerates gracefully
    edz = essential_data(zero_corep(G, 2))
    assert edz.idempotent_violation == 0.0
    assert edz.dimension == 0


def test_norms():
    G = builtin_instance("c_s3")
    U = unitary_corepresentation(G, 2, seed=9)
    assert abs(cb_norm(U) - 1.0) < 1e-10
    D = np.diag([2.0, 1.0])
    V = conjugate_corep(U, D)
    svals = np.linalg.svd(V.gns_matrix(), compute_uv=False)
    assert abs(svals[0] - cb_norm(V)) < 1e-12
    assert cb_norm(V) <= 2.0 + 1e-9
    low = bounded_norm_lower(V, seed=10)
    assert low <= cb_norm(V) + 1e-8
    H = builtin_instance("c_z2")
    Vu = nontrivial_character(H)
    assert abs(bounded_norm_lower(Vu, seed=11) - 1.0) < 1e-9


def test_isometry_implies_unitary():
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        for d in (1, 2):
            V = unitary_corepresentation(G, d, seed=d)
            g = V.gns_matrix()
            eye = np.eye(g.shape[0])
            if np.linalg.norm(g.conj().T @ g - eye, 2) <= 1e-10:
                assert np.linalg.norm(g @ g.conj().T - eye, 2) <= 1e-10


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_gns_matrix_blocks_are_the_left_regular_images(name):
    # oracle: lambda(a) = Lambda L(a) Lambda^-1, with L(a)[k, j] the
    # coefficient of e_k in a e_j, read off mult
    G = builtin_instance(name)
    gd = G.gns()
    dims = [d for d in available_dimensions(G) if d <= 4]
    assert dims
    for d in dims:
        V, _, _ = random_invertible_corep(G, d, seed=40 + d)
        g = V.gns_matrix()
        n = G.dim
        for i in range(d):
            for j in range(d):
                L = np.einsum("m,mjk->kj", V.tensor[i, j], G.mult)
                ref = gd.lambda_map @ L @ gd.lambda_inv
                block = g[i * n:(i + 1) * n, j * n:(j + 1) * n]
                assert np.max(np.abs(block - ref)) < 1e-13, (name, d, i, j)


def test_available_dimensions():
    G = builtin_instance("c_z2")
    dims = available_dimensions(G, dmax=4)
    assert dims == [1, 2, 3, 4]
    V = unitary_corepresentation(G, 3, seed=12)
    assert V.d == 3 and is_corep(V).is_corep


def test_trivial_corep():
    G = builtin_instance("kac_paljutkin")
    V = trivial_corep(G, 2)
    assert is_corep(V).is_corep
    # the trivial corep is the unit of A (x) M_d
    assert corep_distance(corep_product(V, V), V) < 1e-14
