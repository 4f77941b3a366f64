"""Corepresentation calculus: the defining identity, variants, coefficients,
inversion, unitarization, degenerate essentials, and norms."""

from types import SimpleNamespace

import numpy as np
import pytest

from qglab.builders import (
    BUILTIN_NAMES,
    builtin_instance,
    from_function_algebra,
    from_group_algebra,
    symmetric_table,
)
from qglab.catalog import corep_catalog, unitary_corepresentation
from qglab.convolution import (
    Functional,
    convolve,
    counit_functional,
)
from qglab.corep import (
    Corepresentation,
    antipode_coeff_check,
    antipode_slice,
    cb_norm,
    coefficient,
    conjugate_corep,
    corep_adjoint,
    corep_direct_sum,
    corep_distance,
    corep_product,
    essential_data,
    inverse_corep,
    is_corep,
    pi_check,
    pi_of,
    pi_star,
    pi_tilde,
    random_invertible_corep,
    similarity_draw,
    trivial_corep,
    unitarity_defects,
    unitarize,
    zero_corep,
)
from qglab.duality import multiplier_from_coefficient
from qglab.errors import DegeneracyError, NotInvertibleError, StructuralError
from qglab.qgroup import (
    AlgebraElement,
    FiniteQuantumGroup,
    adjoint,
    operator_norm,
    singular_extremes,
)


def nontrivial_character(G):
    for V in corep_catalog(G):
        if V.d == 1 and not np.allclose(V.tensor[0, 0], G.unit):
            return V
    raise AssertionError("no nontrivial character found")


def transposed(V):
    """The corepresentation-shaped tensor with the entry grid transposed."""
    return Corepresentation(V.owner, V.tensor.swapaxes(-3, -2))


def dense_image(V):
    """The image of one corepresentation on C^d (x) H_h as one dense
    (dn, dn) matrix, block (i, j) lambda(v_ij): the reference for the norms
    that the package reads block by block."""
    G = V.owner
    return np.block([[G.gns().left_action(G.element(V.tensor[i, j]))
                      for j in range(V.d)] for i in range(V.d)])


def rand_functional(G, rng):
    return Functional(G, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))


def corep_violation_oracle(V):
    """Independent contraction of both sides of the corepresentation identity."""
    G, t, d = V.owner, V.tensor, V.d
    worst = 0.0
    for i in range(d):
        for j in range(d):
            lhs = np.tensordot(t[i, j], G.coproduct, 1)
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
    V = Corepresentation(G, np.eye(G.dim)[0].reshape(1, 1, 2))
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
    assert np.allclose(pi_of(V, Functional(G, G.haar)), [[0.0]])


def test_pi_multiplicative_on_random_pairs():
    rng = np.random.default_rng(0)
    for name in ("cg_s3", "c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        V = unitary_corepresentation(G, similarity_draw(2, 5).uniforms)
        for _ in range(10):
            w1, w2 = rand_functional(G, rng), rand_functional(G, rng)
            lhs = pi_of(V, convolve(w1, w2))
            rhs = pi_of(V, w1) @ pi_of(V, w2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_variant_generators():
    rng = np.random.default_rng(1)
    G = builtin_instance("kac_paljutkin")
    V, _ = random_invertible_corep(G, similarity_draw(2, 8))
    Vt = corep_adjoint(V)
    # entries of the tilde generator are the adjoints of the transposed grid
    for i in range(2):
        for j in range(2):
            assert np.allclose(Vt.tensor[i, j],
                               adjoint(AlgebraElement(G, V.tensor[j, i])).coeffs)
    # slice identities against the functional-level definitions
    for _ in range(5):
        w = rand_functional(G, rng)
        assert np.max(np.abs(pi_tilde(V, w) - pi_of(Vt, w))) < 1e-12
        assert np.max(np.abs(pi_star(V, w)
                             - pi_of(corep_adjoint(antipode_slice(V)), w))) < 1e-10
        assert np.max(np.abs(pi_check(V, w)
                             - pi_of(antipode_slice(V), w))) < 1e-10


def test_pi_check_equals_pi_for_z2_character():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rand_functional(G, rng)
        assert np.max(np.abs(pi_check(V, w) - pi_of(V, w))) < 1e-12


def test_pi_star_is_star_representation_on_unitary():
    G = builtin_instance("cg_s3")
    V = unitary_corepresentation(G, similarity_draw(2, 3).uniforms)
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
    V = unitary_corepresentation(G, similarity_draw(2, 1).uniforms)
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
    V, _ = random_invertible_corep(G, similarity_draw(2, 17))
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = np.tensordot(coefficient(V, a, b).coeffs, G.coproduct, 1)
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
        U = unitary_corepresentation(H, similarity_draw(2, 2).uniforms)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert antipode_coeff_check(U, a, b) < 1e-10
        V2, _ = random_invertible_corep(H, similarity_draw(2, 12))
        assert antipode_coeff_check(V2, a, b) < 1e-8


def test_inverse_corep_examples():
    G = builtin_instance("c_z2")
    V = nontrivial_character(G)
    Vi, _ = inverse_corep(V)
    assert corep_distance(Vi, V) < 1e-12          # u^2 = 1
    H = builtin_instance("kac_paljutkin")
    U = unitary_corepresentation(H, similarity_draw(2, 4).uniforms)
    Ui, _ = inverse_corep(U)
    # inverse of a unitary corepresentation is its entrywise adjoint transpose
    assert corep_distance(Ui, corep_adjoint(U)) < 1e-10
    V2, _ = random_invertible_corep(H, similarity_draw(2, 13))
    Vi2, residual = inverse_corep(V2)
    # the residual is the larger of the two products' distances to 1
    one = trivial_corep(H, 2)
    assert np.array_equal(residual, max(corep_distance(corep_product(Vi2, V2), one),
                                        corep_distance(corep_product(V2, Vi2), one)))
    # oracle: invert the GNS image as a matrix
    g = dense_image(V2)
    assert np.linalg.norm(dense_image(Vi2) - np.linalg.inv(g), 2) < 1e-8
    # the inverse satisfies the anti identity
    # Delta(w_ij) = sum_k w_kj (x) w_ik, the corep identity of its transpose
    assert is_corep(transposed(Vi2)).violation < 1e-9
    for name in ("c_s3", "cg_s3", "kac_paljutkin"):
        for d in (1, 2, 3, 4):
            draw = similarity_draw(d, [60 + 10 * d + k for k in range(3)])
            V, _ = random_invertible_corep(builtin_instance(name), draw)
            check = is_corep(transposed(inverse_corep(V)[0]))
            assert check.violation.shape == (3,) and check, (name, d)


def test_inverse_rejects_singular():
    G = builtin_instance("c_z2")
    with pytest.raises(NotInvertibleError):
        inverse_corep(zero_corep(G, 1))


def test_random_invertible_corep_properties(monkeypatch):
    G = builtin_instance("cg_s3")
    draw = similarity_draw(2, 21)
    assert np.array_equal(draw.Tinv, np.linalg.inv(draw.T))
    V, V0 = random_invertible_corep(G, draw)
    assert is_corep(V).is_corep
    assert np.linalg.cond(draw.T) <= 10 + 1e-9
    # conjugating by the identity returns the base point
    assert corep_distance(conjugate_corep(V0, np.eye(2), np.eye(2)), V0) < 1e-14
    # one-dimensional conjugation is trivial
    H = builtin_instance("c_z2")
    V1, V01 = random_invertible_corep(H, similarity_draw(1, 5))
    assert corep_distance(V1, V01) < 1e-12

    # a ready draw is conjugated with its own inverse; nothing inverts again
    def no_inverse(a):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    assert np.array_equal(random_invertible_corep(G, draw)[0].tensor, V.tensor)


def test_unitarize_examples():
    G = builtin_instance("kac_paljutkin")
    U = unitary_corepresentation(G, similarity_draw(2, 6).uniforms)
    T, Up, _ = unitarize(U)
    assert np.linalg.norm(T - np.eye(2)) < 1e-10
    assert corep_distance(Up, U) < 1e-9
    H = builtin_instance("c_z2")
    V = nontrivial_character(H)
    T1, V1, _ = unitarize(V)
    assert np.allclose(T1, [[1.0]])
    assert corep_distance(V1, V) < 1e-12
    V2, _ = random_invertible_corep(builtin_instance("cg_s3"),
                                    similarity_draw(2, 31))
    T2, V2u, smin = unitarize(V2)
    # the sigma_min that the ratio test read is the one of V's blocks
    assert np.array_equal(smin, singular_extremes(V2.blocks())[1])
    g = dense_image(V2u)
    assert np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0]), 2) < 1e-8
    assert is_corep(V2u).violation < 1e-8
    # T is positive definite above the invertibility floor
    inv_norm = np.linalg.norm(np.linalg.inv(dense_image(V2)), 2)
    assert np.min(np.linalg.eigvalsh(T2)) >= 1.0 / inv_norm ** 2 - 1e-8


def test_essential_data():
    G = builtin_instance("c_s3")
    V0, _ = random_invertible_corep(G, similarity_draw(2, 7))
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
    Vtw = conjugate_corep(Vdeg, Tw, np.linalg.inv(Tw))
    ed = essential_data(Vtw)
    assert ed.idempotent_violation < 1e-8
    assert ed.commute_violation < 1e-8
    assert ed.dimension == 2
    # oracle: direct matrix arithmetic on the GNS image
    P = dense_image(corep_product(Vtw, antipode_slice(Vtw)))
    assert np.linalg.norm(P @ P - P, 2) < 1e-8
    for i in range(G.dim):
        piw = pi_of(Vtw, Functional(G, np.eye(G.dim)[i]))
        assert np.linalg.norm(piw @ ed.Q - piw) < 1e-10
    # the zero corepresentation degenerates gracefully
    edz = essential_data(zero_corep(G, 2))
    assert edz.idempotent_violation == 0.0
    assert edz.dimension == 0


def test_norms():
    G = builtin_instance("c_s3")
    U = unitary_corepresentation(G, similarity_draw(2, 9).uniforms)
    assert abs(cb_norm(U) - 1.0) < 1e-10
    D = np.diag([2.0, 1.0])
    V = conjugate_corep(U, D, np.linalg.inv(D))
    svals = np.linalg.svd(dense_image(V), compute_uv=False)
    assert abs(svals[0] - cb_norm(V)) < 1e-12
    assert cb_norm(V) <= 2.0 + 1e-9


def test_isometry_implies_unitary():
    for name in ("c_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        for d in (1, 2):
            V = unitary_corepresentation(G, similarity_draw(d, d).uniforms)
            g = dense_image(V)
            eye = np.eye(g.shape[0])
            if np.linalg.norm(g.conj().T @ g - eye, 2) <= 1e-10:
                assert np.linalg.norm(g @ g.conj().T - eye, 2) <= 1e-10


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_gns_matrix_blocks_are_the_left_regular_images(name):
    # oracle: lambda(a) = Lambda L(a) Lambda^-1, with L(a)[k, j] the
    # coefficient of e_k in a e_j, read off mult; the dense reference
    # holds these images, and entry (i, j) of V's block k is pi_k(v_ij)
    G = builtin_instance(name)
    gd = G.gns()
    bd = G.block_decomposition()
    for d in (1, 2, 3, 4):
        V, _ = random_invertible_corep(G, similarity_draw(d, 40 + d))
        g = dense_image(V)
        n = G.dim
        for i in range(d):
            for j in range(d):
                L = np.einsum("m,mjk->kj", V.tensor[i, j], G.mult)
                ref = gd.lambda_map @ L @ gd.lambda_inv
                block = g[i * n:(i + 1) * n, j * n:(j + 1) * n]
                assert np.max(np.abs(block - ref)) < 1e-13, (name, d, i, j)
                entry = bd.images(V.tensor[i, j])
                for b, nk, e in zip(V.blocks(), bd.sizes, entry):
                    assert b.shape == (d * nk, d * nk)
                    assert np.array_equal(
                        b[i * nk:(i + 1) * nk, j * nk:(j + 1) * nk], e)


def test_available_dimensions():
    # the catalog holds the trivial corep, so every d is a sum of its entries
    G = builtin_instance("c_z2")
    assert any(V.d == 1 for V in corep_catalog(G))
    for name in ("kac_paljutkin", "c_s3"):
        assert sorted({V.d for V in corep_catalog(builtin_instance(name))}) == [1, 2]
    for d in (1, 2, 3, 4):
        V = unitary_corepresentation(G, similarity_draw(d, 12).uniforms)
        assert V.d == d and is_corep(V).is_corep


def test_catalog_without_a_one_dimensional_entry_is_refused(monkeypatch):
    real = FiniteQuantumGroup.block_decomposition

    def drop_1d_blocks(A, *args):
        bd = real(A, *args)
        keep = [k for k, s in enumerate(bd.sizes) if s > 1]
        return SimpleNamespace(sizes=[bd.sizes[k] for k in keep],
                               images=lambda c: [bd.images(c)[k] for k in keep])

    monkeypatch.setattr(FiniteQuantumGroup, "block_decomposition", drop_1d_blocks)
    with pytest.raises(StructuralError, match="1-dimensional"):
        corep_catalog(builtin_instance("kac_paljutkin"))


def test_trivial_corep():
    G = builtin_instance("kac_paljutkin")
    V = trivial_corep(G, 2)
    assert is_corep(V).is_corep
    # the trivial corep is the unit of A (x) M_d
    assert corep_distance(corep_product(V, V), V) < 1e-14


@pytest.mark.parametrize("d", [0, -1])
def test_dimension_below_one_is_refused_before_any_draw(monkeypatch, d):
    G = builtin_instance("c_z2")
    corep_catalog(G)            # its block decomposition draws too
    draws = []

    def counting_rng(*a):
        draws.append(a)
        return np.random.Generator(np.random.PCG64(*a))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    with pytest.raises(StructuralError, match="dimension"):
        similarity_draw(d, [1, 2])
    assert draws == []
    # the counting generator draws as numpy's own does
    one, stack = similarity_draw(1, 3), similarity_draw(1, [3])
    assert np.array_equal(random_invertible_corep(G, one)[0].tensor,
                          random_invertible_corep(G, stack)[0].tensor[0])
    assert len(draws) == 2           # one generator per trial


def test_rows_of_no_uniforms_are_refused():
    # they ask the catalog for sums of dimension 0
    with pytest.raises(StructuralError, match="dimension"):
        unitary_corepresentation(builtin_instance("c_z2"), np.empty((2, 0)))


def choice_corepresentation(G, d, seed):
    """A seeded sum of catalog entries picked by rng.choice with weights
    V.d, summed by corep_direct_sum: the draw unitary_corepresentation
    makes."""
    rng = np.random.default_rng(seed)
    V, remaining = None, d
    while remaining > 0:
        fitting = [U for U in corep_catalog(G) if U.d <= remaining]
        weights = np.array([U.d for U in fitting], dtype=float)
        pick = fitting[rng.choice(len(fitting), p=weights / weights.sum())]
        V = pick if V is None else corep_direct_sum(V, pick)
        remaining -= pick.d
    return V


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_unitary_corepresentation_is_the_weighted_choice_of_summands(name):
    G = builtin_instance(name)
    for d in (1, 2, 3, 4):
        seeds = list(range(20))
        stacked = unitary_corepresentation(G, similarity_draw(d, seeds).uniforms)
        for k, seed in enumerate(seeds):
            want = choice_corepresentation(G, d, seed).tensor
            assert np.array_equal(stacked.tensor[k], want)
            alone = unitary_corepresentation(G, similarity_draw(d, seed).uniforms)
            assert np.array_equal(alone.tensor, want)


# ---------------------------------------------------------------------------
# Norms read in the Wedderburn blocks against dense SVDs of the GNS image


def assert_relative(got, want, rtol=1e-13):
    assert abs(got - want) <= rtol * abs(want), (got, want)


def dense_factorization_norm(V, alpha, beta):
    """||sum_i c_i (x) a_i^T|| on H_h (x) H_h from one dense SVD, with
    a_i = T~[alpha, f_i] and c_i = T*[f_i, beta] in the standard frame."""
    gd = V.owner.gns()
    Vt, Vs = corep_adjoint(V), corep_adjoint(antipode_slice(V))
    f = np.eye(V.d)
    op = sum(np.kron(gd.left_action(coefficient(Vs, f[:, i], beta)),
                     gd.left_action(coefficient(Vt, alpha, f[:, i])).T)
             for i in range(V.d))
    return np.linalg.norm(op, 2)


def assert_blocks_match_dense(V, rng):
    """||V||, sigma_min(V), ||V*V - 1||, ||VV* - 1|| and ||lambda(a)|| read
    block by block against dense SVDs; the defects, which can sit at
    roundoff, relative to max(1, value)."""
    G = V.owner
    g = dense_image(V)
    s = np.linalg.svd(g, compute_uv=False)
    assert_relative(cb_norm(V), s[0])
    assert_relative(singular_extremes(V.blocks())[1], s[-1])
    eye = np.eye(len(g))
    defects = (g.conj().T @ g - eye, g @ g.conj().T - eye)
    for got, m in zip(unitarity_defects(V), defects):
        want = np.linalg.norm(m, 2)
        assert abs(got - want) <= 1e-13 * max(1.0, want), (got, want)
    a = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
    assert_relative(operator_norm(a), np.linalg.norm(G.gns().left_action(a), 2))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_block_norms_equal_dense_svds(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 4):
        V, _ = random_invertible_corep(G, similarity_draw(d, 800 + d))
        assert_blocks_match_dense(V, rng)
        alpha = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        beta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert_relative(multiplier_from_coefficient(V, alpha, beta).factorization_norm,
                        dense_factorization_norm(V, alpha, beta))


@pytest.mark.parametrize("build", [from_function_algebra, from_group_algebra])
def test_s4_block_norms_equal_dense_svds(build):
    # n = 24; the block picture holds for every element of A (x) M_d, so
    # Gaussian tensors serve without the corep catalog and its dual
    G = build(symmetric_table(4))
    rng = np.random.default_rng(18)
    for d in (1, 2, 3, 4):
        t = rng.standard_normal((d, d, G.dim)) + 1j * rng.standard_normal((d, d, G.dim))
        assert_blocks_match_dense(Corepresentation(G, t), rng)


def test_a_degenerate_block_decomposition_propagates(monkeypatch):
    G = builtin_instance("cg_s3")
    V, _ = random_invertible_corep(G, similarity_draw(2, 5))

    def degenerate(A, *args):
        raise DegeneracyError("no blocks", gap=0.0)

    monkeypatch.setattr(FiniteQuantumGroup, "block_decomposition", degenerate)
    with pytest.raises(DegeneracyError):
        cb_norm(V)
