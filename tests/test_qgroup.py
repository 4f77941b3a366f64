"""Structure-tensor validation, element arithmetic, GNS data and block
decomposition on the shipped instances."""

import time
import tracemalloc

import numpy as np
import pytest
from qglab.errors import (
    DegeneracyError,
    InvalidInstanceError,
    OwnerMismatchError,
    StructuralError,
)
from qglab.qgroup import (
    FiniteQuantumGroup,
    adjoint,
    apply_antipode,
    multiply,
    operator_norm,
    validate,
)
from qglab.builders import (
    builtin_instance,
    cyclic_table,
    from_function_algebra,
    from_group_algebra,
    kac_paljutkin,
    symmetric_table,
    BUILTIN_NAMES,
)


def c_z2_tensors():
    # pointwise multiplication of (d_e, d_g); Delta d_e = d_e x d_e + d_g x d_g,
    # Delta d_g = d_e x d_g + d_g x d_e; S = id; h = (1/2, 1/2)
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1
    cop = np.zeros((2, 2, 2), dtype=complex)
    cop[0, 0, 0] = cop[0, 1, 1] = 1
    cop[1, 0, 1] = cop[1, 1, 0] = 1
    return dict(mult=mult, unit=np.ones(2), coproduct=cop,
                counit=np.array([1.0, 0.0]), antipode=np.eye(2),
                star=np.eye(2), haar=np.array([0.5, 0.5]))


def test_validate_c_z2_hand_built():
    G = FiniteQuantumGroup("c_z2_hand", **c_z2_tensors())
    rep = validate(G, tol=1e-10)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_validate_rejects_bad_haar():
    t = c_z2_tensors()
    t["haar"] = np.array([1.0, 0.0])
    rep = validate(FiniteQuantumGroup("broken", **t), tol=1e-10)
    assert not rep.passed
    failed = [name for name, v in rep.checks if v > rep.tol]
    assert any("invariant" in name for name in failed)


def test_validate_kac_paljutkin_corpus():
    G = kac_paljutkin()
    rep = validate(G, tol=1e-10)
    assert rep.passed
    # independent hand check of haar traciality on random elements
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        b = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert abs(multiply(a, b).coeffs @ G.haar
                   - multiply(b, a).coeffs @ G.haar) < 1e-10


def test_validate_dimension_mismatch_is_structural():
    t = c_z2_tensors()
    t["unit"] = np.ones(3)
    with pytest.raises(StructuralError):
        FiniteQuantumGroup("bad", **t)


def test_element_ops_c_z2():
    G = builtin_instance("c_z2")
    de, dg = G.element(np.eye(G.dim)[0]), G.element(np.eye(G.dim)[1])
    assert np.max(np.abs(multiply(de, dg).coeffs)) == 0
    u = de - dg
    assert np.allclose(multiply(u, u).coeffs, G.unit)
    assert u.coeffs @ G.haar == 0
    assert u.coeffs @ G.counit == 1.0
    assert np.allclose(np.tensordot(u.coeffs, G.coproduct, 1),
                       np.outer(u.coeffs, u.coeffs))


def test_owner_mismatch_raises():
    G1 = builtin_instance("c_z2")
    G2 = builtin_instance("c_z2")
    with pytest.raises(OwnerMismatchError):
        multiply(G1.element(G1.unit), G2.element(G2.unit))


def test_gns_c_z2_diagonal():
    G = builtin_instance("c_z2")
    gd = G.gns()
    for i in range(2):
        m = gd.left_action(G.element(np.eye(G.dim)[i]))
        assert np.allclose(m, np.diag(np.diag(m)))
    assert G.dim == 2


def test_gns_group_algebra_regular_representation():
    G = builtin_instance("cg_z2")
    gd = G.gns()
    lg = gd.left_action(G.element(np.eye(G.dim)[1]))
    assert np.allclose(lg, np.array([[0, 1], [1, 0]]))
    assert np.allclose(gd.left_action(G.element(np.eye(G.dim)[0])), np.eye(2))


def test_gns_modular_conjugation():
    for name in ("c_z2", "cg_s3", "kac_paljutkin"):
        G = builtin_instance(name)
        gd = G.gns()
        # conjugate-linear J: v -> J conj(v), with J Lambda(x) = Lambda(x*)
        J = gd.lambda_map @ G.star.T @ np.conj(gd.lambda_inv)
        assert np.linalg.norm(J @ np.conj(J) - np.eye(G.dim)) < 1e-10
        # J lambda(x) J = right multiplication by x*
        rng = np.random.default_rng(3)
        x = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        lhs = J @ np.conj(gd.left_action(x)) @ np.conj(J)
        # rho(a): Lambda(y) -> Lambda(y a), from the structure tensor
        right_mult = np.einsum("i,jik->kj", adjoint(x).coeffs, G.mult)
        rhs = gd.lambda_map @ right_mult @ gd.lambda_inv
        assert np.linalg.norm(lhs - rhs) < 1e-10
        # faithfulness: left action of a nonzero element is nonzero
        assert np.linalg.norm(gd.left_action(x)) > 1e-8


def test_gns_pairing_matches_haar():
    G = builtin_instance("kac_paljutkin")
    gd = G.gns()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        y = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        ip = np.vdot(gd.lambda_map @ y.coeffs, gd.lambda_map @ x.coeffs)
        assert abs(ip - multiply(adjoint(y), x).coeffs @ G.haar) < 1e-10


def test_gns_rejects_unfaithful_state():
    t = c_z2_tensors()
    t["haar"] = np.array([1.0, 0.0])
    G = FiniteQuantumGroup("bad_haar", **t)
    with pytest.raises(InvalidInstanceError):
        G.gns()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_left_action_inv_inverts_left_action(name):
    G = builtin_instance(name)
    gd = G.gns()
    rng = np.random.default_rng(21)
    a = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
    assert np.max(np.abs(gd.left_action_inv(gd.left_action(a)).coeffs
                         - a.coeffs)) < 1e-12
    # a stack expands matrix by matrix, each with its own residual
    coeffs, resid = gd.span.expand(gd.images[::-1])
    assert coeffs.shape == (G.dim, G.dim) and resid.shape == (G.dim,)
    assert np.max(np.abs(coeffs - np.eye(G.dim)[::-1])) < 1e-12
    assert np.max(resid) < 1e-12
    outside = rng.standard_normal((G.dim, G.dim))
    with pytest.raises(InvalidInstanceError, match="not in the image"):
        gd.left_action_inv(outside)


def test_operator_norm_examples():
    G = builtin_instance("c_z2")
    de, dg = G.element(np.eye(G.dim)[0]), G.element(np.eye(G.dim)[1])
    u = de - dg
    assert abs(operator_norm(u) - 1.0) < 1e-12
    assert abs(operator_norm(G.element(G.unit)) - 1.0) < 1e-12
    x = de + 2 * dg
    # oracle: eigenvalues of the diagonal left action are the function values
    eigs = np.abs(np.linalg.eigvals(G.gns().left_action(x)))
    assert abs(max(eigs) - 2.0) < 1e-12
    assert abs(operator_norm(x) - 2.0) < 1e-12


def test_cstar_identity_and_submultiplicativity():
    rng = np.random.default_rng(11)
    for name in BUILTIN_NAMES:
        G = builtin_instance(name)
        for _ in range(5):
            a = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            b = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(multiply(a, b)) <= na * nb * (1 + 1e-8)
            assert abs(operator_norm(adjoint(a)) - na) <= 1e-8 * na
            assert abs(operator_norm(multiply(adjoint(a), a)) - na ** 2) \
                <= 1e-8 * na ** 2


def test_haar_invariance_and_antipode_involution():
    for name in BUILTIN_NAMES:
        G = builtin_instance(name)
        for i in range(G.dim):
            a = G.element(np.eye(G.dim)[i])
            d = np.tensordot(a.coeffs, G.coproduct, 1)
            left = d @ G.haar - (a.coeffs @ G.haar) * G.unit
            right = G.haar @ d - (a.coeffs @ G.haar) * G.unit
            assert np.max(np.abs(left)) < 1e-10
            assert np.max(np.abs(right)) < 1e-10
            assert np.max(np.abs(apply_antipode(apply_antipode(a)).coeffs
                                 - a.coeffs)) < 1e-12


def test_block_decompose_c_z2():
    bd = builtin_instance("c_z2").block_decomposition()
    assert sorted(bd.sizes) == [1, 1]


def test_block_decompose_group_algebra_s3():
    bd = builtin_instance("cg_s3").block_decomposition()
    # irreducible dimensions of S3; squares sum to the group order
    assert sorted(bd.sizes) == [1, 1, 2]
    assert sum(s * s for s in bd.sizes) == 6


def test_block_decompose_kac_paljutkin():
    G = builtin_instance("kac_paljutkin")
    bd = G.block_decomposition()
    assert sorted(bd.sizes) == [1, 1, 1, 1, 2]
    # images then the inverse of the forward map is the identity
    backward = np.linalg.inv(bd.forward_matrix)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = G.element(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        flat = np.concatenate([b.reshape(-1) for b in bd.images(a.coeffs)])
        assert np.max(np.abs(backward @ flat - a.coeffs)) < 1e-10


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_right_images_span_the_commutant(name):
    G = builtin_instance(name)
    gd = G.gns()
    # rho(e_m) = Lambda R_m Lambda^-1 with R_m[k, j] = mult[j, m, k]
    rho = gd.lambda_map @ G.mult.transpose(1, 2, 0) @ gd.lambda_inv
    lam = gd.images
    # every rho(e_m) commutes with every lambda(e_k)
    brackets = rho[:, None] @ lam[None, :] - lam[None, :] @ rho[:, None]
    assert np.max(np.abs(brackets)) < 1e-12
    # and they span an n-dimensional space, all of the commutant
    assert np.linalg.matrix_rank(rho.reshape(G.dim, -1)) == G.dim


def _blocks_of(bd):
    """(size, character) of each block: chi_k(e_m) = tr of block k of e_m."""
    G = bd.owner
    return [(size, np.trace(b, axis1=1, axis2=2))
            for size, b in zip(bd.sizes, bd.images(np.eye(G.dim)))]


def _oracle_blocks(G):
    """(size, character) of each block, from the null space of the
    commutation equations by a thin SVD: the commutant found without the
    closed form.  A random self-adjoint Y in it has one eigenspace of
    dimension d for each of the d eigenvalues it takes on a d x d block."""
    n, mats = G.dim, G.gns().images
    eye = np.eye(n)
    A = np.concatenate([np.kron(m, eye) - np.kron(eye, m.T) for m in mats])
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    rank = np.sum(s > max(A.shape) * np.finfo(float).eps * s[0])
    null = Vh[rank:].conj().reshape(-1, n, n)
    assert len(null) == n
    rng = np.random.default_rng(0)
    Y = np.tensordot(rng.standard_normal(n) + 1j * rng.standard_normal(n), null, 1)
    w, U = np.linalg.eigh(Y + Y.conj().T)
    cuts = np.flatnonzero(np.diff(w) > 1e-7 * max(1.0, np.max(np.abs(w)))) + 1
    blocks = []
    for idx in np.split(np.arange(n), cuts):
        P = U[:, idx]
        chi = np.trace(P.conj().T @ mats @ P, axis1=1, axis2=2)
        if not any(size == len(idx) and np.linalg.norm(chi - other) < 1e-6
                   for size, other in blocks):
            blocks.append((len(idx), chi))
    return blocks


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_block_decomposition_matches_a_null_space_oracle(name):
    G = builtin_instance(name)
    got, want = _blocks_of(G.block_decomposition()), _oracle_blocks(G)
    assert len(got) == len(want)
    for size, chi in want:
        assert sum(size == s and np.linalg.norm(chi - c) < 1e-8
                   for s, c in got) == 1


@pytest.mark.parametrize("build, sizes", [
    (from_function_algebra, [1] * 24),
    (from_group_algebra, [1, 1, 2, 3, 3]),
])
def test_s4_block_decomposition_is_fast_and_small(build, sizes):
    # n = 24: a null space of the n^3 x n^2 commutation equations took two
    # minutes and 6 GB of memory; the right regular images take milliseconds
    G = build(symmetric_table(4))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        bd = G.block_decomposition()
        dt = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(bd.sizes) == sizes
    assert dt < 1.0
    assert peak < 100 * 2 ** 20


def test_block_decomposition_cache_is_keyed_by_arguments():
    G = kac_paljutkin()
    bd = G.block_decomposition()
    assert G.block_decomposition() is bd
    assert G.block_decomposition(seed=7) is bd      # the default, spelled out
    other = G.block_decomposition(seed=8)
    assert other is not bd
    assert other.sizes == bd.sizes


def test_block_decomposition_cache_does_not_answer_other_tolerances():
    G = kac_paljutkin()
    G.block_decomposition()
    with pytest.raises(DegeneracyError):
        G.block_decomposition(tol=1e-30)


def test_block_forward_is_star_homomorphism():
    rng = np.random.default_rng(9)
    for name in ("c_s3", "kac_paljutkin", "cg_z4"):
        G = builtin_instance(name)
        bd = G.block_decomposition()
        for _ in range(5):
            a = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            b = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
            fa, fb = bd.images(a.coeffs), bd.images(b.coeffs)
            fab = bd.images(multiply(a, b).coeffs)
            for x, y, z in zip(fa, fb, fab):
                assert np.linalg.norm(x @ y - z) < 1e-8
            for x, y in zip(bd.images(adjoint(a).coeffs), fa):
                assert np.linalg.norm(x - y.conj().T) < 1e-8


def test_builders_reproduce_examples():
    G = from_function_algebra(cyclic_table(2))
    t = c_z2_tensors()
    for key in ("mult", "coproduct", "unit", "counit", "antipode", "star", "haar"):
        assert np.allclose(getattr(G, key), t[key])
    H = from_group_algebra(cyclic_table(2))
    # group-like coproduct on the generator
    d = np.tensordot(np.eye(H.dim)[1], H.coproduct, 1)
    want = np.zeros((2, 2))
    want[1, 1] = 1
    assert np.allclose(d, want)
    for table in (symmetric_table(3),):
        assert validate(from_function_algebra(table)).passed
        assert validate(from_group_algebra(table)).passed
    assert from_function_algebra(symmetric_table(3)).is_commutative()
    assert from_group_algebra(symmetric_table(3)).is_cocommutative()


def test_builders_reject_bad_table():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(StructuralError):
        from_function_algebra(bad)


def test_all_builtins_validate():
    for name in BUILTIN_NAMES:
        assert validate(builtin_instance(name), tol=1e-10).passed, name


def _homomorphism_dense(G):
    # "coproduct is an algebra homomorphism" by the plain 4-operand einsum,
    # which loops over all eight indices
    M, D = G.mult, G.coproduct
    return float(np.max(np.abs(
        np.einsum("ijk,kab->ijab", M, D)
        - np.einsum("ipq,jrs,pra,qsb->ijab", D, D, M, M))))


def test_validate_contracted_homomorphism_check_matches_dense_einsum():
    G = builtin_instance("cg_s3")
    cop = np.array(G.coproduct)
    cop[1, 1, 1] += 1e-3
    bad = FiniteQuantumGroup("cg_s3_bad_cop", G.mult, G.unit, cop, G.counit,
                             G.antipode, G.star, G.haar)
    rep = validate(bad, tol=1e-10)
    assert not rep.passed
    got = dict(rep.checks)["coproduct is an algebra homomorphism"]
    assert got > 1e-4
    assert abs(got - _homomorphism_dense(bad)) <= 1e-12 * got
    assert dict(validate(G).checks)["coproduct is an algebra homomorphism"] == \
        _homomorphism_dense(G)


@pytest.mark.parametrize("build", [from_function_algebra, from_group_algebra])
def test_s4_instances_validate(build):
    # n = 24; the plain 8-index einsum would take minutes here
    G = build(symmetric_table(4))
    assert G.dim == 24
    assert validate(G, tol=1e-10).passed
