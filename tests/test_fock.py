"""Truncated free products: word combinatorics, free actions, vacuum moments
against an independent symbolic evaluator, certified compression norms,
Khintchine probes, and the bounded-not-cb construction."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qglab import fock as fock_module
from qglab.builders import builtin_instance
from qglab.errors import (
    BudgetError,
    ConvergenceError,
    InvalidInstanceError,
    StructuralError,
)
from qglab.fock import (
    amplified_sum,
    build_fock,
    build_non_cb_rep,
    cb_vs_bounded_probe,
    compression_norm,
    factor_from_quantum_group,
    fock_dimension,
    free_action,
    khintchine_check,
    matrix_factor,
    norm_equivalence,
    pi_norm_search,
    vacuum_state,
    z2_factor,
    z2_symmetry,
)
from qglab.qgroup import FiniteQuantumGroup


# --- independent symbolic oracle -------------------------------------------
# Words are tuples ((factor, slot), ...); states are dicts word -> amplitude.
# The rules below re-derive the free action from the per-factor data without
# touching the sparse machinery.


def oracle_apply(F, i, coeffs, state):
    f = F.factors[i]
    phi, create, annihilate, replace = f.action_data(coeffs)
    out = {}

    def add(word, amp):
        if abs(amp) > 0:
            out[word] = out.get(word, 0) + amp

    for w, amp in state.items():
        if not w or w[0][0] != i:
            add(w, phi * amp)
            if len(w) < F.max_len:
                for p in range(f.dim0):
                    add(((i, p),) + w, create[p] * amp)
        else:
            k = w[0][1]
            rest = w[1:]
            add(rest, annihilate[k] * amp)
            for p in range(f.dim0):
                add(((i, p),) + rest, replace[p, k] * amp)
    return out


def oracle_vacuum(F, ops):
    state = {(): 1.0 + 0j}
    for i, coeffs in reversed(ops):
        state = oracle_apply(F, i, coeffs, state)
    return state.get((), 0.0 + 0j)


# --- dimensions and actions -------------------------------------------------


def test_factor_rejects_unfaithful_state():
    # the factor shares the GNS build, and its faithfulness check, of qgroup
    G = builtin_instance("c_z2")
    bad = FiniteQuantumGroup("bad_haar", G.mult, G.unit, G.coproduct,
                             G.counit, G.antipode, G.star, [1.0, 0.0])
    with pytest.raises(InvalidInstanceError):
        factor_from_quantum_group(bad)


def test_fock_dimensions():
    assert fock_dimension([1, 1], 3) == 7
    F = build_fock([z2_factor(), z2_factor()], 3)
    assert F.dim == 7
    assert build_fock([z2_factor()] * 5, 1).dim == 6
    assert build_fock([matrix_factor(2), matrix_factor(2)], 2).dim == 25


def test_fock_budget():
    with pytest.raises(BudgetError):
        build_fock([matrix_factor(2)] * 8, 6, dim_cap=10_000)


def test_identity_acts_as_identity():
    F = build_fock([z2_factor()] * 2, 3)
    one = free_action(F, 0, np.array([1.0, 1.0]))
    assert abs(one.matrix - sp.eye(F.dim)).max() < 1e-14


def test_symmetry_two_cycle():
    F = build_fock([z2_factor()] * 2, 3)
    u = z2_symmetry()
    op = free_action(F, 0, u)
    v = F.vacuum()
    w1 = op.matrix @ v
    assert F.words[int(np.nonzero(np.abs(w1) > 1e-12)[0][0])] == ((0, 0),)
    assert np.linalg.norm(op.matrix @ w1 - v) < 1e-14


def test_action_matches_oracle():
    rng = np.random.default_rng(0)
    F = build_fock([matrix_factor(2), z2_factor() if False else matrix_factor(2),
                    matrix_factor(2)], 3)
    for i in range(3):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        op = free_action(F, i, x)
        state = {F.words[7]: 1.0 + 0j}
        got = op.matrix @ np.eye(F.dim, dtype=complex)[:, 7]
        want = oracle_apply(F, i, x, state)
        vec = np.zeros(F.dim, dtype=complex)
        for w, amp in want.items():
            vec[F.index[w]] = amp
        assert np.linalg.norm(got - vec) < 1e-12


def test_star_homomorphism_on_exact_zone():
    rng = np.random.default_rng(1)
    F = build_fock([matrix_factor(2)] * 2, 3)
    f = F.factors[0]
    mask = F.length_mask(F.max_len - 1)
    for _ in range(3):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        opa = free_action(F, 0, a)
        opb = free_action(F, 0, b)
        opab = free_action(F, 0, f.mult_coeffs(a, b))
        prod = (opa.matrix @ opb.matrix)[:, mask]
        assert abs(prod - opab.matrix[:, mask]).max() < 1e-10
        # adjoints agree exactly for compressions
        assert abs(opa.adjoint().matrix - opa.matrix.conj().T).max() < 1e-12


def test_vacuum_state_freeness():
    F = build_fock([z2_factor()] * 3, 4)
    u = z2_symmetry()
    ops = [free_action(F, i, u) for i in range(3)]
    val, exact = vacuum_state(F, [ops[0], ops[1], ops[2]])
    assert exact and abs(val) < 1e-14
    val, exact = vacuum_state(F, [ops[0], ops[1], ops[0]])
    assert exact and abs(val) < 1e-14
    val, exact = vacuum_state(F, [ops[0], ops[0]])
    assert exact and abs(val - 1.0) < 1e-14
    # the vacuum factorizes over distinct factors
    rng = np.random.default_rng(2)
    F2 = build_fock([matrix_factor(2)] * 2, 2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    opa, opb = free_action(F2, 0, a), free_action(F2, 1, b)
    val, exact = vacuum_state(F2, [opa, opb])
    assert exact
    assert abs(val - F2.factors[0].phi(a) * F2.factors[1].phi(b)) < 1e-12


def test_length_four_moment_against_oracle():
    # mixed moment of two free symmetries vs the symbolic expansion
    F = build_fock([z2_factor()] * 2, 4)
    u = z2_symmetry()
    ops = [free_action(F, i, u) for i in range(2)]
    seq = [0, 1, 0, 1]
    val, exact = vacuum_state(F, [ops[i] for i in seq])
    want = oracle_vacuum(F, [(i, u) for i in seq])
    assert exact
    assert abs(val - want) < 1e-12
    # and for a shifted element with nonzero mean
    x = np.array([1.5, -0.5])
    opx = free_action(F, 0, x)
    val2, _ = vacuum_state(F, [opx, ops[1], opx])
    want2 = oracle_vacuum(F, [(0, x), (1, u), (0, x)])
    assert abs(val2 - want2) < 1e-12


def test_vacuum_exactness_flag():
    F = build_fock([z2_factor()] * 2, 2)
    u = z2_symmetry()
    op = free_action(F, 0, u)
    _, exact = vacuum_state(F, [op, op, op])
    assert not exact


def test_compression_norm_symmetry():
    F = build_fock([z2_factor()] * 2, 4)
    op = free_action(F, 0, z2_symmetry())
    for L in (1, 2, 3):
        assert abs(compression_norm(op, domain_len=L) - 1.0) < 1e-10
    # compressing a centred element to the vacuum alone gives its mean
    assert compression_norm(op, domain_len=0) == 0.0


def test_column_of_free_symmetries():
    u = z2_symmetry()
    for N in (4, 9):
        F = build_fock([z2_factor()] * N, 3)
        ops = [free_action(F, i, u) for i in range(N)]
        mats = []
        for i in range(1, N + 1):
            m = np.zeros((N + 1, N + 1))
            m[i, 0] = 1
            mats.append(m)
        col, k = amplified_sum(list(zip(ops, mats)), F)
        # sparse-algebra identity on the exact zone: x*x = N e00
        mask = np.repeat(F.length_mask(F.max_len - 1), k)
        keep = np.nonzero(mask)[0]
        xx = (col.conj().T @ col).tocsr()[keep][:, keep]
        tgt = sp.kron(sp.eye(F.dim), sp.csr_matrix(np.diag([N] + [0] * N)))
        tgt = tgt.tocsr()[keep][:, keep]
        assert abs(xx - tgt).max() < 1e-12
        assert abs(compression_norm(col, F, amp_dim=k) - np.sqrt(N)) < 1e-10


def test_sum_of_symmetries_envelope_and_growth():
    # sum of 4 free symmetries: compressed norms increase with the domain and
    # stay under the 2 sqrt(N-1) envelope
    N = 4
    F = build_fock([z2_factor()] * N, 6)
    u = z2_symmetry()
    total = sum(free_action(F, i, u).matrix for i in range(N))
    vals = [compression_norm(total, F, domain_len=L) for L in range(6)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-8
    # frozen from the dense-SVD oracle on the domain-5 compression; the
    # iterative value certifies from below
    keep = np.nonzero(F.length_mask(5))[0]
    dense = np.linalg.norm(total.tocsr()[keep][:, keep].toarray(), 2)
    assert abs(dense - 3.183341422) < 1e-8
    assert dense - 1e-6 <= vals[5] <= dense + 1e-10
    assert all(v <= 2 * np.sqrt(N - 1) + 1e-6 for v in vals)


def test_khintchine_scalar_symmetries():
    N = 4
    F = build_fock([z2_factor()] * N, 4)
    u = z2_symmetry()
    rep = khintchine_check([1.0] * N, [(i, u) for i in range(N)], F, seed=1)
    assert abs(rep["rhs_max"] - 2.0) < 1e-12
    assert 2.0 - 1e-8 <= rep["lhs_cert"] <= 6.0 + 1e-8
    assert rep["upper_certified"]


def test_khintchine_single_term_collapses():
    F = build_fock([z2_factor()] * 2, 3)
    rep = khintchine_check([3.0], [(0, z2_symmetry())], F, seed=1)
    assert abs(rep["lhs_cert"] - rep["rhs_max"]) < 1e-9


def test_khintchine_matrix_coefficients():
    rng = np.random.default_rng(3)
    N = 3
    F = build_fock([matrix_factor(2)] * N, 5)
    a_fam, x_fam = [], []
    for i in range(N):
        a_fam.append(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = F.factors[i]
        x = x - f.phi(x) * f.unit
        x_fam.append((i, x))
    rep = khintchine_check(a_fam, x_fam, F, seed=2)
    assert rep["upper_certified"]
    assert rep["ratio"] == pytest.approx(rep["lhs_cert"] / rep["rhs_max"])


def test_khintchine_rejects_uncentred():
    F = build_fock([z2_factor()] * 2, 3)
    with pytest.raises(StructuralError):
        khintchine_check([1.0], [(0, np.array([1.0, 0.0]))], F)


def test_norm_equivalence_z2():
    F = build_fock([z2_factor()] * 4, 4)
    rep = norm_equivalence(F, [z2_symmetry()], sample_count=100, seed=4)
    assert abs(rep["C1"] - 1.0) < 1e-10
    assert abs(rep["C2"] - 1.0) < 1e-10
    assert rep["bound"] == pytest.approx(3.0)
    assert rep["ratios_ok"]
    assert rep["max_ratio"] <= 3.0 + 1e-6
    # single symmetry: ratio one
    total = free_action(F, 0, z2_symmetry())
    xomega = total.matrix @ F.vacuum()
    assert abs(compression_norm(total) / np.linalg.norm(xomega) - 1.0) < 1e-9


def test_norm_equivalence_quantum_group_factor():
    # the full Kac-Paljutkin algebra as a factor; coefficient space of its
    # two-dimensional irreducible corepresentation
    import qglab
    from qglab.catalog import corep_catalog
    G = qglab.builtin_instance("kac_paljutkin")
    V = [W for W in corep_catalog(G) if W.d == 2][0]
    basis = [V.tensor[i, j] for i in range(2) for j in range(2)]
    F = build_fock([factor_from_quantum_group(G)] * 3, 3)
    rep = norm_equivalence(F, basis, sample_count=20, seed=5)
    assert rep["ratios_ok"]


def test_non_cb_rep_small():
    F = build_fock([z2_factor()], 3)
    rep = build_non_cb_rep(1, F)
    # pi(omega) = omega(u) (e11 + e10); generator norm below 2
    assert compression_norm(rep.V_tensor, F, amp_dim=2, seed=1) <= 2.0 + 1e-9
    xi = F.vacuum()
    eta = rep.u_ops[0].matrix @ xi
    piw = rep.pi_rep(xi, eta)
    want = np.zeros((2, 2), dtype=complex)
    want[1, 1] = want[1, 0] = 1.0
    assert np.linalg.norm(piw - want) < 1e-12


def test_theta0_is_a_homomorphism():
    F = build_fock([z2_factor()] * 3, 2)
    rep = build_non_cb_rep(3, F)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.linalg.norm(rep.theta0(a) @ rep.theta0(b) - rep.theta0(a * b)) < 1e-12


def test_pi_rep_multiplicative_under_convolution():
    # omega1 omega2 evaluated on group-likes is the pointwise product of the
    # evaluations, so pi factors through theta0
    F = build_fock([z2_factor()] * 3, 4)
    rep = build_non_cb_rep(3, F)
    rng = np.random.default_rng(6)
    keep = np.nonzero(F.length_mask(F.max_len - 1))[0]
    for _ in range(5):
        xi = np.zeros(F.dim, dtype=complex)
        eta = np.zeros(F.dim, dtype=complex)
        xi[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        xi2 = np.zeros(F.dim, dtype=complex)
        eta2 = np.zeros(F.dim, dtype=complex)
        xi2[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta2[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        conv_values = rep.phi_map(xi, eta) * rep.phi_map(xi2, eta2)
        lhs = rep.theta0(conv_values)
        rhs = rep.pi_rep(xi, eta) @ rep.pi_rep(xi2, eta2)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_cb_vs_bounded_probe_n4():
    F = build_fock([z2_factor()] * 4, 4)
    probe = cb_vs_bounded_probe(4, F, seed=2)
    assert probe["cb_lower"] >= 1.0 - 1e-6           # sqrt(4) - 1
    assert abs(probe["cb_lower"] - np.sqrt(5)) < 1e-6
    assert abs(probe["column_norm"] - 2.0) < 1e-9
    assert probe["bounded_upper"] == 6.0
    assert probe["pi_lower_search"] <= 6.0 + 1e-6
    assert abs(probe["multiplier_l1_lower"] - 2.0) < 1e-12


def test_pi_search_exceeds_trivial_bound():
    # the searched lower bound should at least see a single symmetry
    F = build_fock([z2_factor()] * 4, 3)
    rep = build_non_cb_rep(4, F)
    assert pi_norm_search(rep, seed=3) >= 1.0 - 1e-6


def test_empirical_phi_star_lower_bound():
    # measured lower bound of ||phi*(rho)|| / ||rho|| at d = 1 (reported
    # quantity; no reference value)
    F = build_fock([z2_factor()] * 4, 4)
    rep = build_non_cb_rep(4, F)
    rng = np.random.default_rng(7)
    lows = []
    for _ in range(10):
        rho = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = sum(rho[i] * rep.u_ops[i].matrix for i in range(4))
        lows.append(compression_norm(x, F, seed=1) / np.linalg.norm(rho))
    assert min(lows) > 0.5


# --- solver failures --------------------------------------------------------


def _unconverged_call(monkeypatch, exc):
    # max_iter=3 stops the power iteration before its convergence test, so the
    # Lanczos fallback always runs; here it raises exc
    def eigsh(*args, **kwargs):
        raise exc
    monkeypatch.setattr(fock_module.spla, "eigsh", eigsh)
    sub = sp.random(300, 300, density=0.02, random_state=0, format="csr")
    return fock_module._largest_singular_value(sub, max_iter=3)


def test_lanczos_programming_errors_propagate(monkeypatch):
    with pytest.raises(TypeError, match="not an ARPACK failure"):
        _unconverged_call(monkeypatch, TypeError("not an ARPACK failure"))


def test_lanczos_failure_is_reported_in_diagnostics(monkeypatch):
    exc = spla.ArpackNoConvergence("No convergence", np.array([]), np.array([]))
    with pytest.raises(ConvergenceError) as info:
        _unconverged_call(monkeypatch, exc)
    assert "No convergence" in info.value.diagnostics["lanczos_error"]
    assert info.value.diagnostics["iterations"] == 3
