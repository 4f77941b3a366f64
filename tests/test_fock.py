"""Truncated free products: word combinatorics, free actions, vacuum moments
against an independent symbolic evaluator, certified compression norms,
Khintchine probes, and the bounded-not-cb construction."""

import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qglab import fock as fock_module
from qglab.ascent import OperatorStack, rank_one_ascent
from qglab.builders import builtin_instance
from qglab.errors import (
    BudgetError,
    ConvergenceError,
    InvalidInstanceError,
    StructuralError,
)
from qglab.fock import (
    NonCbRep,
    amplified_sum,
    build_fock,
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
from qglab.suite import KHINTCHINE_CONSTANT, SuiteConfig, run_suite

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402


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


# --- tuple-based reference for the word tables -----------------------------
# The word basis and index maps built by listing words as tuples, and the free
# action assembled from them; FockSpace and free_action must agree bit for bit.


def reference_space(factors, max_len):
    factors = list(factors)
    dims0 = [f.dim0 for f in factors]
    N = len(factors)
    words = [()]
    by_len = [[()]]
    for _ in range(max_len):
        layer = []
        for i in range(N):
            for w in by_len[-1]:
                if w and w[0][0] == i:
                    continue
                for p in range(dims0[i]):
                    layer.append(((i, p),) + w)
        by_len.append(layer)
        words.extend(layer)
    idx = {w: k for k, w in enumerate(words)}
    prepend, first = [], []
    for i in range(N):
        src, dst = [], []
        for k, w in enumerate(words):
            if (w and w[0][0] == i) or len(w) >= max_len:
                continue
            src.append(k)
            dst.append([idx[((i, p),) + w] for p in range(dims0[i])])
        prepend.append((np.array(src, dtype=int),
                        np.array(dst, dtype=int).reshape(len(src), dims0[i])))
        fsrc, fslot, frest, frepl = [], [], [], []
        for k, w in enumerate(words):
            if not w or w[0][0] != i:
                continue
            fsrc.append(k)
            fslot.append(w[0][1])
            rest = w[1:]
            frest.append(idx[rest])
            frepl.append([idx[((i, p),) + rest] for p in range(dims0[i])])
        first.append((np.array(fsrc, dtype=int), np.array(fslot, dtype=int),
                      np.array(frest, dtype=int),
                      np.array(frepl, dtype=int).reshape(len(fsrc), dims0[i])))
    return SimpleNamespace(factors=factors, max_len=max_len, words=words,
                           index=idx, dim=len(words),
                           lengths=np.array([len(w) for w in words], dtype=int),
                           _prepend=prepend, _first=first)


def reference_free_action(F, i, coeffs):
    f = F.factors[i]
    phi, create, annihilate, replace = f.action_data(coeffs)
    rows, cols, vals = [], [], []
    other = np.nonzero([not w or w[0][0] != i for w in F.words])[0]
    if abs(phi) > 0:
        rows.append(other)
        cols.append(other)
        vals.append(np.full(len(other), phi, dtype=complex))
    src, dst = F._prepend[i]
    for p in range(f.dim0):
        if len(src) and abs(create[p]) > 0:
            rows.append(dst[:, p])
            cols.append(src)
            vals.append(np.full(len(src), create[p], dtype=complex))
    fsrc, fslot, frest, frepl = F._first[i]
    if len(fsrc):
        for p in range(f.dim0):
            rows.append(frepl[:, p])
            cols.append(fsrc)
            vals.append(replace[p, fslot])
        rows.append(frest)
        cols.append(fsrc)
        vals.append(annihilate[fslot])
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:
        rows = cols = np.zeros(0, dtype=int)
        vals = np.zeros(0, dtype=complex)
    return sp.coo_matrix((vals, (rows, cols)), shape=(F.dim, F.dim)).tocsr()


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("kinds,max_len", [
    (("z2",), 1), (("z2",), 5),
    (("z2",) * 3, 1), (("z2",) * 3, 4), (("z2",) * 3, 6),
    (("z2",) * 4, 2), (("z2",) * 4, 5),
    (("m2",) * 3, 1), (("m2",) * 3, 3),
    (("z2", "m2", "z2", "m2"), 2), (("m2", "z2", "z2"), 4),
    (("m1", "z2", "z2"), 3),
])
def test_fock_space_matches_tuple_reference(kinds, max_len):
    make = {"z2": z2_factor, "m1": lambda: matrix_factor(1),
            "m2": lambda: matrix_factor(2)}
    factors = [make[k]() for k in kinds]
    F = build_fock(factors, max_len)
    R = reference_space(factors, max_len)
    assert F.dim == R.dim
    tail = R.words[1:]
    index = np.int32
    assert _same_array(F.first, np.array([-1] + [w[0][0] for w in tail], index))
    assert _same_array(F.lengths, R.lengths.astype(index))
    # a word's slot and remainder, read from its place in dst
    slot = np.full(F.dim, -1, dtype=index)
    rest = np.full(F.dim, -1, dtype=index)
    for src, dst in F._prepend:
        slot[dst] = np.arange(dst.shape[1])
        rest[dst] = src[:, None]
    assert _same_array(slot, np.array([-1] + [w[0][1] for w in tail], index))
    assert _same_array(rest, np.array([-1] + [R.index[w[1:]] for w in tail],
                                      index))
    for got, want in zip(F._prepend, R._prepend):
        assert len(got) == len(want)
        assert all(_same_array(a, b.astype(index)) for a, b in zip(got, want))
    rng = np.random.default_rng(len(kinds) * 10 + max_len)
    for i, f in enumerate(factors):
        centred = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        centred = centred - f.phi(centred) * f.unit
        for x in (rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim),
                  centred, f.unit):
            got = free_action(F, i, x).matrix
            want = reference_free_action(R, i, np.asarray(x, dtype=complex))
            if not want.data.imag.any():      # every placed value is real
                want = want.real
            for attr in ("indptr", "indices", "data"):
                assert _same_array(getattr(got, attr), getattr(want, attr))


def test_free_action_is_real_exactly_when_its_values_are():
    # the free symmetry places only real values and is stored real; a
    # complex M2 element is stored complex; both with the reference's values
    F = build_fock([z2_factor()] * 3, 4)
    R = reference_space(F.factors, F.max_len)
    for i in range(3):
        got = free_action(F, i, z2_symmetry()).matrix
        want = reference_free_action(R, i, z2_symmetry())
        assert got.dtype == np.float64 and want.dtype == complex
        assert not want.data.imag.any()
        assert_same_csr(got, want.real)
    F = build_fock([matrix_factor(2)] * 2, 3)
    R = reference_space(F.factors, F.max_len)
    x = np.array([1.0, 2.0 + 1.0j, 0.5j, -1.0])
    got = free_action(F, 1, x).matrix
    assert got.dtype == complex
    assert_same_csr(got, reference_free_action(R, 1, x))
    # a real M2 element: real values, stored real
    got = free_action(F, 1, x.real).matrix
    assert got.dtype == np.float64
    assert_same_csr(got, reference_free_action(R, 1, x.real.astype(complex)).real)


def free_symmetries(F):
    return [free_action(F, i, z2_symmetry()).matrix for i in range(len(F.factors))]


def symmetry_stack(F):
    """The free symmetries on the whole space as one ``OperatorStack``."""
    return OperatorStack(free_symmetries(F), F.dim)


def pi_of(rep, stack, xi, eta):
    """pi(omega) at the vector functional omega = (. xi | eta)."""
    return rep.theta0(stack.values(xi, eta))


def theta_units(N):
    """e_ii + e_i0 for i = 1..N, one matrix each."""
    units = []
    for i in range(1, N + 1):
        m = np.zeros((N + 1, N + 1), dtype=complex)
        m[i, i] = m[i, 0] = 1.0
        units.append(m)
    return units


def reference_rank_one_ascent(rep, seed=0, tol=1e-8):
    """``rank_one_ascent`` on the free symmetries (6 starts of at most 25
    steps) with one matvec per operator and the operator sum M formed as a
    sparse matrix.

    (l | pi(omega) r) = eta* (sum_i w_i u_i) xi with w_i = (l | theta_i r),
    so each step takes eta along M xi and xi along M* eta for
    M = sum_i w_i u_i."""
    F = rep.space
    u_ops = free_symmetries(F)
    thetas = theta_units(rep.N)
    rng = np.random.default_rng(seed)
    best = 0.0
    keep = np.nonzero(F.lengths <= F.max_len - 1)[0]
    for _ in range(6):
        xi = np.zeros(F.dim, dtype=complex)
        eta = np.zeros(F.dim, dtype=complex)
        xi[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        prev = 0.0
        for _ in range(25):
            vals = np.array([np.vdot(eta, u @ xi) for u in u_ops])
            piw = sum(v * m for v, m in zip(vals, thetas))
            val = float(np.linalg.norm(piw, 2))
            best = max(best, val)
            U, _, Vh = np.linalg.svd(piw)
            ell, r = U[:, 0], Vh[0].conj()
            weights = np.array([np.vdot(ell, m @ r) for m in thetas])
            M = sum(weights[i] * u_ops[i] for i in range(rep.N))
            w = M @ xi
            if np.linalg.norm(w) < 1e-14:
                break
            eta = w / np.linalg.norm(w)
            w2 = M.conj().T @ eta
            if np.linalg.norm(w2) < 1e-14:
                break
            xi = w2 / np.linalg.norm(w2)
            if abs(val - prev) < tol:
                break
            prev = val
    return best


def test_rank_one_ascent_matches_per_operator_loop():
    F = build_fock([z2_factor()] * 4, 4)
    rep = NonCbRep(F)
    for seed in (0, 1, 2):
        got = rank_one_ascent(symmetry_stack(F), rep.theta, F.zone_size(),
                              seed=seed)
        assert abs(got - reference_rank_one_ascent(rep, seed=seed)) < 1e-12


def kesten_jacobi_top(N, L):
    """kappa: the top eigenvalue of the Kesten sum on radial vectors of the
    depth-L space, a Jacobi matrix with off-diagonals sqrt(N), sqrt(N-1), ..."""
    off = np.sqrt([N] + [N - 1] * (L - 1))
    return sla.eigh_tridiagonal(np.zeros(L + 1), off, eigvals_only=True)[-1]


def layer_sums(F):
    """R: the normalised indicators of the words of each length, as columns."""
    R = np.zeros((F.dim, F.max_len + 1))
    R[np.arange(F.dim), F.lengths] = 1.0
    return R / np.linalg.norm(R, axis=0)


def reference_kesten_vector(F, stack):
    """xi = R c, c the top eigenvector of J = R^T S R, with S applied through
    the stack's row sums."""
    counts = np.bincount(F.lengths)
    R = sp.csr_matrix((1.0 / np.sqrt(counts[F.lengths]),
                       (np.arange(F.dim), F.lengths)),
                      shape=(F.dim, F.max_len + 1))
    J = (R.T @ (stack.by_word @ (stack.stack @ R))).toarray()
    return R @ np.linalg.eigh(J)[1][:, -1]


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("N", [4, 9, 16])
def test_pi_norm_search_is_the_symmetric_kesten_functional(N, L):
    F = build_fock([z2_factor()] * N, L)
    rep = NonCbRep(F)
    stack = symmetry_stack(F)
    values = stack.values(*[reference_kesten_vector(F, stack)] * 2)
    got = pi_norm_search(rep)
    # bit for bit the value of the stacked row sums
    assert got == float(np.linalg.norm(rep.theta0(values), 2))
    kappa = kesten_jacobi_top(N, L)
    assert abs(got - kappa / N * np.sqrt(N + 1)) < 1e-12
    assert np.ptp(values) < 1e-13
    assert abs(values[0] - kappa / N) < 1e-12
    if L == 4:
        ascent = rank_one_ascent(stack, rep.theta, rep.space.zone_size(),
                                 seed=0)
        assert got >= ascent


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("N", [4, 9, 16])
def test_the_layer_sums_span_an_invariant_subspace_of_the_kesten_sum(N, L):
    F = build_fock([z2_factor()] * N, L)
    R = layer_sums(F)
    SR = sum(free_symmetries(F)) @ R
    J = R.T @ SR
    assert np.linalg.norm(SR - R @ J) <= 1e-12
    # the Kesten-Jacobi matrix, up to the sign of the symmetry's creation
    off = np.sqrt([N] + [N - 1] * (L - 1))
    assert np.allclose(abs(np.diag(J, 1)), off, rtol=0, atol=1e-12)
    assert np.allclose(J, np.diag(np.diag(J, 1), 1) + np.diag(np.diag(J, 1), -1),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("N,L", [(4, 2), (4, 3), (4, 4), (9, 2)])
def test_pi_norm_search_matches_a_dense_eigh_of_the_kesten_sum(N, L):
    F = build_fock([z2_factor()] * N, L)
    assert F.dim <= 200
    rep = NonCbRep(F)
    xi = np.linalg.eigh(sum(free_symmetries(F)).toarray())[1][:, -1]
    dense = np.linalg.norm(pi_of(rep, symmetry_stack(F), xi, xi), 2)
    assert abs(pi_norm_search(rep) - dense) <= 1e-12


def test_hot_paths_never_touch_word_tuples():
    # the Fock suites and the benchmark pass run on the integer word arrays,
    # the only word basis a FockSpace holds
    cfg = SuiteConfig(instances=[], suites=("khintchine", "noncb"), seed=1,
                      trials=2, copies=4, length=3)
    rep = run_suite(cfg)
    assert rep.records and all(r.passed for r in rep.records)
    inp = workloads.make_inputs("fock-certify", 1, workloads.Params.tiny())
    outcome = workloads.run_pass(inp)
    verdict = workloads.check_pass(inp, outcome, None)
    assert verdict.failed == 0, verdict.problems


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
    words = reference_space(F.factors, F.max_len).words
    assert words[int(np.nonzero(np.abs(w1) > 1e-12)[0][0])] == ((0, 0),)
    assert np.linalg.norm(op.matrix @ w1 - v) < 1e-14


def test_action_matches_oracle():
    rng = np.random.default_rng(0)
    F = build_fock([matrix_factor(2), z2_factor() if False else matrix_factor(2),
                    matrix_factor(2)], 3)
    R = reference_space(F.factors, F.max_len)
    for i in range(3):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        op = free_action(F, i, x)
        state = {R.words[7]: 1.0 + 0j}
        got = op.matrix @ np.eye(F.dim, dtype=complex)[:, 7]
        want = oracle_apply(F, i, x, state)
        vec = np.zeros(F.dim, dtype=complex)
        for w, amp in want.items():
            vec[R.index[w]] = amp
        assert np.linalg.norm(got - vec) < 1e-12


def test_star_homomorphism_on_exact_zone():
    rng = np.random.default_rng(1)
    F = build_fock([matrix_factor(2)] * 2, 3)
    f = F.factors[0]
    mask = F.lengths <= F.max_len - 1
    for _ in range(3):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        opa = free_action(F, 0, a)
        opb = free_action(F, 0, b)
        opab = free_action(F, 0, f.mult_coeffs(a, b))
        prod = (opa.matrix @ opb.matrix)[:, mask]
        assert abs(prod - opab.matrix[:, mask]).max() < 1e-10
        # adjoints agree exactly for compressions
        opa_star = free_action(F, 0, f.star_coeffs(a))
        assert abs(opa_star.matrix - opa.matrix.conj().T).max() < 1e-12


def test_vacuum_state_freeness():
    F = build_fock([z2_factor()] * 3, 4)
    u = z2_symmetry()
    ops = [free_action(F, i, u) for i in range(3)]
    assert abs(vacuum_state(F, [ops[0], ops[1], ops[2]])) < 1e-14
    assert abs(vacuum_state(F, [ops[0], ops[1], ops[0]])) < 1e-14
    assert abs(vacuum_state(F, [ops[0], ops[0]]) - 1.0) < 1e-14
    # the vacuum factorizes over distinct factors
    rng = np.random.default_rng(2)
    F2 = build_fock([matrix_factor(2)] * 2, 2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    opa, opb = free_action(F2, 0, a), free_action(F2, 1, b)
    val = vacuum_state(F2, [opa, opb])
    assert abs(val - F2.factors[0].phi(a) * F2.factors[1].phi(b)) < 1e-12


def test_length_four_moment_against_oracle():
    # mixed moment of two free symmetries vs the symbolic expansion
    F = build_fock([z2_factor()] * 2, 4)
    u = z2_symmetry()
    ops = [free_action(F, i, u) for i in range(2)]
    seq = [0, 1, 0, 1]
    val = vacuum_state(F, [ops[i] for i in seq])
    want = oracle_vacuum(F, [(i, u) for i in seq])
    assert abs(val - want) < 1e-12
    # and for a shifted element with nonzero mean
    x = np.array([1.5, -0.5])
    opx = free_action(F, 0, x)
    val2 = vacuum_state(F, [opx, ops[1], opx])
    want2 = oracle_vacuum(F, [(0, x), (1, u), (0, x)])
    assert abs(val2 - want2) < 1e-12


def test_vacuum_state_past_the_truncation_depth_returns_a_value():
    # a product of three actions on a depth-2 space is evaluated, not
    # rejected (u^3 = u has vacuum mean 0)
    F = build_fock([z2_factor()] * 2, 2)
    op = free_action(F, 0, z2_symmetry())
    val = vacuum_state(F, [op, op, op])
    assert isinstance(val, complex) and abs(val) < 1e-14


def test_vacuum_state_takes_a_generator():
    # five alternating symmetries exceed depth 2: the same value from a
    # list or from a generator
    F = build_fock([z2_factor()] * 2, 2)
    ops = [free_action(F, i, z2_symmetry()) for i in range(2)]
    seq = [0, 1, 0, 1, 0]
    want = vacuum_state(F, [ops[i] for i in seq])
    assert isinstance(want, complex)
    assert vacuum_state(F, (ops[i] for i in seq)) == want


def test_compression_norm_symmetry():
    F = build_fock([z2_factor()] * 2, 4)
    op = free_action(F, 0, z2_symmetry())
    for L in (1, 2, 3):
        assert abs(compression_norm(op.matrix, F, domain_len=L) - 1.0) < 1e-10
    # compressing a centred element to the vacuum alone gives its mean
    assert compression_norm(op.matrix, F, domain_len=0) == 0.0


def test_column_norm_builds_no_whole_space_action(monkeypatch):
    # the column reads only the zone actions; pi_norm_search builds each
    # whole-space symmetry once
    F = build_fock([z2_factor()] * 9, 3)
    spaces = []
    action = fock_module.free_action

    def spy(space, i, coeffs):
        spaces.append(space)
        return action(space, i, coeffs)
    monkeypatch.setattr(fock_module, "free_action", spy)
    rep = NonCbRep(F)
    assert abs(fock_module.column_norm(rep) - 3.0) < 1e-9
    assert len(spaces) == 9 and all(space is not F for space in spaces)
    pi_norm_search(rep)
    assert sum(space is F for space in spaces) == 9


def test_column_of_free_symmetries():
    u = z2_symmetry()
    for N in (4, 9):
        F = build_fock([z2_factor()] * N, 3)
        ops = [free_action(F, i, u).matrix for i in range(N)]
        mats = []
        for i in range(1, N + 1):
            m = np.zeros((N + 1, N + 1))
            m[i, 0] = 1
            mats.append(m)
        col = full_amplified_sum(zip(ops, mats))
        # sparse-algebra identity on the exact zone: x*x = N e00
        keep = np.nonzero(np.repeat(F.lengths <= F.max_len - 1, N + 1))[0]
        xx = (col.conj().T @ col).tocsr()[keep][:, keep]
        tgt = sp.kron(sp.eye(F.dim), sp.csr_matrix(np.diag([N] + [0] * N)))
        tgt = tgt.tocsr()[keep][:, keep]
        assert abs(xx - tgt).max() < 1e-12
        zone, k = amplified_sum(zip(ops, mats), F)
        assert k == N + 1
        assert abs(fock_module._largest_singular_value(zone) - np.sqrt(N)) < 1e-10


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
    keep = np.nonzero(F.lengths <= 5)[0]
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
    assert rep["lhs_cert"] <= KHINTCHINE_CONSTANT * rep["rhs_max"] + 1e-8


def test_khintchine_single_term_collapses():
    F = build_fock([z2_factor()] * 2, 3)
    rep = khintchine_check([3.0], [(0, z2_symmetry())], F, seed=1)
    assert abs(rep["lhs_cert"] - rep["rhs_max"]) < 1e-9


def m2_family(N, max_len, seed):
    """N free copies of M2 to depth max_len, with random 2x2 coefficients
    a_i and random centred x_i, as in the khintchine suite."""
    rng = np.random.default_rng(seed)
    F = build_fock([matrix_factor(2)] * N, max_len)
    a_fam, x_fam = [], []
    for i in range(N):
        a_fam.append(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = F.factors[i]
        x = x - f.phi(x) * f.unit
        x_fam.append((i, x))
    return F, a_fam, x_fam


def test_khintchine_matrix_coefficients():
    F, a_fam, x_fam = m2_family(3, 5, seed=3)
    rep = khintchine_check(a_fam, x_fam, F, seed=2)
    assert rep["lhs_cert"] <= KHINTCHINE_CONSTANT * rep["rhs_max"] + 1e-8
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
    assert KHINTCHINE_CONSTANT * max(rep["C1"], rep["C2"]) == pytest.approx(3.0)
    assert rep["max_ratio"] <= 3.0 + 1e-6
    # single symmetry: ratio one
    total = free_action(F, 0, z2_symmetry())
    xomega = total.matrix @ F.vacuum()
    assert abs(compression_norm(total.matrix, F) / np.linalg.norm(xomega)
               - 1.0) < 1e-9


def test_norm_equivalence_quantum_group_factor():
    # the full Kac-Paljutkin algebra as a factor; coefficient space of its
    # two-dimensional irreducible corepresentation
    G, basis = kac_paljutkin_span()
    F = build_fock([factor_from_quantum_group(G)] * 3, 3)
    rep = norm_equivalence(F, basis, sample_count=20, seed=5)
    assert rep["max_ratio"] <= equivalence_bound(rep) + 1e-6


@pytest.mark.parametrize("name", ["kac_paljutkin", "c_s3"])
def test_norm_equivalence_certifies_c1(name):
    # on the coefficient span of the two-dimensional irreducible the ascent
    # and the row/column bound close the bracket at the true C1 = 2
    import qglab
    from qglab.catalog import corep_catalog
    G = qglab.builtin_instance(name)
    V = [W for W in corep_catalog(G) if W.d == 2][0]
    basis = [V.tensor[i, j] for i in range(2) for j in range(2)]
    F = build_fock([factor_from_quantum_group(G)] * 2, 2)
    rep = norm_equivalence(F, basis, sample_count=4, seed=0)
    lower, upper = rep["C1_bracket"]
    assert abs(upper - 2.0) < 1e-9
    assert abs(lower - 2.0) < 1e-9
    assert lower <= upper
    assert rep["C1"] == upper
    assert equivalence_bound(rep) == pytest.approx(6.0, abs=1e-9)
    assert rep["max_ratio"] <= equivalence_bound(rep) + 1e-6


def equivalence_bound(rep):
    """The bound on the ratios of a ``norm_equivalence`` measurement that the
    khintchine suite holds them to: the Khintchine constant times
    max{C1, C2}."""
    return KHINTCHINE_CONSTANT * max(rep["C1"], rep["C2"])


def reference_sample_ratios(F, coeff_basis, sample_count, seed):
    """The per-sample loop of ``norm_equivalence``: each sample's free
    actions assembled on the whole truncated space, summed, and its norm
    taken by ``compression_norm``; the rng draws come first from a fresh
    generator, as in the function."""
    B = np.stack([np.asarray(b, dtype=complex) for b in coeff_basis], axis=1)
    N = len(F.factors)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(sample_count):
        coeffs = rng.standard_normal((N, B.shape[1])) \
            + 1j * rng.standard_normal((N, B.shape[1]))
        total = sum(free_action(F, i, B @ coeffs[i]).matrix for i in range(N))
        nv = float(np.linalg.norm(total @ F.vacuum()))
        if nv < 1e-12:
            continue
        ratios.append(compression_norm(total, F, seed=seed) / nv)
    return ratios


def kac_paljutkin_span():
    import qglab
    from qglab.catalog import corep_catalog
    G = qglab.builtin_instance("kac_paljutkin")
    V = [W for W in corep_catalog(G) if W.d == 2][0]
    return G, [V.tensor[i, j] for i in range(2) for j in range(2)]


@pytest.mark.parametrize("case,zone", [("z2", 53), ("z2-depth-1", 1),
                                       ("kac_paljutkin", 316)])
def test_batched_norm_equivalence_matches_the_per_sample_loop(case, zone):
    # both sides of the dense switch: K = 53 takes the batched SVD, K = 316
    # one Lanczos solve per sample; at depth 1 the zone is the vacuum alone
    if case == "kac_paljutkin":
        G, basis = kac_paljutkin_span()
        F = build_fock([factor_from_quantum_group(G)] * 3, 3)
        count, seed = 20, 5
    else:
        F = build_fock([z2_factor()] * 4, 1 if case == "z2-depth-1" else 4)
        basis, count, seed = [z2_symmetry()], 100, 4
    assert F.zone_size() == zone
    assert (zone <= fock_module.DENSE_ROWS) == (case != "kac_paljutkin")
    ref = reference_sample_ratios(F, basis, count, seed)
    got = norm_equivalence(F, basis, sample_count=count, seed=seed)
    assert got["samples"] == len(ref) == count
    assert abs(got["max_ratio"] - max(ref)) <= 1e-12 * max(ref)
    bound = equivalence_bound(got)
    assert (got["max_ratio"] <= bound + 1e-6) == all(r <= bound + 1e-6 for r in ref)


def test_non_cb_rep_small():
    F = build_fock([z2_factor()], 3)
    rep = NonCbRep(F)
    # pi(omega) = omega(u) (e11 + e10); generator norm below 2
    assert fock_module._largest_singular_value(rep.generator(), seed=1) <= 2.0 + 1e-9
    xi = F.vacuum()
    eta = free_action(F, 0, z2_symmetry()).matrix @ xi
    piw = pi_of(rep, symmetry_stack(F), xi, eta)
    want = np.zeros((2, 2), dtype=complex)
    want[1, 1] = want[1, 0] = 1.0
    assert np.linalg.norm(piw - want) < 1e-12


def test_theta0_is_a_homomorphism():
    F = build_fock([z2_factor()] * 3, 2)
    rep = NonCbRep(F)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.linalg.norm(rep.theta0(a) @ rep.theta0(b) - rep.theta0(a * b)) < 1e-12


def test_pi_rep_multiplicative_under_convolution():
    # omega1 omega2 evaluated on group-likes is the pointwise product of the
    # evaluations, so pi factors through theta0
    F = build_fock([z2_factor()] * 3, 4)
    rep = NonCbRep(F)
    stack = symmetry_stack(F)
    rng = np.random.default_rng(6)
    keep = np.nonzero(F.lengths <= F.max_len - 1)[0]
    for _ in range(5):
        xi = np.zeros(F.dim, dtype=complex)
        eta = np.zeros(F.dim, dtype=complex)
        xi[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        xi2 = np.zeros(F.dim, dtype=complex)
        eta2 = np.zeros(F.dim, dtype=complex)
        xi2[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta2[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        conv_values = stack.values(xi, eta) * stack.values(xi2, eta2)
        lhs = rep.theta0(conv_values)
        rhs = pi_of(rep, stack, xi, eta) @ pi_of(rep, stack, xi2, eta2)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_cb_vs_bounded_probe_n4():
    F = build_fock([z2_factor()] * 4, 4)
    probe = cb_vs_bounded_probe(F, seed=2)
    assert probe["cb_lower"] >= 1.0 - 1e-6           # sqrt(4) - 1
    assert abs(probe["cb_lower"] - np.sqrt(5)) < 1e-6
    assert abs(probe["column_norm"] - 2.0) < 1e-9
    assert probe["pi_lower_search"] <= 6.0 + 1e-6
    assert abs(probe["multiplier_l1_lower"] - 2.0) < 1e-12
    # the bound is the suite's: the noncb report states it beside the very
    # measurements of this probe
    report = run_suite(SuiteConfig(suites=("noncb",), seed=2, copies=4, length=4))
    assert report.extra["noncb"]["analytic_bounds"]["bounded_upper"] == 6.0
    assert report.extra["noncb"]["measured"]["4"] == probe


def test_the_probes_return_measurements_only():
    # no constant of a gate and no verdict: the suite judges the values
    F = build_fock([z2_factor()] * 4, 3)
    u = z2_symmetry()
    assert set(khintchine_check([1.0] * 4, [(i, u) for i in range(4)], F)) \
        == {"lhs_cert", "rhs_max", "ratio"}
    assert set(norm_equivalence(F, [u], sample_count=4)) \
        == {"C1", "C1_bracket", "C2", "max_ratio", "samples"}
    assert set(cb_vs_bounded_probe(F)) \
        == {"cb_lower", "column_norm", "pi_lower_search", "multiplier_l1_lower"}


def test_pi_search_exceeds_trivial_bound():
    # the searched lower bound should at least see a single symmetry
    F = build_fock([z2_factor()] * 4, 3)
    rep = NonCbRep(F)
    assert pi_norm_search(rep) >= 1.0 - 1e-6


def test_empirical_phi_star_lower_bound():
    # measured lower bound of ||phi*(rho)|| / ||rho|| at d = 1 (reported
    # quantity; no reference value)
    F = build_fock([z2_factor()] * 4, 4)
    u_ops = free_symmetries(F)
    rng = np.random.default_rng(7)
    lows = []
    for _ in range(10):
        rho = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = sum(rho[i] * u_ops[i] for i in range(4))
        lows.append(compression_norm(x, F, seed=1) / np.linalg.norm(rho))
    assert min(lows) > 0.5


# --- zone-first compressions ------------------------------------------------
# The reference route amplifies every action over the whole truncated space
# and then extracts the exact zone with a length mask.


def full_amplified_sum(pairs):
    """sum_i kron(m_i, a_i) over the whole truncated space, top layer
    included, summed in order."""
    total = None
    for m, a in pairs:
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        term = sp.kron(m, sp.csr_matrix(a), format="csr")
        total = term if total is None else total + term
    return total


def masked_compression(m, F, amp_dim, domain_len=None):
    L = F.max_len - 1 if domain_len is None else domain_len
    keep = np.nonzero(np.repeat(F.lengths <= L, amp_dim))[0]
    return m.tocsr()[keep][:, keep]


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        assert _same_array(getattr(got, attr), getattr(want, attr))


def norm_operands(monkeypatch):
    """Every operator whose certified norm is taken, in call order."""
    seen = []
    solve = fock_module._largest_singular_value

    def spy(sub, **kw):
        seen.append(sub)
        return solve(sub, **kw)
    monkeypatch.setattr(fock_module, "_largest_singular_value", spy)
    return seen


@pytest.mark.parametrize("family", ["z2", "m2"])
def test_khintchine_zone_operator_is_the_compression(monkeypatch, family):
    if family == "z2":
        F = build_fock([z2_factor()] * 4, 4)
        a_fam, x_fam = [1.0] * 4, [(i, z2_symmetry()) for i in range(4)]
    else:
        F, a_fam, x_fam = m2_family(4, 3, seed=4)
    seen = norm_operands(monkeypatch)
    khintchine_check(a_fam, x_fam, F, seed=1)
    ops = [free_action(F, i, x).matrix for i, x in x_fam]
    full = full_amplified_sum(zip(ops, a_fam))
    assert len(seen) == 1
    assert_same_csr(seen[0], masked_compression(full, F, full.shape[0] // F.dim))


def test_noncb_zone_operators_are_the_compressions(monkeypatch):
    N = 4
    F = build_fock([z2_factor()] * N, 4)
    seen = norm_operands(monkeypatch)
    cb_vs_bounded_probe(F, seed=2)
    generator, column = seen
    u_ops = free_symmetries(F)
    full = full_amplified_sum(zip(u_ops, theta_units(N)))
    assert_same_csr(generator, masked_compression(full, F, N + 1))
    mats = []
    for i in range(1, N + 1):
        m = np.zeros((N + 1, N + 1), dtype=complex)
        m[i, 0] = 1.0
        mats.append(m)
    full = full_amplified_sum(zip(u_ops, mats))
    assert_same_csr(column, masked_compression(full, F, N + 1))


@pytest.mark.parametrize("kinds,max_len", [
    (("z2",) * 16, 4), (("m2",) * 6, 4), (("m2",) * 3, 3), (("z2",) * 3, 1),
    (("m2", "z2", "z2"), 2),
])
def test_zone_actions_are_the_corners_of_the_full_actions(kinds, max_len):
    make = {"z2": z2_factor, "m2": lambda: matrix_factor(2)}
    F = build_fock([make[k]() for k in kinds], max_len)
    K = F.zone_size()
    rng = np.random.default_rng(max_len)
    elements = []
    for i, f in enumerate(F.factors):
        x = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        elements += [(i, x - f.phi(x) * f.unit), (i, x)]
    got = list(fock_module._zone_actions(F, elements))
    for m, (i, x) in zip(got, elements):
        full = free_action(F, i, x).matrix
        assert m.shape[0] >= K
        assert_same_csr(m[:K, :K], full[:K, :K])
        # the vacuum column is whole: its words have length <= 1
        vacuum_image = full @ F.vacuum()
        assert not vacuum_image[m.shape[0]:].any()
        assert np.array_equal(m[:, [0]].toarray()[:, 0],
                              vacuum_image[:m.shape[0]])


def assert_same_bytes(got, want):
    assert_same_csr(got, want)
    assert got.data.tobytes() == want.data.tobytes()     # signed zeros too


def test_amplified_sum_is_the_chained_csr_sum_byte_for_byte():
    # entries and coefficients from {+-0, +-1}: the chained sum keeps a lone
    # term's explicit zeros, adds +0 where a term has no entry and drops each
    # exact zero it makes, which later terms read as +0
    F = build_fock([z2_factor()] * 3, 3)
    K = F.zone_size()
    parts = np.array([0.0, -0.0, 1.0, -1.0])

    def entry(rng, size):
        return rng.choice(parts, size) + 1j * rng.choice(parts, size)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        amp = int(rng.integers(1, 4))
        pairs = []
        for _ in range(int(rng.integers(1, 6))):
            cells = np.unique(rng.integers(0, 36, rng.integers(0, 30)))
            rows, cols = np.divmod(cells, 6)
            m = sp.csr_matrix((entry(rng, len(cells)), (rows * 3, cols * 3)),
                              shape=(F.dim, F.dim))
            pairs.append((m, entry(rng, (amp, amp))))
        want = full_amplified_sum((m[:K, :K], a) for m, a in pairs)
        assert_same_bytes(amplified_sum(pairs, F)[0], want)
    # two positions whose running sum is dropped as an exact zero in
    # between, then revived with a -0 part
    cases = [([0j, 0j, complex(1, -0.0)],
              [complex(-0.0, -1), complex(-0.0, -1), complex(1, -0.0)]),
             ([complex(-0.0, -0.0), complex(0, -0.0), 1j],
              [1 + 1j, complex(1, -0.0), complex(-0.0, -1)])]
    for values, coeffs in cases:
        pairs = [(sp.csr_matrix(([v], ([0], [0])), shape=(F.dim, F.dim)), a)
                 for v, a in zip(values, coeffs)]
        want = full_amplified_sum((m[:K, :K], a) for m, a in pairs)
        assert_same_bytes(amplified_sum(pairs, F)[0], want)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_amplified_sum_in_runs_of_rows_is_the_chained_csr_sum(monkeypatch,
                                                               chunk):
    # merged a row or a few rows at a time: the same bytes as one merge
    monkeypatch.setattr(fock_module, "AMPLIFY_CHUNK", chunk)
    test_amplified_sum_is_the_chained_csr_sum_byte_for_byte()
    F, a_fam, x_fam = m2_family(4, 3, seed=4)
    cases = [(F, [free_action(F, i, x).matrix for i, x in x_fam], a_fam)]
    F = build_fock([z2_factor()] * 4, 4)
    cases.append((F, free_symmetries(F), theta_units(4)))
    for F, ops, coeffs in cases:
        K = F.zone_size()
        want = full_amplified_sum((m[:K, :K], a) for m, a in zip(ops, coeffs))
        assert_same_bytes(amplified_sum(zip(ops, coeffs), F)[0], want)


def test_compression_norm_slices_the_zone(monkeypatch):
    F = build_fock([z2_factor()] * 4, 5)
    total = sum(free_action(F, i, z2_symmetry()).matrix for i in range(4))
    seen = norm_operands(monkeypatch)
    for L in range(F.max_len):
        compression_norm(total, F, domain_len=L)
    assert len(seen) == F.max_len
    for L, sub in enumerate(seen):
        assert_same_csr(sub, masked_compression(total, F, 1, L))
    with pytest.raises(StructuralError, match="exact action zone"):
        compression_norm(total, F, domain_len=F.max_len)


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_khintchine_memory_stays_in_the_zone():
    # the full amplified operator has 130,178 rows and 1.13 M nonzeros; the
    # zone has 8,678 rows
    F, a_fam, x_fam = m2_family(6, 4, seed=0)
    peak = traced_peak(lambda: khintchine_check(a_fam, x_fam, F, seed=1))
    assert peak <= 16 * 2 ** 20


def test_noncb_probe_memory_stays_in_the_zone():
    # N=16, depth 4: the full generator has 983,569 rows, the zone 65,569;
    # the probe traces 10.5 MiB, a stack of complex copies of the actions
    # for the ||pi|| search 20.2 MiB
    F = build_fock([z2_factor()] * 16, 4)
    peak = traced_peak(lambda: cb_vs_bounded_probe(F, seed=1))
    assert peak <= 16 * 2 ** 20


def test_noncb_rep_construction_peak():
    # the rep and its ||pi|| search: the 16 whole-space symmetries are held
    # as a list of real CSR actions and never stacked (their vstack has
    # 925,712 rows, of which 810,000 are empty); 10.5 MiB traced
    F = build_fock([z2_factor()] * 16, 4)
    peak = traced_peak(lambda: pi_norm_search(NonCbRep(F)))
    assert peak <= 16 * 2 ** 20


def test_fock_space_holds_at_most_40_bytes_per_word():
    # first and lengths (4 bytes each) and the (src, dst) maps: 18 bytes
    # per word traced; int64 tables with per-factor slot and remainder
    # tables trace 73.5
    peak = traced_peak(lambda: build_fock([z2_factor()] * 4, 10))
    F = build_fock([z2_factor()] * 4, 10)
    assert F.dim == 118097
    assert peak <= 40 * F.dim


def test_kesten_certificate_memory():
    # the benchmark's depth-10 Kesten sequence: the space, four real free
    # actions, their sum and its certified norm by Lanczos, with sub* applied
    # through the transpose view; 11.3 MiB traced, 23.0 MiB with complex
    # actions and a transposed copy
    def kesten():
        F = build_fock([z2_factor()] * 4, 10)
        total = sum(free_action(F, i, z2_symmetry()).matrix for i in range(4))
        return compression_norm(total, F, seed=1)
    assert traced_peak(kesten) <= 16 * 2 ** 20


def test_amplified_sum_merges_in_bounded_memory():
    # the khintchine suite's N=6 M2 sum (K = 4,339, amplification 2): a
    # 1.5 MiB result, merged in runs of rows; 3.1 MiB traced, 10.9 MiB
    # with one sort over all the entries
    F, a_fam, x_fam = m2_family(6, 4, seed=0)
    ops = list(fock_module._zone_actions(F, x_fam))
    peak = traced_peak(lambda: amplified_sum(zip(ops, a_fam), F))
    m = amplified_sum(zip(ops, a_fam), F)[0]
    assert m.shape == (2 * 4339, 2 * 4339)
    assert m.data.nbytes + m.indices.nbytes + m.indptr.nbytes > 2 ** 20
    assert peak <= 5 * 2 ** 20


def test_noncb_stack_is_the_live_rows_of_the_full_vstack():
    F = build_fock([z2_factor()] * 5, 4)
    fam = symmetry_stack(F)
    full = sp.vstack(free_symmetries(F), format="csr")
    live = np.flatnonzero(np.diff(full.indptr))
    owner, word = np.divmod(live, F.dim)
    assert_same_csr(fam.stack, full[live])
    assert _same_array(fam.owner, owner)
    assert _same_array(fam.word, word)


# --- input checks -----------------------------------------------------------


@pytest.mark.parametrize("i", [-1, 2])
def test_free_action_rejects_a_factor_index_out_of_range(i):
    F = build_fock([z2_factor()] * 2, 3)
    with pytest.raises(StructuralError, match="out of range"):
        free_action(F, i, z2_symmetry())


def test_amplified_sum_rejects_coefficients_of_different_sizes():
    F = build_fock([z2_factor()] * 2, 3)
    ops = free_symmetries(F)
    with pytest.raises(StructuralError, match="inconsistent"):
        amplified_sum(zip(ops, [np.eye(2), np.eye(3)]), F)


def test_compression_norm_rejects_an_operator_off_the_space():
    F = build_fock([z2_factor()] * 2, 3)
    op = free_action(F, 0, z2_symmetry())
    for m in (sp.eye(F.dim + 1, format="csr"), sp.kron(op.matrix, sp.eye(2))):
        with pytest.raises(StructuralError, match="shape"):
            compression_norm(m, F)


def test_non_cb_rep_rejects_factors_that_do_not_carry_the_symmetry():
    F = build_fock([matrix_factor(2)] * 2, 2)
    with pytest.raises(StructuralError, match="do not fit"):
        NonCbRep(F)


# --- the norm solver --------------------------------------------------------


def slow_gap_operator(n=300, gap=1e-4, top=0.99):
    """A dense n x n operator with sigma_1 = 1 and sigma_2 = 1 - gap, the
    rest spread from top down to 0: power iteration on m*m crawls toward
    sigma_1, and with the rest far below it the values of successive steps
    agree long before they reach it."""
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 1.0 - gap], np.linspace(top, 0.0, n - 2)])
    return (U * s) @ V.T


def spy_lanczos(monkeypatch, fail_at=None):
    """Record every Lanczos solve: its dtype, the vector of its first matvec
    (the seeded start) and the dtype of every matvec input; with fail_at,
    the matvec raises a TypeError on that call."""
    calls = []
    solve = fock_module._top_ritz_vector

    def spy(matvec, n, seed, tol, dtype):
        call = dict(n=n, seed=seed, tol=tol, dtype=dtype, inputs=[])
        calls.append(call)

        def spied(y):
            if not call["inputs"]:
                call["start"] = y.copy()
            call["inputs"].append(y.dtype)
            if len(call["inputs"]) == fail_at:
                raise TypeError("not a convergence failure")
            return matvec(y)
        return solve(spied, n, seed, tol, dtype)
    monkeypatch.setattr(fock_module, "_top_ritz_vector", spy)
    return calls


def seeded_start(n, seed):
    start = np.random.default_rng(seed).standard_normal(n)
    return start / np.linalg.norm(start)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("top", [0.99, 0.5])
def test_slow_gap_is_solved_by_the_lanczos_stage(monkeypatch, top, seed):
    dense = slow_gap_operator(top=top)
    calls = spy_lanczos(monkeypatch)
    got = fock_module._largest_singular_value(sp.csr_matrix(dense), seed=seed)
    exact = np.linalg.norm(dense, 2)
    assert len(calls) == 1 and calls[0]["tol"] == 1e-10
    # two passes of one recurrence, well inside the step cap
    assert len(calls[0]["inputs"]) < 2 * fock_module.LANCZOS_STEPS
    assert abs(got - exact) <= 1e-12
    assert got <= exact * (1 + 1e-12)


def test_lanczos_stage_reports_its_ritz_vector_not_its_ritz_value(monkeypatch):
    # a tridiagonal step that claims a Ritz value of 1e6 at the first basis
    # vector, the seeded start: the solver must report the norm evaluated
    # there, never the claimed value
    dense = slow_gap_operator()
    claim = []

    def top_pair(alphas, betas):
        claim.append(len(alphas))
        return 1e6, np.eye(len(alphas))[0]
    monkeypatch.setattr(fock_module, "_top_tridiagonal_pair", top_pair)
    got = fock_module._largest_singular_value(sp.csr_matrix(dense))
    assert claim == [fock_module.LANCZOS_CHECK]
    assert got < 1.0 + 1e-12
    assert abs(got - np.linalg.norm(dense @ seeded_start(300, 0))) <= 1e-12


def test_real_operators_take_the_real_lanczos_solve(monkeypatch):
    # the Kesten sum of 4 free symmetries compressed to depth 5: 485 rows,
    # stored real
    F = build_fock([z2_factor()] * 4, 6)
    K = F.zone_size()
    sub = sum(free_symmetries(F)).tocsr()[:K, :K]
    assert K > fock_module.DENSE_ROWS and sub.dtype == np.float64
    assert not sub.data.imag.any()
    calls = spy_lanczos(monkeypatch)
    real = fock_module._largest_singular_value(sub, seed=3)
    assert calls[-1]["dtype"] == np.float64
    assert set(calls[-1]["inputs"]) == {np.dtype(np.float64)}
    assert np.array_equal(calls[-1]["start"], seeded_start(K, 3))
    # the complex solve of the same operator from the complex start
    subH = sub.conj().T.tocsr()
    x = fock_module._top_ritz_vector(lambda y: subH @ (sub @ y), K, 3, 1e-10,
                                     complex)
    assert set(calls[-1]["inputs"]) == {np.dtype(complex)}
    complex_value = np.linalg.norm(sub @ x) / np.linalg.norm(x)
    assert abs(real - complex_value) <= 1e-12 * complex_value
    assert max(real, complex_value) <= 2 * np.sqrt(3) + 1e-12
    # the non-cb generator (820 rows) takes the real solve too, and the
    # Kesten sum behind the ||pi|| bound takes none: it is read from the
    # layer sums
    rep = NonCbRep(build_fock([z2_factor()] * 9, 3))
    fock_module._largest_singular_value(rep.generator(), seed=0)
    assert set(calls[-1]["inputs"]) == {np.dtype(np.float64)}
    solves = len(calls)
    pi_norm_search(rep)
    assert len(calls) == solves


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gram_matvec_is_the_transposed_copy_bit_for_bit(kind):
    # sub* is applied through the transpose view of sub's CSR arrays: the
    # same sums, in the same order, as the CSR copy of sub* it replaces
    if kind == "real":
        F = build_fock([z2_factor()] * 4, 6)
        K = F.zone_size()
        sub = sum(free_symmetries(F)).tocsr()[:K, :K]
    else:
        F, a_fam, x_fam = m2_family(4, 3, seed=4)
        ops = list(fock_module._zone_actions(F, x_fam))
        sub = amplified_sum(zip(ops, a_fam), F)[0]
    assert sub.dtype == (np.float64 if kind == "real" else complex)
    subH = sub.conj().T.tocsr()
    rng = np.random.default_rng(0)
    for _ in range(3):
        y = rng.standard_normal(sub.shape[0])
        if kind == "complex":
            y = y + 1j * rng.standard_normal(sub.shape[0])
        got = fock_module._gram_matvec(sub)(y)
        want = subH @ (sub @ y)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_complex_operators_keep_the_complex_solve(monkeypatch):
    # M2 coefficients with nonzero imaginary parts, 242 amplified zone rows
    F, a_fam, x_fam = m2_family(4, 3, seed=4)
    calls = spy_lanczos(monkeypatch)
    khintchine_check(a_fam, x_fam, F, seed=1)
    assert [c["dtype"] for c in calls] == [complex]
    assert set(calls[0]["inputs"]) == {np.dtype(complex)}


def test_solver_is_deterministic_for_a_seed():
    sub = sp.csr_matrix(slow_gap_operator())
    solve = fock_module._largest_singular_value
    assert solve(sub, seed=3) == solve(sub.copy(), seed=3)


# --- solver failures --------------------------------------------------------


def test_lanczos_programming_errors_propagate(monkeypatch):
    # an error in a matvec of the second pass (the slow-gap operator takes
    # 85 steps in the first) reaches the caller as it is
    spy_lanczos(monkeypatch, fail_at=120)
    with pytest.raises(TypeError, match="not a convergence failure"):
        fock_module._largest_singular_value(sp.csr_matrix(slow_gap_operator()))


def test_lanczos_failure_is_reported_in_diagnostics(monkeypatch):
    # the slow-gap operator needs 85 steps; a cap of 10 stops the solve
    monkeypatch.setattr(fock_module, "LANCZOS_STEPS", 10)
    with pytest.raises(ConvergenceError) as info:
        fock_module._largest_singular_value(sp.csr_matrix(slow_gap_operator()))
    diagnostics = info.value.diagnostics
    assert diagnostics["lanczos_steps"] == 10
    assert 1e-10 < diagnostics["lanczos_residual"] < 1
