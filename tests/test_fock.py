"""Truncated free products: word combinatorics, free actions, vacuum moments
against an independent symbolic evaluator, certified compression norms,
Khintchine probes, and the bounded-not-cb construction."""

import os
import sys
import tracemalloc
from types import SimpleNamespace

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
    FockSpace,
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
from qglab.suite import SuiteConfig, run_suite

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
    assert F.words == R.words
    assert F.index == R.index
    assert _same_array(F.lengths, R.lengths)
    for got, want in zip(F._prepend + F._first, R._prepend + R._first):
        assert len(got) == len(want)
        assert all(_same_array(a, b) for a, b in zip(got, want))
    rng = np.random.default_rng(len(kinds) * 10 + max_len)
    for i, f in enumerate(factors):
        centred = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        centred = centred - f.phi(centred) * f.unit
        for x in (rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim),
                  centred, f.unit):
            got = free_action(F, i, x).matrix
            want = reference_free_action(R, i, np.asarray(x, dtype=complex))
            for attr in ("indptr", "indices", "data"):
                assert _same_array(getattr(got, attr), getattr(want, attr))


def reference_pi_norm_search(rep, seed=0, tol=1e-8):
    """The ascent of pi_norm_search (6 starts of at most 25 steps) with one
    matvec per operator and the operator sum M formed as a sparse matrix."""
    F = rep.space
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
            vals = np.array([np.vdot(eta, op.matrix @ xi) for op in rep.u_ops])
            piw = rep.theta0(vals)
            val = float(np.linalg.norm(piw, 2))
            best = max(best, val)
            U, _, Vh = np.linalg.svd(piw)
            ell, r = U[:, 0], Vh[0].conj()
            weights = np.array([np.vdot(ell, m @ r) for m in rep.theta_units])
            M = sum(np.conj(weights[i]) * rep.u_ops[i].matrix for i in range(rep.N))
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


def test_pi_norm_search_matches_per_operator_loop():
    F = build_fock([z2_factor()] * 4, 4)
    rep = NonCbRep(F)
    for seed in (0, 1, 2):
        assert abs(pi_norm_search(rep, seed=seed)
                   - reference_pi_norm_search(rep, seed=seed)) < 1e-12


def test_hot_paths_never_touch_word_tuples(monkeypatch):
    # the Fock suites and the benchmark pass run on the integer word arrays;
    # the tuple views are for inspection only
    def forbidden(self):
        raise AssertionError("a hot path read the tuple word views")
    monkeypatch.setattr(FockSpace, "words", property(forbidden))
    monkeypatch.setattr(FockSpace, "index", property(forbidden))
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


def test_vacuum_state_takes_a_generator():
    # five alternating symmetries exceed depth 2: not exact, from a list or
    # from a generator alike
    F = build_fock([z2_factor()] * 2, 2)
    ops = [free_action(F, i, z2_symmetry()) for i in range(2)]
    seq = [0, 1, 0, 1, 0]
    want = vacuum_state(F, [ops[i] for i in seq])
    assert want[1] is False
    assert vacuum_state(F, (ops[i] for i in seq)) == want


def test_compression_norm_symmetry():
    F = build_fock([z2_factor()] * 2, 4)
    op = free_action(F, 0, z2_symmetry())
    for L in (1, 2, 3):
        assert abs(compression_norm(op.matrix, F, domain_len=L) - 1.0) < 1e-10
    # compressing a centred element to the vacuum alone gives its mean
    assert compression_norm(op.matrix, F, domain_len=0) == 0.0


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
    assert rep["upper_certified"]


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
    assert abs(compression_norm(total.matrix, F) / np.linalg.norm(xomega)
               - 1.0) < 1e-9


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


@pytest.mark.parametrize("name", ["kac_paljutkin", "c_s3"])
def test_norm_equivalence_certifies_c1(name):
    # on the coefficient span of the two-dimensional irreducible the sampled
    # C1 falls short of the true 2; the row/column bound reaches it
    import qglab
    from qglab.catalog import corep_catalog
    G = qglab.builtin_instance(name)
    V = [W for W in corep_catalog(G) if W.d == 2][0]
    basis = [V.tensor[i, j] for i in range(2) for j in range(2)]
    F = build_fock([factor_from_quantum_group(G)] * 2, 2)
    rep = norm_equivalence(F, basis, sample_count=4, seed=0)
    lower, upper = rep["C1_bracket"]
    assert abs(upper - 2.0) < 1e-9
    assert lower <= upper
    assert rep["C1"] == upper
    assert rep["bound"] == pytest.approx(6.0, abs=1e-9)
    assert rep["ratios_ok"]


def test_non_cb_rep_small():
    F = build_fock([z2_factor()], 3)
    rep = NonCbRep(F)
    # pi(omega) = omega(u) (e11 + e10); generator norm below 2
    assert fock_module._largest_singular_value(rep.generator(), seed=1) <= 2.0 + 1e-9
    xi = F.vacuum()
    eta = rep.u_ops[0].matrix @ xi
    piw = rep.pi_rep(xi, eta)
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
        conv_values = rep.phi_map(xi, eta) * rep.phi_map(xi2, eta2)
        lhs = rep.theta0(conv_values)
        rhs = rep.pi_rep(xi, eta) @ rep.pi_rep(xi2, eta2)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_cb_vs_bounded_probe_n4():
    F = build_fock([z2_factor()] * 4, 4)
    probe = cb_vs_bounded_probe(F, seed=2)
    assert probe["cb_lower"] >= 1.0 - 1e-6           # sqrt(4) - 1
    assert abs(probe["cb_lower"] - np.sqrt(5)) < 1e-6
    assert abs(probe["column_norm"] - 2.0) < 1e-9
    assert probe["bounded_upper"] == 6.0
    assert probe["pi_lower_search"] <= 6.0 + 1e-6
    assert abs(probe["multiplier_l1_lower"] - 2.0) < 1e-12


def test_pi_search_exceeds_trivial_bound():
    # the searched lower bound should at least see a single symmetry
    F = build_fock([z2_factor()] * 4, 3)
    rep = NonCbRep(F)
    assert pi_norm_search(rep, seed=3) >= 1.0 - 1e-6


def test_empirical_phi_star_lower_bound():
    # measured lower bound of ||phi*(rho)|| / ||rho|| at d = 1 (reported
    # quantity; no reference value)
    F = build_fock([z2_factor()] * 4, 4)
    rep = NonCbRep(F)
    rng = np.random.default_rng(7)
    lows = []
    for _ in range(10):
        rho = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = sum(rho[i] * rep.u_ops[i].matrix for i in range(4))
        lows.append(compression_norm(x, F, seed=1) / np.linalg.norm(rho))
    assert min(lows) > 0.5


# --- zone-first compressions ------------------------------------------------
# The reference route amplifies every action over the whole truncated space
# and then extracts the exact zone with a length mask.


def full_amplified_sum(pairs):
    """sum_i kron(op_i, a_i) over the whole truncated space, top layer
    included, summed in order."""
    total = None
    for op, a in pairs:
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        term = sp.kron(op.matrix, sp.csr_matrix(a), format="csr")
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
    ops = [free_action(F, i, x) for i, x in x_fam]
    full = full_amplified_sum(zip(ops, a_fam))
    assert len(seen) == 1
    assert_same_csr(seen[0], masked_compression(full, F, full.shape[0] // F.dim))


def test_noncb_zone_operators_are_the_compressions(monkeypatch):
    N = 4
    F = build_fock([z2_factor()] * N, 4)
    seen = norm_operands(monkeypatch)
    rep = cb_vs_bounded_probe(F, seed=2)["rep"]
    generator, column = seen
    full = full_amplified_sum(zip(rep.u_ops, rep.theta_units))
    assert_same_csr(generator, masked_compression(full, F, N + 1))
    mats = []
    for i in range(1, N + 1):
        m = np.zeros((N + 1, N + 1), dtype=complex)
        m[i, 0] = 1.0
        mats.append(m)
    full = full_amplified_sum(zip(rep.u_ops, mats))
    assert_same_csr(column, masked_compression(full, F, N + 1))


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
    # N=16, depth 4: the full generator has 983,569 rows, the zone 65,569
    F = build_fock([z2_factor()] * 16, 4)
    peak = traced_peak(lambda: cb_vs_bounded_probe(F, seed=1))
    assert peak <= 45 * 2 ** 20


def test_noncb_rep_construction_peak():
    # the stack is built from each action's live rows, never from the vstack
    # of the 16 full actions (925,712 rows, of which 810,000 are empty)
    F = build_fock([z2_factor()] * 16, 4)
    peak = traced_peak(lambda: NonCbRep(F))
    assert peak <= 28 * 2 ** 20


def test_noncb_stack_is_the_live_rows_of_the_full_vstack():
    F = build_fock([z2_factor()] * 5, 4)
    rep = NonCbRep(F)
    full = sp.vstack([op.matrix for op in rep.u_ops], format="csr")
    live = np.flatnonzero(np.diff(full.indptr))
    owner, word = np.divmod(live, F.dim)
    assert_same_csr(rep.stack, full[live])
    assert_same_csr(rep.stack_h, full[live].conj().T.tocsr())
    assert _same_array(rep.owner, owner)
    assert _same_array(rep.word, word)


# --- input checks -----------------------------------------------------------


@pytest.mark.parametrize("i", [-1, 2])
def test_free_action_rejects_a_factor_index_out_of_range(i):
    F = build_fock([z2_factor()] * 2, 3)
    with pytest.raises(StructuralError, match="out of range"):
        free_action(F, i, z2_symmetry())


def test_amplified_sum_rejects_coefficients_of_different_sizes():
    F = build_fock([z2_factor()] * 2, 3)
    ops = [free_action(F, i, z2_symmetry()) for i in range(2)]
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
