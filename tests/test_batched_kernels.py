"""The batched corpus trial kernels against their per-basis-element loop forms:
the pair defect of ``corep.is_corep``, ``multiplier_from_coefficient`` and
``vector_functional``; call-count guards that keep the kernels batched; and
the gates of the corep suite that must not pass vacuously."""

import numpy as np
import pytest

from qglab import convolution, suite
from qglab.builders import BUILTIN_NAMES, builtin_instance
from qglab.convolution import Functional, basis_functional, convolve
from qglab.corep import (
    CorepCheck,
    Corepresentation,
    cb_norm,
    coefficient,
    generator_of,
    is_corep,
    pi_of,
    random_invertible_corep,
)
from qglab.duality import (
    MultiplierData,
    build_dual,
    multiplier_from_coefficient,
)
from qglab.qgroup import adjoint, multiply, operator_norm

RTOL = 1e-13


def loop_basis_pair_defect(V):
    """max over basis pairs (i, j) of ||pi(e_i e_j) - pi(e_i) pi(e_j)||_F,
    one convolution and one pi per pair."""
    G = V.owner
    mats = [pi_of(V, basis_functional(G, i)) for i in range(G.dim)]
    worst = 0.0
    for i in range(G.dim):
        for j in range(G.dim):
            conv = convolve(basis_functional(G, i), basis_functional(G, j))
            worst = max(worst, float(np.linalg.norm(
                pi_of(V, conv) - mats[i] @ mats[j])))
    return worst


def loop_multiplier_from_coefficient(V, alpha, beta, basis=None):
    """multiplier_from_coefficient one basis element at a time: one expansion
    and one spectral norm per dual basis element, and sums of Kronecker
    products for the W-hat identity and the factorization operator."""
    G = V.owner
    dual = build_dual(G)
    gd = G.gns()
    d = V.d
    if basis is None:
        basis = np.eye(d, dtype=complex)
    Vt = generator_of("tilde", V)
    Vs = generator_of("star", V)
    x = coefficient(Vt, alpha, beta)
    a_els = [coefficient(Vt, alpha, basis[:, i]) for i in range(d)]
    c_els = [coefficient(Vs, basis[:, i], beta) for i in range(d)]
    a_mats = [gd.left_action(a) for a in a_els]
    c_mats = [gd.left_action(c) for c in c_els]
    lx = gd.left_action(x)
    n = G.dim
    LZ = [sum(c_mats[i] @ z @ a_mats[i] for i in range(d)) for z in dual.Z]
    Lmat = np.array([dual.expand_in_dual(m) for m in LZ])
    residual_action = 0.0
    for nu in range(n):
        what = basis_functional(dual.group, nu)
        lhs = dual.lambda_hat(Functional(what.owner, Lmat @ what.coeffs))
        rhs = lx @ dual.lambda_hat(what)
        residual_action = max(residual_action,
                              float(np.linalg.norm(lhs - rhs, 2)))
    lhs_w = sum(np.kron(m, y) for m, y in zip(LZ, dual.What_slices))
    rhs_w = np.kron(np.eye(n), lx) @ dual.What
    residual_w = float(np.linalg.norm(lhs_w - rhs_w, 2))
    sum_cc = sum((multiply(adjoint(c), c) for c in c_els), start=G.zero())
    sum_aa = sum((multiply(adjoint(a), a) for a in a_els), start=G.zero())
    norm_bound = np.sqrt(operator_norm(sum_cc)) * np.sqrt(operator_norm(sum_aa))
    fact = float(np.linalg.norm(
        sum(np.kron(c_mats[i], a_mats[i].T) for i in range(d)), 2))
    cb_bound = (cb_norm(V) * cb_norm(Vs)
                * float(np.linalg.norm(alpha)) * float(np.linalg.norm(beta)))
    return MultiplierData(Lmat, x, residual_action, residual_w, norm_bound,
                          fact, cb_bound)


def close(a, b):
    """|a - b| <= RTOL max(1, |b|): relative, floored at one so that values at
    roundoff level are compared on the scale of the identity they check."""
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_multiplier_matches_the_loop(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        V, _, _ = random_invertible_corep(G, d, seed=100 + d)
        alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
        Q, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
        for basis in (None, Q):
            got = multiplier_from_coefficient(V, alpha, beta, basis=basis)
            want = loop_multiplier_from_coefficient(V, alpha, beta, basis=basis)
            assert got.Lmat.shape == want.Lmat.shape == (G.dim, G.dim)
            assert (np.max(np.abs(got.Lmat - want.Lmat))
                    <= RTOL * max(1.0, np.max(np.abs(want.Lmat))))
            assert np.array_equal(got.x.coeffs, want.x.coeffs)
            for key in ("residual_action", "residual_w", "norm_bound",
                        "factorization_norm", "cb_bound"):
                assert close(getattr(got, key), getattr(want, key)), (d, key)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_pair_defect_matches_the_loop(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        V, _, _ = random_invertible_corep(G, d, seed=200 + d)
        bad = Corepresentation(
            G, V.tensor + 0.3 * _complex_normal(rng, V.tensor.shape))
        for W in (V, bad):
            assert close(is_corep(W).pair_defect, loop_basis_pair_defect(W))
        assert is_corep(bad).pair_defect > 1e-6


def test_vector_functional_matches_the_loop():
    dual = build_dual(builtin_instance("kac_paljutkin"))
    rng = np.random.default_rng(14)
    xi, eta = _complex_normal(rng, 8), _complex_normal(rng, 8)
    want = np.array([np.vdot(eta, z @ xi) for z in dual.Z])
    got = dual.vector_functional(xi, eta).coeffs
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _count_spectral_calls(monkeypatch, f, *args, **kw):
    """(np.linalg.svd calls, np.linalg.norm calls with ord 2 or -2) made by
    f(*args, **kw) through the public numpy attributes."""
    svd, norm = np.linalg.svd, np.linalg.norm
    counts = {"svd": 0, "norm": 0}

    def counting_svd(*a, **k):
        counts["svd"] += 1
        return svd(*a, **k)

    def counting_norm(x, ord=None, *a, **k):
        if ord in (2, -2):
            counts["norm"] += 1
        return norm(x, ord, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting_svd)
        m.setattr(np.linalg, "norm", counting_norm)
        f(*args, **kw)
    return counts["svd"], counts["norm"]


def test_multiplier_spectral_calls_do_not_grow_with_n(monkeypatch):
    counts = []
    for name in ("c_z2", "kac_paljutkin"):
        G = builtin_instance(name)
        V, _, _ = random_invertible_corep(G, 2, seed=3)
        alpha, beta = np.array([1.0, 2j]), np.array([0.5, -1.0])
        multiplier_from_coefficient(V, alpha, beta)        # warm the dual
        counts.append(_count_spectral_calls(
            monkeypatch, multiplier_from_coefficient, V, alpha, beta))
    assert counts[0] == counts[1]
    # one batched SVD for the action; W-hat identity, factorization, two
    # C*-norms and two cb norms
    assert counts[0] == (1, 6)


def test_pair_defect_makes_no_convolutions(monkeypatch):
    G = builtin_instance("kac_paljutkin")
    V, _, _ = random_invertible_corep(G, 4, seed=5)
    calls = []

    def counting_convolve(*a):
        calls.append(a)
        return convolve(*a)

    monkeypatch.setattr(convolution, "convolve", counting_convolve)
    assert is_corep(V).pair_defect < 1e-9
    assert calls == []


def _corep_records(cfg):
    report = suite.SuiteReport(cfg)
    suite.run_corep(cfg, report)
    return {r.name: r for r in report.records}


def _corep_cfg(**tol):
    return suite.SuiteConfig(instances=[("c_z2", builtin_instance("c_z2"))],
                             suites=("corep",), seed=1, trials=3, tol=tol)


def test_isometry_gate_uses_the_configured_tolerance():
    recs = _corep_records(_corep_cfg())
    assert recs["corep/c_z2/isometry-unitary"].passed
    # no unitary corep has V*V - 1 below 1e-300: no trial reaches the check
    rec = _corep_records(_corep_cfg(isometry=1e-300))["corep/c_z2/isometry-unitary"]
    assert rec.value == 0.0 and not rec.passed


def test_dichotomy_that_sees_no_broken_tensor_fails(monkeypatch):
    monkeypatch.setattr(suite, "is_corep", lambda V: CorepCheck(True, 0.0, 0.0, 0.0))
    recs = _corep_records(_corep_cfg())
    assert recs["corep/c_z2/multiplicativity"].passed
    assert not recs["corep/c_z2/dichotomy"].passed


def test_recorder_fails_a_check_no_trial_reached():
    report = suite.SuiteReport(_corep_cfg())
    rec = suite._Recorder(report, "p", "")
    rec.note("seen", 0.25, 0.5)
    rec.note("seen", 0.0)
    rec.check("seen", "", 1.0)
    rec.check("unseen", "", 1.0)
    rec.check("plain", "", 1.0, 0.0)
    assert [r.passed for r in report.records] == [True, False, True]
    assert [r.value for r in report.records] == [0.5, 0.0, 0.0]
