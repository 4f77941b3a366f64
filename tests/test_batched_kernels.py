"""The batched corpus trial kernels against their per-basis-element loop forms:
the pair defect of ``corep.is_corep``, ``multiplier_from_coefficient`` and
``vector_functional``; stacks of corepresentations against each of their
corepresentations alone, and the stacked suites against a per-trial loop;
call-count guards that keep the kernels batched; the gates of the corep
suite that must not pass vacuously; and the suites' trial draws, made once
per run and shared by its instances."""

import numpy as np
import pytest

from qglab import convolution, suite
from qglab.builders import (
    BUILTIN_NAMES,
    builtin_instance,
    from_group_algebra,
    symmetric_table,
)
from qglab.catalog import unitary_corepresentation
from qglab.convolution import (
    Functional,
    convolve,
    sharp,
    star_l1,
)
from qglab.corep import (
    CorepCheck,
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
    diagonal_matrices,
    essential_data,
    inverse_corep,
    is_corep,
    pi_check,
    pi_of,
    random_invertible_corep,
    similarity_draw,
    trivial_corep,
    unitarity_defects,
    unitarize,
    zero_corep,
)
from qglab.duality import (
    MultiplierData,
    build_dual,
    multiplier_from_coefficient,
    pairing_identity_check,
)
from qglab.qgroup import (SpanningFamily, adjoint, multiply, operator_norm,
                          singular_extremes)
from test_duality import _dense_w_hat

RTOL = 1e-13


def loop_basis_pair_defect(V):
    """max over basis pairs (i, j) of ||pi(e_i e_j) - pi(e_i) pi(e_j)||_F,
    one convolution and one pi per pair."""
    G = V.owner
    basis = [Functional(G, e) for e in np.eye(G.dim)]
    mats = [pi_of(V, w) for w in basis]
    worst = 0.0
    for i in range(G.dim):
        for j in range(G.dim):
            conv = convolve(basis[i], basis[j])
            worst = max(worst, float(np.linalg.norm(
                pi_of(V, conv) - mats[i] @ mats[j])))
    return worst


def loop_multiplier_from_coefficient(V, alpha, beta, basis=None):
    """multiplier_from_coefficient one basis element at a time: one
    least-squares expansion and one spectral norm per dual basis element,
    and sums of Kronecker products for the W-hat identity (its Frobenius
    norm, against the dense W-hat) and the dense factorization operator on
    H_h (x) H_h (its spectral norm).  Returns the multiplier and the
    coefficient x."""
    G = V.owner
    dual = build_dual(G)
    gd = G.gns()
    d = V.d
    if basis is None:
        basis = np.eye(d, dtype=complex)
    Vt = corep_adjoint(V)
    Vs = corep_adjoint(antipode_slice(V))
    x = coefficient(Vt, alpha, beta)
    a_els = [coefficient(Vt, alpha, basis[:, i]) for i in range(d)]
    c_els = [coefficient(Vs, basis[:, i], beta) for i in range(d)]
    a_mats = [gd.left_action(a) for a in a_els]
    c_mats = [gd.left_action(c) for c in c_els]
    lx = gd.left_action(x)
    n = G.dim
    LZ = [sum(c_mats[i] @ z @ a_mats[i] for i in range(d)) for z in dual.Z]
    # the least-squares expansion in the dual's slices, as an oracle for the
    # closed form
    span = SpanningFamily(dual.Z)
    Lmat = np.array([span.expand_within(m, 1e-7, "not in the dual algebra")[0]
                     for m in LZ])
    residual_action = 0.0
    for nu in range(n):
        what = Functional(dual.group, np.eye(dual.group.dim)[nu])
        lhs = dual.lambda_hat(Functional(what.owner, Lmat @ what.coeffs))
        rhs = lx @ dual.lambda_hat(what)
        residual_action = max(residual_action,
                              float(np.linalg.norm(lhs - rhs, 2)))
    lhs_w = sum(np.kron(m, y) for m, y in zip(LZ, dual.What_slices))
    rhs_w = np.kron(np.eye(n), lx) @ _dense_w_hat(dual)
    residual_w = float(np.linalg.norm(lhs_w - rhs_w))
    sum_cc = sum((multiply(adjoint(c), c) for c in c_els), start=G.element(np.zeros(G.dim)))
    sum_aa = sum((multiply(adjoint(a), a) for a in a_els), start=G.element(np.zeros(G.dim)))
    norm_bound = np.sqrt(operator_norm(sum_cc)) * np.sqrt(operator_norm(sum_aa))
    fact = float(np.linalg.norm(
        sum(np.kron(c_mats[i], a_mats[i].T) for i in range(d)), 2))
    cb_bound = (cb_norm(V) * cb_norm(Vs)
                * float(np.linalg.norm(alpha)) * float(np.linalg.norm(beta)))
    return MultiplierData(Lmat, residual_action, residual_w, norm_bound, fact,
                          cb_bound), x


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
        V, _ = random_invertible_corep(G, similarity_draw(d, 100 + d))
        alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
        Q, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
        for basis in (None, Q):
            got = multiplier_from_coefficient(V, alpha, beta, basis=basis)
            want, want_x = loop_multiplier_from_coefficient(V, alpha, beta,
                                                            basis=basis)
            assert got.Lmat.shape == want.Lmat.shape == (G.dim, G.dim)
            assert (np.max(np.abs(got.Lmat - want.Lmat))
                    <= RTOL * max(1.0, np.max(np.abs(want.Lmat))))
            assert np.array_equal(coefficient(corep_adjoint(V), alpha, beta).coeffs,
                                  want_x.coeffs)
            for key in ("residual_action", "residual_w", "norm_bound",
                        "factorization_norm", "cb_bound"):
                assert close(getattr(got, key), getattr(want, key)), (d, key)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_pair_defect_matches_the_loop(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        V, _ = random_invertible_corep(G, similarity_draw(d, 200 + d))
        bad = Corepresentation(
            G, V.tensor + 0.3 * _complex_normal(rng, V.tensor.shape))
        for W in (V, bad):
            assert close(is_corep(W).pair_defect, loop_basis_pair_defect(W))
        assert is_corep(bad).pair_defect > 1e-6


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kac_paljutkin"])
def test_corep_product_matches_the_three_operand_einsum(name):
    # stacks of equal shape, a lone corep against a stack (both ways round),
    # and stack axes that broadcast against each other
    G = builtin_instance(name)
    rng = np.random.default_rng(15)
    shapes = [((), ()), ((5,), (5,)), ((), (4,)), ((4,), ()), ((3, 1), (1, 2))]
    for d in (1, 2, 3, 4):
        for sx, sy in shapes:
            X = _complex_normal(rng, sx + (d, d, G.dim))
            Y = _complex_normal(rng, sy + (d, d, G.dim))
            want = np.einsum("...ikp,...kjq,pqm->...ijm", X, Y, G.mult)
            got = corep_product(Corepresentation(G, X), Corepresentation(G, Y)).tensor
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def test_vector_functional_matches_the_loop():
    dual = build_dual(builtin_instance("kac_paljutkin"))
    rng = np.random.default_rng(14)
    xi, eta = _complex_normal(rng, 8), _complex_normal(rng, 8)
    want = np.array([np.vdot(eta, z @ xi) for z in dual.Z])
    got = dual.vector_functional(xi, eta).coeffs
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _spectral_calls(monkeypatch, f, *args, **kw):
    """{"svd": [...], "norm": [...]}: the width of the matrices of each
    np.linalg.svd call, and of each np.linalg.norm call with ord 2 or -2,
    made by f(*args, **kw) through the public numpy attributes."""
    svd, norm = np.linalg.svd, np.linalg.norm
    widths = {"svd": [], "norm": []}

    def counting_svd(x, *a, **k):
        widths["svd"].append(np.shape(x)[-1])
        return svd(x, *a, **k)

    def counting_norm(x, ord=None, *a, **k):
        if ord in (2, -2):
            widths["norm"].append(np.shape(x)[-1])
        return norm(x, ord, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting_svd)
        m.setattr(np.linalg, "norm", counting_norm)
        f(*args, **kw)
    return widths


def _count_spectral_calls(monkeypatch, f, *args, **kw):
    """(np.linalg.svd calls, np.linalg.norm calls with ord 2 or -2) made by
    f(*args, **kw)."""
    widths = _spectral_calls(monkeypatch, f, *args, **kw)
    return len(widths["svd"]), len(widths["norm"])


def test_multiplier_spectral_calls_do_not_grow_with_n(monkeypatch):
    counts = []
    for name in ("c_z2", "kac_paljutkin"):
        G = builtin_instance(name)
        V, _ = random_invertible_corep(G, similarity_draw(2, 3))
        alpha, beta = np.array([1.0, 2j]), np.array([0.5, -1.0])
        multiplier_from_coefficient(V, alpha, beta)        # warm the dual
        counts.append(_count_spectral_calls(
            monkeypatch, multiplier_from_coefficient, V, alpha, beta))
    assert counts[0] == counts[1]
    # one batched SVD each for the action, the factorization norm, two
    # C*-norms and two cb norms, over the blocks however many there are; the
    # W-hat identity is a Frobenius norm
    assert counts[0] == (6, 0)


def test_s4_multiplier_makes_no_svd_wider_than_n(monkeypatch):
    # C[S4], n = 24, blocks [1, 1, 2, 3, 3]: the factorization operator
    # on H_h (x) H_h is 576 wide, its blocks at most 9; the cb norms of
    # d = 2 coreps read blocks at most 6 wide where the dense image is 48
    G = from_group_algebra(symmetric_table(4))
    V, _ = random_invertible_corep(G, similarity_draw(2, [31, 32]))
    alpha = np.array([[1.0, 2j], [0.5, -1.0]])
    beta = np.array([[0.5, -1.0], [1j, 1.0]])
    multiplier_from_coefficient(V, alpha, beta)        # warm the dual
    widths = _spectral_calls(monkeypatch, multiplier_from_coefficient, V, alpha, beta)
    assert len(widths["svd"]) == 6 and widths["norm"] == []
    assert max(widths["svd"]) <= G.dim


def test_pair_defect_makes_no_convolutions(monkeypatch):
    G = builtin_instance("kac_paljutkin")
    V, _ = random_invertible_corep(G, similarity_draw(4, 5))
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


def _passing_check(V):
    """A CorepCheck that passes every corepresentation of the stack V."""
    zeros = np.zeros(V.tensor.shape[:-3])
    return CorepCheck(zeros == 0.0, zeros, zeros)


def test_dichotomy_that_sees_no_broken_tensor_fails(monkeypatch):
    monkeypatch.setattr(suite, "is_corep", _passing_check)
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


def test_a_nan_anywhere_in_a_noted_stack_fails_its_check():
    report = suite.SuiteReport(_corep_cfg())
    rec = suite._Recorder(report, "p", "")
    rec.note("upper", np.array([0.0, np.nan, 0.5]), 0.25)
    rec.note("lower", np.array([1.0, 2.0]))
    rec.note("lower", np.array([[3.0], [np.nan]]))
    rec.note("clean", np.array([0.25, 0.5]), np.array([[0.125]]))
    rec.note("empty", np.array([]))
    rec.check("upper", "", 1.0)
    rec.lower("lower", "", 0.0, 1.0)
    rec.check("clean", "", 1.0)
    rec.check("empty", "", 1.0)
    assert [r.passed for r in report.records] == [False, False, True, False]
    assert np.isnan(report.records[0].value) and np.isnan(report.records[1].value)
    assert [r.value for r in report.records[2:]] == [0.5, 0.0]


# ---------------------------------------------------------------------------
# Stacks against each of their corepresentations alone, bit for bit


def _alone(V, k):
    return Corepresentation(V.owner, V.tensor[k])


def _assert_each(stacked, alone):
    """stacked[k] equals alone(k), bit for bit, for every k of the stack."""
    for k in range(len(stacked)):
        assert np.array_equal(stacked[k], alone(k), equal_nan=True), k


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stacked_draws_are_the_single_draws(name):
    G = builtin_instance(name)
    for d in (1, 2, 3, 4):
        seeds = np.arange(4).reshape(2, 2) + 300 + 10 * d
        draw = similarity_draw(d, seeds)
        V, V0 = random_invertible_corep(G, draw)
        assert V.tensor.shape == (2, 2, d, d, G.dim) and draw.T.shape == (2, 2, d, d)
        for at, seed in np.ndenumerate(seeds):
            one = similarity_draw(d, int(seed))
            V1, V01 = random_invertible_corep(G, one)
            assert np.array_equal(V.tensor[at], V1.tensor)
            assert np.array_equal(draw.T[at], one.T)
            assert np.array_equal(draw.Tinv[at], one.Tinv)
            assert np.array_equal(V0.tensor[at], V01.tensor)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_one_generator_per_trial_draws_what_two_did(name):
    # T drawn from a fresh generator of the trial's seed and V0 from another
    # one: the draws of the time when each trial seeded two generators
    G = builtin_instance(name)
    smin = 0.1
    for d in (1, 2, 3, 4):
        seeds = np.arange(20) + 700 + 20 * d
        draw = similarity_draw(d, seeds)
        _, V0 = random_invertible_corep(G, draw)
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(int(seed))
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            svals = smin + (1.0 - smin) * rng.random(d)
            svals[0] = 1.0
            if d > 1:
                svals[-1] = smin
            U, _, Vh = np.linalg.svd(A)
            assert np.array_equal(draw.T[k], U @ diagonal_matrices(svals) @ Vh)
            uniforms = np.random.default_rng(int(seed)).random(d)
            assert np.array_equal(V0.tensor[k],
                                  unitary_corepresentation(G, uniforms).tensor)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stacked_corep_kernels_match_each_corep_alone(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(15)
    for d in (1, 2, 3, 4):
        draw = similarity_draw(d, [400 + 10 * d + k for k in range(3)])
        V, V0 = random_invertible_corep(G, draw)
        bad = Corepresentation(G, V.tensor + 0.3 * _complex_normal(rng, V.tensor.shape))
        for W in (V, bad):
            got = is_corep(W)
            for key in ("is_corep", "violation", "pair_defect"):
                _assert_each(getattr(got, key),
                             lambda k: getattr(is_corep(_alone(W, k)), key))
        for b, block in enumerate(V.blocks()):
            _assert_each(block, lambda k: _alone(V, k).blocks()[b])
        _assert_each(unitarity_defects(V).T, lambda k: unitarity_defects(_alone(V, k)))
        Vs = corep_adjoint(antipode_slice(V))
        _assert_each(corep_product(V, Vs).tensor,
                     lambda k: corep_product(_alone(V, k), _alone(Vs, k)).tensor)
        Vi, residual = inverse_corep(V)
        _assert_each(Vi.tensor, lambda k: inverse_corep(_alone(V, k))[0].tensor)
        _assert_each(residual, lambda k: inverse_corep(_alone(V, k))[1])
        T, Vp, smin = unitarize(V)
        _assert_each(T, lambda k: unitarize(_alone(V, k))[0])
        _assert_each(Vp.tensor, lambda k: unitarize(_alone(V, k))[1].tensor)
        _assert_each(smin, lambda k: unitarize(_alone(V, k))[2])
        _assert_each(cb_norm(V), lambda k: cb_norm(_alone(V, k)))
        # a degenerate stack: the essential part has dimension d of d + 1
        U, _, Vh = np.linalg.svd(_complex_normal(rng, (3, d + 1, d + 1)))
        Tw = U @ (np.linspace(0.3, 1.0, d + 1) * Vh)
        Vdeg = conjugate_corep(corep_direct_sum(V0, zero_corep(G, 1)), Tw,
                               np.linalg.inv(Tw))
        ed = essential_data(Vdeg)
        assert np.array_equal(ed.dimension, [d] * 3)
        for key in ("dimension", "idempotent_violation", "commute_violation", "Q"):
            _assert_each(getattr(ed, key),
                         lambda k: getattr(essential_data(_alone(Vdeg, k)), key))
        _assert_each(corep_product(Vdeg, antipode_slice(Vdeg)).tensor,
                     lambda k: corep_product(_alone(Vdeg, k),
                                             antipode_slice(_alone(Vdeg, k))).tensor)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stacked_multiplier_matches_each_corep_alone(name):
    G = builtin_instance(name)
    rng = np.random.default_rng(16)
    fields = ("Lmat", "residual_action", "residual_w", "norm_bound",
              "factorization_norm", "cb_bound")
    for d in (1, 2, 3, 4):
        draw = similarity_draw(d, [500 + 10 * d + k for k in range(3)])
        V, _ = random_invertible_corep(G, draw)
        alpha, beta = _complex_normal(rng, (3, d)), _complex_normal(rng, (3, d))
        frames, _ = np.linalg.qr(_complex_normal(rng, (3, d, d)))
        for basis in (None, frames):
            got = multiplier_from_coefficient(V, alpha, beta, basis=basis)

            def alone(k):
                return multiplier_from_coefficient(
                    _alone(V, k), alpha[k], beta[k],
                    basis=None if basis is None else basis[k])

            for key in fields:
                _assert_each(getattr(got, key), lambda k: getattr(alone(k), key))
            _assert_each(coefficient(corep_adjoint(V), alpha, beta).coeffs,
                         lambda k: coefficient(corep_adjoint(_alone(V, k)),
                                               alpha[k], beta[k]).coeffs)
    x, w1, w2 = _complex_normal(rng, (3, 4, G.dim))
    got = pairing_identity_check(G, G.element(x), Functional(G, w1), Functional(G, w2))
    _assert_each(got, lambda k: pairing_identity_check(
        G, G.element(x[k]), Functional(G, w1[k]), Functional(G, w2[k])))


# ---------------------------------------------------------------------------
# The stacked suites against a per-trial loop


def _per_trial_values(cfg):
    """The values of the corep, unitarize and multiplier records from one
    random corep, one call of each kernel and one draw at a time, in the
    order of the trials: the loop that the suites stack."""
    noted, lowest = {}, {"positivity-floor"}

    def note(prefix, name, *values):
        noted.setdefault("%s/%s" % (prefix, name), []).extend(values)

    def spectral(*mats):
        return np.linalg.svd(np.stack(mats), compute_uv=False)[:, 0]

    def functional(G, rng):
        return Functional(G, _complex_normal(rng, G.dim))

    for label, G in cfg.instances:
        prefix = "corep/" + label
        rng = np.random.default_rng(cfg.seed)
        dims = [int(rng.integers(0, 4)) + 1 for _ in range(cfg.trials)]
        for trial, d in enumerate(dims):
            draw = similarity_draw(d, cfg.seed * 1000 + trial)
            V, V0 = random_invertible_corep(G, draw)
            chk = is_corep(V)
            note(prefix, "multiplicativity", chk.violation, chk.pair_defect)
            w = functional(G, rng)
            gen_diff = (pi_of(corep_adjoint(V), w)
                        - pi_of(V, star_l1(w)).conj().T)
            alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
            note(prefix, "antipode-coefficient", antipode_coeff_check(V, alpha, beta))
            Vi, _ = inverse_corep(V)
            one = trivial_corep(G, d)
            note(prefix, "inverse", corep_distance(corep_product(Vi, V), one),
                 corep_distance(corep_product(V, Vi), one))
            w1, w2 = functional(G, rng), functional(G, rng)
            anti_diff = (pi_check(V, convolve(w1, w2))
                         - pi_check(V, w2) @ pi_check(V, w1))
            gen_norm, anti_norm = spectral(gen_diff, anti_diff)
            note(prefix, "generators", gen_norm)
            note(prefix, "anti-homomorphism", anti_norm)
            iso, unit = unitarity_defects(V0)
            if iso <= cfg.tolerance("isometry"):
                note(prefix, "isometry-unitary", unit)
            if trial % 5 == 0:
                Uq, _, Vq = np.linalg.svd(_complex_normal(rng, (d + 1, d + 1)))
                Tw = Uq @ np.diag(0.2 + 0.8 * rng.random(d + 1)) @ Vq
                Vtw = conjugate_corep(corep_direct_sum(V0, zero_corep(G, 1)), Tw,
                                      np.linalg.inv(Tw))
                ed = essential_data(Vtw)
                piw = np.moveaxis(Vtw.tensor, 2, 0)
                note(prefix, "degenerate", ed.idempotent_violation,
                     ed.commute_violation, abs(ed.dimension - d),
                     np.max(np.linalg.norm(piw @ ed.Q - piw, axis=(1, 2))))
            if trial % 7 == 0:
                bad = Corepresentation(
                    G, V.tensor + 0.3 * _complex_normal(rng, V.tensor.shape))
                chk = is_corep(bad)
                if not chk.is_corep:
                    note(prefix, "dichotomy", 0.0 if chk.pair_defect > 1e-6 else 1.0)
        prefix = "unitarize/" + label
        rng = np.random.default_rng(cfg.seed + 1)
        dims = [int(rng.integers(0, 4)) + 1 for _ in range(cfg.trials)]
        for trial, d in enumerate(dims):
            draw = similarity_draw(d, cfg.seed * 2000 + trial)
            V, _ = random_invertible_corep(G, draw)
            T, Vp, _ = unitarize(V)
            note(prefix, "unitary", *unitarity_defects(Vp))
            note(prefix, "corep", is_corep(Vp).violation)
            w = functional(G, rng)
            note(prefix, "star-property", np.linalg.norm(
                pi_of(Vp, sharp(w)) - pi_of(Vp, w).conj().T, 2))
            note(prefix, "positivity-floor", float(np.min(np.linalg.eigvalsh(T)))
                 - float(singular_extremes(V.blocks())[1]) ** 2)
        prefix = "multiplier/" + label
        rng = np.random.default_rng(cfg.seed + 2)
        dims = [int(rng.integers(0, 4)) + 1 for _ in range(cfg.trials)]
        for trial, d in enumerate(dims):
            draw = similarity_draw(d, cfg.seed * 3000 + trial)
            V, _ = random_invertible_corep(G, draw)
            alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
            md = multiplier_from_coefficient(V, alpha, beta)
            note(prefix, "action", md.residual_action)
            note(prefix, "w-identity", md.residual_w)
            note(prefix, "norm-bound", md.norm_bound - md.cb_bound)
            note(prefix, "factorization", md.factorization_norm - md.cb_bound)
            if trial % 10 == 0:
                Q, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
                md2 = multiplier_from_coefficient(V, alpha, beta, basis=Q)
                note(prefix, "basis-independence", np.max(np.abs(md.Lmat - md2.Lmat)))
        for _ in range(2 * cfg.trials):
            x = G.element(_complex_normal(rng, G.dim))
            w1, w2 = functional(G, rng), functional(G, rng)
            note(prefix, "pairing", pairing_identity_check(G, x, w1, w2))
    return {name: float((min if name.split("/")[-1] in lowest else max)(values))
            for name, values in noted.items()}


def test_stacked_suites_equal_the_per_trial_loop():
    # trials=11 reaches the trial % 5, % 7 and % 10 draws twice each
    cfg = suite.SuiteConfig(
        instances=[(n, builtin_instance(n)) for n in ("c_s3", "kac_paljutkin")],
        suites=("corep", "unitarize", "multiplier"), seed=2, trials=11)
    report = suite.run_suite(cfg)
    want = _per_trial_values(cfg)
    got = {r.name: r.value for r in report.records}
    assert len(got) == 2 * 18 == len(want)
    assert got == want
    assert report.passed


def _records_without_runtime(instances):
    cfg = suite.SuiteConfig(instances=instances, seed=3, trials=7,
                            suites=("corep", "unitarize", "multiplier"))
    out = []
    for r in suite.run_suite(cfg).records:
        rec = r.to_dict()
        del rec["runtime_ms"]
        out.append(rec)
    return out


def test_an_instance_records_do_not_depend_on_the_other_instances():
    # the suites draw the seed-only half of their coreps once for all
    # instances; each instance must still see the draws it sees alone
    names = ("c_s3", "kac_paljutkin", "cg_z3")
    together = _records_without_runtime([(n, builtin_instance(n)) for n in names])
    alone = [rec for n in names
             for rec in _records_without_runtime([(n, builtin_instance(n))])]
    assert len(together) == 3 * 18
    assert sorted(together, key=lambda r: r["name"]) == \
        sorted(alone, key=lambda r: r["name"])


def test_each_suite_draws_its_trials_once_per_run(monkeypatch):
    seeds = []

    def counting_rng(*a):
        seeds.extend(a)
        return np.random.Generator(np.random.PCG64(*a))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    trials, seed = 6, 2
    cfg = suite.SuiteConfig(
        instances=[(n, builtin_instance(n)) for n in ("c_s3", "kac_paljutkin", "cg_z3")],
        suites=("corep", "unitarize", "multiplier"), seed=seed, trials=trials)
    # the similarity draws' seeds, cfg.seed * salt + trial, of the three suites
    drawn = {seed * salt + t for salt in (1000, 2000, 3000) for t in range(trials)}
    for run in (1, 2):
        suite.run_suite(cfg)
        counts = {s: seeds.count(s) for s in drawn}
        # one generator per trial and suite, however many instances; and a
        # second run makes them again, since no draw outlives a runner call
        assert counts == dict.fromkeys(drawn, run)
